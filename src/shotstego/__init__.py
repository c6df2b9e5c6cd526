"""shotstego: hiding messages in the photon shot noise of photographs.

Two captures of a static scene differ only by quantum noise. Building a
published image by choosing, per pixel, between the pre-shared key capture
and a discarded cover capture encodes one bit per pixel while leaving the
image statistically identical to an ordinary photograph. This package
provides the camera simulator, the message codec, the embedding protocol,
and the steganalysis battery that verifies (or breaks) the hiding.
"""

from .camera import SceneRadiance, SensorConfig, capture, capture_pair, make_scene
from .codec import CodecError, DecodeError
from .imageio import PgmFormatError, RawImage, read_pgm16, write_pgm16, write_report
from .pipeline import embed_message, extract_message
from .statcheck import (
    AnalysisReport,
    Calibration,
    CalibrationError,
    build_calibration,
    read_calibration,
    ward_test,
    write_calibration,
)

__version__ = "0.1.0"

# What a user calls; everything else stays importable from its module.
__all__ = [
    "embed_message", "extract_message",
    "SceneRadiance", "SensorConfig", "make_scene", "capture", "capture_pair",
    "RawImage", "read_pgm16", "write_pgm16", "write_report",
    "Calibration", "AnalysisReport", "build_calibration", "ward_test",
    "read_calibration", "write_calibration",
    "CodecError", "DecodeError", "PgmFormatError", "CalibrationError",
]
