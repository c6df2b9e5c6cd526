"""Bit-exact 16-bit grayscale image I/O and analysis report serialization.

Images travel as binary PGM (P5) with maxval 65535 and big-endian samples.
The header is canonical: "P5\\n<width> <height>\\n65535\\n" with single
separators, so write(read(x)) == x and read(write(img)) == img hold exactly.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

PGM_MAXVAL = 65535
# Header numbers are canonical decimals (no leading zero, at most 18 digits),
# so the accepted header is exactly the one write_pgm16 gives back.
_NUMBER = rb"(0|[1-9][0-9]{0,17})"
_HEADER_RE = re.compile(rb"^P5\n" + _NUMBER + rb" " + _NUMBER + rb"\n" + _NUMBER + rb"\n")


class PgmFormatError(ValueError):
    """Input bytes are not a canonical 16-bit binary PGM."""


@dataclass(eq=False)
class RawImage:
    """2-D array of non-negative integer photon counts.

    pixels is row-major uint16 of shape (height, width); every value fits
    the 16-bit depth by construction.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.width, self.height = operator.index(self.width), operator.index(self.height)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        px = np.asarray(self.pixels)
        if px.shape != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {px.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if px.dtype != np.uint16:
            with np.errstate(invalid="ignore"):  # NaN and inf are refused below
                converted = px.astype(np.uint16)
            # a value the cast wraps, truncates or makes up does not survive it
            if not np.array_equal(converted, px):
                raise ValueError("pixel values must be integers in [0, 65535]")
            px = converted
        self.pixels = px

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RawImage)
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


def check_same_dims(a: RawImage, b: RawImage) -> None:
    """Raise ValueError unless the two images have the same width and
    height; every statistic or exchange over a pair of images needs this."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("image dimensions do not match")


def read_pgm16(data: bytes) -> RawImage:
    """Decode a canonical binary PGM (P5, maxval 65535, big-endian samples).

    Errors are reported distinctly: malformed header, unsupported bit depth
    (maxval != 65535), truncated or oversized pixel data.
    """
    m = _HEADER_RE.match(data)
    if m is None:
        raise PgmFormatError("malformed header: expected 'P5\\n<w> <h>\\n<maxval>\\n'")
    width, height, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != PGM_MAXVAL:
        raise PgmFormatError(f"unsupported bit depth: maxval {maxval}, expected 65535")
    if width < 1 or height < 1:
        raise PgmFormatError("malformed header: zero image dimension")
    body = data[m.end():]
    expected = width * height * 2
    if len(body) < expected:
        raise PgmFormatError(
            f"truncated pixel data: expected {expected} bytes, got {len(body)}"
        )
    if len(body) > expected:
        raise PgmFormatError(f"trailing data after {expected} pixel bytes")
    pixels = np.frombuffer(body, dtype=">u2").astype(np.uint16).reshape(height, width)
    return RawImage(width=width, height=height, pixels=pixels)


def write_pgm16(img: RawImage) -> bytes:
    """Encode to the canonical PGM form; total on valid input."""
    header = f"P5\n{img.width} {img.height}\n{PGM_MAXVAL}\n".encode("ascii")
    return header + img.pixels.astype(">u2").tobytes()


# ---------------------------------------------------------------------------
# Report document
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    return f"{float(x):.9g}"


# Canonical field order; serialization never depends on construction order.
_REPORT_FIELDS = ("kl_bits", "autocorr", "norm_dev", "chi2_pvalue", "verdict", "sample_sizes")


def write_report(report) -> bytes:
    """Serialize an AnalysisReport to deterministic UTF-8 text.

    Key/value lines in canonical field order, floats at 9 significant
    digits, LF endings. Identical reports produce identical bytes on any
    platform.
    """
    lines = ["shotstego-report v1"]
    for name in _REPORT_FIELDS:
        value = getattr(report, name)
        if name == "autocorr":
            body = ",".join(_fmt_float(v) for v in value)
        elif name == "sample_sizes":
            body = ",".join(f"{k}={int(v)}" for k, v in sorted(value.items()))
        elif name == "verdict":
            body = str(value)
        else:
            body = _fmt_float(value)
        lines.append(f"{name} {body}")
    return ("\n".join(lines) + "\n").encode("utf-8")
