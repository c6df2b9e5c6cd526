"""Fuzzing the two file readers the CLI exposes.

On any input bytes `read_pgm16` returns an image or raises PgmFormatError,
and `read_calibration` returns a calibration or raises CalibrationError;
nothing else escapes. Inputs are arbitrary bytes and valid files with
random byte replacements, insertions, deletions and truncations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotstego.imageio import PgmFormatError, read_pgm16, write_pgm16
from shotstego.statcheck import (
    Calibration,
    CalibrationError,
    read_calibration,
    write_calibration,
)

VALID_PGM = b"P5\n3 2\n65535\n" + bytes(range(12))

VALID_CALIBRATION = write_calibration(Calibration(
    scene_desc="8x8 mean_lambda=100", n_runs=4, bin_width=1,
    reference_counts=np.bincount([99, 100, 100, 101], minlength=65536),
    kl_null=np.array([0.1, 0.2, 0.3, 0.4]),
    chi2_logp_null=np.array([1.0, 2.0, 0.5, 0.7]),
    autocorr_max_null=np.array([0.01, 0.02]),
    normdev_dev_null=np.array([0.03, 0.04])))


@st.composite
def edited(draw, data: bytes) -> bytes:
    """data after one to four random byte edits or truncations."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        i = draw(st.integers(0, max(len(buf) - 1, 0)))
        if op == "replace" and buf:
            buf[i] = draw(st.integers(0, 255))
        elif op == "insert":
            buf.insert(i, draw(st.sampled_from(b"0123456789 \n:.-+e")
                               | st.integers(0, 255)))
        elif op == "delete":
            del buf[i:i + 1]
        else:
            del buf[i:]
    return bytes(buf)


def pgm_bytes():
    return st.binary(max_size=64) | edited(VALID_PGM)


def calibration_bytes():
    return st.binary(max_size=256) | edited(VALID_CALIBRATION)


@settings(max_examples=500, deadline=None)
@given(pgm_bytes())
def test_read_pgm16_returns_canonical_image_or_raises_format_error(data):
    try:
        img = read_pgm16(data)
    except PgmFormatError:
        return
    assert img.pixels.dtype == np.uint16
    assert img.pixels.shape == (img.height, img.width)
    assert write_pgm16(img) == data  # only the canonical form is accepted


@settings(max_examples=500, deadline=None)
@given(calibration_bytes())
def test_read_calibration_returns_valid_calibration_or_raises(data):
    try:
        cal = read_calibration(data)
    except CalibrationError:
        return
    assert cal.bin_width >= 1
    assert len(cal.reference_counts) == -(-65536 // cal.bin_width)
    assert (cal.reference_counts >= 0).all()
    fields = dict(line.partition(" ")[::2] for line in data.decode().splitlines())
    assert int(fields["reference_total"]) == int(cal.reference_counts.sum())
    for null, size in ((cal.kl_null, cal.n_runs), (cal.chi2_logp_null, cal.n_runs),
                       (cal.autocorr_max_null, cal.n_runs // 2),
                       (cal.normdev_dev_null, cal.n_runs // 2)):
        assert null.size == size >= 1
        assert np.isfinite(null).all()
    again = read_calibration(write_calibration(cal))
    assert (again.n_runs, again.bin_width) == (cal.n_runs, cal.bin_width)
    assert np.array_equal(again.reference_counts, cal.reference_counts)


@pytest.mark.parametrize("header", [b"P5\n03 2\n65535\n", b"P5\n3 2\n065535\n",
                                    b"P5\n" + b"9" * 5000 + b" 2\n65535\n"],
                         ids=["leading-zero", "leading-zero-maxval", "5000-digits"])
def test_read_pgm16_rejects_non_canonical_and_overlong_numbers(header):
    with pytest.raises(PgmFormatError, match="malformed header"):
        read_pgm16(header + bytes(12))
