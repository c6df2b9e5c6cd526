import numpy as np
import pytest

from shotstego.imageio import (
    PgmFormatError,
    RawImage,
    read_pgm16,
    write_pgm16,
    write_report,
)
from shotstego.statcheck import AnalysisReport


def img_from(values, width, height):
    return RawImage(width=width, height=height,
                    pixels=np.array(values, dtype=np.uint16).reshape(height, width))


def test_read_single_pixel():
    data = b"P5\n1 1\n65535\n" + bytes([0x00, 0x2A])
    img = read_pgm16(data)
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 42


def test_write_single_zero_pixel():
    out = write_pgm16(img_from([0], 1, 1))
    assert out == b"P5\n1 1\n65535\n" + bytes([0x00, 0x00])


def test_write_big_endian_order():
    out = write_pgm16(img_from([1, 256], 2, 1))
    assert out.endswith(bytes([0x00, 0x01, 0x01, 0x00]))


def test_round_trip_write_read():
    rng = np.random.default_rng(5)
    px = rng.integers(0, 65536, size=(7, 13), dtype=np.uint16)
    img = RawImage(width=13, height=7, pixels=px)
    assert read_pgm16(write_pgm16(img)) == img


def test_round_trip_read_write():
    data = b"P5\n3 2\n65535\n" + bytes(range(12))
    assert write_pgm16(read_pgm16(data)) == data


def test_maxval_255_rejected_as_bit_depth():
    with pytest.raises(PgmFormatError, match="unsupported bit depth"):
        read_pgm16(b"P5\n1 1\n255\n\x00")


def test_malformed_header():
    with pytest.raises(PgmFormatError, match="malformed header"):
        read_pgm16(b"P6\n1 1\n65535\n\x00\x00")
    with pytest.raises(PgmFormatError, match="malformed header"):
        read_pgm16(b"P5 1 1 65535 ")
    with pytest.raises(PgmFormatError, match="zero image dimension"):
        read_pgm16(b"P5\n0 1\n65535\n")


def test_truncated_and_trailing_data():
    with pytest.raises(PgmFormatError, match="truncated"):
        read_pgm16(b"P5\n2 2\n65535\n" + bytes(7))
    with pytest.raises(PgmFormatError, match="trailing"):
        read_pgm16(b"P5\n1 1\n65535\n" + bytes(4))


def test_dimensions_must_be_integers():
    """A float dimension is refused, where 2.0 would be written as a header
    that read_pgm16 refuses; a numpy integer acts as the equal int."""
    with pytest.raises(TypeError):
        RawImage(width=2.0, height=3, pixels=np.zeros((3, 2), dtype=np.uint16))
    with pytest.raises(TypeError):
        RawImage(width=2, height=np.float64(3), pixels=np.zeros((3, 2), dtype=np.uint16))
    img = RawImage(width=np.int64(2), height=np.int64(3),
                   pixels=np.arange(6, dtype=np.uint16).reshape(3, 2))
    assert write_pgm16(img) == write_pgm16(img_from(range(6), 2, 3))
    assert read_pgm16(write_pgm16(img)) == img and img.pixel_count == 6


def test_pixel_invariants():
    with pytest.raises(ValueError, match="dimensions"):
        RawImage(width=0, height=1, pixels=np.zeros((1, 0), dtype=np.uint16))
    converted = RawImage(width=2, height=1, pixels=np.array([[0.0, 7.0]]))  # exact values
    assert converted.pixels.dtype == np.uint16 and converted.pixels.tolist() == [[0, 7]]
    with pytest.raises(ValueError):
        RawImage(width=2, height=2, pixels=np.zeros((2, 3), dtype=np.uint16))
    with pytest.raises(ValueError):
        RawImage(width=1, height=1, pixels=np.array([[70000]]))
    with pytest.raises(ValueError):  # the cast would give 0
        RawImage(width=2, height=1, pixels=np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):  # the cast would give 1
        RawImage(width=2, height=1, pixels=np.array([[0.0, 1.7]]))


def make_report(**over):
    fields = dict(kl_bits=0.0, autocorr=(0.001, -0.002), norm_dev=1.0,
                  chi2_pvalue=0.5, verdict="clean",
                  sample_sizes={"kl": 100, "chi2": 100})
    fields.update(over)
    return AnalysisReport(**fields)


def test_report_contains_fields_and_is_deterministic():
    doc = write_report(make_report())
    text = doc.decode()
    assert "kl_bits 0\n" in text
    assert write_report(make_report()) == doc
    assert b"\r" not in doc


def test_report_field_order_canonical():
    names = [line.split(" ")[0] for line in
             write_report(make_report()).decode().strip().splitlines()[1:]]
    assert names == ["kl_bits", "autocorr", "norm_dev", "chi2_pvalue",
                     "verdict", "sample_sizes"]
    # order of the sample_sizes mapping does not leak into the bytes
    a = write_report(make_report(sample_sizes={"kl": 1, "chi2": 2}))
    b = write_report(make_report(sample_sizes=dict([("chi2", 2), ("kl", 1)])))
    assert a == b


def test_report_nine_significant_digits():
    doc = write_report(make_report(kl_bits=0.123456789123)).decode()
    assert "kl_bits 0.123456789" in doc
