import hashlib
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from shotstego import cli, codec, statcheck
from shotstego.camera import DEFAULT_FULL_WELL, SensorConfig, capture, capture_pair, make_scene
from shotstego.imageio import RawImage, write_report
from shotstego.statcheck import (
    CalibrationError,
    autocorrelation,
    build_calibration,
    chi_square_attack,
    histogram,
    histogram_csv,
    kl_divergence,
    lsb_embed,
    normalized_deviation,
    read_calibration,
    ward_test,
    write_calibration,
)

LAM_DETECT = 100.0  # detector operating point: strong within-pair tilts


def flat_capture(seed, n=256, lam=LAM_DETECT, index=0):
    return capture(make_scene(n, n, "flat", lam), SensorConfig(seed=seed), index)


def crop(img, x, y, width, height):
    """The width x height sub-image whose top-left pixel is (x, y)."""
    return RawImage(width=width, height=height,
                    pixels=img.pixels[y:y + height, x:x + width])


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_uniform_image_single_bin():
    img = RawImage(width=8, height=8, pixels=np.full((8, 8), 1234, dtype=np.uint16))
    hist = histogram(img, bin_width=1)
    assert hist.counts[1234] == 64
    assert int(np.sum(hist.counts > 0)) == 1


def test_histogram_total_is_region_area():
    img = flat_capture(1, n=64)
    hist = histogram(crop(img, 3, 5, 21, 17), bin_width=4)
    assert hist.total == 21 * 17
    assert hist.counts.sum() == hist.total


@pytest.mark.parametrize("bin_width", [1, 2, 3, 7, 64, 65535, 65536])
def test_histogram_equals_binned_bincount(bin_width):
    """Bins of every width, the short last bin included, hold the count of
    the values whose quotient by the width is the bin index; bin i has the
    edges i * width and (i + 1) * width."""
    img = RawImage(width=3, height=4, pixels=np.array(
        [[0, 1, 2], [3, 6, 7], [63, 64, 65534], [65535, 65535, 100]], dtype=np.uint16))
    nbins = -(-65536 // bin_width)
    expect = np.bincount(img.pixels.reshape(-1).astype(np.int64) // bin_width, minlength=nbins)
    hist = histogram(img, bin_width)
    assert hist.counts.dtype == np.int64 and len(hist.counts) == nbins
    assert np.array_equal(hist.counts, expect)
    assert np.array_equal(hist.bin_edges, np.arange(nbins + 1) * bin_width)


@pytest.mark.parametrize("bin_width", [0, -3])
def test_bin_width_below_1_refused_by_every_histogram(bin_width):
    """A histogram refuses a bin width below 1 wherever it is made, so
    build_calibration cannot return a calibration that read_calibration
    refuses once written."""
    with pytest.raises(ValueError, match="bin_width must be >= 1"):
        build_calibration(make_scene(64, 64, "flat", LAM_DETECT), SensorConfig(seed=1),
                          runs=2, bin_width=bin_width)
    with pytest.raises(ValueError, match="bin_width must be >= 1"):
        histogram(flat_capture(1, n=8), bin_width)
    with pytest.raises(ValueError, match="bin_width must be >= 1"):
        statcheck.Histogram(bin_width=bin_width, counts=np.zeros(4, dtype=np.int64), total=0)


@pytest.mark.parametrize("bin_width", [65537, 2**63, 10**30])
def test_bin_width_above_65536_refused_everywhere(bin_width, tmp_path, capsys):
    """One bin of 65536 already holds every 16-bit value, so a wider bin is
    refused before any array is built: ValueError from the library,
    CalibrationError from the reader, exit 1 for the flag and exit 2 for
    analyze of a file that holds it."""
    with pytest.raises(ValueError, match="bin_width must be <= 65536"):
        build_calibration(make_scene(8, 8, "flat", LAM_DETECT), SensorConfig(seed=1),
                          runs=2, bin_width=bin_width)
    with pytest.raises(ValueError, match="bin_width must be <= 65536"):
        histogram(flat_capture(1, n=8), bin_width)
    with pytest.raises(ValueError, match="bin_width must be <= 65536"):
        statcheck.Histogram(bin_width=bin_width, counts=np.zeros(1, dtype=np.int64), total=0)
    text = _small_calibration_text().replace("\nbin_width 1\n", f"\nbin_width {bin_width}\n")
    with pytest.raises(CalibrationError, match=f"bin_width {bin_width} is outside"):
        read_calibration(text.encode())
    (tmp_path / "wide.cal").write_text(text)
    ws = lambda name: str(tmp_path / name)  # noqa: E731
    assert cli.main(["capture", "--width", "8", "--height", "8",
                     "--key-out", ws("k.pgm"), "--cover-out", ws("c.pgm")]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--image", ws("k.pgm"), "--calibration", ws("wide.cal"),
                     "--report-out", ws("r.txt")]) == 2
    assert f"bin_width {bin_width} is outside" in capsys.readouterr().err
    for argv in (["calibrate", "--width", "8", "--height", "8", "--calibration-out", ws("o.cal")],
                 ["demo-lsb", "--image", ws("k.pgm"), "--out-prefix", ws("o")]):
        assert cli.main(argv + ["--bin-width", str(bin_width)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.pgm", "k.pgm", "wide.cal"]


def test_histogram_of_shot_noise_capture():
    """Mean within 1e4 +- 3 and standard deviation within 100 +- 2 on a
    1e5-pixel region of a flat lambda=1e4 capture."""
    img = capture(make_scene(512, 512, "flat", 10000), SensorConfig(seed=3), 0)
    hist = histogram(crop(img, 0, 0, 512, 200), bin_width=1)
    assert hist.total == 102400
    centers = (hist.bin_edges[:-1] + hist.bin_edges[1:] - 1) / 2.0
    mean = np.sum(centers * hist.counts) / hist.total
    std = math.sqrt(np.sum((centers - mean) ** 2 * hist.counts) / (hist.total - 1))
    assert abs(mean - 10000) < 3
    assert abs(std - 100) < 2


def test_histogram_csv_format():
    img = RawImage(width=2, height=1, pixels=np.array([[7, 7]], dtype=np.uint16))
    text = histogram_csv(histogram(img)).decode()
    assert text == "bin_low,bin_high,count\n7,8,2\n"


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

def test_kl_identical_is_zero():
    img = flat_capture(4, n=64)
    hist = histogram(img)
    assert kl_divergence(hist, hist) == 0.0


def test_kl_two_term_analytic():
    """P = (1/2, 1/2), Q = (1/4, 3/4): D = 1/2 log2 2 + 1/2 log2 (2/3)."""
    p = statcheck.Histogram(bin_width=32768, counts=np.array([2000, 2000]), total=4000)
    q = statcheck.Histogram(bin_width=32768, counts=np.array([1000, 3000]), total=4000)
    expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    assert kl_divergence(p, q, smoothing=1e-9) == pytest.approx(expect, abs=1e-5)
    assert expect == pytest.approx(0.2075, abs=1e-4)


def test_kl_requires_matching_bins_and_positive_smoothing():
    img = flat_capture(5, n=64)
    h1 = histogram(img, 1)
    h2 = histogram(img, 2)
    with pytest.raises(ValueError):
        kl_divergence(h1, h2)
    with pytest.raises(ValueError):
        kl_divergence(h1, h1, smoothing=0.0)


@pytest.mark.parametrize("smoothing", [math.nan, math.inf])
def test_kl_refuses_non_finite_smoothing(smoothing):
    h = histogram(flat_capture(5, n=16), 1)
    with pytest.raises(ValueError, match="smoothing must be finite"):
        kl_divergence(h, h, smoothing=smoothing)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=500), min_size=4, max_size=4))
def test_kl_nonnegative_gibbs(c1, c2):
    p = statcheck.Histogram(bin_width=16384, counts=np.array(c1), total=max(sum(c1), 1))
    q = statcheck.Histogram(bin_width=16384, counts=np.array(c2), total=max(sum(c2), 1))
    d = kl_divergence(p, q)
    assert d >= 0.0
    if c1 == c2:
        assert d == 0.0


def _kl_dense_reference(p_hist, q_hist, smoothing):
    """D(P || Q) evaluated on every bin, empty or not: the reference that
    kl_divergence must match bit for bit."""
    nbins = len(p_hist.counts)
    p = (p_hist.counts + smoothing) / (p_hist.total + smoothing * nbins)
    q = (q_hist.counts + smoothing) / (q_hist.total + smoothing * nbins)
    return float(np.sum(p * np.log2(p / q)))


def _sparse_hist(bins, bin_width):
    """A histogram of bin_width from {bin index: count}."""
    nbins = -(-65536 // bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    for i, c in bins.items():
        counts[i % nbins] += c
    return statcheck.Histogram(bin_width=bin_width, counts=counts, total=int(counts.sum()))


_sparse_bins = st.dictionaries(st.integers(0, 65535), st.integers(1, 5000), max_size=40)


@settings(max_examples=200, deadline=None)
@given(_sparse_bins, _sparse_bins, st.sampled_from([1, 2, 7, 64, 1000]),
       st.one_of(st.sampled_from([0.1, 0.5, 1, 3.3]),
                 st.floats(1e-6, 100.0, allow_nan=False)))
def test_kl_equals_dense_reference_bitwise(p_bins, q_bins, bin_width, smoothing):
    """Empty, equal and unequal totals, several bin widths and smoothings:
    the populated-bin evaluation returns exactly the dense float."""
    p, q = _sparse_hist(p_bins, bin_width), _sparse_hist(q_bins, bin_width)
    for a, b in ((p, q), (q, p), (p, p)):
        assert kl_divergence(a, b, smoothing) == _kl_dense_reference(a, b, smoothing)


@pytest.mark.parametrize("bin_width", [1, 2, 7, 64])
def test_kl_equals_dense_reference_on_captures(bin_width):
    """Captures at two light levels, the LSB-embedded one and a sub-region
    (unequal totals), as calibration and ward_test compare them."""
    scene = make_scene(128, 128, "flat", LAM_DETECT)
    imgs = [capture(scene, SensorConfig(seed=41), i) for i in range(3)]
    imgs.append(lsb_embed(imgs[0], codec.keyed_filler_bits(imgs[0].pixel_count, 3)))
    imgs.append(flat_capture(42, n=128, lam=1e4))
    hists = [histogram(im, bin_width) for im in imgs]
    hists.append(histogram(crop(imgs[1], 5, 7, 50, 61), bin_width))
    for a in hists:
        for b in hists:
            for smoothing in (0.1, 0.5, 1.0, 3.3):
                assert kl_divergence(a, b, smoothing) == _kl_dense_reference(a, b, smoothing)


def test_kl_continuous_in_smoothing():
    img_a, img_b = flat_capture(6, n=64), flat_capture(7, n=64)
    ha = histogram(img_a)
    hb = histogram(img_b)
    d1 = kl_divergence(ha, hb, smoothing=0.5)
    d2 = kl_divergence(ha, hb, smoothing=0.5001)
    assert abs(d1 - d2) < 1e-3 * max(d1, 1e-12)


def test_kl_between_independent_captures_within_null_floor():
    """Floor oracle: 100 capture-pair calibration runs of the same scene;
    a fresh pair's KL estimate must sit inside that empirical distribution."""
    scene = make_scene(256, 256, "flat", 10000)
    null = []
    for t in range(100):
        a, b = capture_pair(scene, SensorConfig(seed=3000 + t))
        null.append(kl_divergence(histogram(a), histogram(b)))
    fresh_a, fresh_b = capture_pair(scene, SensorConfig(seed=4242))
    fresh = kl_divergence(histogram(fresh_a), histogram(fresh_b))
    assert fresh <= 1.2 * np.percentile(null, 99)


# ---------------------------------------------------------------------------
# LSB embedding and its histogram signature
# ---------------------------------------------------------------------------

def test_lsb_identity_when_bits_match():
    img = flat_capture(8, n=32)
    bits = (img.pixels.reshape(-1) & 1).astype(np.uint8)
    assert lsb_embed(img, bits) == img


def test_lsb_zero_bits_make_all_even():
    img = flat_capture(9, n=32)
    out = lsb_embed(img, np.zeros(img.pixel_count, dtype=np.uint8))
    assert not (out.pixels & 1).any()
    assert np.array_equal(out.pixels, img.pixels & np.uint16(0xFFFE))


def test_lsb_length_checked():
    img = flat_capture(10, n=16)
    with pytest.raises(ValueError):
        lsb_embed(img, np.zeros(10, dtype=np.uint8))


@pytest.mark.parametrize("value", [2, -1, 0.5])
def test_lsb_rejects_bits_other_than_0_and_1(value):
    """As in stego.embed: cast unchecked, a 2 would set bit 1 and a 0.5
    would read as 0."""
    img = flat_capture(10, n=16)
    bits = np.ones(img.pixel_count, dtype=np.asarray(value).dtype)
    bits[-1] = value
    with pytest.raises(ValueError, match="0 or 1"):
        lsb_embed(img, bits)


def test_lsb_kl_separation_from_clean_floor():
    """Balanced random bits on a flat capture: the KL between the region's
    original histogram and its LSB-embedded histogram clears the clean-pair
    noise floor by at least 5x. Runs at mean level 100, where the per-pair
    probability tilt (~u/40) makes pair equalization a first-order histogram
    distortion at a million pixels."""
    scene = make_scene(1024, 1024, "flat", LAM_DETECT)
    floor = []
    for t in range(30):
        a, b = capture_pair(scene, SensorConfig(seed=8800 + t))
        floor.append(kl_divergence(histogram(a), histogram(b)))
    img = capture(scene, SensorConfig(seed=8899), 0)
    bits = codec.keyed_filler_bits(img.pixel_count, 1)
    embedded = lsb_embed(img, bits)
    kl = kl_divergence(histogram(img), histogram(embedded))
    assert kl >= 5.0 * float(np.max(floor))


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def brute_force_autocorr(d: np.ndarray, max_lag: int) -> list[float]:
    mu = d.mean()
    var = ((d - mu) ** 2).mean()
    out = []
    for lag in range(1, max_lag + 1):
        acc, cnt = 0.0, 0
        for y in range(d.shape[0]):
            for x in range(d.shape[1] - lag):
                acc += (d[y, x] - mu) * (d[y, x + lag] - mu)
                cnt += 1
        out.append(acc / cnt / var)
    return out


def test_autocorrelation_matches_brute_force():
    rng = np.random.default_rng(11)
    a = RawImage(width=9, height=6, pixels=rng.integers(0, 200, (6, 9)).astype(np.uint16))
    b = RawImage(width=9, height=6, pixels=rng.integers(0, 200, (6, 9)).astype(np.uint16))
    d = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    got = autocorrelation(a, b, 3)
    assert got == pytest.approx(brute_force_autocorr(d, 3), abs=1e-12)
    # lag-0 normalization: the autocovariance at lag 0 is the variance itself
    mu = d.mean()
    assert ((d - mu) ** 2).mean() / d.var() == pytest.approx(1.0)


def _autocorr_reference(key, cover, max_lag):
    """Each lag's autocorrelation in exact rationals from int64 sums (exact
    below 2^31 pixels), rounded once."""
    d = key.pixels.astype(np.int64) - cover.pixels.astype(np.int64)
    h, w = d.shape
    mu = Fraction(int(d.sum()), h * w)
    var = Fraction(int(np.sum(d * d)), h * w) - mu * mu
    rho = []
    for lag in range(1, max_lag + 1):
        a, b = d[:, :-lag], d[:, lag:]
        cov = (Fraction(int(np.sum(a * b))) - mu * (int(a.sum()) + int(b.sum()))) \
            / (h * (w - lag)) + mu * mu
        rho.append(float(cov / var))
    return np.array(rho)


def _normdev_reference(key, cover):
    """The deviation from exact per-(K + C) sums of (K - C)^2: each sum
    divided by its K + C once rounded, an exactly rounded sum over
    K + C >= 16, divided by the count of those pixels."""
    k = key.pixels.astype(np.int64).reshape(-1)
    c = cover.pixels.astype(np.int64).reshape(-1)
    s = k + c
    order = np.argsort(s, kind="stable")
    values, starts = np.unique(s[order], return_index=True)
    sums = np.add.reduceat(((k - c) ** 2)[order], starts)
    terms = [float(int(d2)) / int(v) for v, d2 in zip(values, sums) if v >= 16]
    return math.sqrt(math.fsum(terms) / int(np.count_nonzero(s >= 16)))


def _extreme_pair():
    """K = 65535 and C = 0 in alternate pixels, random 16-bit values in the
    others, over more than 2^21 pixels: the sums of d^2, and that of one
    K + C alone, pass 2^52, so only integer accumulation keeps them exact."""
    h, w = 1500, 1401
    rng = np.random.default_rng(65535)
    key, cover = (rng.integers(0, 65536, h * w, dtype=np.uint16) for _ in range(2))
    key[0::2], cover[0::2] = 65535, 0
    return (RawImage(width=w, height=h, pixels=key.reshape(h, w)),
            RawImage(width=w, height=h, pixels=cover.reshape(h, w)))


def _pair_cases():
    """Capture pairs: shot noise at two levels, exposure jitter, a pcb
    scene, rows longer than numpy's 128-element summation block, and one
    with a dark band where K + C is 0 or below 16."""
    cases = []
    for lam, jitter, pattern, width in ((100.0, 0.0, "flat", 96), (1e4, 0.05, "flat", 96),
                                        (3000.0, 0.0, "pcb", 96), (100.0, 0.0, "flat", 300)):
        scene = make_scene(width, 64, pattern, lam)
        cases.append(capture_pair(scene, SensorConfig(seed=46, exposure_jitter_fraction=jitter)))
    key, cover = cases[0]
    scale = np.ones((64, 1), dtype=np.uint16)
    scale[10:20], scale[20:30] = 1000, 20  # K + C = 0, then about 10
    shade = lambda img: RawImage(width=96, height=64,  # noqa: E731
                                 pixels=img.pixels // scale)
    cases.append((shade(key), shade(cover)))
    return cases


def test_pair_statistics_equal_references_bitwise():
    """Both statistics equal their exact values correctly rounded, on
    capture pairs, on rows wider than a slab (column chunks whose context
    lies in the image) and on extreme values."""
    import warnings
    wide = capture_pair(make_scene(statcheck._SLAB + 37, 3, "flat", 100.0), SensorConfig(seed=47))
    for key, cover in _pair_cases() + [wide, _extreme_pair()]:
        assert autocorrelation(key, cover, 8).tobytes() == \
            _autocorr_reference(key, cover, 8).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the dropped K + C = 0 pixels warn nothing
            assert normalized_deviation(key, cover) == _normdev_reference(key, cover)
    key, cover = _pair_cases()[-1]
    assert np.any(key.pixels + cover.pixels == 0)
    assert np.any((key.pixels + cover.pixels > 0) & (key.pixels + cover.pixels < 16))
    key, cover = _extreme_pair()
    d2 = (key.pixels.astype(np.int64) - cover.pixels.astype(np.int64)) ** 2
    assert int(d2.sum()) > 2 ** 52
    assert int(d2[key.pixels.astype(np.int64) + cover.pixels == 65535].sum()) > 2 ** 52


def test_pair_statistics_do_not_depend_on_the_slab(monkeypatch):
    """Slabs shorter than max_lag, shorter than a row (the column-chunk
    path), of a few whole rows with a short last slab, and the default
    size give the same bytes, for the pair statistics, the histogram and a
    calibration."""
    scene = make_scene(120, 90, "gradient", 40.0)  # dark pixels on the exact samplers
    sensor = SensorConfig(seed=77, read_noise_sigma=1.5)
    outputs = []
    for slab in (5, 50, 3 * 96 + 17, statcheck._SLAB):
        monkeypatch.setattr(statcheck, "_SLAB", slab)
        got = []
        for key, cover in _pair_cases():
            got += [autocorrelation(key, cover, lag).tobytes() for lag in (1, 8, 95)]
            got.append(normalized_deviation(key, cover))
            got.append(histogram(key, 3).counts.tobytes())
        got.append(write_calibration(build_calibration(scene, sensor, runs=4, bin_width=2)))
        outputs.append(got)
    assert all(out == outputs[0] for out in outputs[1:])


def test_autocorrelation_independent_pair_below_bound(flat_pair_1m):
    key, cover = flat_pair_1m
    rho = autocorrelation(key, cover, 8)
    assert rho.shape == (8,)
    assert np.all(np.abs(rho) < 3.0 / math.sqrt(key.pixel_count))


def test_autocorrelation_detects_blur():
    """Sensitivity control: a 2-pixel horizontal box blur of both captures
    gives a moving-average difference whose lag-1 autocorrelation is 1/2
    analytically; the detector must see well above 0.3."""
    key, cover = capture_pair(make_scene(512, 512, "flat", 10000), SensorConfig(seed=12))
    def blur(img):
        px = img.pixels.astype(np.int64)
        mixed = (px[:, :-1] + px[:, 1:]) // 2
        return RawImage(width=img.width - 1, height=img.height, pixels=mixed.astype(np.uint16))
    rho = autocorrelation(blur(key), blur(cover), 4)
    assert rho[0] > 0.3


def test_autocorrelation_validates_args():
    key, cover = capture_pair(make_scene(16, 8, "flat", 100), SensorConfig(seed=13))
    with pytest.raises(ValueError):
        autocorrelation(key, cover, 16)
    with pytest.raises(ValueError):
        autocorrelation(key, key, 2)  # constant difference image


# ---------------------------------------------------------------------------
# normalized deviation
# ---------------------------------------------------------------------------

def test_normalized_deviation_identical_zero():
    img = flat_capture(14, n=64, lam=10000)
    assert normalized_deviation(img, img) == 0.0


def test_normalized_deviation_pure_shot_noise(flat_pair_1m):
    key, cover = flat_pair_1m
    nd = normalized_deviation(key, cover)
    assert abs(nd - 1.0) <= 0.01


def test_normalized_deviation_flags_exposure_jitter():
    scene = make_scene(512, 512, "flat", 10000)
    key, cover = capture_pair(scene, SensorConfig(seed=15, exposure_jitter_fraction=0.05))
    nd = normalized_deviation(key, cover)
    assert nd > 1.1


def test_normalized_deviation_requires_light():
    dark = RawImage(width=8, height=8, pixels=np.zeros((8, 8), dtype=np.uint16))
    with pytest.raises(ValueError):
        normalized_deviation(dark, dark)


# ---------------------------------------------------------------------------
# chi-square pairs-of-values attack
# ---------------------------------------------------------------------------

def test_chi2_requires_large_region():
    img = flat_capture(16, n=64)
    with pytest.raises(ValueError):
        chi_square_attack(img)


def test_chi2_requires_populated_pairs():
    img = RawImage(width=128, height=128,
                   pixels=np.full((128, 128), 500, dtype=np.uint16))
    with pytest.raises(ValueError):
        chi_square_attack(img)


def test_chi2_detects_full_lsb_embedding():
    """Monte Carlo with known-embedded inputs: detection of full LSB
    replacement at the calibrated 1% threshold in >= 95% of trials."""
    detected = 0
    for t in range(60):
        img = flat_capture(20000 + t)
        bits = codec.keyed_filler_bits(img.pixel_count, t)
        p = chi_square_attack(lsb_embed(img, bits))
        detected += p < 0.01
    assert detected >= 57  # 95% of 60


def _assert_chi2_tail_close(p, df, x):
    """p against scipy.stats.chi2.sf(x, df): relative error <= 1e-10 where
    the reference is above 1e-290, both below 1e-280 beneath it."""
    ref = float(sps.chi2.sf(x, df=df))
    if ref > 1e-290:
        assert abs(p - ref) <= 1e-10 * ref, (df, x, p, ref)
    else:
        assert p < 1e-280 and ref < 1e-280, (df, x, p, ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 35000), st.floats(0.0, 4.0, allow_nan=False))
@example(1, 5e-324)  # x / 2 underflows to 0: the tail is 1, not log(0)
def test_chi2_survival_equals_scipy_stats(df, scale):
    """The closed-form tail against scipy's over df 1-35,000 and x from 0
    to 4 df, far into both tails."""
    x = scale * df
    _assert_chi2_tail_close(statcheck._chi2_sf(df, x), df, x)


def _chi2_stat_reference(img):
    """The pairs-of-values statistic and its degrees of freedom, computed
    on float counts over every value pair."""
    counts = np.bincount(img.pixels.reshape(-1), minlength=65536).astype(np.float64)
    even, odd = counts[0::2], counts[1::2]
    m = even + odd
    ok = (m >= 32) & (np.roll(m, 1) >= 32) & (np.roll(m, -1) >= 32)
    ok[0] = ok[-1] = False
    kk = np.flatnonzero(ok)
    rho = (m[kk + 1] / m[kk - 1]) ** 0.25
    q = 1.0 / (1.0 + rho)
    var_log_rho = (1.0 / m[kk + 1] + 1.0 / m[kk - 1]) / 16.0
    var_q = (rho / (1.0 + rho) ** 2) ** 2 * var_log_rho
    variance = m[kk] * q * (1.0 - q) + m[kk] ** 2 * var_q
    return float(np.sum((even[kk] - m[kk] * q) ** 2 / variance)), kk.size


def test_chi2_pvalue_equals_scipy_stats_reference(monkeypatch):
    """The statistic equals the float-count reference, bit for bit, and the
    p-value is scipy.stats.chi2.sf of it at its degrees of freedom, within
    the tail's tolerance, on clean, LSB, pixel-selection stego and pcb
    images."""
    from shotstego.stego import capacity_bits, embed
    calls = []
    tail = statcheck._chi2_sf

    def spy(df, stat):
        calls.append((df, stat))
        return tail(df, stat)

    monkeypatch.setattr(statcheck, "_chi2_sf", spy)
    key, cover = capture_pair(make_scene(256, 256, "flat", LAM_DETECT), SensorConfig(seed=44))
    bits = codec.keyed_filler_bits(key.pixel_count, 44)
    assert capacity_bits(key, DEFAULT_FULL_WELL, 1) == key.pixel_count  # every pixel usable
    images = [key, lsb_embed(key, bits), embed(key, cover, bits, DEFAULT_FULL_WELL, 1),
              capture(make_scene(128, 128, "pcb", 3000), SensorConfig(seed=45), 0)]
    for img in images:
        p = chi_square_attack(img)
        df, stat = calls[-1]
        assert (stat, df) == _chi2_stat_reference(img)
        _assert_chi2_tail_close(p, df, stat)
    assert len(calls) == len(images)


def test_chi2_clean_pvalues_uniform():
    """Null calibration oracle: p-values over clean captures pass a
    Kolmogorov-Smirnov uniformity test at the 1% level."""
    ps = [chi_square_attack(flat_capture(21000 + t)) for t in range(100)]
    assert sps.kstest(ps, "uniform").pvalue > 0.01


def test_chi2_quantum_stego_indistinguishable_from_clean():
    """Two-sample check: p-values on pixel-selection stego images agree with
    the clean ensemble (KS two-sample at the 1% level) and the verdict rates
    at p < 0.01 differ by at most 3 points."""
    from shotstego.stego import capacity_bits, embed
    clean_ps, stego_ps = [], []
    for t in range(60):
        clean_ps.append(chi_square_attack(flat_capture(22000 + t)))
        key, cover = capture_pair(make_scene(256, 256, "flat", LAM_DETECT),
                                  SensorConfig(seed=23000 + t))
        bits = codec.keyed_filler_bits(key.pixel_count, t)
        assert capacity_bits(key, DEFAULT_FULL_WELL, 1) == key.pixel_count  # every pixel usable
        stego_img = embed(key, cover, bits, DEFAULT_FULL_WELL, 1)
        stego_ps.append(chi_square_attack(stego_img))
    assert sps.ks_2samp(clean_ps, stego_ps).pvalue > 0.01
    r_clean = np.mean(np.array(clean_ps) < 0.01)
    r_stego = np.mean(np.array(stego_ps) < 0.01)
    assert abs(r_clean - r_stego) <= 0.03


# ---------------------------------------------------------------------------
# calibration and ward verdicts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def calibration():
    scene = make_scene(256, 256, "flat", LAM_DETECT)
    return build_calibration(scene, SensorConfig(seed=31415), runs=100)


def test_ward_requires_calibration(calibration):
    img = flat_capture(24)
    with pytest.raises(CalibrationError):
        ward_test(img, None)
    starved = read_calibration(write_calibration(calibration))
    starved.n_runs = 10
    with pytest.raises(CalibrationError):
        ward_test(img, starved)
    with pytest.raises(CalibrationError, match="at least 2 runs"):
        build_calibration(make_scene(8, 8, "flat", LAM_DETECT), SensorConfig(seed=24), runs=1)


@pytest.mark.parametrize("side", [128, 512])
def test_ward_refuses_images_of_another_pixel_count(calibration, side):
    """The 256^2 calibration's reference total is its captures' pixel count;
    an image with another count is refused rather than judged."""
    with pytest.raises(CalibrationError, match="65536 pixels"):
        ward_test(flat_capture(24, n=side), calibration)


def test_ward_flags_lsb_images(calibration):
    flagged = 0
    for t in range(60):
        img = flat_capture(25000 + t)
        bits = codec.keyed_filler_bits(img.pixel_count, t)
        flagged += ward_test(lsb_embed(img, bits), calibration).verdict == "suspicious"
    assert flagged >= 57


def test_ward_passes_clean_images(calibration):
    clean = sum(ward_test(flat_capture(26000 + t), calibration).verdict == "clean"
                for t in range(100))
    assert clean >= 97


def test_ward_quantum_stego_rates_match_clean(calibration):
    """Rates compared over 300 verdicts (150 per ensemble)."""
    from shotstego.stego import capacity_bits, embed
    sus_clean = sus_stego = 0
    trials = 150
    for t in range(trials):
        sus_clean += ward_test(flat_capture(27000 + t), calibration).verdict == "suspicious"
        key, cover = capture_pair(make_scene(256, 256, "flat", LAM_DETECT),
                                  SensorConfig(seed=28000 + t))
        bits = codec.keyed_filler_bits(key.pixel_count, 7000 + t)
        assert capacity_bits(key, DEFAULT_FULL_WELL, 1) == key.pixel_count  # every pixel usable
        stego_img = embed(key, cover, bits, DEFAULT_FULL_WELL, 1)
        sus_stego += ward_test(stego_img, calibration).verdict == "suspicious"
    assert abs(sus_clean - sus_stego) / trials <= 0.03  # within 3 points


def test_ward_pair_statistics_flag_jitter(calibration):
    scene = make_scene(256, 256, "flat", LAM_DETECT)
    sensor = SensorConfig(seed=29000, exposure_jitter_fraction=0.05)
    key, cover = capture_pair(scene, sensor)
    report = ward_test(key, calibration, reference=cover)
    assert report.norm_dev > 1.1
    assert report.verdict == "suspicious"
    assert len(report.autocorr) == 8
    assert report.sample_sizes["norm_dev"] == key.pixel_count


def test_ward_norm_dev_sample_size_counts_the_pixels_it_uses(calibration):
    """The normalized deviation's sample size is the count of pixels with
    K + C >= 16, not the pixel count, on a pair with a dark band."""
    key, cover = capture_pair(make_scene(256, 256, "flat", LAM_DETECT), SensorConfig(seed=29001))
    scale = np.ones((256, 1), dtype=np.uint16)
    scale[10:20], scale[20:30] = 1000, 20  # K + C = 0, then about 10
    key, cover = (RawImage(width=256, height=256, pixels=im.pixels // scale)
                  for im in (key, cover))
    bright = int(np.count_nonzero(key.pixels.astype(np.int64) + cover.pixels >= 16))
    assert 0 < bright < key.pixel_count - 256 * 10
    sizes = ward_test(key, calibration, reference=cover).sample_sizes
    assert sizes["norm_dev"] == bright
    assert sizes["autocorr"] == sizes["kl"] == sizes["chi2"] == key.pixel_count


def test_calibration_file_round_trip(calibration):
    data = write_calibration(calibration)
    assert data.startswith(b"shotstego-calibration v1\n")
    back = read_calibration(data)
    assert write_calibration(back) == data
    assert back.n_runs == calibration.n_runs
    assert np.allclose(back.kl_null, calibration.kl_null, rtol=1e-6)
    assert np.array_equal(back.reference_counts, calibration.reference_counts)
    img = flat_capture(30000)
    assert ward_test(img, back).verdict == ward_test(img, calibration).verdict


def test_calibration_rejects_garbage():
    with pytest.raises(CalibrationError):
        read_calibration(b"not a calibration\n")


def _small_calibration_text() -> str:
    """A valid v1 file of 4 runs: 4 KL and chi-square nulls, 2 pair nulls."""
    cal = statcheck.Calibration(
        scene_desc="8x8 mean_lambda=100", n_runs=4, bin_width=1,
        reference_counts=np.bincount([99, 100, 100, 101], minlength=65536),
        kl_null=np.array([0.1, 0.2, 0.3, 0.4]),
        chi2_logp_null=np.array([1.0, 2.0, 0.5, 0.7]),
        autocorr_max_null=np.array([0.01, 0.02]),
        normdev_dev_null=np.array([0.03, 0.04]))
    return write_calibration(cal).decode()


@pytest.mark.parametrize("field, value", [
    ("reference_counts", "70000:3"),       # index past the last bin
    ("reference_counts", "-1:5"),          # negative index would wrap
    ("bin_width", "0"),                    # division by zero
    ("kl_null", ""),                       # empty null: no percentile
    ("kl_null", "nan 0.2 0.3 0.4"),        # NaN threshold
    ("chi2_logp_null", "1 2 inf 4"),
    ("kl_null", "0.1 0.2 0.3"),            # 3 values under runs 4
    ("normdev_dev_null", "0.03 0.04 0.05"),  # pair nulls hold runs // 2
    ("reference_counts", "99:1 100:5 101:-2"),  # negative count; sum still 4
    ("reference_total", "-65536"),         # KL would be NaN, verdict "clean"
    ("reference_total", "5"),              # counts sum to 4
    ("reference_counts", "99:1 100:2 100:1"),  # a bin listed twice; sum still 4
    ("reference_counts", "99:1 100:0 100:2 101:1"),  # listed first as 0; sum still 4
    ("kl_null", "0.1 0.2 0.3 0.4\nkl_null 9 9 9 9"),  # a field given twice
    ("reference_counts", "99:1 100:3 101:9223372036854775808"),  # past int64
    ("runs", "1e3"),                       # malformed numbers
    ("bin_width", "x"),
    ("reference_counts", "100:x"),
    ("kl_null", "0.1 0.2 zz"),
    ("reference_total", "4.0"),
    ("scene", "\udcff\udcfe8x8"),          # the bytes ff fe: not UTF-8
])
def test_calibration_rejects_invalid_fields(field, value):
    text = _small_calibration_text()
    read_calibration(text.encode())  # the unmodified file is valid
    lines = [f"{field} {value}" if line.split(" ")[0] == field else line
             for line in text.splitlines()]
    with pytest.raises(CalibrationError):
        read_calibration(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


def test_write_calibration_writes_the_sum_of_counts():
    cal = read_calibration(_small_calibration_text().encode())
    assert b"\nreference_total 4\n" in write_calibration(cal)


# ---------------------------------------------------------------------------
# calibration work arrays: same values as the public statistics, per thread
# ---------------------------------------------------------------------------

def _calibration_reference(scene, sensor, runs, bin_width):
    """build_calibration's reference counts and nulls as a plain loop over
    the public functions, one fresh capture per call."""
    ref = histogram(capture(scene, sensor, 0), bin_width)
    kl, chi2, ac, nd = [], [], [], []
    for i in range(1, runs + 1):
        im = capture(scene, sensor, i)
        kl.append(kl_divergence(histogram(im, bin_width), ref))
        chi2.append(-math.log10(max(chi_square_attack(im), 1e-300)))
        if i % 2 == 0:
            prev = capture(scene, sensor, i - 1)
            ac.append(float(np.max(np.abs(autocorrelation(prev, im, 8)))))
            nd.append(abs(normalized_deviation(prev, im) - 1.0))
    return ref, [np.array(v) for v in (kl, chi2, ac, nd)]


def test_calibration_equals_public_statistics_loop():
    """A setting no pin covers: two slabs, the second partial; dark pixels
    on the exact samplers; read noise; exposure jitter; bin width 3. The
    reused camera and battery work arrays must give exactly the values of
    the public functions."""
    scene = make_scene(512, 300, "gradient", 200.0)
    sensor = SensorConfig(seed=2718, read_noise_sigma=2.0, exposure_jitter_fraction=0.03)
    cal = build_calibration(scene, sensor, runs=12, bin_width=3)
    ref, nulls = _calibration_reference(scene, sensor, 12, 3)
    assert np.array_equal(cal.reference_counts, ref.counts)
    assert int(cal.reference_counts.sum()) == ref.total == 512 * 300
    got = [cal.kl_null, cal.chi2_logp_null, cal.autocorr_max_null, cal.normdev_dev_null]
    assert [len(v) for v in got] == [12, 12, 6, 6]
    for a, b in zip(got, nulls):
        assert np.array_equal(a, b)


def test_verdict_reproduces_calibration():
    """ward_test computes exactly what build_calibration recorded as the
    null: judging capture i against capture i - 1 gives run i's KL and
    chi-square samples and, for even i, pair i / 2's pair samples, to the
    last bit."""
    scene = make_scene(128, 128, "gradient", 100.0)
    sensor = SensorConfig(seed=4242, read_noise_sigma=1.0)
    cal = build_calibration(scene, sensor, runs=100, bin_width=3)
    for i in (2, 50, 100):
        report = ward_test(capture(scene, sensor, i), cal,
                           reference=capture(scene, sensor, i - 1))
        assert report.kl_bits == cal.kl_null[i - 1]
        assert -math.log10(max(report.chi2_pvalue, 1e-300)) == cal.chi2_logp_null[i - 1]
        assert max(abs(v) for v in report.autocorr) == cal.autocorr_max_null[i // 2 - 1]
        assert abs(report.norm_dev - 1.0) == cal.normdev_dev_null[i // 2 - 1]


def test_concurrent_calibrations_equal_serial_ones():
    """Each thread owns its work arrays: calibrations running at the same time
    in more threads than cores give the bytes of serial runs."""
    scene = make_scene(160, 128, "flat", LAM_DETECT)
    seeds = (11, 12, 13)
    serial = [write_calibration(build_calibration(scene, SensorConfig(seed=s), runs=16))
              for s in seeds]
    results = {}

    def calibrate(seed):
        results[seed] = write_calibration(
            build_calibration(scene, SensorConfig(seed=seed), runs=16))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=calibrate, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(s) for s in seeds] == serial


def test_concurrent_ward_tests_equal_serial_ones(calibration):
    """Each thread holds its own work arrays: 120 pair-mode verdicts split
    over two threads that switch every 10 us give the report bytes of serial
    runs (one set of arrays shared by both threads garbled some reports)."""
    scene = make_scene(256, 256, "flat", LAM_DETECT)
    shots = [capture(scene, SensorConfig(seed=29500), i) for i in range(16)]
    jobs = [(a, b) for a in range(16) for b in range(a + 1, 16)]  # 120 pairs

    def judge(job):
        return write_report(ward_test(shots[job[0]], calibration, reference=shots[job[1]]))

    serial = [judge(job) for job in jobs]
    results = [None] * len(jobs)

    def work(first):
        for i in range(first, len(jobs), 2):
            results[i] = judge(jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


def test_calibration_memory_stays_bounded():
    """The camera and battery work arrays of one call stay small: the traced
    peak of a 20-run 256^2 calibration, after a warm-up call, is at most
    4.5 MB (a calibration that allocated its temporaries per statistic
    peaked near 3 MB; work arrays held for the whole process, near 10 MB)."""
    scene = make_scene(256, 256, "flat", LAM_DETECT)
    build_calibration(scene, SensorConfig(seed=3), runs=20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        build_calibration(scene, SensorConfig(seed=4), runs=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6


@pytest.mark.parametrize("side, pattern, bound", [
    (4096, "flat", 1e6), (4096, "gradient", 1e6), (2048, "pcb", 1.2 * 8 * 2048 ** 2)])
def test_scene_memory_stays_the_size_of_its_pattern(side, pattern, bound):
    """A flat or gradient scene is stored as a broadcast view of one value
    or one row: building one at 4096^2 peaks at most at 1 MB (a full
    float64 array is 134 MB). A pcb scene is a full array built from uint8
    tile roles: at 2048^2 it peaks at most at 1.2x its 33.5 MB (int64 role
    arrays and bool masks peaked near 2.1x)."""
    assert _traced_peak(lambda: make_scene(side, side, pattern, 1000.0)) <= bound


def _traced_peak(call):
    """The tracemalloc peak of call(), after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_battery_memory_stays_bounded_at_2048():
    """The battery works in slabs: ward_test with a reference on a 2048^2
    pair (8 MB per image) peaks at most at 8 MB, and a 4-run calibration,
    which holds two captures, at most at 32 MB (work arrays the size of
    the image peaked at 105 MB and 126 MB)."""
    scene = make_scene(2048, 2048, "flat", 1000.0)
    key, cover = capture_pair(scene, SensorConfig(seed=5))
    cal = statcheck.Calibration(
        scene_desc="2048x2048 mean_lambda=1000", n_runs=100, bin_width=1,
        reference_counts=histogram(cover).counts, kl_null=np.zeros(100),
        chi2_logp_null=np.zeros(100), autocorr_max_null=np.zeros(50),
        normdev_dev_null=np.zeros(50))
    assert _traced_peak(lambda: ward_test(key, cal, reference=cover)) <= 8e6
    assert _traced_peak(lambda: build_calibration(scene, SensorConfig(seed=6), runs=4)) <= 32e6


# ---------------------------------------------------------------------------
# bit-identity pins
# ---------------------------------------------------------------------------

# name: (side, pattern, level, calibration seed, bin_width). The reports are
# of capture 0 of the sensor seeded one higher (clean), that capture
# LSB-embedded, and that capture with capture 1 as the reference.
_PIN_SCENES = {
    "flat-100": (256, "flat", 100.0, 1000, 1),
    "flat-1e4": (256, "flat", 1e4, 708, 1),
    "pcb-3000-w4": (128, "pcb", 3000.0, 4, 4),
}

# SHA-256 of the calibration and report bytes, recorded with the battery
# evaluating KL on every bin and taking p-values from scipy.stats.chi2.sf;
# the pcb reference report counts only the pixels with K + C >= 16 as the
# normalized deviation's sample.
_PINS = {
    "flat-100": {
        "calibration": "5f73f7fc7233390a79b260f5dc0943167daceb866c35e7928aee99d2652c3e37",
        "clean": "c0645f7a0cdb88d93d82fb32e0c038fb810895aa0ed1af28b980e360dacb4c44",
        "lsb": "0879bffdce1b4871ab23fdb6e731cb0ccdf44582df62a783e14574869c4dc79c",
        "reference": "65cdc2865af5b445df6957f586d72118b0bea1c417500dca963d680b43f67c03",
    },
    "flat-1e4": {
        "calibration": "a668a1ec77b872dad001116262f4ff43d6319c5eb182e02a3efbe5ea1dc41f27",
        "clean": "c5b8af1926c70e6b1d782d700e78366a0b98e558cc2d7954adb7c33ae5d3b148",
        "lsb": "8db1d0c586b8cf5714f604fc4d68888bada6ceaab70dc0931bfcf206788ec826",
        "reference": "49f067a151db1f89dcf51e3cc0ebafea7ad067e2c421b00306b138bf4a6b6c0f",
    },
    "pcb-3000-w4": {
        "calibration": "f2e5e9b66ffbbf6ba31e6ddb36d3f7889cd6ac944b690beeccb768680145af1e",
        "clean": "9e4a7b6f2e8400a740c47d4f98bc3f23360fa87215f64de82ddc7cf9d9fb2d73",
        "lsb": "be3386d1b2ebe673fd04aab1c513fd5d82796995f8da8242832fc5eb0263b00f",
        "reference": "78e19eafe287d619cbaca17fd85adf60e46e02c18151c2f5754eccdfd4d44be8",
    },
}


@pytest.mark.parametrize("name", sorted(_PIN_SCENES))
def test_calibration_and_report_bytes_pinned(name):
    side, pattern, level, seed, bin_width = _PIN_SCENES[name]
    scene = make_scene(side, side, pattern, level)
    cal = build_calibration(scene, SensorConfig(seed=seed), runs=100, bin_width=bin_width)
    key, cover = capture_pair(scene, SensorConfig(seed=seed + 1))
    lsb = lsb_embed(key, codec.keyed_filler_bits(key.pixel_count, seed))
    got = {"calibration": write_calibration(cal),
           "clean": write_report(ward_test(key, cal)),
           "lsb": write_report(ward_test(lsb, cal)),
           "reference": write_report(ward_test(key, cal, reference=cover))}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == _PINS[name]
