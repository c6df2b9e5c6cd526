"""Steganalysis battery and simulator verification statistics.

The warden's question is a hypothesis test: is this image an ordinary
photograph? The battery answers with four statistics,

  * KL divergence of the pixel-value histogram against a calibrated clean
    reference (relative entropy in bits),
  * a pairs-of-values chi-square test for least-significant-bit artifacts,
  * the lag autocorrelation of a capture difference (pixel independence),
  * the normalized pixel deviation of a capture pair (shot-noise scaling),

and a composite verdict: suspicious iff any statistic exceeds its 99th
percentile under a null distribution calibrated from clean simulated
captures. No fixed thresholds; the simulator is its own control.

Each statistic has one implementation, a module function that the public
functions call. One more function, `_judge`, runs the battery on every
image that build_calibration and ward_test judge, so the verdict computes
exactly what the calibration recorded as the null. The list of statistics
is the table `_NULLS`: a new statistic is one entry there, one line in
`_judge` and a stated change of the calibration file format. The functions
walk the images in slabs of at most 2^16 pixels, in work arrays that each
thread holds across calls (see _array), so no work array grows with the
image.

The two pair statistics come from one walk over the pair, as exact integer
sums, among them one sum of d = K - C per image column, from which every
sum of d the lags need follows (see _PairSums). Every term is an integer
below 2^32 and no slab adds more than 2^20 of them, so every partial sum is
an integer below 2^52, exact in float64 in any order. Each statistic is
then rounded once, from Python integers, and depends neither on the image
size nor on the order of evaluation.

The chi-square test deserves a note. Replacing every least-significant bit
equalizes the counts of each value pair (2k, 2k+1) while leaving the pair
totals untouched. A genuine photon-noise histogram is smooth but not
pair-balanced, so the test predicts each within-pair split from the
neighboring pair totals (local geometric interpolation, which LSB
embedding cannot alter) and chi-squares the observed even counts against
that prediction. Under a smooth clean image the statistic is chi-square
distributed and the returned p-value is uniform; under LSB replacement the
forced 50/50 splits contradict the prediction and the p-value collapses.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# capture stays imported although the battery draws from captures():
# the benchmark's self-test checks that its tracer patches this binding
from .camera import SceneRadiance, SensorConfig, capture, captures  # noqa: F401
from .imageio import PGM_MAXVAL, RawImage, check_same_dims

AUTOCORR_LAGS = 8
KL_SMOOTHING = 0.5
_CHI2_MIN_PAIR = 32
_NVALUES = PGM_MAXVAL + 1
# pixels per slab of the battery's walks; at most 2^19, so that a slab with
# its context columns holds at most 2^20 terms
_SLAB = 1 << 16


class CalibrationError(ValueError):
    """Missing or undersized calibration data."""


def _chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer df: the regularized upper
    gamma Q(df/2, y) at y = x/2, in closed form (Abramowitz & Stegun 26.4.4
    and 26.4.5). That is erfc(sqrt(y)) when df is odd, plus
    y^a e^-y / Gamma(a + 1) over a = df/2 - 1, df/2 - 2, ... >= 0, these
    summed in logs from the largest term."""
    y = x / 2
    if y <= 0:  # x <= 0, or x so small that x / 2 underflows to 0
        return 1.0
    log_y = math.log(y)
    logs = [a * log_y - y - math.lgamma(a + 1)
            for a in (df / 2 - i for i in range(1, df // 2 + 1))]
    top = max(logs, default=0.0)
    terms = math.exp(top) * math.fsum(math.exp(t - top) for t in logs)
    return (math.erfc(math.sqrt(y)) if df % 2 else 0.0) + terms


def _slabs(height: int, width: int):
    """The image cut into slabs of at most _SLAB pixels, as (rows, columns)
    slice pairs: runs of whole rows, or column chunks of one row when a row
    is wider than _SLAB."""
    step, cstep = max(_SLAB // width, 1), min(width, _SLAB)
    for r0 in range(0, height, step):
        for c0 in range(0, width, cstep):
            yield slice(r0, min(r0 + step, height)), slice(c0, min(c0 + cstep, width))


# The battery's work arrays, held by name and made on first use. None is
# larger than a slab of _SLAB pixels with max_lag columns of context per
# row, or the 16-bit value range. Each step is done with its arrays before
# the next starts, and no result refers to one, so a thread can keep one
# set across all its calls; each thread has its own set.
#
# Exactness rule of the pair walk: d = K - C is an integer below 2^16 in
# magnitude, so d and each product of two differences are integers below
# 2^32, and each dot, sum or weighted bincount over a slab adds fewer than
# 2 * _SLAB <= 2^20 of them. Its result is an integer below 2^52, exact in
# float64 whatever the order; the slab results are added as Python ints,
# or as int64 for the column sums and the per-(K + C) sums of d^2 (exact
# below 2^31 pixels).
_held = threading.local()


def _array(name: str, size: int, dtype) -> np.ndarray:
    """The first `size` elements of this thread's held array `name`."""
    arr = getattr(_held, name, None)
    if arr is None or arr.size < size:
        arr = np.empty(size, dtype=dtype)
        setattr(_held, name, arr)
    return arr[:size]


class _PairSums:
    """Exact integer sums of a capture pair's difference d = K - C, from
    which both pair statistics follow with one rounding each: the sum of d
    over each image column, each lag's product sum, the sum of d^2 for each
    value of K + C and the count of pixels with K + C < 16. The column sums
    give s1 = sum of d and, for lag j, the sums H_j and T_j of d over the
    lag's first and second factors: H_j + T_j = 2 s1 - (sum of the first j
    columns) - (sum of the last j)."""

    def __init__(self, height: int, width: int, max_lag: int):
        self.height, self.width, self.max_lag = height, width, max_lag
        self.columns = np.zeros(width, dtype=np.int64)
        self.lags = [0] * max_lag
        self.squares = np.zeros(0, dtype=np.int64)
        self.dark = 0

    @property
    def bright(self) -> int:
        """The pixels with K + C >= 16, which the normalized deviation uses."""
        return self.height * self.width - self.dark

    def autocorrelation(self) -> np.ndarray:
        """rho_j = (n^2 L_j - n s1 (H_j + T_j) + n_j s1^2) / (n_j (n s2 - s1^2)),
        where n_j = h (w - j): one correctly rounded int division."""
        h, w, cols = self.height, self.width, self.columns
        n, s1 = h * w, int(cols.sum())
        var = n * int(self.squares.sum()) - s1 * s1
        if var == 0:
            raise ValueError("difference image is constant; identical captures?")
        rho = np.empty(self.max_lag, dtype=np.float64)
        for j in range(1, self.max_lag + 1):
            n_j = h * (w - j)
            h_plus_t = 2 * s1 - int(cols[:j].sum()) - int(cols[w - j:].sum())
            rho[j - 1] = (n * n * self.lags[j - 1] - n * s1 * h_plus_t + n_j * s1 * s1) \
                / (n_j * var)
        return rho

    def normalized_deviation(self) -> float:
        """sqrt(fsum over s >= 16 of float(D2_s) / s, divided by the pixels
        with K + C >= 16), D2_s being the sum of d^2 where K + C = s."""
        if self.bright == 0:
            raise ValueError("no pixels with K + C >= 16")
        q = self.squares[16:] / np.arange(16, max(len(self.squares), 16))
        return math.sqrt(math.fsum(q.tolist()) / self.bright)


def _value_counts(img: RawImage) -> np.ndarray:
    """Counts of every 16-bit value in the image, one bincount per slab.
    Each slab's pixels are widened into ints, the index array bincount
    would otherwise allocate."""
    counts = None
    for rows, cols in _slabs(img.height, img.width):
        block = img.pixels[rows, cols]
        vals = _array("ints", block.size, np.int64)
        np.copyto(vals.reshape(block.shape), block)
        part = np.bincount(vals, minlength=_NVALUES)
        if counts is None:
            counts = part
        else:
            counts += part
    return counts


def _chi2_pvalue(counts: np.ndarray, pixel_count: int) -> float:
    """chi_square_attack from the counts of every 16-bit value."""
    if pixel_count < 10_000:
        raise ValueError("chi-square attack needs an image of >= 1e4 pixels")
    even = counts[0::2]
    m = np.add(even, counts[1::2], out=_array("ints", len(even), np.int64))
    well = np.greater_equal(m, _CHI2_MIN_PAIR, out=_array("flags", len(m), bool))
    # a pair is tested when it and both neighbours are well populated, so
    # never the first or the last
    kk = 1 + np.flatnonzero(well[1:-1] & well[:-2] & well[2:])
    if kk.size == 0:
        raise ValueError("insufficient samples: no well-populated value pairs")
    # integer counts are exact in float64; only the selected pairs are converted
    m_k, m_next, m_prev, even_k = (
        x.astype(np.float64) for x in (m[kk], m[kk + 1], m[kk - 1], even[kk]))
    rho = (m_next / m_prev) ** 0.25
    q = 1.0 / (1.0 + rho)
    expected = m_k * q
    var_log_rho = (1.0 / m_next + 1.0 / m_prev) / 16.0
    var_q = (rho / (1.0 + rho) ** 2) ** 2 * var_log_rho
    variance = m_k * q * (1.0 - q) + m_k ** 2 * var_q
    stat = float(np.sum((even_k - expected) ** 2 / variance))
    return _chi2_sf(kk.size, stat)


def _pair_sums(key: RawImage, cover: RawImage, max_lag: Optional[int]) -> _PairSums:
    """The sums of both pair statistics in one walk over the pair; with
    max_lag None, only those of the normalized deviation."""
    check_same_dims(key, cover)
    h, w = key.pixels.shape
    if max_lag is not None and not (1 <= max_lag < w):
        raise ValueError("max_lag must be in [1, width)")
    m = max_lag or 0
    sums = _PairSums(h, w, m)
    for rows, cols in _slabs(h, w):
        k, c = key.pixels[rows, cols], cover.pixels[rows, cols]
        r, cw = k.shape
        # each row of d sits behind m columns of context: the m values of
        # d before it in the image row, zero before column 0. A lag
        # product whose second factor is in the slab then has its first
        # factor in the buffer, and none wraps into the next row.
        padded = _array("reals", r * (m + cw), np.float64).reshape(r, m + cw)
        flat, d = padded.reshape(-1), padded[:, m:]
        lo = max(cols.start - m, 0)  # the context columns inside the image start here
        gap = m - (cols.start - lo)  # and this many before column 0 are zero
        padded[:, :gap] = 0
        np.subtract(key.pixels[rows, lo:cols.stop], cover.pixels[rows, lo:cols.stop],
                    out=padded[:, gap:], dtype=np.float64)
        for j in range(1, m + 1):
            sums.lags[j - 1] += int(np.dot(flat[m - j:flat.size - j], flat[m:]))
        padded[:, :m] = 0  # from here on the context adds nothing
        sums.columns[cols] += d.sum(axis=0).astype(np.int64)
        # d^2 per value of K + C, binned at least as long as the running
        # sums; the context's zero squares go to bin 0
        np.square(flat, out=flat)
        ksum = _array("ints", r * (m + cw), np.int64).reshape(r, m + cw)
        ksum[:, :m] = 0
        np.add(k, c, out=ksum[:, m:], dtype=np.int64)
        squares = np.bincount(ksum.reshape(-1), weights=flat,
                              minlength=len(sums.squares)).astype(np.int64)
        squares[:len(sums.squares)] += sums.squares
        sums.squares = squares
        dark = np.less(ksum[:, m:], 16, out=_array("flags", r * cw, bool).reshape(r, cw))
        sums.dark += int(np.count_nonzero(dark))
    return sums


def _judge(img: RawImage, ref_hist: Histogram,
           partner: Optional[RawImage]) -> tuple[dict, dict]:
    """The battery on one image: KL against ref_hist and the chi-square
    from one count of its values, then the pair statistics of (img,
    partner) if a partner is given. Returns each statistic in the space
    of its null, by its name in _NULLS, and the AnalysisReport fields
    but the verdict."""
    n = img.pixel_count
    counts = _value_counts(img)
    kl = kl_divergence(_binned(counts, n, ref_hist.bin_width), ref_hist, KL_SMOOTHING)
    p = _chi2_pvalue(counts, n)
    del counts  # not held through the pair statistics or the next count
    stats = {"kl": kl, "chi2_logp": -math.log10(max(p, 1e-300))}
    report = dict(kl_bits=kl, autocorr=(), norm_dev=math.nan, chi2_pvalue=p,
                  sample_sizes={"kl": n, "chi2": n})
    if partner is not None:
        pair = _pair_sums(img, partner, AUTOCORR_LAGS)
        rho, dev = pair.autocorrelation(), pair.normalized_deviation()
        stats.update(autocorr_max=float(np.max(np.abs(rho))), normdev_dev=abs(dev - 1.0))
        report.update(autocorr=tuple(rho.tolist()), norm_dev=dev)
        report["sample_sizes"].update(autocorr=n, norm_dev=pair.bright)
    return stats, report


# ---------------------------------------------------------------------------
# Histograms and KL divergence
# ---------------------------------------------------------------------------

@dataclass
class Histogram:
    """Counts of pixel values over contiguous fixed-width bins covering the
    whole 16-bit range, so any two histograms with equal bin_width share
    identical binning."""

    bin_width: int
    counts: np.ndarray
    total: int

    def __post_init__(self):
        _check_bin_width(self.bin_width)

    @property
    def bin_edges(self) -> np.ndarray:
        return np.arange(len(self.counts) + 1, dtype=np.int64) * self.bin_width


def _check_bin_width(bin_width: int) -> None:
    """Bin widths lie in [1, 65536]: one bin of 65536 already holds every value."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    if bin_width > _NVALUES:
        raise ValueError(f"bin_width must be <= {_NVALUES}, got {bin_width}")


def _binned(counts: np.ndarray, total: int, bin_width: int) -> Histogram:
    """The histogram of bin_width from the counts of every 16-bit value;
    a bin's count is the exact integer sum of its values' counts."""
    if bin_width > 1:
        counts = np.add.reduceat(counts, np.arange(0, _NVALUES, bin_width))
    return Histogram(bin_width=bin_width, counts=counts, total=total)


def histogram(img: RawImage, bin_width: int = 1) -> Histogram:
    """Histogram of the image's pixel values; bins of bin_width counts."""
    _check_bin_width(bin_width)
    return _binned(_value_counts(img), img.pixel_count, bin_width)


def kl_divergence(p_hist: Histogram, q_hist: Histogram,
                  smoothing: float = KL_SMOOTHING) -> float:
    """D(P || Q) in bits over additively smoothed bin probabilities.

    Zero iff the smoothed distributions coincide; always >= 0 (Gibbs).

    A bin empty in both histograms contributes the same term, exactly 0.0
    when the totals are equal, so only the populated bins are computed; the
    terms are summed over all bins in one pass, which gives the same float
    as evaluating every bin.
    """
    if not 0 < smoothing < math.inf:
        raise ValueError(f"smoothing must be finite and > 0, got {smoothing}")
    if p_hist.bin_width != q_hist.bin_width or len(p_hist.counts) != len(q_hist.counts):
        raise ValueError("histograms use different binning")
    nbins = len(p_hist.counts)
    p_norm = p_hist.total + smoothing * nbins
    q_norm = q_hist.total + smoothing * nbins
    p_empty, q_empty = smoothing / np.array([p_norm, q_norm], dtype=np.float64)
    terms = _array("reals", nbins, np.float64)
    terms.fill(p_empty * np.log2(p_empty / q_empty))
    used = np.flatnonzero(np.logical_or(p_hist.counts, q_hist.counts,
                                        out=_array("flags", nbins, bool)))
    p = (p_hist.counts[used] + smoothing) / p_norm
    q = (q_hist.counts[used] + smoothing) / q_norm
    terms[used] = p * np.log2(p / q)
    return float(np.sum(terms))


def histogram_csv(hist: Histogram) -> bytes:
    """CSV dump (bin_low, bin_high, count), populated bins only."""
    lines = ["bin_low,bin_high,count"]
    edges = hist.bin_edges
    for i in np.flatnonzero(hist.counts):
        lines.append(f"{edges[i]},{edges[i + 1]},{hist.counts[i]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Baseline embedding for contrast: LSB replacement
# ---------------------------------------------------------------------------

def lsb_embed(img: RawImage, bits: np.ndarray) -> RawImage:
    """Replace each pixel's least-significant bit (replacement, not
    matching); the distortion this introduces is what the battery is
    calibrated to catch."""
    bits = np.asarray(bits, dtype=np.uint16).reshape(-1)
    if bits.size != img.pixel_count:
        raise ValueError("bit vector length must equal pixel count")
    out = (img.pixels.reshape(-1) & np.uint16(0xFFFE)) | bits
    return RawImage(width=img.width, height=img.height,
                    pixels=out.reshape(img.height, img.width))


# ---------------------------------------------------------------------------
# Pair statistics and the chi-square pairs-of-values attack
# ---------------------------------------------------------------------------

def autocorrelation(key: RawImage, cover: RawImage, max_lag: int = AUTOCORR_LAGS) -> np.ndarray:
    """Normalized autocovariance of the capture difference at horizontal
    lags 1..max_lag, rows pooled. Subtracting the two captures cancels the
    static scene, leaving pure noise whose correlation should vanish."""
    return _pair_sums(key, cover, max_lag).autocorrelation()


def normalized_deviation(key: RawImage, cover: RawImage) -> float:
    """Root mean square of (K - C) / sqrt(K + C) over pixels with
    K + C >= 16. Pure shot noise gives exactly 1 in expectation; identical
    captures give 0; exposure drift pushes it above 1."""
    return _pair_sums(key, cover, None).normalized_deviation()


def chi_square_attack(img: RawImage) -> float:
    """P-value of the clean hypothesis from the pairs-of-values statistic.

    For each value pair (2k, 2k+1) whose neighborhood is well populated,
    predict the within-pair even fraction from the pair totals of the two
    neighboring pairs (totals are invariant under LSB replacement), then
    form the chi-square of observed even counts against the prediction.
    The denominator includes the predictor's own sampling variance (delta
    method), which keeps the statistic chi-square distributed under the
    null. Small p-value: the splits are too balanced for a genuine smooth
    histogram, the signature of full LSB embedding.
    """
    return _chi2_pvalue(_value_counts(img), img.pixel_count)


# ---------------------------------------------------------------------------
# Calibration and the composite warden verdict
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Every statistic with the sample size it was computed from."""

    kl_bits: float
    autocorr: tuple
    norm_dev: float
    chi2_pvalue: float
    verdict: str
    sample_sizes: dict = field(default_factory=dict)


@dataclass
class Calibration:
    """Null distributions of the battery statistics over clean captures.

    Thresholds are the 99th percentiles of each null sample set; nothing
    here is a hand-picked constant.
    """

    scene_desc: str
    n_runs: int
    bin_width: int
    reference_counts: np.ndarray
    kl_null: np.ndarray
    chi2_logp_null: np.ndarray
    autocorr_max_null: np.ndarray
    normdev_dev_null: np.ndarray

    def reference_hist(self) -> Histogram:
        return Histogram(bin_width=self.bin_width, counts=self.reference_counts,
                         total=int(self.reference_counts.sum()))

    def threshold(self, name: str) -> float:
        return float(np.percentile(getattr(self, _NULLS[name][0]), 99))


# The battery's statistics in the calibration file's order: name -> the
# Calibration field of its null, and whether that has a sample per run or per pair.
_NULLS = {"kl": ("kl_null", True), "chi2_logp": ("chi2_logp_null", True),
          "autocorr_max": ("autocorr_max_null", False),
          "normdev_dev": ("normdev_dev_null", False)}


def build_calibration(scene: SceneRadiance, sensor: SensorConfig,
                      runs: int = 100, bin_width: int = 1) -> Calibration:
    """Calibrate the battery's null distributions from clean captures.

    Capture 0 becomes the KL reference; captures 1..runs provide the KL
    and chi-square nulls; the pairs (i, i - 1) for even i feed the
    pair-statistic nulls. Only the reference histogram and the previous
    capture are held, with the camera's work arrays for the call and the
    statistics' held by the thread.
    """
    if runs < 2:
        raise CalibrationError("calibration needs at least 2 runs")
    _check_bin_width(bin_width)
    shots = captures(scene, sensor, range(runs + 1))
    prev = next(shots)
    ref = _binned(_value_counts(prev), prev.pixel_count, bin_width)
    nulls = {name: [] for name in _NULLS}
    for i, im in enumerate(shots, start=1):
        for name, value in _judge(im, ref, prev if i % 2 == 0 else None)[0].items():
            nulls[name].append(value)
        prev = im
    desc = f"{scene.width}x{scene.height} mean_lambda={scene.lam.mean():.6g}"
    return Calibration(
        scene_desc=desc, n_runs=runs, bin_width=bin_width, reference_counts=ref.counts,
        **{fld: np.array(nulls[name]) for name, (fld, _) in _NULLS.items()})


def ward_test(img: RawImage, calibration: Optional[Calibration],
              reference: Optional[RawImage] = None) -> AnalysisReport:
    """Run the battery against calibrated thresholds and render a verdict.

    The KL and chi-square statistics always run, from one count of the
    image's values; the pair statistics run when a second capture of the
    same scene is provided. Suspicious iff any statistic exceeds its
    calibrated 99th percentile. A calibration judges only images with the
    pixel count of its captures, its reference histogram's total.
    """
    if calibration is None:
        raise CalibrationError("ward_test requires calibration data")
    if calibration.n_runs < 100:
        raise CalibrationError(f"calibration built from {calibration.n_runs} runs; need >= 100")
    ref = calibration.reference_hist()
    n = img.pixel_count
    if n != ref.total:
        raise CalibrationError(f"calibration describes images of {ref.total} pixels, not {n}")
    stats, fields = _judge(img, ref, reference)
    suspicious = any(value > calibration.threshold(name) for name, value in stats.items())
    return AnalysisReport(verdict="suspicious" if suspicious else "clean", **fields)


# ---------------------------------------------------------------------------
# Calibration file format
# ---------------------------------------------------------------------------

def write_calibration(cal: Calibration) -> bytes:
    """Versioned structured text: header lines, then one line per
    statistic's null samples, then the sparse reference histogram. The
    reference_total written is the sum of the reference counts."""
    lines = [
        "shotstego-calibration v1",
        f"scene {cal.scene_desc}",
        f"runs {cal.n_runs}",
        f"bin_width {cal.bin_width}",
        f"reference_total {int(cal.reference_counts.sum())}",
    ]
    for fld, _ in _NULLS.values():
        lines.append(fld + " " + " ".join(f"{v:.9g}" for v in getattr(cal, fld)))
    lines.append("reference_counts " + " ".join(
        f"{i}:{cal.reference_counts[i]}" for i in np.flatnonzero(cal.reference_counts)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_null(fields: dict, name: str, length: int) -> np.ndarray:
    """A null sample list; it must hold exactly `length` finite values."""
    vals = np.array([float(tok) for tok in fields[name].split()], dtype=np.float64)
    if vals.size == 0:
        raise CalibrationError(f"calibration field {name} is empty")
    if not np.all(np.isfinite(vals)):
        raise CalibrationError(f"calibration field {name} holds a non-finite value")
    if vals.size != length:
        raise CalibrationError(
            f"calibration field {name} has {vals.size} values, expected {length}")
    return vals


def read_calibration(data: bytes) -> Calibration:
    """Parse and validate a v1 calibration file; any defect raises
    CalibrationError. The KL and chi-square nulls hold one value per run,
    the pair-statistic nulls one per run pair (see build_calibration); the
    reference counts are non-negative, list each bin once and sum to
    reference_total; each field is given once."""
    try:
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != "shotstego-calibration v1":
            raise CalibrationError("not a calibration file (bad version header)")
        fields: dict[str, str] = {}
        for line in lines[1:]:
            if line.strip():
                key, _, rest = line.partition(" ")
                if key in fields:
                    raise CalibrationError(f"calibration field {key} is listed twice")
                fields[key] = rest
        runs = int(fields["runs"])
        bin_width = int(fields["bin_width"])
        if not 1 <= bin_width <= _NVALUES:
            raise CalibrationError(f"calibration bin_width {bin_width} is outside [1, {_NVALUES}]")
        nbins = -(-_NVALUES // bin_width)
        counts = np.zeros(nbins, dtype=np.int64)
        listed, seen = 0, set()
        for item in fields["reference_counts"].split():
            i, _, v = item.partition(":")
            i, v = int(i), int(v)
            if not 0 <= i < nbins:
                raise CalibrationError(
                    f"reference_counts index {i} is outside [0, {nbins})")
            if v < 0:
                raise CalibrationError(f"reference_counts bin {i} holds a negative count")
            if i in seen:
                raise CalibrationError(f"reference_counts bin {i} is listed twice")
            seen.add(i)
            counts[i] = v
            listed += v
        total = int(fields["reference_total"])
        if total != listed:
            raise CalibrationError(
                f"reference_total {total} differs from the sum of reference_counts {listed}")
        return Calibration(
            scene_desc=fields["scene"],
            n_runs=runs,
            bin_width=bin_width,
            reference_counts=counts,
            **{fld: _parse_null(fields, fld, runs if per_run else runs // 2)
               for fld, per_run in _NULLS.values()})
    except CalibrationError:
        raise
    except KeyError as exc:
        raise CalibrationError(f"calibration file missing field {exc}") from exc
    except OverflowError as exc:  # a count past int64
        raise CalibrationError(f"calibration value out of range: {exc}") from exc
    except ValueError as exc:  # a malformed number, or bytes that are not UTF-8
        raise CalibrationError(f"calibration file malformed: {exc}") from exc
