"""Pixel-selection embedding and key-comparison extraction.

The stego image is assembled one pixel (or one g-pixel group) at a time by
choosing between two statistically identical captures: a 0 bit keeps the
key image's pixels, a 1 bit takes the cover image's. Extraction compares
the published image against the key: any difference inside a group means 1.

Because a 0 bit copies the whole group verbatim from the key, the only
error mechanism on raw pixels is a collision: every pixel of a 1-group
happening to agree with the key. For one pixel per bit that probability is
sum_k P(count=k)^2 of the per-pixel count distribution (~0.28% at a mean of
1e4 photons); for g pixels per bit it falls like that number to the g-th
power, which is the capacity-for-robustness trade of block mode.

Both directions share one grouping rule: the usable pixels, in row-major
order, are cut into runs of g and bit b owns run b; leftover usable pixels
and masked pixels always come from the key. The boolean (height, width)
mask is always given; `default_usable_mask` derives it from the key.

Every image-sized pass (the mask, embed, extract) walks the flat pixels in
slabs of SLAB_PIXELS, so its temporaries are slab-sized and the outputs are
the only image-sized arrays. Embed and extract carry the usable-pixel rank
from one slab to the next: if `rank` usable pixels precede a slab, its i-th
usable pixel belongs to bit (rank + i) // g. A group that straddles slabs
is cut at the slab boundaries; embed fills each part from the same bit and
extract ORs the parts' differences into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .imageio import RawImage, check_same_dims

DARK_FLOOR = 16  # counts below this carry mostly electronic noise
SLAB_PIXELS = 1 << 18  # pixels per slab: 256 kB of bool temporaries each


@dataclass
class DecodedBits:
    """Extraction output: one bit per group plus the raw pixel disagreement
    count between the stego image and the key."""

    bits: np.ndarray
    raw_mismatch_count: int


def default_usable_mask(key: RawImage, full_well: int) -> np.ndarray:
    """Exclude the two failure sources visible in the key alone: saturated
    pixels (count pinned at the full well in both captures) and dark pixels
    (no photon noise to hide in). Both sides derive the identical mask from
    the shared key image. A full well outside [1, 65535] is refused."""
    if not 1 <= full_well <= 65535:
        raise ValueError("full_well must be in [1, 65535] so counts fit 16 bits")
    px = key.pixels.reshape(-1)
    out = np.empty(px.shape, dtype=bool)
    for s in range(0, px.size, SLAB_PIXELS):
        part = slice(s, s + SLAB_PIXELS)
        np.less(px[part], full_well, out=out[part])
        out[part] &= px[part] >= DARK_FLOOR
    return out.reshape(key.pixels.shape)


def _flat_mask(mask: np.ndarray, block_pixels: int, shape: tuple) -> np.ndarray:
    """The usable mask, flattened row-major, once g >= 1 and the mask is a
    2-D array of the expected (height, width) shape."""
    if block_pixels < 1:
        raise ValueError("block_pixels must be >= 1")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.shape != shape:
        raise ValueError(f"usable mask of shape {mask.shape} does not match {shape}")
    return mask.reshape(-1)


def capacity_bits(mask: np.ndarray, block_pixels: int) -> int:
    """Message bits the grouping holds: one per whole run of g usable pixels."""
    return int(np.count_nonzero(_flat_mask(mask, block_pixels, np.shape(mask)))) // block_pixels


def _slabs(mask: np.ndarray, g: int, n_groups: int):
    """Walk the flat mask in slabs of SLAB_PIXELS pixels, carrying the rank
    of the slab's first usable pixel. Yields the slab's pixel slice, its
    mask, its usable count and its runs: (a, b, w, first) says that the
    slab's usable pixels [a, b) are (b - a) // w rows of w pixels, row i
    in group first + i. The runs are at most three: the tail of a group
    begun in an earlier slab, the slab's whole groups and the head of a
    group it leaves open. Usable pixels past the last whole group are in no
    run."""
    rank = 0
    end = n_groups * g
    for s in range(0, mask.size, SLAB_PIXELS):
        part = slice(s, s + SLAB_PIXELS)
        m = mask[part]
        used = int(np.count_nonzero(m))
        start, rank = rank, rank + used
        stop = max(min(rank, end), start)
        lo = min(-(-start // g) * g, stop)  # first group boundary in [start, stop]
        hi = max(stop // g * g, lo)  # last one
        runs = [(a - start, b - start, w, a // g)
                for a, b, w in ((start, lo, lo - start), (lo, hi, g), (hi, stop, stop - hi))
                if b > a]
        yield part, m, used, runs


def embed(key: RawImage, cover: RawImage, bits: np.ndarray, mask: np.ndarray,
          block_pixels: int) -> RawImage:
    """Assemble the stego image: group b comes from the cover if bits[b] is
    1, from the key otherwise; everything outside the groups is the key."""
    check_same_dims(key, cover)
    g = block_pixels
    mask = _flat_mask(mask, g, key.pixels.shape)
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    n_groups = int(np.count_nonzero(mask)) // g
    if len(bits) != n_groups:
        raise ValueError(f"bit vector length {len(bits)} != group count {n_groups}")
    out = key.pixels.copy()
    flat_out, flat_cover = out.reshape(-1), cover.pixels.reshape(-1)
    for part, m, used, runs in _slabs(mask, g, n_groups):
        take = np.zeros(used, dtype=bool)
        for a, b, w, first in runs:
            take[a:b].reshape(-1, w)[...] = (bits[first:first + (b - a) // w] == 1)[:, None]
        where = np.zeros(m.shape, dtype=bool)
        where[m] = take
        np.copyto(flat_out[part], flat_cover[part], where=where)
    return RawImage(width=key.width, height=key.height, pixels=out)


def extract(stego: RawImage, key: RawImage, mask: np.ndarray,
            block_pixels: int) -> DecodedBits:
    """Recover bits by comparison: a group decodes to 1 iff any of its
    pixels differs from the key."""
    check_same_dims(stego, key)
    g = block_pixels
    mask = _flat_mask(mask, g, key.pixels.shape)
    n_groups = int(np.count_nonzero(mask)) // g
    bits = np.zeros(n_groups, dtype=np.uint8)
    flat_stego, flat_key = stego.pixels.reshape(-1), key.pixels.reshape(-1)
    mismatches = 0
    for part, m, _, runs in _slabs(mask, g, n_groups):
        diff = flat_stego[part] != flat_key[part]
        mismatches += int(np.count_nonzero(diff))
        usable = diff[m]
        for a, b, w, first in runs:  # a group split over slabs ORs each part in
            bits[first:first + (b - a) // w] |= usable[a:b].reshape(-1, w).any(axis=1)
    return DecodedBits(bits=bits, raw_mismatch_count=mismatches)


def collision_rate(key: RawImage, cover: RawImage,
                   mask: Optional[np.ndarray] = None) -> float:
    """Fraction of (usable) pixels where the two captures agree exactly."""
    check_same_dims(key, cover)
    same = key.pixels == cover.pixels
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("mask leaves no usable pixels")
        same = same[mask]
    return float(np.mean(same))


def expected_collision_rate(lam: float) -> float:
    """Analytic probability that two independent Poisson(lam) draws agree:
    sum_k (e^-lam lam^k / k!)^2, truncated at lam +- 12 sqrt(lam) (at least
    [0, 40]), relative error below 1e-6. Planning aid for parity sizing."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0:
        return 1.0
    half = 12.0 * math.sqrt(lam)
    lo = max(0, int(math.floor(lam - half)))
    hi = max(40, int(math.ceil(lam + half)))
    k = np.arange(lo, hi + 1, dtype=np.float64)
    log_pmf = -lam + k * math.log(lam) - gammaln(k + 1.0)
    return float(np.exp(2.0 * log_pmf).sum())
