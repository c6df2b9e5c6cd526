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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .imageio import RawImage

DARK_FLOOR = 16  # counts below this carry mostly electronic noise


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
    the shared key image."""
    px = key.pixels
    return (px < full_well) & (px >= DARK_FLOOR)


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


def _check_dims(a: RawImage, b: RawImage) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("image dimensions do not match")


def embed(key: RawImage, cover: RawImage, bits: np.ndarray, mask: np.ndarray,
          block_pixels: int) -> RawImage:
    """Assemble the stego image: group b comes from the cover if bits[b] is
    1, from the key otherwise; everything outside the groups is the key."""
    _check_dims(key, cover)
    g = block_pixels
    mask = _flat_mask(mask, g, key.pixels.shape)
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    take = np.zeros(np.count_nonzero(mask), dtype=bool)
    n_groups = len(take) // g
    if len(bits) != n_groups:
        raise ValueError(f"bit vector length {len(bits)} != group count {n_groups}")
    take[:n_groups * g].reshape(n_groups, g)[...] = (bits == 1)[:, None]
    take_all = np.zeros_like(mask)
    take_all[mask] = take
    out = key.pixels.copy()
    np.copyto(out, cover.pixels, where=take_all.reshape(out.shape))
    return RawImage(width=key.width, height=key.height, pixels=out)


def extract(stego: RawImage, key: RawImage, mask: np.ndarray,
            block_pixels: int) -> DecodedBits:
    """Recover bits by comparison: a group decodes to 1 iff any of its
    pixels differs from the key."""
    _check_dims(stego, key)
    g = block_pixels
    mask = _flat_mask(mask, g, key.pixels.shape)
    diff = (stego.pixels != key.pixels).reshape(-1)
    usable = diff[mask]
    bits = usable[:len(usable) // g * g].reshape(-1, g).any(axis=1).astype(np.uint8)
    return DecodedBits(bits=bits, raw_mismatch_count=int(np.count_nonzero(diff)))


def collision_rate(key: RawImage, cover: RawImage,
                   mask: Optional[np.ndarray] = None) -> float:
    """Fraction of (usable) pixels where the two captures agree exactly."""
    _check_dims(key, cover)
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
