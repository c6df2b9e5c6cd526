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
and masked pixels always come from the key. Without a mask every pixel is
usable and the step through the mask is skipped.
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
class StegoParams:
    """Embedding geometry: pixels per message bit and the usable mask.

    usable_mask is a boolean (height, width) array; None means every pixel
    participates. The module docstring gives the grouping rule.
    """

    block_pixels: int = 1
    usable_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.block_pixels < 1:
            raise ValueError("block_pixels must be >= 1")

    def mask_for(self, img: RawImage) -> np.ndarray:
        if self.usable_mask is None:
            return np.ones((img.height, img.width), dtype=bool)
        mask = np.asarray(self.usable_mask, dtype=bool)
        if mask.shape != (img.height, img.width):
            raise ValueError("usable_mask shape does not match image")
        return mask

    def capacity_bits(self, img: RawImage) -> int:
        return int(np.count_nonzero(self.mask_for(img))) // self.block_pixels


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


def _usable(params: StegoParams, img: RawImage) -> Optional[np.ndarray]:
    """Flat usable-pixel mask, or None when every pixel participates."""
    if params.usable_mask is None:
        return None
    return params.mask_for(img).reshape(-1)


def _check_dims(a: RawImage, b: RawImage) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError("image dimensions do not match")


def embed(key: RawImage, cover: RawImage, bits: np.ndarray, params: StegoParams) -> RawImage:
    """Assemble the stego image: group b comes from the cover if bits[b] is
    1, from the key otherwise; everything outside the groups is the key."""
    _check_dims(key, cover)
    g = params.block_pixels
    bits = np.asarray(bits, dtype=np.uint8).reshape(-1)
    mask = _usable(params, key)
    take = np.zeros(key.pixel_count if mask is None else np.count_nonzero(mask), dtype=bool)
    n_groups = len(take) // g
    if len(bits) != n_groups:
        raise ValueError(f"bit vector length {len(bits)} != group count {n_groups}")
    take[:n_groups * g].reshape(n_groups, g)[...] = (bits == 1)[:, None]
    if mask is not None:
        take_all = np.zeros_like(mask)
        take_all[mask] = take
        take = take_all
    out = key.pixels.copy()
    np.copyto(out, cover.pixels, where=take.reshape(out.shape))
    return RawImage(width=key.width, height=key.height, pixels=out)


def extract(stego: RawImage, key: RawImage, params: StegoParams) -> DecodedBits:
    """Recover bits by comparison: a group decodes to 1 iff any of its
    pixels differs from the key."""
    _check_dims(stego, key)
    g = params.block_pixels
    diff = (stego.pixels != key.pixels).reshape(-1)
    mask = _usable(params, key)
    usable = diff if mask is None else diff[mask]
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
