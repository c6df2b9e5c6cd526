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

Both directions share one grouping rule: the key's usable pixels, in
row-major order, are cut into runs of g and bit b owns run b; leftover
usable pixels and unusable pixels always come from the key. A value v is
usable if DARK_FLOOR <= v < full_well: saturated pixels (pinned at the full
well in both captures) and dark ones (no photon noise to hide in) are left
out. The key and the full well alone decide, so both sides find the same
pixels. The embedder takes a cover pixel only where the cover is usable
too, which makes the rule symmetric in the two captures, independent draws
of one law P: with p = P(usable), a usable x stays from the key with
probability P(x)(1 - bp) and comes from the cover with probability bp P(x),
an unusable x only from the key, so P(S = x) = P(x) for any share b of
1-bits. A 1-bit whose cover pixels are all unusable reads as 0.

One walker, `_slabs`, flags the usable pixels for every pass over the
image, in slabs of SLAB_PIXELS, so its temporaries are slab-sized and the
outputs are the only image-sized arrays. Grouping is rank arithmetic: the
usable pixel of rank r, counted in row-major order over the whole image,
belongs to bit r // g, and embed and extract carry r across slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .imageio import RawImage, check_same_dims

DARK_FLOOR = 16  # counts below this carry mostly electronic noise
SLAB_PIXELS = 1 << 18  # pixels per slab: 256 kB of bool temporaries each


@dataclass
class DecodedBits:
    """Extraction output: one bit per group plus the raw pixel disagreement
    count between the stego image and the key."""

    bits: np.ndarray
    raw_mismatch_count: int


def _usable(px: np.ndarray, full_well: int, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Flag into out the pixels that can carry a bit: DARK_FLOOR <= px < full_well,
    as one compare of px - DARK_FLOOR, which wraps below the floor, held in
    the uint16 scratch."""
    np.subtract(px, np.uint16(DARK_FLOOR), out=scratch)
    return np.less(scratch, np.uint16(max(full_well - DARK_FLOOR, 0)), out=out)


def _slabs(key: RawImage, full_well: int, g: int = 1, scratch: Optional[np.ndarray] = None):
    """Walk the key in slabs, flagging its usable pixels. A full well
    outside [1, 65535] or g < 1 is refused on the call, before any slab.
    Yields the slab's pixel slice and its flags, a buffer the next slab
    overwrites. The walk overwrites the slab's part of `scratch`, a flat
    uint16 array of the key's size, or else holds a slab-sized one."""
    if not 1 <= full_well <= 65535:
        raise ValueError("full_well must be in [1, 65535] so counts fit 16 bits")
    if g < 1:
        raise ValueError("block_pixels must be >= 1")
    px = key.pixels.reshape(-1)
    flags = np.empty(min(px.size, SLAB_PIXELS), dtype=bool)
    held = np.empty(flags.size, dtype=np.uint16) if scratch is None else None

    def walk():
        for s in range(0, px.size, SLAB_PIXELS):
            k = px[s:s + SLAB_PIXELS]
            part = slice(s, s + k.size)
            work = held[:k.size] if scratch is None else scratch[part]
            yield part, _usable(k, full_well, flags[:k.size], work)

    return walk()


def default_usable_mask(key: RawImage, full_well: int) -> np.ndarray:
    """The usable pixels of the key as a (height, width) boolean array."""
    out = np.empty(key.pixels.shape, dtype=bool)
    for part, m in _slabs(key, full_well):
        out.reshape(-1)[part] = m
    return out


def capacity_bits(key: RawImage, full_well: int, block_pixels: int) -> int:
    """Message bits the grouping holds: one per whole group of g usable pixels."""
    slabs = _slabs(key, full_well, block_pixels)
    return sum(int(np.count_nonzero(m)) for _, m in slabs) // block_pixels


def embed(key: RawImage, cover: RawImage, bits: np.ndarray, full_well: int,
          block_pixels: int) -> RawImage:
    """Assemble the stego image: a pixel of group b is the cover's if bits[b]
    is 1 and the cover is usable there; every other pixel is the key's."""
    check_same_dims(key, cover)
    # every g past the pixel count leaves no whole group; capped, the
    # zero padding below stays image-sized
    g = min(block_pixels, key.pixel_count + 1)
    out = np.empty(key.pixels.shape, dtype=key.pixels.dtype)
    flat_out, flat_key, flat_cover = (im.reshape(-1) for im in (out, key.pixels, cover.pixels))
    slabs = _slabs(key, full_well, g, flat_out)  # each slab of out is written last
    bits = np.asarray(bits).reshape(-1)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must all be 0 or 1")
    bits = bits.astype(np.uint8, copy=False)
    cover_flags = np.empty(min(out.size, SLAB_PIXELS), dtype=bool)
    rank = 0
    for part, m in slabs:
        used = int(np.count_nonzero(m))
        lead, first = rank % g, rank // g
        rank += used
        row = np.zeros(-(-(lead + used) // g) * g, dtype=bool)  # whole groups from first
        take = bits[first:first + len(row) // g] == 1  # groups past the last bit stay 0
        row.reshape(-1, g)[:len(take)] = take[:, None]
        where = np.zeros(m.shape, dtype=bool)
        where[m] = row[lead:lead + used]
        k, c, o = flat_key[part], flat_cover[part], flat_out[part]
        where &= _usable(c, full_well, cover_flags[:m.size], o)
        # k ^ ((k ^ c) * where) in place: a masked copy mispredicts a branch per pixel
        np.bitwise_xor(k, c, out=o)
        o *= where
        o ^= k
    if len(bits) != rank // g:
        raise ValueError(f"bit vector length {len(bits)} != group count {rank // g}")
    return RawImage(width=key.width, height=key.height, pixels=out)


def extract(stego: RawImage, key: RawImage, full_well: int,
            block_pixels: int) -> DecodedBits:
    """Recover bits by comparison: a group decodes to 1 iff any of its
    pixels differs from the key."""
    check_same_dims(stego, key)
    g = min(block_pixels, key.pixel_count + 1)  # as in embed
    slabs = _slabs(key, full_well, g)
    bits = np.zeros(-(-key.pixel_count // g), dtype=np.uint8)  # room for every group
    flat_stego, flat_key = stego.pixels.reshape(-1), key.pixels.reshape(-1)
    mismatches = rank = 0
    for part, m in slabs:
        diff = flat_stego[part] != flat_key[part]
        mismatches += int(np.count_nonzero(diff))
        usable = diff[m]
        lead, first = rank % g, rank // g
        rank += usable.size
        row = np.zeros(-(-(lead + usable.size) // g) * g, dtype=bool)
        row[lead:lead + usable.size] = usable
        bits[first:first + len(row) // g] |= row.reshape(-1, g).any(axis=1)
    return DecodedBits(bits=bits[:rank // g], raw_mismatch_count=mismatches)


def collision_rate(key: RawImage, cover: RawImage,
                   full_well: Optional[int] = None) -> float:
    """Fraction of pixels where the two captures agree exactly: of every
    pixel, or of the key's usable pixels if full_well is given."""
    if full_well is None:
        check_same_dims(key, cover)
        return float(np.mean(key.pixels == cover.pixels))
    differs = extract(cover, key, full_well, 1).bits  # one bit per usable pixel
    if not len(differs):
        raise ValueError("full_well leaves no usable pixels")
    return float(np.mean(differs == 0))


def expected_collision_rate(lam: float) -> float:
    """Analytic probability that two independent Poisson(lam) draws agree:
    sum_k (e^-lam lam^k / k!)^2, the Skellam pmf at zero, e^-2lam I0(2lam).
    numpy's I0 serves up to 2lam = 700, where e^2lam still fits a float64;
    above it I0's asymptotic series (Abramowitz & Stegun 9.7.1) to its sixth
    correction term, below 1e-17 there. Planning aid for parity sizing."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    z = 2.0 * lam
    if z <= 700:
        return float(np.exp(-z) * np.i0(z))
    term = total = 1.0
    for k in range(1, 7):  # e^-z I0(z) ~ (1 + 1/(8z) + 9/(2! (8z)^2) + ...) / sqrt(2 pi z)
        term *= (2 * k - 1) ** 2 / (8.0 * k * z)
        total += term
    return total / math.sqrt(2.0 * math.pi * z)
