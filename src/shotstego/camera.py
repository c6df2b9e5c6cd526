"""Photon-counting camera simulator.

A sensor pixel that absorbs on average lambda photons during the exposure
reports a Poisson-distributed count: mean lambda, standard deviation
sqrt(lambda). At typical operating points (lambda ~ 1e4, full well 5e4)
this shot noise dwarfs electronic read noise, so two captures of a static
scene are two fresh draws from the same per-pixel distribution. That
equality of distributions is what the embedding protocol rides on; this
module exists to produce such capture pairs and to let tests violate the
static-scene assumption on purpose (exposure jitter, read noise).

Randomness is counter-based: every variate is a pure function of
(seed, capture_index, pixel_index, draw_index) through the splitmix64
mixing function of `rng`, so output never depends on evaluation or
chunking order. Captures reproduce exactly for one numpy build on one CPU
dispatch, not across platforms: numpy picks the SIMD kernels of the
transcendentals (the normal path's float32 log, cos and sin among them) by
CPU feature, and the kernels may differ in the last bit. The pinned capture
bytes assume numpy's default dispatch on an AVX2 or AVX-512 CPU; with
dispatch held to the X86_V2 baseline, a 4096^2 capture at lambda = 1e4
differs at 22 pixels. Draw j of counter i (a pixel pair on the normal
path, a pixel on the exact path) is output i + 1 of the `rng` stream
seeded base + (j+1)*DRAW_DELTA, that is mix64(base + (j+1)*DRAW_DELTA +
(i+1)*GAMMA); the stride constants are audited so no two (i, j) pairs of
one capture collide. The base and the exposure factor of capture c come
from output c + 1 of the salted streams of the sensor seed
(`rng.CAPTURE_SALT`, `rng.JITTER_SALT`).

Pixels with lambda >= 60 take the rounded normal approximation
N(lambda, lambda). Its first two moments are Poisson's, but its skewness
is ~0 where Poisson's is lambda^-1/2: flat captures measure a sample
skewness within +-0.007 of 0 against 0.100 at lambda = 100 (z ~ -20 at
512^2), 0.032 at lambda = 1000 and 0.010 at lambda = 1e4 (z ~ -15 at
4096^2), so a third-moment test resolves the difference at these sizes.
Key and cover share the same law, so the pixel-selection argument does not
depend on it. Normals come from Box-Muller evaluated in float32 with the
cos/sin pair trick; captures are only required to be statistically
faithful, not bit-identical across implementations, so the cheap
transcendentals are fine.

Pixels with 0 < lambda < 60 get exact Poisson counts from float64 uniforms
of their own stream (`rng.POISSON_SMALL_SALT`). A sum of independent
Poisson variables is Poisson, so with lambda = m + f and m = floor(lambda),
draw 0 gives Poisson(m) by inverting row m of a CDF table built at import
and draw 1 gives Poisson(f) by term-by-term inversion. Pixels at lambda = 0
keep the normal path's count, which is exactly 0.

The image is processed in slabs of _CHUNK = 2^17 pixels, small enough that
a slab's working arrays stay in the CPU cache. A slab draws the normal
approximation for every pixel, then overwrites its dark pixels with their
exact counts before read noise and clipping.

A scene's lambda may be a read-only broadcast view (`make_scene` stores a
flat scene as one value and a gradient as one row). The camera reads it
one slab at a time, as a view of a contiguous scene or a copy of the
slab's rows of any other, so no capture makes an image-sized float array.

`captures` is the one capture path (`capture` takes one image from it). It
makes the slab's work arrays once, as locals of the generator, and reuses
them across the slabs of every capture it yields: the table of the steps
j * GAMMA of a slab's pixel pairs (`rng.step_table`), of which the normal
path reads a slice; the key-stream words and the mix scratch; the float32
uniforms, angles and normals; and the slab's scaled lambda in float32 with
its square root, kept with the slab's dark pixels (0 < lambda < 60), their
float64 lambda and their steps (`rng.steps_at`) for as long as the slab's
length, its exposure factor and its phase in the scene's period stay the
same. The period is the image for a contiguous scene, a row for a row
broadcast and one pixel for a flat one, so all slabs of a gradient whose
width divides _CHUNK share one preparation per capture. Each generator
keeps its own such cache, so generators interleaved in one thread do not
disturb each other. A loop over many captures therefore allocates per
capture the uint16 pixel array it yields and, in slabs with dark pixels,
the exact sampler's temporaries, sized by those pixels; the work arrays
(2.1 MiB for a flat 256^2 scene, 2.4 MiB with read noise) are freed with the
generator.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import rng
from .imageio import RawImage

NORMAL_APPROX_THRESHOLD = 60.0
# Largest lambda or read-noise sigma: any larger saturates every 16-bit pixel, and
# times the exposure factor (< 2) or a normal deviate it would overflow float32.
MAX_LEVEL = 1e30
DEFAULT_FULL_WELL = 50000
_CHUNK = 1 << 17  # pixels per processing slab (even): its buffers stay in cache

# Second stride for the draw index. Every stream reads draws 0 and 1 only;
# with |draw delta| <= 600 the nearest pixel-index alias sits at |di| ~ 3.4e15.
DRAW_DELTA = 0xD1342543DE82EF95
_INV_2_40 = np.float32(2.0 ** -40)  # float32 uniforms keep the top 40 bits
_INV_2_53 = 2.0 ** -53  # float64 uniforms keep the top 53 bits


@dataclass
class SceneRadiance:
    """Per-pixel expected photon count; ground truth for the simulator.
    lam may be a read-only broadcast view; the camera reads it slab by slab."""

    width: int
    height: int
    lam: np.ndarray  # float64, shape (height, width), all in [0, MAX_LEVEL]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be >= 1")
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.shape != (self.height, self.width):
            raise ValueError("radiance array shape does not match dimensions")
        lo, hi = lam.min(), lam.max()  # a NaN in lam makes both NaN
        if not (math.isfinite(lo) and hi <= MAX_LEVEL):
            raise ValueError(f"expected photon counts must be finite and at most {MAX_LEVEL:g}")
        if lo < 0:
            raise ValueError("expected photon counts must be >= 0")
        self.lam = lam


@dataclass
class SensorConfig:
    """Sensor parameters, including deliberate assumption violations.

    exposure_jitter_fraction f applies a per-capture multiplicative factor
    drawn uniformly from [1-f, 1+f]; read noise is additive Gaussian in
    electrons, rounded, applied after the photon draw and before clamping
    to the full well.
    """

    full_well: int = DEFAULT_FULL_WELL
    read_noise_sigma: float = 0.0
    exposure_jitter_fraction: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if not (1 <= self.full_well <= 65535):
            raise ValueError("full_well must be in [1, 65535] so counts fit 16 bits")
        if not 0 <= self.read_noise_sigma <= MAX_LEVEL:  # NaN fails this test too
            raise ValueError(f"read_noise_sigma must be finite and in [0, {MAX_LEVEL:g}]")
        if not (0 <= self.exposure_jitter_fraction < 1):
            raise ValueError("exposure_jitter_fraction must be in [0, 1)")
        self.seed = operator.index(self.seed)  # a numpy integer enters as an int
        if not 0 <= self.seed <= rng.MASK64:  # any other seed would alias one mod 2^64
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {self.seed}")


def make_scene(width: int, height: int, pattern: str, mean_level: float) -> SceneRadiance:
    """Build a test scene.

    flat: constant mean_level everywhere, a read-only broadcast of one value.
    gradient: linear ramp across columns from 0 to 2 * mean_level, a
         read-only broadcast of one row.
    pcb: 16x16-pixel tiles cycling bright / mid / dark like a circuit board
         under even light; bright tiles sit at 1.5x the default full well so
         they saturate in capture, dark tiles are unlit. One tile in eight
         is bright, one is dark, six carry mean_level.
    """
    if width < 1 or height < 1:
        raise ValueError("scene dimensions must be >= 1")
    if not (math.isfinite(mean_level) and mean_level >= 0):
        raise ValueError("mean_level must be finite and >= 0")
    if pattern == "flat":
        lam = np.broadcast_to(np.float64(mean_level), (height, width))
    elif pattern == "gradient":
        ramp = 2.0 * mean_level * np.arange(width) / max(width - 1, 1)
        lam = np.broadcast_to(ramp, (height, width))
    elif pattern == "pcb":
        # tile (tx, ty) takes role (tx + 3 ty) mod 8, built in uint8
        tile_y = ((3 * (np.arange(height) // 16)) & 7).astype(np.uint8)
        tile_x = ((np.arange(width) // 16) & 7).astype(np.uint8)
        role = tile_y[:, None] + tile_x[None, :]
        role &= 7
        levels = np.full(8, float(mean_level))
        levels[0] = 1.5 * DEFAULT_FULL_WELL
        levels[4] = 0.0
        lam = levels[role]
    else:
        raise ValueError(f"unknown scene pattern: {pattern!r}")
    return SceneRadiance(width=width, height=height, lam=lam)


# ---------------------------------------------------------------------------
# counter-based sampling
# ---------------------------------------------------------------------------

def _stream_offset(base: int, draw: int) -> int:
    """The seed of a draw's stream under a stream base."""
    return (base + (draw + 1) * DRAW_DELTA) & rng.MASK64


def _capture_word(sensor: SensorConfig, salt: int, capture_index: int) -> int:
    """Output capture_index + 1 of the salted stream of the sensor seed."""
    index = operator.index(capture_index)
    if not 0 <= index <= rng.MASK64:  # any other index would alias one mod 2^64
        raise ValueError(f"capture_index must be in [0, 2**64 - 1], got {index}")
    return rng.output(sensor.seed ^ salt, index + 1)


def _slab_lambda(scene_lam: np.ndarray, first: int, stop: int) -> np.ndarray:
    """The scene's lambda at the pixels first..stop-1 in row-major order."""
    width = scene_lam.shape[1]
    r0, r1 = first // width, -(-stop // width)  # the rows the slab touches
    if width <= _CHUNK:  # a view of a contiguous scene, else a copy of the rows
        return np.ravel(scene_lam[r0:r1])[first - r0 * width:stop - r0 * width]
    # at most two rows: copy only the slab's part of each
    return np.concatenate([scene_lam[r, max(first - r * width, 0):stop - r * width]
                           for r in range(r0, r1)])


def _cdf_table() -> np.ndarray:
    """Row m holds the Poisson(m) CDF F(0..255) for each integer m < 60,
    summed term by term from p_0 = exp(-m) by p_k = p_(k-1) * m / k. Sums
    rounded above 1.0 are clipped, which changes no comparison with a u < 1,
    and the last entry is exactly 1.0 (the mass past 254 is under 1e-78 at
    m = 59), so a row never decreases and holds at most 255 entries <= u."""
    m = np.arange(NORMAL_APPROX_THRESHOLD)[:, None]
    terms = np.hstack([np.exp(-m), m / np.arange(1, 256)])
    table = np.minimum(np.cumsum(np.cumprod(terms, axis=1), axis=1), 1.0)
    table[:, -1] = 1.0
    return table


_CDF_TABLE = _cdf_table()


def _poisson_exact(lam: np.ndarray, u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Exact Poisson counts for 0 < lam < 60 as Poisson(m) + Poisson(f),
    m = floor(lam) and f = lam - m, from two float64 uniforms per pixel.

    u0 gives the smallest k with u0 < F(k) in row m of _CDF_TABLE by an
    8-step binary search. u1 inverts the Poisson(f) CDF term by term,
    within about ten terms as f < 1; the tail past 20 terms holds under
    1/21! of the mass, so only a u1 above the rounded sum, a chance of a
    few units of 2^-53, stops there.
    """
    whole = lam.astype(np.intp)
    at = whole * 256  # the flat index of row m's first entry
    flat = _CDF_TABLE.reshape(-1)
    for step in (128, 64, 32, 16, 8, 4, 2, 1):
        at += (flat.take(at + (step - 1)) <= u0) * step
    counts = at - whole * 256
    frac = lam - whole
    p = np.exp(-frac)
    cdf = p.copy()
    for k in range(1, 21):
        more = u1 >= cdf
        if not more.any():
            break
        counts += more
        p *= frac / k
        cdf += p
    return counts


def captures(scene: SceneRadiance, sensor: SensorConfig,
             indices: Iterable[int]) -> Iterator[RawImage]:
    """The captures of the scene at each of `indices` in turn, each equal
    to `capture(scene, sensor, index)` and each with its own pixel array.

    The slab work arrays are made once here and reused across the slabs
    of every capture, so a loop over many captures allocates little beyond
    their pixel arrays; they are freed with the generator. The scene must
    not change while the generator runs.
    """
    n = scene.width * scene.height
    slab = min(n, _CHUNK)
    half = (slab + 1) // 2
    full_well = np.float32(sensor.full_well)
    sigma_r = sensor.read_noise_sigma
    steps = rng.step_table(half)  # the pixel pairs of a slab read a slice
    words = np.empty(half, dtype=np.uint64)
    scratch = np.empty(half, dtype=np.uint64)  # rng.words' scratch
    radius = np.empty(half, dtype=np.float32)
    # the angle and its cos/sin reuse the scratch's bytes: the angle is
    # converted after its own draw's mix, the last of a normals call
    angle, trig = scratch.view(np.float32).reshape(2, half)
    counts_work = np.empty(slab, dtype=np.float32)
    noise_work = np.empty(slab, dtype=np.float32) if sigma_r > 0 else None
    lam32, root = np.empty((2, slab), dtype=np.float32)
    # lambda at pixel i + period equals lambda at i: a flat broadcast repeats
    # every pixel, a row broadcast every row
    strides = scene.lam.strides
    period = n if strides[0] else scene.width if strides[1] else 1
    lam_of = None  # (phase, length, exposure factor) lam32 was filled for

    def normals(base: int, start: int, z: np.ndarray) -> np.ndarray:
        """One standard normal per pixel start..start+len(z) into z,
        Box-Muller with the cos/sin pair trick on float32 uniforms in
        (0, 1]. Uniform pairs are keyed by the absolute pixel-pair id
        (pixel_index >> 1), so each value is a pure function of the pixel
        index no matter how the image is chunked. start must be even."""
        count = len(z)
        pairs = (count + 1) // 2
        r, theta, cs = radius[:pairs], angle[:pairs], trig[:pairs]
        for draw, u in enumerate((r, theta)):
            w = rng.words(_stream_offset(base, draw), (start >> 1) + 1, steps[:pairs],
                          words[:pairs], scratch[:pairs])
            w >>= np.uint64(24)
            # the int64 view is exact below 2^63 and converts faster than uint64
            np.copyto(u, w.view(np.int64), casting="unsafe")
            u += np.float32(1.0)
            u *= _INV_2_40
        np.log(r, out=r)
        r *= np.float32(-2.0)
        np.sqrt(r, out=r)
        theta *= np.float32(2.0 * np.pi)
        np.cos(theta, out=cs)
        cs *= r
        z[0::2] = cs
        np.sin(theta, out=cs)
        cs *= r
        z[1::2] = cs[: count - pairs]
        return z

    for capture_index in indices:
        base = _capture_word(sensor, rng.CAPTURE_SALT, capture_index)
        jitter = exposure_factor(sensor, capture_index)
        noise_base = rng.mix(base ^ rng.READNOISE_SALT)
        small_base = rng.mix(base ^ rng.POISSON_SMALL_SALT)
        out = np.empty(n, dtype=np.uint16)
        for first in range(0, n, _CHUNK):
            stop = min(first + _CHUNK, n)
            # lam32, its root and the dark pixels (0 < lambda < 60) with their
            # float64 lambda and steps depend on the slab's phase in the
            # period, its length and the exposure factor alone
            slab_of = (first % period, stop - first, jitter)
            if lam_of != slab_of:
                lam = _slab_lambda(scene.lam, first, stop)
                if jitter != 1.0:
                    lam = lam * jitter
                np.copyto(lam32[:stop - first], lam)
                np.sqrt(lam32[:stop - first], out=root[:stop - first])
                dark = np.flatnonzero((lam > 0) & (lam < NORMAL_APPROX_THRESHOLD))
                dark_lam, dark_steps = lam[dark], rng.steps_at(dark)
                lam_of = slab_of
            counts = normals(base, first, counts_work[:stop - first])
            counts *= root[:stop - first]
            counts += lam32[:stop - first]
            np.rint(counts, out=counts)
            # dark pixels overwrite their normal draws with exact counts
            if len(dark):
                # float64 uniforms in [0, 1) from the top 53 bits of each draw's words
                w, t = np.empty_like(dark_steps), np.empty_like(dark_steps)
                u0, u1 = ((rng.words(_stream_offset(small_base, draw), first + 1, dark_steps, w, t)
                           >> np.uint64(11)).view(np.int64) * _INV_2_53 for draw in (0, 1))
                counts[dark] = _poisson_exact(dark_lam, u0, u1)
            # counts >= 0 before read noise: uniforms >= 2^-40 bound |z| by
            # sqrt(80 ln 2) < 7.45, and lambda - 7.45 sqrt(lambda) > 2 at
            # lambda >= 60; dark pixels take exact counts, and lambda = 0 gives +0
            if sigma_r > 0:
                noise = normals(noise_base, first, noise_work[:stop - first])
                noise *= np.float32(sigma_r)
                np.rint(noise, out=noise)
                counts += noise
            np.clip(counts, np.float32(0.0), full_well, out=counts)
            out[first:stop] = counts
        yield RawImage(width=scene.width, height=scene.height,
                       pixels=out.reshape(scene.height, scene.width))


def capture(scene: SceneRadiance, sensor: SensorConfig, capture_index: int) -> RawImage:
    """Simulate one exposure of the scene.

    Per pixel: draw Poisson(j * lambda) photons where j is this capture's
    exposure factor, add rounded Gaussian read noise, clamp to
    [0, full_well]. Deterministic in (seed, capture_index, pixel index).
    """
    (img,) = captures(scene, sensor, (capture_index,))
    return img


def exposure_factor(sensor: SensorConfig, capture_index: int) -> float:
    """This capture's multiplicative exposure factor (1.0 without jitter)."""
    word = _capture_word(sensor, rng.JITTER_SALT, capture_index)
    f = sensor.exposure_jitter_fraction
    if f == 0:
        return 1.0
    u = (word >> 11) * 2.0 ** -53
    return 1.0 - f + 2.0 * f * u


def capture_pair(scene: SceneRadiance, sensor: SensorConfig) -> tuple[RawImage, RawImage]:
    """Key and cover: two independent captures (indices 0 and 1) of the
    identical scene, each with its own exposure factor when jitter is on."""
    return capture(scene, sensor, 0), capture(scene, sensor, 1)
