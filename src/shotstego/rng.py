"""splitmix64, the one generator behind every keyed stream.

The stream of a 64-bit seed s is the sequence mix(s + n * GAMMA) mod 2^64
for n = 1, 2, ... (Steele, Lea & Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014), so any stretch of it is one vectorised
evaluation. The codec draws its mixing permutation and filler bits from
it, and the camera keys every photon draw on it. The salts separate the
streams that share one seed.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MULT1 = 0xBF58476D1CE4E5B9
MULT2 = 0x94D049BB133111EB

# Domain-separation salts (SHA-512 initial hash words; any fixed odd-ish
# constants would do, these are published nothing-up-my-sleeve numbers).
FILLER_SALT = 0x6A09E667F3BCC908
CAPTURE_SALT = 0xBB67AE8584CAA73B
JITTER_SALT = 0x3C6EF372FE94F82B
READNOISE_SALT = 0xA54FF53A5F1D36F1
POISSON_SMALL_SALT = 0x510E527FADE682D1  # exact small-lambda sampler's stream

_M1 = np.uint64(MULT1)
_M2 = np.uint64(MULT2)


def mix(z: int) -> int:
    """The splitmix64 output (avalanche) function on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MULT1) & MASK64
    z = ((z ^ (z >> 27)) * MULT2) & MASK64
    return z ^ (z >> 31)


def mix_words(state: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`mix` in place on a uint64 working array (wrapping arithmetic); t is
    a uint64 scratch array of the same shape, so a caller that mixes many
    arrays of one size allocates nothing per call."""
    np.right_shift(state, np.uint64(30), out=t)
    state ^= t
    state *= _M1
    np.right_shift(state, np.uint64(27), out=t)
    state ^= t
    state *= _M2
    np.right_shift(state, np.uint64(31), out=t)
    state ^= t
    return state


def output(seed: int, n: int) -> int:
    """Output n of the stream of `seed`."""
    return mix(seed + n * GAMMA)


def steps_at(js: np.ndarray) -> np.ndarray:
    """The words j * GAMMA mod 2^64 for each j >= 0 of an integer array:
    the steps `words` takes to outputs first + j."""
    return np.multiply(js, np.uint64(GAMMA), dtype=np.uint64, casting="unsafe")


def step_table(count: int) -> np.ndarray:
    """The steps of j < count, `steps_at(range(count))`."""
    return steps_at(np.arange(count, dtype=np.uint64))


def words(seed: int, first: int, steps: np.ndarray, out: np.ndarray,
          scratch: np.ndarray) -> np.ndarray:
    """Output first + j of the stream of `seed` into out for each word
    j * GAMMA of `steps`, from `steps_at` or a slice of a `step_table`.
    out (which may be steps itself) and the scratch are uint64 arrays of
    its length, so a caller that draws many stretches allocates nothing."""
    np.add(steps, np.uint64((seed + first * GAMMA) & MASK64), out=out)
    return mix_words(out, scratch)


def outputs(seed: int, first: int, count: int) -> np.ndarray:
    """Outputs first .. first+count-1 (first >= 1) of the stream of `seed`."""
    steps = step_table(count)
    return words(seed, first, steps, steps, np.empty_like(steps))
