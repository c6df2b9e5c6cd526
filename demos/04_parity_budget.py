"""Sizing the error-correction budget.

A 1-bit decodes wrongly when its pixel group happens to agree with the key
in every pixel. At one pixel per bit the collision probability is
sum_k P(k)^2 ~ 1/(2 sqrt(pi * lambda)): about 0.28% at lambda = 1e4 and
irreducible below ~0.11% at any level a 16-bit sensor can hold. Roughly 4
collisions per 1000 coded bits means ~1.1% of bytes arrive damaged, and a
255-byte Reed-Solomon block with t parity bytes only corrects t/2 of them.
This script turns that into concrete parity recommendations; block mode
(g pixels per bit) is the other lever, driving errors to zero like the
collision probability to the g-th power.
"""

import math

from shotstego.stego import expected_collision_rate


def binom_pmf(k: int, n: int, p: float) -> float:
    return math.comb(n, k) * p ** k * (1 - p) ** (n - k)


print("Collision probability vs illumination level:")
for lam in (100, 1000, 10_000, 40_000, 60_000):
    pc = expected_collision_rate(lam)
    print(f"  lambda {lam:6d}: p_collision = {pc:.4%}   "
          f"(byte error rate ~ {4 * pc:.3%})")

print("\nPer-block failure and 16 kB message survival at lambda = 1e4:")
pc = expected_collision_rate(10_000)
byte_rate = 1 - sum(
    binom_pmf(w, 8, 0.5) * (1 - pc) ** w for w in range(9))
print(f"  byte error rate: {byte_rate:.4%}")
for parity in (8, 16, 24, 32):
    t = parity // 2
    p_block_fail = sum(binom_pmf(e, 255, byte_rate) for e in range(t + 1, 256))
    k = 255 - parity
    n_blocks = math.ceil((16384 + 8) / k)
    p_msg = (1 - p_block_fail) ** n_blocks
    print(f"  parity {parity:2d} (corrects {t:2d}/block): "
          f"P(block fails) = {p_block_fail:.2e}, "
          f"P(16 kB survives) = {p_msg:.6f}")

print("\nRule of thumb: parity_symbols = 8 is fine for one short block")
print("(~100 bytes); use 32 for anything bigger. Or trade capacity for")
print("certainty with block mode:")
for g in (1, 2, 4, 16, 256):
    print(f"  g = {g:3d}: bit error probability {expected_collision_rate(10_000) ** g:.3e}, "
          f"capacity 1/{g} bit per pixel")
