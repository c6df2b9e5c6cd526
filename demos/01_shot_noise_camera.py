"""A tour of the photon-counting camera simulator.

Photon arrivals are Poisson: a pixel that collects n photons on average
fluctuates with standard deviation sqrt(n). At n ~ 10^4 that is a spread of
~100 counts, dwarfing the few-electron read noise of real sensors. Every
other capability in this package rides on that physical noise floor.
"""

import numpy as np

from shotstego import SensorConfig, capture, capture_pair, make_scene
from shotstego.statcheck import autocorrelation, normalized_deviation
from shotstego.stego import DARK_FLOOR, collision_rate, expected_collision_rate

sensor = SensorConfig(seed=2026)

print("=== Shot-noise law ===")
scene = make_scene(1000, 1000, "flat", 10000)
img = capture(scene, sensor, 0)
v = img.pixels.astype(np.float64)
print(f"flat scene, expected 10000 photons/pixel, 1e6 pixels:")
print(f"  sample mean   {v.mean():9.2f}   (expect ~10000)")
print(f"  sample stddev {v.std(ddof=1):9.3f}   (expect sqrt(10000) = 100)")

print("\n=== Two captures of the same scene ===")
key, cover = capture_pair(scene, sensor)
rate = collision_rate(key, cover)
print(f"fraction of pixels with identical counts: {rate:.5f}")
print(f"analytic Poisson collision probability:   {expected_collision_rate(10000):.5f}")
nd = normalized_deviation(key, cover)
print(f"normalized pixel deviation (1.0 = pure shot noise): {nd:.4f}")
rho = autocorrelation(key, cover, 8)
print(f"difference-image autocorrelation, lags 1..8 (bound 3/sqrt(N) = "
      f"{3 / np.sqrt(key.pixel_count):.2e}):")
print("  " + "  ".join(f"{r:+.2e}" for r in rho))

print("\n=== Deliberate assumption violations ===")
jittery = SensorConfig(seed=2026, exposure_jitter_fraction=0.05)
jk, jc = capture_pair(scene, jittery)
print(f"with 5% exposure jitter the deviation statistic blows up: "
      f"{normalized_deviation(jk, jc):.2f}")

print("\n=== Saturation on a high-contrast scene ===")
pcb = make_scene(512, 512, "pcb", 10000)
img = capture(pcb, sensor, 0)
n_sat = int(np.sum(img.pixels == sensor.full_well))
n_dark = int(np.sum(img.pixels < DARK_FLOOR))
print(f"pcb scene: {n_sat} saturated pixels, {n_dark} dark pixels "
      f"of {img.pixel_count} (both are excluded from embedding by the "
      f"usable-pixel rule, {DARK_FLOOR} <= count < full well)")
