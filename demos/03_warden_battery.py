"""The warden's view: why LSB hiding is caught and pixel selection is not.

Ward runs a battery of statistics calibrated on clean captures: histogram
KL divergence against a reference, a pairs-of-values chi-square test, and
(given a capture pair) autocorrelation and normalized deviation. Flipping
least-significant bits equalizes the counts of value pairs (2k, 2k+1),
which a smooth photon-noise histogram never does; choosing whole pixels
from a second genuine capture changes nothing measurable at all.
"""

import numpy as np

from shotstego import (
    SensorConfig,
    build_calibration,
    capture,
    capture_pair,
    embed_message,
    make_scene,
    ward_test,
)
from shotstego.codec import keyed_filler_bits
from shotstego.statcheck import lsb_embed

LAM = 100.0  # few hundred counts: value pairs have strong probability tilts
scene = make_scene(256, 256, "flat", LAM)

print("Calibrating the battery on 100 clean captures...")
cal = build_calibration(scene, SensorConfig(seed=1000), runs=100)
for name in ("kl", "chi2_logp", "autocorr_max", "normdev_dev"):
    print(f"  99th percentile null threshold {name:12s} = {cal.threshold(name):.4g}")

trials = 40
verdicts = {"clean": 0, "lsb": 0, "pixel-selection": 0}
for t in range(trials):
    clean = capture(scene, SensorConfig(seed=5000 + t), 0)
    verdicts["clean"] += ward_test(clean, cal).verdict == "suspicious"

    carrier = capture(scene, SensorConfig(seed=6000 + t), 0)
    lsb = lsb_embed(carrier, keyed_filler_bits(carrier.pixel_count, t))
    verdicts["lsb"] += ward_test(lsb, cal).verdict == "suspicious"

    key, cover = capture_pair(scene, SensorConfig(seed=7000 + t))
    payload = bytes(np.random.default_rng(t).integers(0, 256, 1800, dtype=np.uint8))
    stego = embed_message(key, cover, payload, mixing_seed=t + 1).stego_image
    verdicts["pixel-selection"] += ward_test(stego, cal).verdict == "suspicious"

print(f"\nSuspicious verdicts over {trials} trials each:")
for kind, count in verdicts.items():
    print(f"  {kind:16s} {count:3d}/{trials}")

print("\nA closer look at one LSB image versus one stego image:")
carrier = capture(scene, SensorConfig(seed=9999), 0)
lsb = lsb_embed(carrier, keyed_filler_bits(carrier.pixel_count, 1))
key, cover = capture_pair(scene, SensorConfig(seed=8888))
stego = embed_message(key, cover, b"quiet as a photon", mixing_seed=2).stego_image
for name, img in [("LSB-embedded", lsb), ("pixel-selection", stego)]:
    rep = ward_test(img, cal)
    print(f"  {name:16s} kl={rep.kl_bits:.2e} bits, chi2 p={rep.chi2_pvalue:.3g} "
          f"-> {rep.verdict}")
