"""Seeded security checks: the warden flags stego images at the rate it
flags clean captures of the same scene.

Each row judges key/cover/third triples of one scene against a 100-run
calibration of that scene and sensor. The stego image carries a 64-byte
payload at parity 8 with one pixel per bit (the filler makes every usable
pixel carry a bit); the clean image is the key. Both are judged with the
third capture as the pair reference, so all four statistics run. Under the
clean law each statistic exceeds its 99th percentile about once in a
hundred images, so the flag count of 10 images has a standard deviation
below 1 and the difference of two counts one of about 1.3 at a flag rate
of 0.1. The stated margin of 4 is three such deviations.
"""

import math

import pytest

from shotstego.camera import DEFAULT_FULL_WELL, SensorConfig, capture, make_scene
from shotstego.pipeline import embed_message
from shotstego.statcheck import build_calibration, ward_test

TRIPLES = 10
MARGIN = 4  # |stego flags - clean flags| out of TRIPLES, about 3 sigma


def _flag_counts(scene, full_well, seed):
    """(stego flags, clean flags) over TRIPLES seeded triples."""
    cal = build_calibration(scene, SensorConfig(seed=seed, full_well=full_well), runs=100)
    stego = clean = 0
    for t in range(TRIPLES):
        sensor = SensorConfig(seed=seed + 1 + t, full_well=full_well)
        key, cover, third = (capture(scene, sensor, i) for i in range(3))
        sent = embed_message(key, cover, bytes(range(64)), parity_symbols=8,
                             mixing_seed=t, full_well=full_well).stego_image
        stego += ward_test(sent, cal, reference=third).verdict == "suspicious"
        clean += ward_test(key, cal, reference=third).verdict == "suspicious"
    return stego, clean


@pytest.mark.parametrize("size, pattern, level, full_well", [
    (256, "flat", 16.0, DEFAULT_FULL_WELL),  # the dark edge: DARK_FLOOR cuts the law at its mean
    (256, "flat", 100.0, 110),  # the full-well edge
    (512, "gradient", 100.0, DEFAULT_FULL_WELL),  # a scene that spans the dark edge
], ids=["flat-dark", "full-well-edge", "gradient"])
def test_stego_flagged_at_clean_rate(size, pattern, level, full_well):
    """A selection rule that reads the key alone tilts the stego histogram
    toward the values it rejects, which the warden flags in every image."""
    stego, clean = _flag_counts(make_scene(size, size, pattern, level), full_well, 61000)
    assert abs(stego - clean) <= MARGIN, (stego, clean)


def test_key_reuse_is_flagged_in_pair_mode():
    """One key capture carries one message. Two stego images made with one
    key share its value at about a quarter of their pixels, so the variance
    of their difference is about 3/4 of the shot-noise law's: pair-mode
    ward_test gives a normalized deviation near sqrt(0.75) and flags the
    pair. Against a stego image made with another key the deviation stays
    near 1. It records a limit of the scheme; its seeds are not to be
    changed to hide the leak."""
    scene = make_scene(256, 256, "flat", 100.0)
    cal = build_calibration(scene, SensorConfig(seed=62000), runs=100)
    key, cover1, cover2, other_key, other_cover = (
        capture(scene, SensorConfig(seed=62001), i) for i in range(5))

    def send(k, c, mixing_seed):
        return embed_message(k, c, bytes(range(64)), parity_symbols=8,
                             mixing_seed=mixing_seed).stego_image

    first = send(key, cover1, 1)
    reused = ward_test(first, cal, reference=send(key, cover2, 2))
    assert abs(reused.norm_dev - math.sqrt(0.75)) < 0.02, reused.norm_dev
    assert reused.verdict == "suspicious"
    fresh = ward_test(first, cal, reference=send(other_key, other_cover, 3))
    assert abs(fresh.norm_dev - 1.0) < 0.02, fresh.norm_dev
