import hashlib

import numpy as np
import pytest
from scipy import stats

from shotstego import camera, imageio, statcheck
from shotstego.camera import SensorConfig, capture, capture_pair, make_scene


def test_flat_scene():
    scene = make_scene(2, 2, "flat", 100)
    assert np.all(scene.lam == 100)


def test_gradient_endpoints():
    scene = make_scene(33, 4, "gradient", 500)
    assert np.all(scene.lam[:, 0] == 0)
    assert np.all(scene.lam[:, -1] == 1000)
    assert np.array_equal(make_scene(1, 4, "gradient", 500).lam, np.zeros((4, 1)))


def test_scene_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        make_scene(0, 5, "flat", 10)
    with pytest.raises(ValueError):
        make_scene(5, -1, "flat", 10)
    with pytest.raises(ValueError):
        make_scene(5, 5, "zebra", 10)
    with pytest.raises(ValueError, match="dimensions"):
        camera.SceneRadiance(width=0, height=2, lam=np.zeros((2, 0)))
    with pytest.raises(ValueError, match="shape"):
        camera.SceneRadiance(width=2, height=2, lam=np.zeros((2, 3)))
    with pytest.raises(ValueError, match=">= 0"):
        camera.SceneRadiance(width=2, height=2, lam=np.full((2, 2), -1.0))


def test_pcb_produces_saturated_pixels():
    """Brute-force scan of a 64x64 capture: the bright tiles must clip."""
    img = capture(make_scene(64, 64, "pcb", 10000), SensorConfig(seed=1), 0)
    saturated = int(np.sum(img.pixels == 50000))
    assert saturated > 0
    assert int(np.sum(img.pixels < 16)) > 0  # and dark tiles stay dark


def test_capture_zero_radiance_is_zero():
    img = capture(make_scene(32, 32, "flat", 0), SensorConfig(seed=2), 0)
    assert img.pixels.max() == 0


def test_capture_shot_noise_law():
    """Counts at lambda=1e4 over 1e6 samples: mean ~ lambda and standard
    deviation sqrt(lambda) = 100 within a +-1 band."""
    img = capture(make_scene(1000, 1000, "flat", 10000), SensorConfig(seed=3), 0)
    v = img.pixels.astype(np.float64)
    assert abs(v.mean() - 10000) < 1.0
    assert abs(v.std(ddof=1) - 100.0) < 1.0


def test_capture_clamps_at_full_well():
    img = capture(make_scene(64, 64, "flat", 500000), SensorConfig(seed=4), 0)
    assert np.all(img.pixels == 50000)


def test_capture_deterministic_and_index_separated():
    scene = make_scene(128, 128, "flat", 5000)
    a = capture(scene, SensorConfig(seed=9), 0)
    b = capture(scene, SensorConfig(seed=9), 0)
    c = capture(scene, SensorConfig(seed=9), 1)
    assert a == b
    assert a != c


def test_capture_independent_of_chunking(monkeypatch):
    """Counter-based draws: slab size is an implementation detail and must
    never show in the output (stands in for any parallel evaluation order).
    The inputs cover every kind of slab: mixed with saturated and dark
    tiles, a gradient crossing lambda=60 inside slabs, all large, all
    small over a few slabs and over many, and rows wider than a slab (and,
    at 2^18, narrower), alike or not. Two row broadcasts whose width
    divides the slab (512 at 2^17, a hand-built irregular row of 617 at
    1234) give slabs of one lambda ending in a shorter one. A broadcast
    scene captures like its contiguous copy at every slab size."""
    cases = [
        (make_scene(300, 77, "pcb", 3000), SensorConfig(seed=77, read_noise_sigma=4.0)),
        (make_scene(200, 50, "gradient", 50.0),
         SensorConfig(seed=78, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)),
        (make_scene(100, 60, "flat", 1e4), SensorConfig(seed=79)),
        (make_scene(100, 60, "flat", 7.5), SensorConfig(seed=80)),
        (make_scene(400, 400, "flat", 30.0), SensorConfig(seed=81)),
        (make_scene((1 << 17) + 5, 2, "gradient", 40.0),
         SensorConfig(seed=82, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)),
        (camera.SceneRadiance((1 << 17) + 5, 2, np.linspace(0.0, 80.0, (1 << 18) + 10)
                              .reshape(2, -1)), SensorConfig(seed=83)),
        (make_scene(512, 700, "gradient", 80.0),
         SensorConfig(seed=84, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)),
        (camera.SceneRadiance(617, 9, np.broadcast_to(np.arange(617) * 7919 % 617 * 0.2,
                                                      (9, 617))),
         SensorConfig(seed=85, read_noise_sigma=1.5, exposure_jitter_fraction=0.05)),
    ]
    baselines = [capture(scene, sensor, 0) for scene, sensor in cases]
    for chunk in (camera._CHUNK, 1234, 1 << 18):
        monkeypatch.setattr(camera, "_CHUNK", chunk)
        for (scene, sensor), baseline in zip(cases, baselines):
            copy = camera.SceneRadiance(scene.width, scene.height,
                                        np.ascontiguousarray(scene.lam))
            assert capture(scene, sensor, 0) == baseline
            assert capture(copy, sensor, 0) == baseline


@pytest.mark.parametrize("scene, sensor", [
    (make_scene(400, 700, "gradient", 80.0), SensorConfig(seed=90)),
    (make_scene(200, 150, "flat", 500.0),
     SensorConfig(seed=91, read_noise_sigma=3.0, exposure_jitter_fraction=0.05)),
    (make_scene(512, 700, "gradient", 80.0),
     SensorConfig(seed=93, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)),
], ids=["gradient-3-slabs", "flat-1-slab-jitter-noise", "row-broadcast-short-last-slab-jitter"])
def test_captures_equal_capture(scene, sensor):
    """The generator reuses its work arrays across captures, out of order
    and repeated, over several slabs and over one (whose lambda it keeps
    while the exposure factor stays the same), and over slabs of one lambda
    that end in a shorter one; each yielded image equals capture() and
    stays unchanged after the generator is exhausted."""
    indices = [5, 0, 3, 0]
    yielded, at_yield = [], []
    for img in camera.captures(scene, sensor, indices):
        yielded.append(img)
        at_yield.append(img.pixels.copy())
    assert len(yielded) == len(indices)
    for index, img, pixels in zip(indices, yielded, at_yield):
        assert np.array_equal(img.pixels, pixels)
        assert img == capture(scene, sensor, index)
    assert yielded[1] == yielded[3] and yielded[1].pixels is not yielded[3].pixels


def test_row_broadcast_slabs_prepare_lambda_once(monkeypatch):
    """A slab's lambda is read once per phase in the scene's period, slab
    length and exposure factor: once for a 3-slab row broadcast whose width
    divides the slab, once per slab for its contiguous copy, and once per
    capture when the exposure factor changes."""
    slab_lambda, reads = camera._slab_lambda, []
    monkeypatch.setattr(camera, "_slab_lambda",
                        lambda lam, first, stop: reads.append(first) or slab_lambda(lam, first, stop))
    monkeypatch.setattr(camera, "_CHUNK", 1024)
    scene = make_scene(64, 48, "gradient", 80.0)
    copy = camera.SceneRadiance(64, 48, np.ascontiguousarray(scene.lam))
    sensor = SensorConfig(seed=94)
    assert capture(scene, sensor, 0) == capture(copy, sensor, 0)
    assert reads == [0, 0, 1024, 2048]
    reads.clear()
    list(camera.captures(scene, SensorConfig(seed=94, exposure_jitter_fraction=0.05), [0, 1]))
    assert reads == [0, 0]


def test_interleaved_generators_keep_their_own_lambda():
    """Two generators over different one-slab scenes, stepped in turn in one
    thread: each keeps its own slab lambda, so every image equals capture()."""
    jittered = SensorConfig(seed=92, exposure_jitter_fraction=0.05)
    runs = [(make_scene(96, 64, "flat", 20.0), SensorConfig(seed=92)),
            (make_scene(96, 64, "gradient", 400.0), SensorConfig(seed=92)),
            (make_scene(64, 96, "flat", 30.0), jittered)]
    indices = [0, 1, 1, 0]
    gens = [camera.captures(scene, sensor, indices) for scene, sensor in runs]
    for step in zip(*gens):
        index = indices.pop(0)
        for img, (scene, sensor) in zip(step, runs):
            assert img == capture(scene, sensor, index)


def test_capture_index_outside_64_bits_rejected():
    """A capture index is a 64-bit counter: -1 and 2**64 + 3 would alias
    2**64 - 1 and 3. Both ends are accepted, a numpy integer acts as the
    equal int, and a float is no index."""
    scene = make_scene(8, 8, "flat", 100.0)
    for sensor in (SensorConfig(seed=4), SensorConfig(seed=4, exposure_jitter_fraction=0.05)):
        for index in (-1, 2**64, 2**64 + 3):
            with pytest.raises(ValueError, match="capture_index"):
                capture(scene, sensor, index)
            with pytest.raises(ValueError, match="capture_index"):
                camera.exposure_factor(sensor, index)
        for index in (3.0, "3"):
            with pytest.raises(TypeError):
                capture(scene, sensor, index)
            with pytest.raises(TypeError):
                camera.exposure_factor(sensor, index)
        ends = [capture(scene, sensor, i) for i in (0, 3, 2**64 - 1)]
        assert ends[0] != ends[2] and ends[1] != ends[2]
        assert capture(scene, sensor, np.int64(3)) == ends[1]
        assert capture(scene, sensor, np.uint64(2**64 - 1)) == ends[2]
        assert list(camera.captures(scene, sensor, np.arange(4)))[3] == ends[1]
        assert camera.exposure_factor(sensor, np.int64(3)) == camera.exposure_factor(sensor, 3)


def test_numpy_integer_seeds_act_as_ints():
    """SensorConfig takes a numpy integer seed as the equal int, so its
    captures have the bytes of that int's; a float is no seed."""
    scene = make_scene(40, 30, "gradient", 80.0)
    sensor = SensorConfig(seed=5, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)
    want = capture(scene, sensor, 1)
    for seed in (np.int64(5), np.uint64(5)):
        other = SensorConfig(seed=seed, read_noise_sigma=2.0, exposure_jitter_fraction=0.05)
        assert type(other.seed) is int and other.seed == 5
        assert capture(scene, other, 1) == want
    with pytest.raises(TypeError):
        SensorConfig(seed=5.0)


def test_capture_pair_repeatable(flat_pair_1m):
    scene = make_scene(1024, 1024, "flat", 10000)
    again = capture_pair(scene, SensorConfig(seed=57))
    assert again[0] == flat_pair_1m[0]
    assert again[1] == flat_pair_1m[1]


def test_pair_collision_rate_matches_poisson_oracle(flat_pair_1m, collision_oracle):
    key, cover = flat_pair_1m
    rate = float(np.mean(key.pixels == cover.pixels))
    expect = collision_oracle(10000.0)
    assert abs(rate - expect) < 0.2 * expect


def test_exposure_jitter_shifts_means():
    scene = make_scene(512, 512, "flat", 10000)
    sensor = SensorConfig(seed=6, exposure_jitter_fraction=0.05)
    key, cover = capture_pair(scene, sensor)
    ratio = cover.pixels.mean() / key.pixels.mean()
    assert 0.90 <= ratio <= 1.10
    # measurably different exposures: far outside shot-noise-only noise
    assert abs(ratio - 1.0) > 20 * np.sqrt(2.0 / (10000 * scene.width * scene.height))


def test_jitter_factors_bounded():
    sensor = SensorConfig(seed=123, exposure_jitter_fraction=0.05)
    factors = [camera.exposure_factor(sensor, i) for i in range(200)]
    assert all(0.95 <= f <= 1.05 for f in factors)
    assert np.std(factors) > 0.01  # actually varies


def test_pixel_independence_autocorrelation(flat_pair_1m):
    """Assumption check: lag 1..8 autocorrelation of the capture difference
    stays below the finite-sample bound 3/sqrt(N)."""
    key, cover = flat_pair_1m
    rho = statcheck.autocorrelation(key, cover, 8)
    assert np.all(np.abs(rho) < 3.0 / np.sqrt(key.pixel_count))


def test_variance_law(flat_pair_1m):
    v = flat_pair_1m[0].pixels.astype(np.float64).var(ddof=1)
    assert 0.95 * 10000 <= v <= 1.05 * 10000


def test_read_noise_adds_variance():
    scene = make_scene(512, 512, "flat", 1000)
    quiet = capture(scene, SensorConfig(seed=8), 0)
    noisy = capture(scene, SensorConfig(seed=8, read_noise_sigma=30.0), 0)
    v_quiet = quiet.pixels.astype(float).var()
    v_noisy = noisy.pixels.astype(float).var()
    assert abs(v_quiet - 1000) < 30
    assert abs(v_noisy - 1900) < 60  # lambda + sigma^2


def test_read_noise_floors_at_zero():
    img = capture(make_scene(64, 64, "flat", 0),
                  SensorConfig(seed=5, read_noise_sigma=5.0), 0)
    assert img.pixels.min() == 0
    assert img.pixels.max() > 0


def test_small_lambda_moments():
    img = capture(make_scene(700, 700, "flat", 7.5), SensorConfig(seed=10), 0)
    v = img.pixels.astype(np.float64)
    assert abs(v.mean() - 7.5) < 0.05
    assert abs(v.var(ddof=1) - 7.5) < 0.15


@pytest.mark.parametrize("lam, seed", [
    (0.3, 11), (3.0, 12), (9.99, 13), (10.0, 14), (25.0, 15), (59.9, 16),
    (0.999, 17), (1.0, 18), (1.001, 19), (29.5, 20), (59.999, 21)])
def test_small_lambda_counts_follow_poisson_law(lam, seed):
    """Chi-square goodness of fit of 4e5 flat-scene counts against the
    Poisson pmf across the exact sampler's range: fractional parts near 1
    and exactly 0, a half, and the last table row just below the normal
    approximation at 60. Tails are pooled until every expected count is at
    least 5."""
    side = 632
    counts = capture(make_scene(side, side, "flat", lam), SensorConfig(seed=seed), 0).pixels
    observed = np.bincount(counts.reshape(-1).astype(np.int64))
    k = np.arange(len(observed))
    expected = side * side * stats.poisson.pmf(k, lam)
    expected[-1] += side * side * stats.poisson.sf(k[-1], lam)
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]  # the pmf is unimodal
    obs = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi], [observed[hi:].sum()]])
    exp = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi], [expected[hi:].sum()]])
    assert exp.min() >= 5 and len(exp) >= 4
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    assert stats.chi2.sf(statistic, len(exp) - 1) > 1e-3


def test_cdf_table_rows_end_at_one():
    """Each row of the table the exact sampler searches never decreases and
    ends at exactly 1.0, so the search for a u < 1 stays inside its row."""
    assert camera._CDF_TABLE.shape[0] == camera.NORMAL_APPROX_THRESHOLD
    assert np.all(np.diff(camera._CDF_TABLE, axis=1) >= 0)
    assert np.all(camera._CDF_TABLE[:, -1] == 1.0)


# SHA-256 of write_pgm16(capture(...)): captures whose scaled lambda is 0 or
# at least 60 at every pixel take only the normal approximation, whose bytes
# are pinned across changes to the exact sampler.
PINNED_CAPTURES = [
    ("criterion8-flat-4096", (4096, 4096, "flat", 1e4), dict(seed=80_000),
     "14a8e07557a69f5ba2f178583cbb1d5516fee44247d43e00dc676d526285aa5a"),
    ("criterion3-pcb-512", (512, 512, "pcb", 10000), dict(seed=3000),
     "015f43df23af6d22439151f832d1f4d445079475e3a0a787d0c00d5435148b91"),
    ("warden-flat-256", (256, 256, "flat", 100.0), dict(seed=1),
     "d2c842e616fee565e6b599bf32237706a19b8e63cdba22e5871b29b375cb084f"),
    ("pcb-300x77-read-noise", (300, 77, "pcb", 3000),
     dict(seed=77, read_noise_sigma=4.0),
     "9dbfba5d4fa99f071632238099e57834ab21b6c07860471fb6079248fb997e76"),
]


@pytest.mark.parametrize("scene, sensor, digest", [c[1:] for c in PINNED_CAPTURES],
                         ids=[c[0] for c in PINNED_CAPTURES])
def test_normal_path_bytes_pinned(scene, sensor, digest):
    img = capture(make_scene(*scene), SensorConfig(**sensor), 0)
    assert hashlib.sha256(imageio.write_pgm16(img)).hexdigest() == digest


# The same for captures with pixels at 0 < lambda < 60, which the exact
# sampler draws: these bytes change only with that sampler.
PINNED_DARK_CAPTURES = [
    ("gradient-200x50-jitter-noise", (200, 50, "gradient", 50.0),
     dict(seed=78, read_noise_sigma=2.0, exposure_jitter_fraction=0.05),
     "769d1e59bd9574756dbf0a53f24d8a6abd2b418b37b19ec69107deeaf1a21ca5"),
    ("flat-100x60-7.5", (100, 60, "flat", 7.5), dict(seed=80),
     "048b3a2ecca93bf0180b0c93f210e70b36892c00d3af84f5809bc015974c5c34"),
    ("flat-400x400-30", (400, 400, "flat", 30.0), dict(seed=81),
     "34774f269e3cdeec15b914d0f76eedfe7e24fed5a214ed0b754ac59aea38755a"),
]


@pytest.mark.parametrize("scene, sensor, digest", [c[1:] for c in PINNED_DARK_CAPTURES],
                         ids=[c[0] for c in PINNED_DARK_CAPTURES])
def test_exact_path_bytes_pinned(scene, sensor, digest):
    test_normal_path_bytes_pinned(scene, sensor, digest)


def test_sensor_config_validation():
    with pytest.raises(ValueError):
        SensorConfig(full_well=70000)
    with pytest.raises(ValueError):
        SensorConfig(read_noise_sigma=-1)
    with pytest.raises(ValueError):
        SensorConfig(exposure_jitter_fraction=1.0)
    # a seed is a 64-bit word: -1 and 2**64 would alias 2**64 - 1 and 0
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SensorConfig(seed=seed)
    assert SensorConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e39])
def test_non_finite_inputs_rejected(value):
    """NaN passes a `< 0` test and would be cast to zero counts; infinity
    would saturate every pixel or fill the image with clipped noise. 1e39
    is finite in float64 but overflows the capture's float32 arithmetic."""
    with pytest.raises(ValueError, match="finite"):
        make_scene(8, 8, "flat", value)
    with pytest.raises(ValueError, match="finite"):
        make_scene(8, 8, "gradient", value)
    lam = np.full((4, 4), 100.0)
    lam[2, 3] = value
    with pytest.raises(ValueError, match="finite"):
        camera.SceneRadiance(width=4, height=4, lam=lam)
    with pytest.raises(ValueError, match="finite"):
        SensorConfig(read_noise_sigma=value)
