import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotstego import codec, stego
from shotstego.camera import DEFAULT_FULL_WELL, SensorConfig, capture, capture_pair, make_scene
from shotstego.imageio import RawImage
from shotstego.stego import (
    capacity_bits,
    collision_rate,
    default_usable_mask,
    embed,
    expected_collision_rate,
    extract,
)


def small_pair(seed=21, n=256, lam=10000, pattern="flat"):
    scene = make_scene(n, n, pattern, lam)
    return capture_pair(scene, SensorConfig(seed=seed))


def every_pixel(img, g=1):
    """The full well of a bright flat capture, after checking that the
    usable rule then covers every pixel, so no test covers fewer."""
    assert capacity_bits(img, DEFAULT_FULL_WELL, g) == img.pixel_count // g
    return DEFAULT_FULL_WELL


def test_all_zero_bits_returns_key():
    key, cover = small_pair()
    bits = np.zeros(capacity_bits(key, 50000, 1), dtype=np.uint8)
    assert embed(key, cover, bits, 50000, 1) == key


def test_all_one_bits_returns_cover():
    key, cover = small_pair()
    bits = np.ones(key.pixel_count, dtype=np.uint8)
    assert embed(key, cover, bits, every_pixel(key), 1) == cover


def test_every_stego_pixel_from_key_or_cover():
    """Exhaustive source check: the stego image never invents a value."""
    key, cover = small_pair(seed=33)
    bits = codec.keyed_filler_bits(key.pixel_count, 7)
    out = embed(key, cover, bits, every_pixel(key), 1).pixels
    assert bool(np.all((out == key.pixels) | (out == cover.pixels)))
    chosen = np.where(bits.reshape(out.shape) == 1, cover.pixels, key.pixels)
    assert np.array_equal(out, chosen)


def test_extract_of_key_is_all_zeros():
    key, _ = small_pair(seed=40)
    decoded = extract(key, key, every_pixel(key), 1)
    assert decoded.raw_mismatch_count == 0
    assert not decoded.bits.any()


def test_extract_recovers_bits_where_pixels_differ():
    """Residual error rate at g=1 equals the collision rate restricted to
    1-bits; direct count of agreeing pixels is the oracle."""
    key, cover = small_pair(seed=55, n=512)
    full_well = every_pixel(key)
    bits = codec.keyed_filler_bits(key.pixel_count, 99)
    stego_img = embed(key, cover, bits, full_well, 1)
    got = extract(stego_img, key, full_well, 1).bits
    differs = (key.pixels != cover.pixels).reshape(-1)
    expect = bits & differs
    assert np.array_equal(got, expect)
    ones = bits == 1
    ber = float(np.mean(got[ones] != bits[ones]))
    collisions = float(np.mean(key.pixels == cover.pixels))
    assert abs(ber - collisions) < 0.35 * collisions  # Monte Carlo tolerance


def test_group_mode_g16_error_free():
    """At g=16 a bit fails only if all 16 pixels collide: probability
    ~(2.8e-3)^16, so one million bits decode without a single error."""
    scene = make_scene(4096, 4096, "flat", 10000)
    key, cover = capture_pair(scene, SensorConfig(seed=60))
    full_well = every_pixel(key, 16)
    bits = codec.keyed_filler_bits(4096 * 4096 // 16, 3)
    got = extract(embed(key, cover, bits, full_well, 16), key, full_well, 16).bits
    assert np.array_equal(got, bits)


def test_bit_error_rate_monotone_in_group_size():
    key, cover = small_pair(seed=70, n=1024)
    rates = []
    for g in (1, 2, 4, 16, 256):
        full_well = every_pixel(key, g)
        bits = codec.keyed_filler_bits(key.pixel_count // g, g)
        got = extract(embed(key, cover, bits, full_well, g), key, full_well, g).bits
        rates.append(float(np.mean(got != bits)))
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] > 0
    assert rates[-1] == 0


def test_capacity_scaling_block_mode():
    key, _ = small_pair(seed=75, n=512)
    assert capacity_bits(key, every_pixel(key), 256) == key.pixel_count // 256


def test_masked_pixels_copied_from_key():
    key, cover = small_pair(seed=80, n=64, lam=10000, pattern="pcb")
    mask = default_usable_mask(key, 50000)
    bits = np.ones(capacity_bits(key, 50000, 1), dtype=np.uint8)
    out = embed(key, cover, bits, 50000, 1).pixels
    assert np.array_equal(out[~mask], key.pixels[~mask])


def test_default_mask_excludes_saturated_and_dark():
    key, _ = small_pair(seed=81, n=64, pattern="pcb")
    mask = default_usable_mask(key, 50000)
    assert not mask[key.pixels == 50000].any()
    assert not mask[key.pixels < 16].any()
    assert mask.any()


def test_embed_validates_lengths_and_dims():
    key, cover = small_pair(seed=82, n=32)
    full_well = every_pixel(key)
    with pytest.raises(ValueError, match="bit vector length"):
        embed(key, cover, np.zeros(5, dtype=np.uint8), full_well, 1)
    other = RawImage(width=16, height=16,
                     pixels=np.zeros((16, 16), dtype=np.uint16))
    with pytest.raises(ValueError):
        embed(key, other, np.zeros(key.pixel_count, dtype=np.uint8), full_well, 1)
    with pytest.raises(ValueError):
        extract(other, key, full_well, 1)


@pytest.mark.parametrize("value", [2, 255, -1, 0.5])
def test_embed_rejects_bits_other_than_0_and_1(value):
    """A bit that is neither 0 nor 1 is refused before any pixel is
    chosen; read as uint8 it would have become some other bit silently."""
    key, cover = small_pair(seed=82, n=32)
    bits = np.ones(key.pixel_count, dtype=np.asarray(value).dtype)
    bits[-1] = value
    with pytest.raises(ValueError, match="0 or 1"):
        embed(key, cover, bits, every_pixel(key), 1)


@pytest.mark.parametrize("g", [0, -3])
def test_block_pixels_below_1_rejected(g):
    key, cover = small_pair(seed=84, n=16)
    full_well = every_pixel(key)
    with pytest.raises(ValueError, match="block_pixels"):
        capacity_bits(key, full_well, g)
    with pytest.raises(ValueError, match="block_pixels"):
        embed(key, cover, np.zeros(0, dtype=np.uint8), full_well, g)
    with pytest.raises(ValueError, match="block_pixels"):
        extract(cover, key, full_well, g)


@pytest.mark.parametrize("g", ["n", "n + 1", 2**50, 10**20])
def test_block_pixels_at_and_past_the_pixel_count(g):
    """A group of all n pixels carries one bit. No group past the pixel
    count is whole, so a larger g gives no bit, every pixel from the key
    and no allocation that grows with g."""
    key, cover = small_pair(seed=86, n=64)
    full_well, n = every_pixel(key), key.pixel_count
    g = {"n": n, "n + 1": n + 1}.get(g, g)
    whole = int(g == n)
    differ = int(np.count_nonzero(cover.pixels != key.pixels))
    assert capacity_bits(key, full_well, g) == whole
    out = embed(key, cover, np.ones(whole, dtype=np.uint8), full_well, g)
    assert out == (cover if whole else key)
    decoded = extract(out, key, full_well, g)
    assert decoded.bits.tolist() == [1] * whole
    assert decoded.raw_mismatch_count == differ * whole
    decoded = extract(cover, key, full_well, g)
    assert decoded.bits.tolist() == [1] * whole
    assert decoded.raw_mismatch_count == differ
    with pytest.raises(ValueError, match=f"group count {whole}"):
        embed(key, cover, np.ones(whole + 1, dtype=np.uint8), full_well, g)


@pytest.mark.parametrize("delta", [-1, 1])
def test_bit_vector_of_wrong_length_rejected(delta):
    """The group count is known only after the walk; a vector one bit short
    or one bit long is refused all the same."""
    key, cover = small_pair(seed=85, n=64, pattern="pcb")
    n_groups = capacity_bits(key, 50000, 3)
    with pytest.raises(ValueError, match=f"length {n_groups + delta} != group count {n_groups}"):
        embed(key, cover, np.ones(n_groups + delta, dtype=np.uint8), 50000, 3)


def test_collision_rate_over_usable_pixels():
    key, cover = small_pair(seed=88, n=64, pattern="pcb")
    mask = default_usable_mask(key, 50000)
    assert collision_rate(key, cover, 50000) == float(np.mean((key.pixels == cover.pixels)[mask]))
    dark = RawImage(width=8, height=8, pixels=np.full((8, 8), 15, dtype=np.uint16))
    with pytest.raises(ValueError, match="no usable pixels"):
        collision_rate(dark, dark, 50000)


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), g=st.integers(1, 17),
       data=st.data())
def test_grouping_matches_per_group_reference(h, w, g, data):
    """Bit b owns usable pixels flatnonzero(mask)[b*g:(b+1)*g]: embed and
    extract agree with that rule applied group by group. The key is dark
    (below 16) exactly where the drawn mask is False."""
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)),
                    dtype=bool).reshape(h, w)
    usable = np.flatnonzero(mask)
    groups = usable[:len(usable) // g * g].reshape(-1, g)
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(groups),
                                       max_size=len(groups))), dtype=np.uint8)
    r = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    key, cover, other = (RawImage(width=w, height=h,
                                  pixels=(r.integers(0, 3, (h, w)) + 16 * mask).astype(np.uint16))
                         for _ in range(3))
    assert np.array_equal(default_usable_mask(key, 65535), mask)

    expect = key.pixels.reshape(-1).copy()
    for bit, group in zip(bits, groups):
        if bit:
            expect[group] = cover.pixels.reshape(-1)[group]
    assert np.array_equal(embed(key, cover, bits, 65535, g).pixels.reshape(-1), expect)
    differs = (other.pixels != key.pixels).reshape(-1)
    expect_bits = [int(differs[group].any()) for group in groups]
    assert extract(other, key, 65535, g).bits.tolist() == expect_bits


@pytest.fixture(scope="module")
def multi_slab_images():
    """A seeded 2100x1100 key over at least three slabs, with a cover and a
    third image that differ from it at sparse pixels, and the key's usable
    mask below full well 65535: the key is dark (below 16) exactly where
    the mask is False, and the mask's second slab has no usable pixel and
    its third slab only ten."""
    h, w, slab = 1100, 2100, stego.SLAB_PIXELS
    assert h * w > 2 * slab
    r = np.random.default_rng(2024)
    raw = r.integers(0, 40, (h, w), dtype=np.uint16)
    bumps = [r.random((h, w)) < 3e-4 for _ in range(2)]
    flat = r.random(h * w) < 0.7
    flat[slab:2 * slab] = False
    flat[2 * slab:3 * slab] = False
    flat[2 * slab + r.choice(min(slab, h * w - 2 * slab), 10, replace=False)] = True
    mask = flat.reshape(h, w)
    key = np.where(mask, 16 + raw % 24, raw % 16).astype(np.uint16)
    cover, other = (key + bump for bump in bumps)
    return tuple(RawImage(width=w, height=h, pixels=px) for px in (key, cover, other)) + (mask,)


@pytest.mark.parametrize("g", [1, 3, 16, 4099])
def test_grouping_matches_reference_across_slabs(multi_slab_images, g):
    """Across slab boundaries, embed and extract follow the same rule as on
    a single slab: bit b owns usable pixels flatnonzero(mask)[b*g:(b+1)*g],
    and the usable pixels past the last whole group stay the key's."""
    key, cover, other, mask = multi_slab_images
    usable = np.flatnonzero(mask)
    assert g == 1 or len(usable) % g
    groups = usable[:len(usable) // g * g].reshape(-1, g)
    bits = codec.keyed_filler_bits(len(groups), g)
    expect = key.pixels.reshape(-1).copy()
    chosen = groups[bits == 1].reshape(-1)
    expect[chosen] = cover.pixels.reshape(-1)[chosen]
    assert capacity_bits(key, 65535, g) == len(groups)
    stego_img = embed(key, cover, bits, 65535, g)
    assert np.array_equal(stego_img.pixels.reshape(-1), expect)
    for seen in (stego_img, other):
        differs = (seen.pixels != key.pixels).reshape(-1)
        decoded = extract(seen, key, 65535, g)
        assert np.array_equal(decoded.bits, differs[groups].any(axis=1))
        assert decoded.raw_mismatch_count == np.count_nonzero(differs)
    assert 0 < decoded.bits.sum() < len(groups)


def test_stego_does_not_depend_on_the_slab(monkeypatch):
    """Slabs of one pixel, of a few pixels, of about a row and the default
    size give the same embed bytes, extracted bits and mismatch counts,
    capacity, usable mask and collision rate, at group sizes that cut groups
    over many slabs. The key has a dark band several slabs long and bright
    pixels at the full well, and the cover is unusable at some pixels where
    the key is usable."""
    r = np.random.default_rng(91)
    key = r.integers(16, 80, (30, 40)).astype(np.uint16)
    key[8:14] = r.integers(0, 16, (6, 40))
    cover = np.clip(key.astype(np.int64) + r.integers(-3, 4, key.shape), 0, 90)
    cover[r.random(key.shape) < 0.1] = 5
    key, cover = (RawImage(width=40, height=30, pixels=px.astype(np.uint16))
                  for px in (key, cover))
    full_well = 70
    assert (default_usable_mask(key, full_well) & ~default_usable_mask(cover, full_well)).any()
    outputs = []
    for slab in (1, 7, 64, stego.SLAB_PIXELS):
        monkeypatch.setattr(stego, "SLAB_PIXELS", slab)
        got = [default_usable_mask(key, full_well).tobytes(),
               collision_rate(key, cover, full_well)]
        for g in (1, 3, 16, 50):
            n = capacity_bits(key, full_well, g)
            stego_img = embed(key, cover, codec.keyed_filler_bits(n, g), full_well, g)
            got += [n, stego_img.pixels.tobytes()]
            for seen in (stego_img, cover):
                decoded = extract(seen, key, full_well, g)
                got += [decoded.bits.tobytes(), decoded.raw_mismatch_count]
        outputs.append(got)
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("full_well", [1, 17, 30, 65535])
def test_default_mask_across_slabs(multi_slab_images, full_well):
    px = multi_slab_images[0].pixels
    mask = default_usable_mask(multi_slab_images[0], full_well)
    assert np.array_equal(mask, (px < full_well) & (px >= 16))
    if full_well == 65535:
        assert np.array_equal(mask, multi_slab_images[3])


@pytest.mark.parametrize("full_well", [1, 15, 16, 17, 50000, 65535])
def test_usable_rule_at_every_value(full_well):
    """The usable rule, one compare that wraps below the dark floor, flags
    exactly DARK_FLOOR <= v < full_well at every 16-bit value, for the key
    and for the cover embed checks, also at full wells at or below the floor."""
    values = np.arange(1 << 16, dtype=np.uint16).reshape(256, 256)
    key, cover = RawImage(256, 256, values), RawImage(256, 256, values[::-1, ::-1].copy())
    rule = [(im.pixels >= stego.DARK_FLOOR) & (im.pixels < full_well) for im in (key, cover)]
    assert np.array_equal(default_usable_mask(key, full_well), rule[0])
    bits = np.ones(capacity_bits(key, full_well, 1), dtype=np.uint8)
    want = np.where(rule[0] & rule[1], cover.pixels, key.pixels)
    assert np.array_equal(embed(key, cover, bits, full_well, 1).pixels, want)


@pytest.mark.parametrize("full_well", [0, -3, 65536, 70000])
def test_default_mask_rejects_full_well_out_of_range(full_well):
    """Every function that applies the usable rule refuses the full well."""
    key, cover = small_pair(seed=86, n=16)
    with pytest.raises(ValueError, match="full_well"):
        default_usable_mask(key, full_well)
    with pytest.raises(ValueError, match="full_well"):
        capacity_bits(key, full_well, 1)
    with pytest.raises(ValueError, match="full_well"):
        embed(key, cover, np.zeros(key.pixel_count, dtype=np.uint8), full_well, 1)
    with pytest.raises(ValueError, match="full_well"):
        extract(cover, key, full_well, 1)
    with pytest.raises(ValueError, match="full_well"):
        collision_rate(key, cover, full_well)


def test_collision_rate_identity_and_saturated():
    key, cover = small_pair(seed=83, n=64)
    assert collision_rate(key, key) == 1.0
    sat = RawImage(width=8, height=8,
                   pixels=np.full((8, 8), 50000, dtype=np.uint16))
    assert collision_rate(sat, sat) == 1.0


def test_collision_rate_flat_vs_analytic(flat_pair_1m, collision_oracle):
    key, cover = flat_pair_1m
    rate = collision_rate(key, cover)
    expect = collision_oracle(10000.0)
    assert abs(rate - expect) < 0.3 * expect


def test_expected_collision_rate_lambda_zero():
    assert expected_collision_rate(0.0) == 1.0


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_expected_collision_rate_refuses_bad_lambda(lam):
    """A non-finite or negative lambda is refused with the function's own
    message (NaN and +inf raised numpy's "cannot convert float NaN to
    integer")."""
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        expected_collision_rate(lam)


def test_expected_collision_rate_against_brute_force(collision_oracle):
    """Oracle: direct sum over k = 0..40 at lambda=1, and the asymptotic
    1 / (2 sqrt(pi lambda)) cross-check at lambda=1e4."""
    import math
    assert expected_collision_rate(1.0) == pytest.approx(collision_oracle(1.0, hi=40), rel=1e-9)
    assert expected_collision_rate(1.0) == pytest.approx(0.3085083, abs=2e-7)
    assert expected_collision_rate(10000.0) == pytest.approx(collision_oracle(10000.0), rel=1e-6)
    assert expected_collision_rate(10000.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi * 10000.0)), rel=1e-3)
    # across 2 lambda = 700, where numpy's I0 hands over to the series
    for lam in (0.01, 1.0, 30.0, 349.0, 351.0, 1e3, 1e4, 6e4):
        assert expected_collision_rate(lam) == pytest.approx(collision_oracle(lam), rel=1e-9)


@pytest.mark.parametrize("lam", [1e9, 1e12, 1e20])
def test_expected_collision_rate_at_large_lambda(lam):
    """Far past any sensor's well, where a sum over k would need ~24
    sqrt(lambda) terms: the first two terms of the asymptote
    (1 + 1/(16 lambda)) / (2 sqrt(pi lambda)) hold to double precision."""
    expect = (1.0 + 1.0 / (16.0 * lam)) / (2.0 * math.sqrt(math.pi * lam))
    assert expected_collision_rate(lam) == pytest.approx(expect, rel=1e-9)


def test_wrong_key_bits_carry_no_payload(collision_oracle):
    """Extracting with an unrelated capture yields almost all ones (the
    fraction of zeros is just the collision rate) and is independent of the
    true bits: plug-in mutual information stays below 0.01 bit/bit."""
    scene = make_scene(512, 512, "flat", 10000)
    sensor = SensorConfig(seed=90)
    key, cover = capture_pair(scene, sensor)
    third = capture(scene, sensor, 2)
    full_well = every_pixel(key)
    assert every_pixel(third) == full_well
    bits = codec.keyed_filler_bits(key.pixel_count, 17)
    stego_img = embed(key, cover, bits, full_well, 1)
    leaked = extract(stego_img, third, full_well, 1).bits
    ones = float(np.mean(leaked))
    assert abs(ones - (1.0 - collision_oracle(10000.0))) < 5e-4
    mi = _plugin_mi(bits, leaked)
    assert mi < 0.01


def _plugin_mi(a: np.ndarray, b: np.ndarray) -> float:
    joint = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            joint[i, j] = np.sum((a == i) & (b == j))
    joint /= joint.sum()
    pa, pb = joint.sum(1), joint.sum(0)
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if joint[i, j] > 0:
                mi += joint[i, j] * np.log2(joint[i, j] / (pa[i] * pb[j]))
    return float(mi)
