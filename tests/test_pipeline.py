import hashlib
import tracemalloc

import numpy as np
import pytest

from shotstego import codec, imageio, pipeline, stego
from shotstego.camera import SensorConfig, capture, capture_pair, make_scene
from shotstego.codec import CodecError, DecodeError


def pair(pattern="flat", seed=101, n=512, lam=10000):
    scene = make_scene(n, n, pattern, lam)
    sensor = SensorConfig(seed=seed)
    return scene, sensor, *capture_pair(scene, sensor)


def test_round_trip_flat_defaults():
    _, _, key, cover = pair()
    msg = b"meet at the usual place, bring the negatives"
    res = pipeline.embed_message(key, cover, msg, mixing_seed=3)
    assert pipeline.extract_message(res.stego_image, key, mixing_seed=3) == msg


def test_round_trip_pcb_defaults():
    _, _, key, cover = pair("pcb", seed=102)
    msg = bytes(range(48))
    res = pipeline.embed_message(key, cover, msg, mixing_seed=4)
    assert pipeline.extract_message(res.stego_image, key, mixing_seed=4) == msg


def test_round_trip_large_payload_strong_parity():
    _, _, key, cover = pair("pcb", seed=103)
    msg = bytes(np.random.default_rng(9).integers(0, 256, 16384, dtype=np.uint8))
    res = pipeline.embed_message(key, cover, msg, parity_symbols=32, mixing_seed=5)
    got = pipeline.extract_message(res.stego_image, key, parity_symbols=32, mixing_seed=5)
    assert got == msg


@pytest.mark.parametrize("size", [0, 50, 215, 216, 400, 2000])
def test_length_discovery_across_block_boundaries(size):
    """Payload sizes straddling the one-full-block boundary exercise both
    halves of the header bootstrap (full-block path and short-block scan)."""
    _, _, key, cover = pair(seed=104, n=256)
    msg = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
    res = pipeline.embed_message(key, cover, msg, parity_symbols=32, mixing_seed=6)
    assert pipeline.extract_message(res.stego_image, key, parity_symbols=32,
                                    mixing_seed=6) == msg


def test_wrong_key_fails_loudly():
    scene, sensor, key, cover = pair(seed=106)
    third = capture(scene, sensor, 2)
    msg = b"only the right key may read this"
    res = pipeline.embed_message(key, cover, msg, mixing_seed=8)
    with pytest.raises(DecodeError):
        pipeline.extract_message(res.stego_image, third, mixing_seed=8)


def test_wrong_mixing_seed_fails_loudly():
    _, _, key, cover = pair(seed=107, n=256)
    res = pipeline.embed_message(key, cover, b"seed matters", mixing_seed=9)
    with pytest.raises(DecodeError):
        pipeline.extract_message(res.stego_image, key, mixing_seed=10)


def test_capacity_enforcement():
    _, _, key, cover = pair(seed=108, n=64)  # 4096 pixels -> 512 byte slots
    with pytest.raises(CodecError, match="too large|capacity"):
        pipeline.embed_message(key, cover, b"\x00" * 2000)


def test_oversized_message_rejected_before_encoding(monkeypatch):
    """The capacity check runs on the coded length alone: an oversized
    message never reaches the Reed-Solomon encoder or the permutation."""
    _, _, key, cover = pair(seed=108, n=64)

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the capacity check")

    monkeypatch.setattr(codec, "rs_encode", unreachable)
    monkeypatch.setattr(codec, "mixing_permutation", unreachable)
    with pytest.raises(CodecError, match="too large for capacity: 16640 bits > 4096"):
        pipeline.embed_message(key, cover, b"\x00" * 2000)


def test_dark_key_has_no_capacity():
    """Every pixel is below the dark floor: embedding reports the overflow
    like any oversized message, extraction has nothing to read."""
    _, _, key, cover = pair(seed=112, n=64, lam=0)
    with pytest.raises(CodecError, match="too large"):
        pipeline.embed_message(key, cover, b"x")
    with pytest.raises(DecodeError, match="no usable byte capacity"):
        pipeline.extract_message(key, key)


def test_embedded_bits_fill_capacity_exactly():
    _, _, key, cover = pair(seed=109, n=256)
    res = pipeline.embed_message(key, cover, b"hello", mixing_seed=11)
    assert len(res.bits) == res.capacity_bits
    assert res.capacity_bits == 256 * 256  # flat scene: every pixel usable


def test_deterministic_stego_image():
    _, _, key, cover = pair(seed=110, n=256)
    a = pipeline.embed_message(key, cover, b"same in, same out", mixing_seed=12)
    b = pipeline.embed_message(key, cover, b"same in, same out", mixing_seed=12)
    assert a.stego_image == b.stego_image


def test_group_mode_round_trip():
    _, _, key, cover = pair(seed=111, n=512)
    msg = b"block mode trades capacity for robustness"
    res = pipeline.embed_message(key, cover, msg, block_pixels=16, mixing_seed=13)
    got = pipeline.extract_message(res.stego_image, key, block_pixels=16, mixing_seed=13)
    assert got == msg
    assert res.capacity_bits == 512 * 512 // 16


def test_embed_validates_parity_and_g():
    _, _, key, cover = pair(seed=113, n=64)
    with pytest.raises(CodecError):
        pipeline.embed_message(key, cover, b"", parity_symbols=5)
    with pytest.raises(ValueError, match="block_pixels"):
        pipeline.embed_message(key, cover, b"", block_pixels=0)
    with pytest.raises(ValueError, match="block_pixels"):
        pipeline.extract_message(key, key, block_pixels=0)


# SHA-256 of the stego PGM bytes for a 48-byte payload at parity 32 on a
# 128x128 pcb scene at lambda = 1e4, whose dark and saturated tiles leave a
# quarter of the pixels outside the usable mask.
PINNED_STEGO = {
    1: "b57c52f9c98bc35e10a49c905033b5b739aec6e4657fc888b49f1d62661c1d06",
    16: "2a3db9127cfd2c0f255e184f88181c517b5b1f726580493e7fce2956769f5ee7",
}


@pytest.mark.parametrize("g", sorted(PINNED_STEGO))
def test_stego_bytes_pinned(g):
    _, _, key, cover = pair("pcb", seed=5, n=128)
    payload = bytes(np.random.default_rng(11).integers(0, 256, 48, dtype=np.uint8))
    res = pipeline.embed_message(key, cover, payload, parity_symbols=32, block_pixels=g)
    assert hashlib.sha256(imageio.write_pgm16(res.stego_image)).hexdigest() == PINNED_STEGO[g]
    assert pipeline.extract_message(res.stego_image, key, parity_symbols=32,
                                    block_pixels=g) == payload


@pytest.fixture(scope="module")
def exchange_2048():
    """Each exchange call at 2048^2, g=16 and a 16 kB payload at parity 32,
    on a gradient at mean 1000, and scatter at g=1; each with the traced
    peak allowed above what it returns."""
    key, cover = capture_pair(make_scene(2048, 2048, "gradient", 1000.0), SensorConfig(seed=5))
    payload = bytes(range(256)) * 64
    coded = codec.rs_encode(payload, 32)
    capacity = stego.capacity_bits(key, 50000, 16)
    perm = codec.mixing_permutation(capacity // 8, 3)
    bits = codec.scatter(coded, perm, capacity, 3)
    stego_img = stego.embed(key, cover, bits, 50000, 16)
    capacity_g1 = stego.capacity_bits(key, 50000, 1)
    perm_g1 = codec.mixing_permutation(capacity_g1 // 8, 3)
    bits_g1 = codec.scatter(coded, perm_g1, capacity_g1, 3)

    def embed_message():
        res = pipeline.embed_message(key, cover, payload, parity_symbols=32, mixing_seed=3,
                                     block_pixels=16, full_well=50000)
        return res.stego_image.pixels.nbytes + res.bits.nbytes

    def extract_message():
        got = pipeline.extract_message(stego_img, key, parity_symbols=32, mixing_seed=3,
                                       block_pixels=16, full_well=50000)
        assert got == payload
        return len(got)

    return {
        "default_usable_mask": (lambda: stego.default_usable_mask(key, 50000).nbytes, 2e6),
        "embed": (lambda: stego.embed(key, cover, bits, 50000, 16).pixels.nbytes, 2e6),
        "embed g=1": (lambda: stego.embed(key, cover, bits_g1, 50000, 1).pixels.nbytes, 2e6),
        "extract": (lambda: stego.extract(stego_img, key, 50000, 16).bits.nbytes, 2e6),
        "scatter": (lambda: codec.scatter(coded, perm, capacity, 3).nbytes, 2e6),
        "gather": (lambda: len(codec.gather(bits, perm)), 2e6),
        "scatter g=1": (lambda: codec.scatter(coded, perm_g1, capacity_g1, 3).nbytes, 2e6),
        "embed_message": (embed_message, 2e6),
        "extract_message": (extract_message, 4e6),
    }


@pytest.mark.parametrize("call", ["default_usable_mask", "embed", "extract", "scatter", "gather",
                                  "scatter g=1", "embed g=1", "embed_message", "extract_message"])
def test_exchange_memory_stays_bounded(exchange_2048, call):
    """Each call of a 2048^2 exchange allocates little beyond what it
    returns: after a warm-up call, the traced peak is at most 2 MB above the
    returned arrays, 4 MB for extract_message, whose length search corrects
    many candidate layouts at once (image-sized temporaries put 2.6 to 8.6
    MB above the stego calls; a bit-sized free mask and filler put 9.2 MB
    above the g=1 scatter; an image-sized usable mask put 5.2 MB above each
    pipeline call)."""
    run, bound = exchange_2048[call]
    run()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        returned = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - returned <= bound
