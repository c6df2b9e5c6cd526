import hashlib
import math
import random
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotstego import codec, rng as splitmix
from shotstego.codec import (
    CodecError,
    DecodeError,
    gather,
    keyed_filler_bits,
    mixing_permutation,
    rs_decode,
    rs_decode_stream,
    rs_encode,
    scatter,
)

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# splitmix64
# ---------------------------------------------------------------------------

class SplitMix64:
    """Sequential splitmix64 stream and bounded draws, one output per call:
    the reference the vectorised `rng.outputs` and `codec._draws_below`
    must reproduce."""

    def __init__(self, seed: int):
        self._state = seed & splitmix.MASK64
        self.drawn = 0

    def next_u64(self) -> int:
        self.drawn += 1
        self._state = (self._state + splitmix.GAMMA) & splitmix.MASK64
        return splitmix.mix(self._state)

    def next_below(self, bound: int) -> int:
        """Accept v < 2**64 - (2**64 mod bound), return v mod bound."""
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % bound


def _fisher_yates(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    ref = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = ref.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_splitmix64_reference_vectors():
    # outputs of the reference C implementation
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    ref = SplitMix64(1234567)
    expect = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert [ref.next_u64() for _ in range(3)] == expect
    assert splitmix.outputs(0, 1, 1).tolist() == [0xE220A8397B1DCDAF]
    assert splitmix.outputs(1234567, 1, 3).tolist() == expect
    assert splitmix.outputs(1234567, 2, 2).tolist() == expect[1:]


def test_splitmix64_array_matches_scalar():
    for seed in (987654321, 0, splitmix.MASK64, -1):
        ref = SplitMix64(seed)
        seq = [ref.next_u64() for _ in range(100)]
        assert splitmix.outputs(seed, 1, 100).tolist() == seq
        assert splitmix.outputs(seed, 41, 60).tolist() == seq[40:]
        state = np.arange(1, 101, dtype=np.uint64) * np.uint64(splitmix.GAMMA)
        state += np.uint64(seed & splitmix.MASK64)
        assert splitmix.mix_words(state, np.empty_like(state)).tolist() == seq


def test_words_match_scalar_outputs():
    """`rng.words` over a gathered, non-contiguous table of steps j * GAMMA,
    and at a `first` past 2**63, gives mix(seed + n * GAMMA) at n = first + j;
    `rng.output` is that scalar."""
    table = splitmix.step_table(1000)
    picks = np.array([999, 3, 3, 0, 512, 77])
    cases = [(table[picks], picks), (table[::7], range(0, 1000, 7)), (table[990:], range(990, 1000))]
    for seed, first in ((5, 1), (2**64 - 3, 2**63 + 11), (123456789, 2**64 - 2)):
        for steps, js in cases:
            out = splitmix.words(seed, first, steps, np.empty_like(steps), np.empty_like(steps))
            assert out.tolist() == [splitmix.mix(seed + (first + int(j)) * splitmix.GAMMA)
                                    for j in js]
        assert splitmix.output(seed, first) == splitmix.mix(seed + first * splitmix.GAMMA)


def test_draws_below_matches_reference_rejection():
    """Bounds just above 2**63 reject about half of all outputs, so the
    vectorised draws must resume the stream after each rejected output
    exactly as the sequential rule does."""
    r = random.Random(11)
    for seed in (5, 2**64 - 3, 123456789):
        bounds = [2**63 + 1] * 40 + [r.randrange(2**63, 2**64) for _ in range(40)]
        bounds += [r.randrange(2, 5000) for _ in range(40)] + [2**64 - 1, 2**40, 2]
        ref = SplitMix64(seed)
        expect = [ref.next_below(b) for b in bounds]
        assert ref.drawn > len(bounds) + 20  # the rejection branch really ran
        got = codec._draws_below(seed, np.array(bounds, dtype=np.uint64))
        assert got.tolist() == expect


def test_next_below_unbiased_rejection():
    # bound 3: acceptance threshold must make all residues equally likely
    rng = SplitMix64(2024)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[rng.next_below(3)] += 1
    assert max(counts) - min(counts) < 600  # ~5 sigma for fair trinomial


# ---------------------------------------------------------------------------
# Reed-Solomon
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=2000), st.sampled_from([4, 8, 16]))
def test_rs_round_trip(payload, parity):
    assert rs_decode(rs_encode(payload, parity), parity) == payload


def test_rs_round_trip_10kb():
    payload = random.Random(1).randbytes(10240)
    for parity in (4, 8, 16):
        assert rs_decode(rs_encode(payload, parity), parity) == payload


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=1500), st.sampled_from([4, 8, 16]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rs_corrects_up_to_half_parity_per_block(payload, parity, seed):
    r = random.Random(seed)
    coded = bytearray(rs_encode(payload, parity))
    for start in range(0, len(coded), 255):
        blen = min(255, len(coded) - start)
        for pos in r.sample(range(blen), min(parity // 2, blen)):
            coded[start + pos] ^= r.randint(1, 255)
    assert rs_decode(bytes(coded), parity) == payload


def test_rs_adversarial_error_positions():
    # parity bytes themselves corrupted, plus the length header
    payload = bytes(range(200))
    coded = bytearray(rs_encode(payload, 8))
    coded[0] ^= 0xFF   # length header byte
    coded[4] ^= 0xFF   # crc byte
    coded[-1] ^= 0x01  # parity byte
    coded[-8] ^= 0x80  # parity byte
    assert rs_decode(bytes(coded), 8) == payload


def test_rs_beyond_capacity_never_silent():
    """Oracle: t/2 + 1 errors exceed the correction bound. Either the block
    is flagged uncorrectable or the CRC/length check trips; a silently wrong
    payload is the one unacceptable outcome."""
    r = random.Random(7)
    for parity in (4, 8):
        for _ in range(200):
            payload = r.randbytes(r.randint(30, 300))
            coded = bytearray(rs_encode(payload, parity))
            blen = min(255, len(coded))
            for pos in r.sample(range(blen), parity // 2 + 1):
                coded[pos] ^= r.randint(1, 255)
            try:
                out = rs_decode(bytes(coded), parity)
            except DecodeError:
                continue
            assert out == payload  # miscorrection slipped past RS but not CRC


def test_rs_decode_names_the_uncorrectable_block():
    r = random.Random(2)
    coded = bytearray(rs_encode(r.randbytes(300), 32))
    for pos in r.sample(range(255, len(coded)), 17):  # t + 1 errors in block 2
        coded[pos] ^= r.randint(1, 255)
    with pytest.raises(DecodeError, match="block 2 of 2"):
        rs_decode(bytes(coded), 32)


def test_rs_parity_validation():
    with pytest.raises(CodecError):
        rs_encode(b"x", 3)
    with pytest.raises(CodecError):
        rs_encode(b"x", 0)
    with pytest.raises(CodecError):
        rs_encode(b"x", 256)


def test_parity_must_be_an_integer():
    """A float parity is refused, where coded_length would return a float;
    a numpy integer acts as the equal int."""
    coded = rs_encode(b"x", 8)
    for call in (lambda p: codec.coded_length(100, p), lambda p: rs_encode(b"x", p),
                 lambda p: rs_decode(coded, p), lambda p: rs_decode_stream(coded, p)):
        with pytest.raises(TypeError):
            call(8.0)
        assert call(np.int64(8)) == call(8)


def test_rs_wire_format_layout():
    """[len u32 BE][crc32 u32 BE][payload], blocks of 255-parity data plus
    parity, last block short."""
    payload = b"\x11" * 300
    parity = 8
    coded = rs_encode(payload, parity)
    framed_len = 8 + 300
    n_blocks = math.ceil(framed_len / (255 - parity))
    assert len(coded) == framed_len + n_blocks * parity
    assert coded[0:4] == (300).to_bytes(4, "big")
    assert coded[4:8] == zlib.crc32(payload).to_bytes(4, "big")
    assert coded[8:8 + 239] == payload[:239]  # first block data after header


def test_rs_wire_format_golden():
    payload = bytes(range(64)) * 5
    expect = bytes.fromhex((GOLDEN / "coded_payload_320B_parity8.hex").read_text().strip())
    assert rs_encode(payload, 8) == expect


def _gf_mul_naive(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return r


def _rs_parity_naive(data, nsym):
    """Independent encoder route: table-free carry-less multiply and plain
    polynomial long division. Cross-implementation oracle for the parity."""
    g = [1]
    alpha_i = 1
    for _ in range(nsym):
        ng = [0] * (len(g) + 1)
        for idx, c in enumerate(g):
            ng[idx] ^= c
            ng[idx + 1] ^= _gf_mul_naive(c, alpha_i)
        g = ng
        alpha_i = _gf_mul_naive(alpha_i, 2)
    buf = list(data) + [0] * nsym
    for i in range(len(data)):
        c = buf[i]
        if c:
            for j in range(1, len(g)):
                buf[i + j] ^= _gf_mul_naive(g[j], c)
    return bytes(buf[-nsym:])


def test_rs_parity_matches_independent_implementation():
    """The parity bytes of one-block `rs_encode` outputs; each drawn data
    block is cut to leave room for the 8-byte framing header."""
    r = random.Random(4)
    for _ in range(40):
        nsym = r.choice([2, 4, 8, 16, 32])
        data = r.randbytes(r.randint(1, 255 - nsym))
        coded = rs_encode(data[:255 - nsym - 8], nsym)
        assert len(coded) <= 255  # one block
        assert coded[-nsym:] == _rs_parity_naive(coded[:-nsym], nsym)


def _rs_parity_reference(data: bytes, nsym: int) -> bytes:
    """Scalar systematic encoder, one block, one byte per step: the
    remainder of data * x^nsym by the generator, shifted through an LFSR.
    The reference the block-batched `rs_encode` must reproduce."""
    gen = [1]
    for i in range(nsym):  # times (x - alpha^i)
        shifted = gen + [0]
        for j, c in enumerate(gen):
            shifted[j + 1] ^= _gf_mul_naive(c, int(codec.GF_EXP[i]))
        gen = shifted
    log_gen = codec.GF_LOG[np.array(gen[1:])]
    rem = np.zeros(nsym, dtype=np.uint8)
    for b in data:
        coef = int(rem[0]) ^ b
        rem[:-1] = rem[1:]
        rem[-1] = 0
        if coef:
            rem ^= codec.GF_EXP[log_gen + int(codec.GF_LOG[coef])]
    return rem.tobytes()


def _rs_encode_reference(payload: bytes, nsym: int) -> bytes:
    framed = len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big") + payload
    k = 255 - nsym
    out = b""
    for start in range(0, len(framed), k):
        out += framed[start:start + k] + _rs_parity_reference(framed[start:start + k], nsym)
    return out


@st.composite
def _payload_of_at_most_three_blocks(draw):
    nsym = draw(st.integers(min_value=1, max_value=127)) * 2
    size = draw(st.integers(min_value=0, max_value=max(0, 3 * (255 - nsym) - 8)))
    return draw(st.binary(min_size=size, max_size=size)), nsym


@settings(max_examples=60, deadline=None)
@given(_payload_of_at_most_three_blocks())
def test_rs_encode_matches_scalar_reference(case):
    payload, nsym = case
    assert rs_encode(payload, nsym) == _rs_encode_reference(payload, nsym)


# The scalar decoder, one block at a time: one XOR-reduce per syndrome,
# Berlekamp-Massey, a Chien search by Horner evaluation at every real
# position, and Forney.
# The reference the array-based `rs_decode` and `rs_decode_stream` must
# reproduce, payload for payload and failure for failure.

_EXP_REF = [1]
for _ in range(254):
    _EXP_REF.append(_gf_mul_naive(_EXP_REF[-1], 2))
_LOG_REF = {v: i for i, v in enumerate(_EXP_REF)}
_EXP_REF_NP = np.array(_EXP_REF, dtype=np.uint8)
_LOG_REF_NP = np.zeros(256, dtype=np.int64)
_LOG_REF_NP[_EXP_REF] = np.arange(255)


def _mul_ref(a, b):
    if a == 0 or b == 0:
        return 0
    return _EXP_REF[(_LOG_REF[a] + _LOG_REF[b]) % 255]


def _inv_ref(a):
    return _EXP_REF[-_LOG_REF[a] % 255]


def _poly_mul_ref(p, q):
    r = [0] * (len(p) + len(q) - 1)
    for j, qj in enumerate(q):
        for i, pi in enumerate(p):
            r[i + j] ^= _mul_ref(pi, qj)
    return r


def _poly_eval_ref(poly, x):
    """Horner evaluation, coefficients highest degree first."""
    y = poly[0]
    for c in poly[1:]:
        y = _mul_ref(y, x) ^ c
    return y


def _syndromes_ref(block, nsym):
    """One XOR-reduce per syndrome over the block's nonzero bytes."""
    arr = np.frombuffer(block, dtype=np.uint8)
    nz = np.flatnonzero(arr)
    logs, degrees = _LOG_REF_NP[arr[nz]], len(block) - 1 - nz
    return [int(np.bitwise_xor.reduce(_EXP_REF_NP[(logs + i * degrees) % 255]))
            for i in range(nsym)]


def _berlekamp_massey_ref(synd, nsym):
    """Error locator, highest degree first."""
    err_loc, old_loc = [1], [1]
    for i in range(nsym):
        delta = synd[i]
        for j in range(1, len(err_loc)):
            delta ^= _mul_ref(err_loc[-(j + 1)], synd[i - j])
        old_loc.append(0)
        if delta != 0:
            if len(old_loc) > len(err_loc):
                new_loc = [_mul_ref(c, delta) for c in old_loc]
                old_loc = [_mul_ref(c, _inv_ref(delta)) for c in err_loc]
                err_loc = new_loc
            scaled = [_mul_ref(c, delta) for c in old_loc]
            if len(scaled) > len(err_loc):
                err_loc = [0] * (len(scaled) - len(err_loc)) + err_loc
            off = len(err_loc) - len(scaled)
            for k, c in enumerate(scaled):
                err_loc[off + k] ^= c
    while err_loc and err_loc[0] == 0:
        err_loc.pop(0)
    return err_loc


def _rs_correct_block_reference(block: bytes, nsym: int) -> bytes:
    synd = _syndromes_ref(block, nsym)
    if max(synd) == 0:
        return block
    err_loc = _berlekamp_massey_ref(synd, nsym)
    n_err = len(err_loc) - 1
    if n_err == 0 or n_err > nsym // 2:
        raise DecodeError("uncorrectable block: too many errors")
    n = len(block)
    err_pos = [pos for pos in range(n)
               if _poly_eval_ref(err_loc, _EXP_REF[-(n - 1 - pos) % 255]) == 0]
    if len(err_pos) != n_err:
        raise DecodeError("uncorrectable block: error locator has no valid roots")
    omega = _poly_mul_ref(synd[::-1], err_loc)[-nsym:]
    out = bytearray(block)
    xs = [_EXP_REF[(n - 1 - p) % 255] for p in err_pos]
    for i, pos in enumerate(err_pos):
        xi_inv = _inv_ref(xs[i])
        denom = 1
        for j, xj in enumerate(xs):
            if j != i:
                denom = _mul_ref(denom, 1 ^ _mul_ref(xi_inv, xj))
        if denom == 0:
            raise DecodeError("uncorrectable block: Forney denominator zero")
        out[pos] ^= _mul_ref(_poly_eval_ref(omega, xi_inv), _inv_ref(denom))
    if max(_syndromes_ref(bytes(out), nsym)) != 0:
        raise DecodeError("uncorrectable block: correction did not converge")
    return bytes(out)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _padding_root(degree: int, nsym: int) -> bytes:
    """x^degree mod g(x): added to a block's parity, it leaves the block one
    error, at `degree`, away from a codeword of the full-length code."""
    return _rs_parity_reference(b"\x01" + bytes(degree - nsym), nsym)


@pytest.mark.parametrize("nsym", [2, 8, 32])
def test_rs_decode_finds_no_root_in_the_zero_padding(nsym):
    """The one error lies at degree 254, in the zero padding of a short
    block: the block cannot be corrected, so decoding raises."""
    coded = rs_encode(b"short", nsym)
    coded = coded[:-nsym] + _xor(coded[-nsym:], _padding_root(254, nsym))
    with pytest.raises(DecodeError):
        rs_decode(coded, nsym)
    with pytest.raises(DecodeError):
        rs_decode_stream(coded, nsym)


def _rs_decode_reference(coded: bytes, nsym: int) -> bytes:
    n = len(coded)
    if n == 0 or (n % 255 != 0 and n % 255 <= nsym):
        raise DecodeError("coded length inconsistent with block structure")
    framed = b""
    for start in range(0, n, 255):
        block = coded[start:start + 255]
        framed += _rs_correct_block_reference(block, nsym)[:len(block) - nsym]
    if len(framed) < 8 or int.from_bytes(framed[0:4], "big") != len(framed) - 8:
        raise DecodeError("framed length mismatch")
    if zlib.crc32(framed[8:]) != int.from_bytes(framed[4:8], "big"):
        raise DecodeError("payload CRC-32 mismatch")
    return framed[8:]


def _rs_decode_stream_reference(stream: bytes, nsym: int) -> bytes:
    k = 255 - nsym
    head = 255 * -(-4 // k)  # the bytes of the full blocks that hold the length field
    if len(stream) >= head:
        try:
            data = b"".join(_rs_correct_block_reference(stream[i:i + 255], nsym)[:k]
                            for i in range(0, head, 255))
            need = codec.coded_length(int.from_bytes(data[:4], "big"), nsym)
            if 255 <= need <= len(stream):
                return _rs_decode_reference(stream[:need], nsym)
        except DecodeError:
            pass
    for need in range(8 + nsym, min(255, len(stream)) + 1):
        try:
            return _rs_decode_reference(stream[:need], nsym)
        except DecodeError:
            continue
    raise DecodeError("no decodable payload found")


@pytest.mark.parametrize("nsym", [8, 32])
def test_rs_correct_rows_do_not_interact(nsym):
    """One `_rs_correct` call over rows of lengths 8 + nsym to 255 with
    0..t, t + 1 or 40 byte errors, or one error in the zero padding: each
    row's flag and bytes are the scalar reference's on that row alone, and
    a row the reference cannot correct is left as it was."""
    t = nsym // 2
    r = random.Random(nsym)
    blocks = []
    for i, kind in enumerate(["0..t", "t+1", "40", "padding root"] * 8):
        length = [8 + nsym, 254, 255][i] if i < 3 else r.randint(8 + nsym, 255)
        if kind == "padding root":
            length = min(length, 254)
        data = r.randbytes(length - nsym)
        block = bytearray(data + _rs_parity_reference(data, nsym))
        if kind == "padding root":
            block[-nsym:] = _xor(block[-nsym:], _padding_root(r.randrange(length, 255), nsym))
        else:
            count = {"0..t": r.randint(0, t), "t+1": t + 1, "40": 40}[kind]
            for pos in r.sample(range(length), min(count, length)):
                block[pos] ^= r.randint(1, 255)
        blocks.append(bytes(block))
    rows = np.array([np.frombuffer(bytes(255 - len(b)) + b, np.uint8) for b in blocks])
    before = rows.copy()
    fixed = codec._rs_correct(rows, np.array([len(b) for b in blocks]), nsym)
    assert 0 < fixed.sum() < len(blocks)
    for block, row, old, ok in zip(blocks, rows, before, fixed):
        try:
            expect = bytes(255 - len(block)) + _rs_correct_block_reference(block, nsym)
        except DecodeError:
            assert not ok and np.array_equal(row, old)
        else:
            assert ok and row.tobytes() == expect


@st.composite
def _received_streams(draw):
    """A coded stream of one to three blocks (three of up to three data
    bytes at parity 252, eight of one at 254) as a receiver may gather it:
    byte errors in every block (0..t, exactly t, t + 1 or 40), or a short
    last block one error in its zero padding away from a full-length
    codeword; then kept whole, truncated, followed by filler, or replaced by
    filler alone."""
    nsym = draw(st.sampled_from([2, 4, 8, 16, 32, 64, 128, 252, 254]))
    t = nsym // 2
    size = draw(st.integers(min_value=0, max_value=max(0, 3 * (255 - nsym) - 8)))
    r = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coded = bytearray(rs_encode(r.randbytes(size), nsym))
    errors = draw(st.sampled_from(["0..t", "t", "t+1", "40", "padding root"]))
    if errors == "padding root":
        length = len(coded) % 255 or 255
        if length < 255:
            coded[-nsym:] = _xor(coded[-nsym:], _padding_root(r.randrange(length, 255), nsym))
    else:
        for start in range(0, len(coded), 255):
            count = {"0..t": r.randint(0, t), "t": t, "t+1": t + 1, "40": 40}[errors]
            blen = min(255, len(coded) - start)
            for pos in r.sample(range(blen), min(count, blen)):
                coded[start + pos] ^= r.randint(1, 255)
    shape = draw(st.sampled_from(["whole", "truncated", "filler after", "filler only"]))
    if shape == "truncated":
        coded = coded[:r.randint(0, len(coded))]
    elif shape == "filler after":
        coded += r.randbytes(r.randint(1, 300))
    elif shape == "filler only":
        coded = bytearray(r.randbytes(r.randint(0, 600)))
    return bytes(coded), nsym


def _outcome(decode, data: bytes, nsym: int):
    try:
        return decode(data, nsym)
    except DecodeError:
        return DecodeError


@settings(max_examples=60, deadline=None)
@given(_received_streams())
def test_rs_decode_matches_scalar_reference(case):
    data, nsym = case
    assert _outcome(rs_decode, data, nsym) == _outcome(_rs_decode_reference, data, nsym)
    assert (_outcome(rs_decode_stream, data, nsym)
            == _outcome(_rs_decode_stream_reference, data, nsym))


@pytest.mark.parametrize("nsym", [250, 252, 254])
def test_rs_decode_stream_at_the_highest_parities(nsym):
    """Above parity 250 a block holds fewer than 4 data bytes, so the length
    field spans several blocks; the stream decoder corrects all of them
    before it reads the length. With t errors in every block and filler
    after, every payload comes back."""
    r = random.Random(nsym)
    for size in (0, 1, 2, 5, 40):
        payload = r.randbytes(size)
        coded = bytearray(rs_encode(payload, nsym))
        for start in range(0, len(coded), 255):
            for pos in r.sample(range(min(255, len(coded) - start)), nsym // 2):
                coded[start + pos] ^= r.randint(1, 255)
        assert rs_decode_stream(bytes(coded) + r.randbytes(300), nsym) == payload


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of outputs at bigframe scale, recorded from the swap-loop
# permutation and the per-block scalar encoder they must keep matching.
@pytest.mark.parametrize("slots, seed, digest", [
    (260014, 1, "2fe96b9ac358ca5a611969d7366a4d5c2cbf7f3baeca2573ea8a879fcfe62ebd"),
    (2**21, 7919, "1a01fbbc5469e42b5bd64f90554b62c89c0302154e76744b6da34679ebd29a55"),
])
def test_permutation_bytes_pinned_at_scale(slots, seed, digest):
    assert _sha256(mixing_permutation(slots, seed).astype("<i8").tobytes()) == digest


@pytest.mark.parametrize("size, parity, digest", [
    (16384, 8, "112447d302a4d21da6fd21f5cca3646b7fb1242e14991ab6adfedf2187a6b7bf"),
    (16384, 32, "4cdf03b015b033806cb35159bf9748bee16c5fcf6f37aecea14f319bb4c19981"),
    (16384, 254, "7bfe43e5731c62e5968cdef0b5d061353d5053642e1f385d87631896be8ca92e"),
    # framed lengths 222, 223, 231 and 232 straddle a full block of 223
    # data bytes at parity 32 and of 231 at parity 24
    (214, 32, "5304d155c1c76f0bd8d310f224704c3a5e52aceb0acb2958955e8f8ff716b37a"),
    (215, 32, "4452ad9774c267d32544f9825325a00691014d9fd0382606f876ce8f97ebe2ae"),
    (223, 32, "463f25c47aef29bdb7400da7935c48bb5a8c7d7a2dd5be2167b95530dbea26c8"),
    (224, 32, "d6f4fc72348877c5719693b266ca5449dacefbd3f84f1c541e0c328b8704813c"),
    (214, 24, "a9e789b3a515465550a8062a4191e10f5c70e837a12e5214d3125ac47d9913af"),
    (215, 24, "abd5501f8cdeb0b377c1c3c79dfbd10e13650307b297315bd7c81f69349a0a16"),
    (223, 24, "309fc035a7d06c5a163246e42bdb395dbfdb6c2e09e82b4f6647dac5d7a19482"),
    (224, 24, "ebaba0f77e6dec2259bceebf623a6f2e3db30abbd7c2feefd7155170c37cd7ee"),
])
def test_rs_encode_bytes_pinned(size, parity, digest):
    payload = random.Random(size).randbytes(size)
    assert _sha256(rs_encode(payload, parity)) == digest


def _filler_bytes(count: int, seed: int) -> bytes:
    return np.packbits(keyed_filler_bits(8 * count, seed)).tobytes()


@pytest.mark.parametrize("size", [0, 1, 215, 216, 2000])
def test_rs_decode_stream_finds_the_payload_length(size):
    """The coded stream followed by filler, as the receiver gathers it, both
    as a short stream and as one longer than the first block."""
    payload = random.Random(size).randbytes(size)
    coded = rs_encode(payload, 32)
    for tail in (7, 300):
        assert rs_decode_stream(coded + _filler_bytes(tail, size), 32) == payload


def test_rs_decode_stream_filler_only_raises():
    for length in (100, 600):
        with pytest.raises(DecodeError):
            rs_decode_stream(_filler_bytes(length, 42), 32)


def test_redundancy_guidance_monte_carlo():
    """Oracle: a 1% uniform byte-error channel against the default 8 parity
    bytes per block. A single shortened block (64-byte payload) stays within
    the correction budget in >= 99% of 1000 trials; this is the regime the
    2%-overhead rule of thumb is good for."""
    r = random.Random(20260808)
    payload = r.randbytes(64)
    coded_clean = rs_encode(payload, 8)
    ok = 0
    for _ in range(1000):
        coded = bytearray(coded_clean)
        for i in range(len(coded)):
            if r.random() < 0.01:
                coded[i] ^= r.randint(1, 255)
        try:
            if rs_decode(bytes(coded), 8) == payload:
                ok += 1
        except DecodeError:
            pass
    assert ok >= 990


# ---------------------------------------------------------------------------
# mixing permutation
# ---------------------------------------------------------------------------

def test_permutation_slot_count_one():
    assert mixing_permutation(1, 99).tolist() == [0]


def test_permutation_zero_slots_rejected():
    with pytest.raises(CodecError):
        mixing_permutation(0, 1)
    with pytest.raises(CodecError):  # past the int32 step indices
        mixing_permutation(2**31, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**64 - 1))
def test_permutation_is_bijection(n, seed):
    perm = mixing_permutation(n, seed)
    assert sorted(perm.tolist()) == list(range(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=0, max_value=2**64 - 1))
def test_permutation_matches_reference_fisher_yates(n, seed):
    assert mixing_permutation(n, seed).tolist() == _fisher_yates(n, seed)


def test_permutation_golden_vectors():
    for name, n, seed in [("perm_n8_seed1.txt", 8, 1),
                          ("perm_n64_seedcafe.txt", 64, 0xCAFEBABE)]:
        expect = [int(line) for line in (GOLDEN / name).read_text().split()]
        assert mixing_permutation(n, seed).tolist() == expect


def test_burst_spreads_across_rs_blocks():
    """Oracle: brute-force count over the generated permutation. 50 damaged
    consecutive byte slots should hit many distinct 255-byte blocks (an
    unmixed layout would hit 1); for a 10^4-byte stream over ~40 blocks a
    uniform shuffle lands near 29 distinct, so >= 25 is the frozen bound."""
    slot_count = 10_000
    perm = mixing_permutation(slot_count, 12345)
    slot_of_byte = perm          # byte b -> slot perm[b]
    byte_of_slot = np.empty(slot_count, dtype=np.int64)
    byte_of_slot[slot_of_byte] = np.arange(slot_count)
    burst = byte_of_slot[4000:4050]          # 50 consecutive damaged slots
    blocks = set(int(b) // 255 for b in burst)
    assert len(blocks) >= 25
    unmixed = set(b // 255 for b in range(4000, 4050))
    assert len(unmixed) <= 2


# ---------------------------------------------------------------------------
# scatter / gather
# ---------------------------------------------------------------------------

def test_scatter_empty_payload_all_filler():
    bits = scatter(b"", mixing_permutation(10, 4), 85, 4)
    assert len(bits) == 85
    assert set(np.unique(bits)) <= {0, 1}


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=300), st.integers(min_value=0, max_value=2**64 - 1))
def test_scatter_gather_round_trip(coded, seed):
    capacity = 8 * max(len(coded), 1) + 77
    perm = mixing_permutation(capacity // 8, seed)
    bits = scatter(coded, perm, capacity, seed)
    assert len(bits) == capacity
    assert gather(bits, perm)[:len(coded)] == coded


def test_gather_identity_permutation_is_plain_packing():
    coded = bytes([0b10110001, 0xFF, 0x00])
    perm = np.arange(3)
    bits = scatter(coded, perm, 24, 0)
    assert bits.tolist() == [1, 0, 1, 1, 0, 0, 0, 1] + [1] * 8 + [0] * 8
    assert gather(bits, perm) == coded


def test_scatter_rejects_oversized_message():
    perm = mixing_permutation(4, 1)
    with pytest.raises(CodecError, match="too large"):
        scatter(b"12345", perm, 32, 1)
    with pytest.raises(CodecError, match="permutation covers 3 slots"):
        scatter(b"1", mixing_permutation(3, 1), 32, 1)


def test_mixing_seed_outside_64_bits_rejected():
    """A seed is a 64-bit word: -1 and 2**64 would alias 2**64 - 1 and 0, so
    every stage that takes the seed, the filler stream too, refuses them
    and accepts the two ends."""
    perm = mixing_permutation(4, 0)
    for seed in (-1, 2**64):
        with pytest.raises(CodecError, match="mixing_seed"):
            mixing_permutation(4, seed)
        with pytest.raises(CodecError, match="mixing_seed"):
            scatter(b"1", perm, 32, seed)
        with pytest.raises(CodecError, match="mixing_seed"):
            keyed_filler_bits(64, seed)
    for seed in (0, 2**64 - 1):
        assert len(scatter(b"1", mixing_permutation(4, seed), 32, seed)) == 32
    assert not np.array_equal(keyed_filler_bits(64, 0), keyed_filler_bits(64, 2**64 - 1))


def test_numpy_integer_mixing_seeds_act_as_ints():
    """A numpy integer seed gives the bytes of the equal Python int; a float
    is no seed."""
    perm = mixing_permutation(50, 5)
    for seed in (np.int64(5), np.uint64(5)):
        assert np.array_equal(mixing_permutation(50, seed), perm)
        assert np.array_equal(keyed_filler_bits(64, seed), keyed_filler_bits(64, 5))
        assert np.array_equal(scatter(b"ab", perm, 400, seed), scatter(b"ab", perm, 400, 5))
    for call in (lambda: mixing_permutation(50, 5.0), lambda: keyed_filler_bits(64, 5.0),
                 lambda: scatter(b"ab", perm, 400, 5.0)):
        with pytest.raises(TypeError):
            call()


def test_gather_rejects_bit_vector_shorter_than_the_slots():
    """16 bits hold 2 of the 4 slots: reading slot 3 would run off the
    vector, so the call is refused before any slot is read."""
    with pytest.raises(CodecError, match="shorter"):
        gather(np.zeros(16, np.uint8), np.array([3, 2, 1, 0]))
    assert gather(np.zeros(32, np.uint8), np.array([3, 2, 1, 0])) == bytes(4)


def test_filler_bit_balance():
    """Oracle: fair-coin fraction. 2e5 filler bits must land in [0.49, 0.51]
    (null sd of the fraction is ~0.0011)."""
    bits = keyed_filler_bits(200_000, 31337)
    frac = float(np.mean(bits))
    assert 0.49 <= frac <= 0.51


def test_filler_golden_and_determinism():
    expect = (GOLDEN / "filler_seed1_64bits.txt").read_text().strip()
    got = "".join(str(b) for b in keyed_filler_bits(64, 1).tolist())
    assert got == expect
    assert np.array_equal(keyed_filler_bits(999, 5), keyed_filler_bits(999, 5))


def test_filler_domain_separated_from_shuffle():
    # same seed drives both streams; they must not be the same bits
    seed = 77
    rng = SplitMix64(seed)
    shuffle_word = rng.next_u64()
    filler_word = int("".join(str(b) for b in keyed_filler_bits(64, seed)), 2)
    assert shuffle_word != filler_word

