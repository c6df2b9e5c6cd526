"""Payload coding for the pixel-selection protocol.

Sender side: frame the payload (length + CRC-32), add Reed-Solomon parity
per block, shuffle byte placement with a keyed permutation, and pad with
keyed filler bits until there is exactly one bit per usable pixel.
Receiver side runs the same steps in reverse.

Everything in this module is specified bit-exactly so that two independent
implementations interoperate:

  * coded stream:  [len: u32 BE][crc32: u32 BE][payload] split into blocks
    of (255 - parity) data bytes (last block shorter), each block extended
    with `parity` Reed-Solomon bytes over GF(2^8), primitive polynomial
    0x11D, generator alpha=2, systematic, parity roots alpha^0..alpha^(t-1).
    Encoder and decoder hold the blocks as the rows of one array, the short
    last block left-padded with zeros: leading zeros change neither a
    block's parity nor its syndromes, so every block is coded in lockstep,
    and the decoder corrects all of its rows in one call.
  * mixing permutation: backward Fisher-Yates driven by the splitmix64
    stream of the mixing seed (`rng`), bounded draws by rejection sampling.
  * filler: splitmix64 stream of (mixing_seed XOR rng.FILLER_SALT), 64-bit
    words consumed MSB-first, written into unoccupied bit positions in
    increasing position order.

The receiver does not know where the coded data ends among the filler;
`rs_decode_stream` recovers the length from the framed header. For a
message shorter than one block it takes every candidate length as a
zero-padded row, like a short last block, and corrects them all at once.
"""

from __future__ import annotations

import functools
import operator
import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng


class CodecError(ValueError):
    """Malformed parameters or a payload that cannot fit the capacity."""


class DecodeError(ValueError):
    """Coded data could not be decoded: uncorrectable block, inconsistent
    framing, or CRC mismatch. Deliberately loud; a wrong key lands here."""


# ---------------------------------------------------------------------------
# GF(2^8) arithmetic, tables for primitive polynomial 0x11D, generator 2
# ---------------------------------------------------------------------------

GF_PRIM_POLY = 0x11D
GF_GENERATOR = 2


def _build_tables():
    exp = np.zeros(1024, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF_PRIM_POLY
    exp[255:510] = exp[0:255]  # doubled so products need no mod 255
    # log 0 is a sentinel: any sum with it lands in the zero tail exp[510:],
    # so a product with zero needs no mask
    log[0] = 510
    return exp, log


GF_EXP, GF_LOG = _build_tables()
_EVAL_CELLS = 1 << 18  # index cells per _gf_eval chunk: 2 MiB of int64


def _gf_product(a, b):
    """Elementwise product of two broadcastable arrays of field elements."""
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def _gf_quotient(a, b):
    """Elementwise a / b where b is nonzero (some byte where it is zero)."""
    return GF_EXP[GF_LOG[a] + 255 - GF_LOG[b]]


def _gf_eval(coefs: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Evaluate each row of `coefs` (coefficients lowest degree first) at
    alpha^e for each e in `exponents`: out[r, j] is the XOR over degrees d of
    coefs[r, d] * alpha^(exponents[j] * d). Rows go in chunks of at most
    _EVAL_CELLS products."""
    powers = np.outer(exponents, np.arange(coefs.shape[1])) % 255
    out = np.empty((len(coefs), len(exponents)), dtype=np.uint8)
    step = _EVAL_CELLS // powers.size
    for i in range(0, len(coefs), step):
        terms = GF_EXP[GF_LOG[coefs[i:i + step]][:, None, :] + powers]
        out[i:i + step] = np.bitwise_xor.reduce(terms, axis=2)
    return out


@functools.cache
def _generator_products(nsym: int) -> np.ndarray:
    """Row c holds c times each generator coefficient below the leading 1,
    highest degree first: the bytes one division step XORs in."""
    g = np.zeros(nsym + 1, dtype=np.uint8)
    g[0] = 1
    for i in range(nsym):
        g[1:] ^= _gf_product(g[:-1], GF_EXP[i])  # times (x + alpha^i)
    table = _gf_product(np.arange(256)[:, None], g[1:])
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Reed-Solomon block codec
# ---------------------------------------------------------------------------

def _check_parity(parity_symbols: int) -> None:
    parity_symbols = operator.index(parity_symbols)  # a float parity raises TypeError
    if not (2 <= parity_symbols <= 254) or parity_symbols % 2 != 0:
        raise CodecError(
            f"parity_symbols must be even and in [2, 254], got {parity_symbols}"
        )


def _rs_correct(rows: np.ndarray, lengths, nsym: int) -> np.ndarray:
    """Correct up to nsym // 2 byte errors in each 255-byte row in place and
    return one flag per row: the row is now a codeword. Row r, a block or a
    candidate layout, is lengths[r] bytes behind zero padding. The rows with
    nonzero syndromes (the rows evaluated at the parity roots, last byte of
    degree 0) are decoded in lockstep; a row whose errors cannot be located
    is left as it was, and a corrected row is checked again."""
    roots = np.arange(nsym)
    synd = _gf_eval(rows[:, ::-1], roots)
    fixed = ~synd.any(axis=1)
    bad = np.flatnonzero(~fixed)
    if len(bad) == 0:
        return fixed
    synd = synd[bad]
    # Berlekamp-Massey (Massey 1969), lowest degree first: the locator, and
    # the locator before its last length change over that change's
    # discrepancy, times x for every step since
    locator = np.zeros((len(bad), nsym + 1), dtype=np.uint8)
    locator[:, 0] = 1
    prev = locator.copy()
    size = np.zeros(len(bad), dtype=np.int64)
    for n in range(nsym):
        prev = np.roll(prev, 1, axis=1)  # its top degree is still zero
        delta = np.bitwise_xor.reduce(
            _gf_product(locator[:, :n + 1], synd[:, n::-1]), axis=1)
        step = _gf_product(delta[:, None], prev)
        grow = (delta != 0) & (2 * size <= n)
        prev[grow] = _gf_quotient(locator[grow], delta[grow, None])
        size[grow] = n + 1 - size[grow]
        locator ^= step
    # Chien search over the real degrees only: a correctable row's locator
    # has degree `size` <= nsym // 2 and a root alpha^-d for each error
    # degree d; a root in the zero padding, or a longer locator cut to
    # nsym // 2 + 1 terms, leaves the count short
    width = min(size.max(), nsym // 2) + 1  # terms of the longest correctable locator
    locator = locator[:, :width]
    real = np.arange(255)
    inverse = -real % 255  # X^-1 for X = alpha^d
    found = (_gf_eval(locator, inverse) == 0) & (real < np.asarray(lengths)[bad, None])
    fit = np.flatnonzero(found.sum(axis=1) == size)
    r, degrees = np.nonzero(found[fit])
    # Forney with parity roots alpha^0..alpha^(nsym-1): the error at X =
    # alpha^d is X Omega(X^-1) / Lambda'(X^-1) = Omega(X^-1) / odd(X^-1),
    # odd the odd-degree terms of Lambda and Omega = S Lambda mod x^nsym,
    # whose degree is below the error count, so `width` terms hold it
    locator, synd = locator[fit], synd[fit]
    omega = np.zeros_like(locator)
    for i in range(width):
        omega[:, i:] ^= _gf_product(locator[:, i, None], synd[:, :width - i])
    locator[:, ::2] = 0
    values = _gf_quotient(_gf_eval(omega, inverse), _gf_eval(locator, inverse))[r, degrees]
    fit = bad[fit]
    rows[fit[r], 254 - degrees] ^= values
    fixed[fit] = ~_gf_eval(rows[fit, ::-1], roots).any(axis=1)
    return fixed


def _frame(payload: bytes) -> bytes:
    header = len(payload).to_bytes(4, "big") + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
    return header + payload


def _blocks(data: bytes, width: int) -> tuple[np.ndarray, int]:
    """`data` as rows of `width` bytes, the short last row left-padded with
    zeros, and the pad length."""
    n_rows = -(-len(data) // width)
    pad = n_rows * width - len(data)
    cut = (n_rows - 1) * width
    rows = np.zeros(n_rows * width, dtype=np.uint8)
    rows[:cut] = np.frombuffer(data[:cut], dtype=np.uint8)
    rows[cut + pad:] = np.frombuffer(data[cut:], dtype=np.uint8)
    return rows.reshape(n_rows, width), pad


def _unblock(rows: np.ndarray, pad: int) -> bytes:
    """The bytes of `rows` without the last row's `pad` leading bytes."""
    flat = rows.reshape(-1)
    cut = (len(rows) - 1) * rows.shape[1]
    return flat[:cut].tobytes() + flat[cut + pad:].tobytes()


def rs_encode(payload: bytes, parity_symbols: int) -> bytes:
    """Frame the payload (u32 length + u32 CRC-32, big-endian) and append
    `parity_symbols` Reed-Solomon bytes per block of (255 - parity) data."""
    _check_parity(parity_symbols)
    k = 255 - parity_symbols
    data, pad = _blocks(_frame(bytes(payload)), k)
    # synthetic division of data * x^parity by the generator, one byte
    # position of every block per step: the parity columns end as the
    # remainder, the data columns as scratch that is then restored
    work = np.zeros((len(data), 255), dtype=np.uint8)
    work[:, :k] = data
    products = _generator_products(parity_symbols)
    for i in range(k):
        work[:, i + 1:i + 1 + parity_symbols] ^= products[work[:, i]]
    work[:, :k] = data
    return _unblock(work, pad)


def rs_decode(coded: bytes, parity_symbols: int) -> bytes:
    """Correct every block, strip framing, verify length and CRC-32.

    Raises DecodeError on an uncorrectable block (naming the first, as
    "block i of n"), framing that does not match the coded length, or a
    CRC mismatch. Never returns a silently wrong payload (up to CRC-32
    strength).
    """
    _check_parity(parity_symbols)
    coded = bytes(coded)
    n = len(coded)
    rem = n % 255
    if n == 0 or (rem != 0 and rem <= parity_symbols):
        raise DecodeError("coded length inconsistent with block structure")
    rows, pad = _blocks(coded, 255)
    lengths = np.full(len(rows), 255)
    lengths[-1] -= pad
    fixed = _rs_correct(rows, lengths, parity_symbols)
    if not fixed.all():
        raise DecodeError(f"uncorrectable block: block {np.argmin(fixed) + 1} of {len(rows)}")
    framed = _unblock(rows[:, :255 - parity_symbols], pad)
    if len(framed) < 8:
        raise DecodeError("coded data too short for framing header")
    length = int.from_bytes(framed[0:4], "big")
    crc_expect = int.from_bytes(framed[4:8], "big")
    if length != len(framed) - 8:
        raise DecodeError(
            f"framed length mismatch: header says {length}, got {len(framed) - 8}"
        )
    payload = framed[8:8 + length]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_expect:
        raise DecodeError("payload CRC-32 mismatch")
    return payload


def rs_decode_stream(stream: bytes, parity_symbols: int) -> bytes:
    """Decode a coded stream of unknown length followed by filler bytes.

    A stream that holds the full blocks of the 4-byte length field (one
    block unless parity exceeds 250): correct them, read the framed length,
    then decode exactly that prefix. Failing that, every layout shorter
    than one block becomes a zero-padded row, like a short last block; all
    are corrected in one call, and the shortest that then decodes with
    matching length and CRC-32 is returned. Raises DecodeError
    when nothing decodes (wrong key, wrong plan, or damage beyond the
    correction budget).
    """
    _check_parity(parity_symbols)
    stream = bytes(stream)
    k = 255 - parity_symbols
    head = 255 * -(-4 // k)  # the bytes of the blocks the length field spans
    if len(stream) >= head:
        first, _ = _blocks(stream[:head], 255)
        if _rs_correct(first, np.full(len(first), 255), parity_symbols).all():
            length = first[:, :k].tobytes()[:4]
            need = coded_length(int.from_bytes(length, "big"), parity_symbols)
            if 255 <= need <= len(stream):
                try:
                    return rs_decode(stream[:need], parity_symbols)
                except DecodeError:
                    pass
    # window i is 255 - i zeros and then the first i bytes of the stream
    lengths = np.arange(8 + parity_symbols, min(255, len(stream)) + 1)
    rows = sliding_window_view(np.frombuffer(bytes(255) + stream[:255], np.uint8), 255)[lengths]
    for length in lengths[_rs_correct(rows, lengths, parity_symbols)]:
        try:
            return rs_decode(stream[:length], parity_symbols)
        except DecodeError:
            continue
    raise DecodeError("no decodable payload found (wrong key, wrong plan, "
                      "or damage beyond the correction budget)")


def coded_length(payload_length: int, parity_symbols: int) -> int:
    """Coded byte count for a payload of the given length."""
    _check_parity(parity_symbols)
    framed = payload_length + 8
    k = 255 - parity_symbols
    n_blocks = -(-framed // k)
    return framed + n_blocks * parity_symbols


# ---------------------------------------------------------------------------
# Keyed mixing permutation and bit scatter/gather
# ---------------------------------------------------------------------------

def _draws_below(seed: int, bounds: np.ndarray) -> np.ndarray:
    """One unbiased draw in [0, b) per bound b, in order, from the splitmix64
    stream of `seed`.

    An output v is accepted iff v < 2**64 - (2**64 mod b) and gives v mod b;
    a rejected output is skipped and the next one tried for the same bound.
    This exact rule is part of the permutation's bit-exact contract.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    # 2**64 mod b is (0 - b) mod b in uint64; v > limit is a rejection.
    limits = np.uint64(rng.MASK64) - (np.uint64(0) - bounds) % bounds
    draws = np.empty(len(bounds), dtype=np.uint64)
    done, first = 0, 1
    while done < len(bounds):
        v = rng.outputs(seed, first, len(bounds) - done)
        rejected = np.flatnonzero(v > limits[done:])
        ok = int(rejected[0]) if len(rejected) else len(v)
        draws[done:done + ok] = v[:ok] % bounds[done:done + ok]
        done += ok
        first += ok + 1
    return draws


def _check_seed(mixing_seed: int) -> int:
    """Seeds are 64-bit words: any other integer would alias one mod 2**64."""
    mixing_seed = operator.index(mixing_seed)
    if not 0 <= mixing_seed <= rng.MASK64:
        raise CodecError(f"mixing_seed must be in [0, 2**64 - 1], got {mixing_seed}")
    return mixing_seed


def mixing_permutation(slot_count: int, mixing_seed: int) -> np.ndarray:
    """Fisher-Yates shuffle of the identity permutation of byte slots.

    Driven by the splitmix64 stream of `mixing_seed`, iterating
    i = slot_count-1 .. 1 and swapping with an unbiased draw j_i in [0, i].
    Bit-exact across implementations; see tests/golden for frozen vectors.

    The same shuffle is computed without a swap loop. Position i is final
    after step i, holding what position j_i held just before it: the
    content brought by the latest earlier step s > i with j_s = j_i, or j_i
    itself when there was none. What step s brings is in turn what position
    s held before step s, found the same way with partner s, so each content
    is the end of a chain of steps; chains are resolved by pointer doubling.
    """
    if slot_count < 1:
        raise CodecError("slot_count must be >= 1")
    mixing_seed = _check_seed(mixing_seed)
    n = slot_count
    if n >= 1 << 31:
        raise CodecError("slot_count must be below 2**31")
    # keys (j_i << 32) | i, with j_0 = 0 for the step-less position 0, sorted:
    # the steps grouped by partner, each group in increasing step order
    keys = np.zeros(n, dtype=np.uint64)
    keys[:0:-1] = _draws_below(mixing_seed, np.arange(n, 1, -1, dtype=np.uint64))
    keys <<= np.uint64(32)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    partner = np.empty(n + 1, dtype=np.int32)  # the sentinel -1 ends each array
    partner[:n] = keys >> np.uint64(32)
    partner[n] = -1
    step = np.empty(n + 1, dtype=np.int32)
    step[:n] = keys & np.uint64(0xFFFFFFFF)
    step[n] = -1
    del keys
    # the first step after s with partner s: the start of group s (read only
    # when j_s != s, so that every step of group s is later than s)
    s = np.arange(n, dtype=np.int32)
    first = np.cumsum(np.bincount(partner[:n], minlength=n))
    first[1:] = first[:-1]
    first[0] = 0
    chain = np.where(partner[first] == s, step[first], s)
    del first
    while True:
        ahead = chain[chain]
        if np.array_equal(ahead, chain):
            break
        chain = ahead
    del ahead
    # step i takes what the next step of its group brought, else j_i itself
    same = partner[1:] == partner[:-1]
    content = np.where(same, chain[step[1:]], partner[:n])
    perm = np.empty(n, dtype=np.int64)
    perm[step[:n]] = content
    return perm


def _filler_bytes(count: int, seed: int) -> np.ndarray:
    """The first `count` bytes of the filler stream (big-endian words)."""
    words = rng.outputs(seed ^ rng.FILLER_SALT, 1, -(-count // 8))
    return words.astype(">u8").view(np.uint8)[:count]


def keyed_filler_bits(count: int, seed: int) -> np.ndarray:
    """`count` pseudorandom bits from the domain-separated filler stream.

    64-bit words of splitmix64(seed XOR FILLER_SALT), consumed MSB-first.
    Statistically a fair coin; keyed so outputs are reproducible.
    """
    seed = _check_seed(seed)
    return np.unpackbits(_filler_bytes(-(-count // 8), seed), count=count)


def check_capacity(coded_length: int, capacity_bits: int) -> None:
    """Raise CodecError unless `coded_length` coded bytes fit the capacity."""
    if 8 * coded_length > capacity_bits:
        raise CodecError(
            f"message too large for capacity: {8 * coded_length} bits > {capacity_bits}"
        )


def scatter(coded: bytes, perm: np.ndarray, capacity_bits: int, mixing_seed: int) -> np.ndarray:
    """Spread coded bytes over byte slots and fill the rest with keyed filler.

    Byte b lands at slot perm[b], occupying 8 consecutive bit positions
    MSB-first. Returns a bit vector (uint8 0/1) of exactly capacity_bits.
    Free slots take whole filler bytes in slot order, the tail bits past
    the last slot the leading bits of the next filler byte.
    """
    mixing_seed = _check_seed(mixing_seed)
    slots = capacity_bits // 8
    if len(perm) != slots:
        raise CodecError(f"permutation covers {len(perm)} slots, capacity has {slots}")
    check_capacity(len(coded), capacity_bits)
    placed = perm[:len(coded)]
    filler = _filler_bytes(slots + 1 - len(coded), mixing_seed)
    free = np.ones(slots + 1, dtype=bool)  # the extra slot holds the tail bits
    free[placed] = False
    out = np.empty(slots + 1, dtype=np.uint8)
    out[free] = filler
    out[placed] = np.frombuffer(coded, dtype=np.uint8)
    del filler, free  # before the bits, which take eight times the room
    return np.unpackbits(out, count=capacity_bits)


def gather(bits: np.ndarray, perm: np.ndarray) -> bytes:
    """Inverse of scatter: the bytes of every slot, in coded order."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) < 8 * len(perm):
        raise CodecError(f"bit vector of {len(bits)} bits is shorter than {len(perm)} slots")
    rows = bits[:8 * len(perm)].reshape(len(perm), 8)
    return np.packbits(rows[perm]).tobytes()
