"""End-to-end sender and receiver pipelines.

Sender: frame + Reed-Solomon + keyed byte mixing + filler padding, then
pixel-selection embedding. Receiver: key comparison, unmixing, correction,
CRC check. Which pixels carry bits follows from the shared key image and
the full well, so `stego` works it out on each side and nothing passes a
mask. The payload length is never passed either:
`codec.rs_decode_stream` recovers it from the framed header. Whether the
coded message fits the image is stated once, in `codec.check_capacity`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, stego
from .camera import DEFAULT_FULL_WELL
from .codec import DecodeError
from .imageio import RawImage


@dataclass
class EmbedResult:
    stego_image: RawImage
    coded_length: int  # coded bytes of the framed payload
    capacity_bits: int  # message bits the image holds
    bits: np.ndarray  # the exact bit vector that was embedded


def embed_message(key: RawImage, cover: RawImage, payload: bytes,
                  parity_symbols: int = 8, mixing_seed: int = 1,
                  block_pixels: int = 1,
                  full_well: int = DEFAULT_FULL_WELL) -> EmbedResult:
    """Alice's side: returns the stego image ready to publish.

    One key capture carries one message. The stego image takes about half
    its pixels from the key, so two stego images made with one key share
    the key's value at about a quarter of their pixels, and the warden's
    pair statistics flag the pair. A second message needs a fresh key
    capture, shared ahead like the first.
    """
    capacity_bits = stego.capacity_bits(key, full_well, block_pixels)
    payload = bytes(payload)
    coded_length = codec.coded_length(len(payload), parity_symbols)
    # rejects an oversized message before the encoding and the permutation,
    # whose cost grows with the payload and the image
    codec.check_capacity(coded_length, capacity_bits)
    coded = codec.rs_encode(payload, parity_symbols)
    perm = codec.mixing_permutation(capacity_bits // 8, mixing_seed)
    bits = codec.scatter(coded, perm, capacity_bits, mixing_seed)
    stego_image = stego.embed(key, cover, bits, full_well, block_pixels)
    return EmbedResult(stego_image=stego_image, coded_length=coded_length,
                       capacity_bits=capacity_bits, bits=bits)


def extract_message(stego_image: RawImage, key: RawImage,
                    parity_symbols: int = 8, mixing_seed: int = 1,
                    block_pixels: int = 1,
                    full_well: int = DEFAULT_FULL_WELL) -> bytes:
    """Bob's side: recover the payload or raise DecodeError loudly."""
    bits = stego.extract(stego_image, key, full_well, block_pixels).bits
    slots = len(bits) // 8
    if slots < 1:
        raise DecodeError("image has no usable byte capacity")
    stream = codec.gather(bits, codec.mixing_permutation(slots, mixing_seed))
    return codec.rs_decode_stream(stream, parity_symbols)
