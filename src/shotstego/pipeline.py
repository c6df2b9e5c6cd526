"""End-to-end sender and receiver pipelines.

Sender: frame + Reed-Solomon + keyed byte mixing + filler padding, then
pixel-selection embedding. Receiver: key comparison, unmixing, correction,
CRC check. The receiver does not need the payload length up front:
`codec.rs_decode_stream` recovers it from the framed header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import codec, stego
from .camera import DEFAULT_FULL_WELL
from .codec import CodecError, DecodeError, MessagePlan
from .imageio import RawImage


@dataclass
class EmbedResult:
    stego_image: RawImage
    plan: MessagePlan
    bits: np.ndarray  # the exact bit vector that was embedded


def _params_and_slots(key: RawImage, block_pixels: int,
                      usable_mask, full_well: int):
    if usable_mask is None:
        usable_mask = stego.default_usable_mask(key, full_well)
    params = stego.StegoParams(block_pixels=block_pixels, usable_mask=usable_mask)
    capacity_bits = params.capacity_bits(key)
    return params, capacity_bits, capacity_bits // 8


def embed_message(key: RawImage, cover: RawImage, payload: bytes,
                  parity_symbols: int = 8, mixing_seed: int = 1,
                  block_pixels: int = 1, usable_mask=None,
                  full_well: int = DEFAULT_FULL_WELL) -> EmbedResult:
    """Alice's side: returns the stego image ready to publish."""
    params, capacity_bits, slots = _params_and_slots(
        key, block_pixels, usable_mask, full_well)
    plan = MessagePlan(payload=bytes(payload), parity_symbols=parity_symbols,
                       mixing_seed=mixing_seed, capacity_bits=capacity_bits,
                       block_pixels=block_pixels)
    coded = codec.rs_encode(plan.payload, parity_symbols)
    if len(coded) > slots:
        raise CodecError(
            f"message too large: coded stream is {len(coded)} bytes, "
            f"image capacity is {slots} byte slots"
        )
    perm = codec.mixing_permutation(slots, mixing_seed)
    bits = codec.scatter(coded, perm, capacity_bits, mixing_seed)
    stego_image = stego.embed(key, cover, bits, params)
    return EmbedResult(stego_image=stego_image, plan=plan, bits=bits)


def extract_message(stego_image: RawImage, key: RawImage,
                    parity_symbols: int = 8, mixing_seed: int = 1,
                    block_pixels: int = 1, usable_mask=None,
                    full_well: int = DEFAULT_FULL_WELL,
                    payload_length: Optional[int] = None) -> bytes:
    """Bob's side: recover the payload or raise DecodeError loudly."""
    params, capacity_bits, slots = _params_and_slots(
        key, block_pixels, usable_mask, full_well)
    if slots < 1:
        raise DecodeError("image has no usable byte capacity")
    perm = codec.mixing_permutation(slots, mixing_seed)
    stream = codec.gather(stego.extract(stego_image, key, params).bits, perm, slots)
    if payload_length is None:
        return codec.rs_decode_stream(stream, parity_symbols)
    need = codec.coded_length(payload_length, parity_symbols)
    if need > slots:
        raise DecodeError("declared payload does not fit this image")
    payload = codec.rs_decode(stream[:need], parity_symbols)
    if len(payload) != payload_length:
        raise DecodeError("recovered payload length does not match declaration")
    return payload
