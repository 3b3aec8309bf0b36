"""Canonical byte encoding and challenge hashing.

`encode` only builds hash inputs: every value that enters a challenge or
digest hash goes through it, a tag-length-value layout chosen so that
distinct values can never share a byte string. Transcript soundness rides
on that injectivity, so keep this module boring.

Layout: 1 tag byte, 4-byte big-endian payload length, payload.
  int       sign byte (0 zero / 1 positive / 2 negative) + magnitude bytes
  bytes     raw
  sequence  concatenation of encoded elements
  ModPoint  flag byte (1 = infinity); affine points append both coordinates
"""

import hashlib
from typing import Iterable, Sequence, Union

from .curve_fp import ModPoint

TAG_INT = 0x01
TAG_BYTES = 0x03
TAG_SEQ = 0x04
TAG_POINT = 0x05

Encodable = Union[int, bytes, ModPoint, Sequence]


def _frame(tag: int, payload: bytes) -> bytes:
    if len(payload) >= 1 << 32:
        raise ValueError("payload too large for 4-byte length prefix")
    return bytes([tag]) + len(payload).to_bytes(4, "big") + payload


def _int_payload(v: int) -> bytes:
    if v == 0:
        return b"\x00"
    sign = b"\x01" if v > 0 else b"\x02"
    mag = abs(v)
    return sign + mag.to_bytes((mag.bit_length() + 7) // 8, "big")


def encode(value: Encodable) -> bytes:
    """Injective canonical encoding; raises TypeError on foreign types."""
    if isinstance(value, bool):
        raise TypeError("bool is not encodable")
    if isinstance(value, int):
        return _frame(TAG_INT, _int_payload(value))
    if isinstance(value, (bytes, bytearray)):
        return _frame(TAG_BYTES, bytes(value))
    if isinstance(value, ModPoint):
        if value.is_infinity:
            return _frame(TAG_POINT, b"\x01")
        return _frame(TAG_POINT, b"\x00" + encode(value.x) + encode(value.y))
    if isinstance(value, (list, tuple)):
        return _frame(TAG_SEQ, b"".join(encode(v) for v in value))
    raise TypeError(f"cannot encode {type(value).__name__}")


MAX_CHALLENGE_BITS = 256  # one SHA-256 block of output


def hash_to_challenge(domain_tag: bytes, parts: Iterable[Encodable],
                      challenge_bits: int) -> int:
    """SHA-256(domain_tag || encode(parts)) truncated to the top
    challenge_bits bits, read big-endian; result lies in [0, 2^challenge_bits).
    """
    if challenge_bits < 8:
        raise ValueError("challenge_bits must be at least 8")
    if challenge_bits > MAX_CHALLENGE_BITS:
        raise ValueError(f"challenge_bits capped at {MAX_CHALLENGE_BITS}")
    digest = hashlib.sha256(domain_tag + encode(list(parts))).digest()
    return int.from_bytes(digest, "big") >> (256 - challenge_bits)
