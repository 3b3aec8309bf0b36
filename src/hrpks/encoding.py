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
from .errors import ParseError

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


def decode(data: bytes) -> Encodable:
    """Inverse of encode; rejects trailing garbage."""
    value, rest = _decode_one(memoryview(data))
    if len(rest) != 0:
        raise ParseError("trailing bytes after encoded value")
    return value


def _decode_one(data):
    if len(data) < 5:
        raise ParseError("truncated frame header")
    tag = data[0]
    length = int.from_bytes(data[1:5], "big")
    if len(data) < 5 + length:
        raise ParseError("truncated payload")
    payload = bytes(data[5:5 + length])
    rest = data[5 + length:]
    if tag == TAG_INT:
        return _decode_int(payload), rest
    if tag == TAG_BYTES:
        return payload, rest
    if tag == TAG_SEQ:
        items = []
        view = memoryview(payload)
        while len(view):
            item, view = _decode_one(view)
            items.append(item)
        return items, rest
    if tag == TAG_POINT:
        if payload[:1] == b"\x01":
            if payload != b"\x01":
                raise ParseError("malformed infinity point")
            return ModPoint.infinity(), rest
        if payload[:1] != b"\x00":
            raise ParseError("bad point flag byte")
        x, mid = _decode_one(memoryview(payload[1:]))
        y, tail = _decode_one(mid)
        if len(tail) != 0 or not isinstance(x, int) or not isinstance(y, int):
            raise ParseError("malformed point payload")
        return ModPoint(x, y), rest
    raise ParseError(f"unknown tag byte 0x{tag:02x}")


def _decode_int(payload: bytes) -> int:
    if not payload:
        raise ParseError("empty integer payload")
    sign, mag = payload[0], payload[1:]
    if sign == 0:
        if mag:
            raise ParseError("nonzero magnitude with zero sign byte")
        return 0
    value = int.from_bytes(mag, "big")
    if not mag or mag[0] == 0 or value == 0:
        raise ParseError("non-minimal integer magnitude")
    return value if sign == 1 else -value if sign == 2 else _bad_sign(sign)


def _bad_sign(sign):
    raise ParseError(f"bad sign byte {sign}")


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
