import random
from fractions import Fraction

import pytest

from hrpks.curve_fp import ModPoint
from hrpks.encoding import (TAG_BYTES, TAG_INT, TAG_POINT, TAG_SEQ,
                            Encodable, encode, hash_to_challenge)
from hrpks.errors import ParseError

TOY_P = 3123456773


# The inverse of `encode`, the round-trip oracle of these tests; the
# package itself only builds hash inputs and never decodes them.
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


def test_zero_integer_layout():
    # tag, 4-byte length = 1, sign byte 0, no magnitude
    assert encode(0) == bytes([TAG_INT]) + b"\x00\x00\x00\x01" + b"\x00"


def test_prime_integer_layout():
    # oracle: independent big-endian conversion via int.to_bytes
    mag = TOY_P.to_bytes((TOY_P.bit_length() + 7) // 8, "big")
    assert mag == bytes.fromhex("ba2c2b05")
    expected = bytes([TAG_INT]) + (1 + len(mag)).to_bytes(4, "big") \
        + b"\x01" + mag
    assert encode(TOY_P) == expected


def test_negative_integer_roundtrip():
    enc = encode(-TOY_P)
    assert enc[5] == 2  # sign byte
    assert decode(enc) == -TOY_P


def test_sequence_vs_blob_distinct():
    assert encode([b"a", b"b"]) != encode([b"ab"])
    assert encode([1, 2]) != encode([12])
    assert encode([[1], 2]) != encode([1, [2]])


def test_point_encodings():
    inf = ModPoint.infinity()
    pt = ModPoint(3123456771, 3)
    assert encode(inf) != encode(pt)
    assert decode(encode(inf)) == inf
    assert decode(encode(pt)) == pt


def _random_value(rng, depth=0):
    kinds = ["int", "bytes", "point"]
    if depth < 2:
        kinds.append("list")
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(1 << 80), 1 << 80)
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(12)))
    if kind == "point":
        if rng.random() < 0.1:
            return ModPoint.infinity()
        return ModPoint(rng.randrange(1 << 64), rng.randrange(1 << 64))
    return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]


def test_roundtrip_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        v = _random_value(rng)
        assert decode(encode(v)) == v


def test_injectivity_randomized():
    rng = random.Random(515)
    seen = {}
    for _ in range(2000):
        v = _random_value(rng)
        enc = encode(v)
        if enc in seen:
            assert seen[enc] == v
        seen[enc] = v
    # and explicitly: distinct values -> distinct encodings
    values = [rng.randrange(1 << 32) for _ in range(500)]
    encs = {encode(v): v for v in set(values)}
    assert len(encs) == len(set(values))


def test_encode_rejects_foreign_types():
    with pytest.raises(TypeError):
        encode(1.5)
    with pytest.raises(TypeError):
        encode(True)
    with pytest.raises(TypeError):
        encode({"a": 1})
    with pytest.raises(TypeError):
        encode(Fraction(1, 2))


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        decode(b"\x01\x00\x00\x00\x01\x00trailing")
    with pytest.raises(ParseError):
        decode(b"\x09\x00\x00\x00\x00")  # unknown tag
    with pytest.raises(ParseError):
        decode(b"\x01\x00\x00")  # truncated header
    # non-minimal magnitude must not decode
    with pytest.raises(ParseError):
        decode(b"\x01\x00\x00\x00\x03\x01\x00\x05")


def test_challenge_determinism_and_domain_separation():
    parts = [1, b"msg", ModPoint(2, 5)]
    a = hash_to_challenge(b"HRPKS-v1/test-a", parts, 128)
    b = hash_to_challenge(b"HRPKS-v1/test-a", parts, 128)
    assert a == b
    c = hash_to_challenge(b"HRPKS-v1/test-b", parts, 128)
    assert a != c  # computed both digests; fixed vectors differ


def test_challenge_range():
    for bits in (8, 9, 31, 128, 255, 256):
        for salt in range(20):
            v = hash_to_challenge(b"t", [salt], bits)
            assert 0 <= v < (1 << bits)
    assert hash_to_challenge(b"t", [0], 8) < 256


def test_challenge_bits_bounds():
    with pytest.raises(ValueError):
        hash_to_challenge(b"t", [1], 7)
    with pytest.raises(ValueError):
        hash_to_challenge(b"t", [1], 257)
