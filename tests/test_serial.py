import dataclasses
import json
import random

import pytest

from hrpks import assumption_lab, curve_fp, serial
from hrpks.curve_fp import ModPoint
from hrpks.errors import InvariantError, ParseError
from hrpks.hierarchy import (Hyperplane, PublicKey, add_department, join,
                             new_root)
from hrpks.revocation import (ConstraintSet, RevocationList, RevokedMember,
                              empty_rl, revoke_group, revoke_member)
from hrpks.sigma import sign

from conftest import FINANCIAL, make_mestre8_params, make_toy_params

# pinned once from the first implementation run; canonical form must not
# drift, since revocation-list hashes and certificates sign these bytes
GOLDEN_RL_DOC = (
    '{"groups":[{"constraints":[["123","48","79"]],"path":"/financial"}],'
    '"kind":"rl","members":[{"member_id":"emp1",'
    '"point":["1385928692","2187054458"]}],"rl_version":"2","version":"2"}'
)


def _world(seed=81):
    params, gm = make_toy_params()
    rng = random.Random(seed)
    root = new_root()
    fin = root.attach("financial", FINANCIAL)
    hr = add_department(params, root, rng, name="hr")
    sk, pk = join(params, gm, fin, "alice", rng)
    return params, gm, rng, root, fin, hr, sk, pk


def test_round_trips_all_kinds(tmp_path):
    params, gm, rng, root, fin, hr, sk, pk = _world()
    rl = revoke_group(revoke_member(empty_rl(), pk), hr)
    sig = sign(params, gm, params.gm_pub, empty_rl(), b"m", rng)
    report = assumption_lab.order_report(params)
    artifacts = [
        ("params", params),
        ("keypair", (sk, pk)),
        ("cert", pk),
        ("rl", rl),
        ("signature", sig),
        ("tree", root),
        ("report", report),
    ]
    for kind, value in artifacts:
        text = serial.serialize_artifact(kind, value)
        again = serial.deserialize_artifact(text, curve=params.curve)
        if kind == "tree":
            # nodes are mutable; compare structure via re-serialization
            assert serial.serialize_artifact(kind, again) == text
        else:
            assert again == value
            assert serial.serialize_artifact(kind, again) == text
        # file helpers
        path = tmp_path / f"artifact.{kind}"
        serial.save_artifact(path, kind, value)
        loaded = serial.load_artifact(path, curve=params.curve)
        assert serial.serialize_artifact(kind, loaded) == text


def _random_rl(rng):
    members = tuple(
        RevokedMember(point=ModPoint(rng.randrange(1 << 32),
                                     rng.randrange(1 << 32)),
                      member_id=f"m{rng.randrange(100)}")
        for _ in range(rng.randrange(3)))
    members = tuple({m.point: m for m in members}.values())
    groups = tuple(
        ConstraintSet(path=f"/d{j}",
                      constraints=(Hyperplane((rng.randrange(1, 100),
                                               rng.randrange(1, 100),
                                               rng.randrange(1, 100))),))
        for j in range(rng.randrange(3)))
    return RevocationList(members=members, groups=groups,
                          version=rng.randrange(10))


def _random_signature(rng):
    from hrpks.sigma import NonzeroProof, Signature

    groups = rng.randrange(3)
    return Signature(
        challenge=rng.randrange(1 << 31),
        s=tuple(rng.randrange(1 << 127) for _ in range(2)),
        commitments=tuple(rng.randrange(1, 1 << 34) for _ in range(2 * bool(groups))),
        commitment_responses=tuple(rng.randrange(1 << 31)
                                   for _ in range(2 * bool(groups))),
        nonzero_proofs=tuple(
            NonzeroProof(sw=rng.randrange(1 << 31), su=rng.randrange(1 << 31))
            for _ in range(groups)),
        retry=rng.randrange(4), rl_version=rng.randrange(8))


def _random_pk(rng):
    return PublicKey(point=ModPoint(rng.randrange(1 << 32),
                                    rng.randrange(1 << 32)),
                     member_id=f"m{rng.randrange(100)}",
                     dept=f"/d{rng.randrange(10)}",
                     cert=bytes(rng.randrange(256)
                                for _ in range(rng.randrange(8))) or None)


def test_round_trip_randomized_instances():
    from hrpks.hierarchy import SecretKey

    rng = random.Random(83)
    for i in range(1000):
        pick = i % 4
        if pick == 0:
            kind, value = "rl", _random_rl(rng)
        elif pick == 1:
            kind, value = "signature", _random_signature(rng)
        elif pick == 2:
            kind, value = "cert", _random_pk(rng)
        else:
            sk = SecretKey(x=tuple(rng.randrange(1 << 31) for _ in range(2)),
                           member_id=f"m{rng.randrange(100)}",
                           dept=f"/d{rng.randrange(10)}")
            kind, value = "keypair", (sk, _random_pk(rng))
        text = serial.serialize_artifact(kind, value)
        assert serial.deserialize_artifact(text) == value


def test_golden_rl_document():
    rl = RevocationList(
        members=(RevokedMember(point=ModPoint(1385928692, 2187054458),
                               member_id="emp1"),),
        groups=(ConstraintSet(path="/financial",
                              constraints=(Hyperplane((123, 48, 79)),)),),
        version=2)
    assert serial.serialize_artifact("rl", rl) == GOLDEN_RL_DOC
    # byte-stable across repeated serialization and a round trip
    again = serial.deserialize_artifact(GOLDEN_RL_DOC)
    assert serial.serialize_artifact("rl", again) == GOLDEN_RL_DOC


def test_rl_canonical_order_in_document():
    a = RevocationList(
        members=(RevokedMember(ModPoint(9, 9), "z"),
                 RevokedMember(ModPoint(1, 1), "a")),
        groups=(ConstraintSet("/z", (Hyperplane((1, 2, 3)),)),
                ConstraintSet("/a", (Hyperplane((4, 5, 6)),))),
        version=1)
    doc = json.loads(serial.serialize_artifact("rl", a))
    assert [m["member_id"] for m in doc["members"]] == ["a", "z"]
    assert [g["path"] for g in doc["groups"]] == ["/a", "/z"]


def test_integers_serialized_as_decimal_strings():
    params, gm, rng, root, fin, hr, sk, pk = _world()
    doc = json.loads(serial.serialize_artifact("params", params))
    assert doc["p"] == str(params.p)
    assert isinstance(doc["p"], str)
    assert doc["gens"][0] == [str(params.gens[0].x), str(params.gens[0].y)]
    sigdoc = json.loads(serial.serialize_artifact(
        "signature", sign(params, sk, pk, empty_rl(), b"x", rng)))
    assert all(isinstance(v, str) for v in sigdoc["s"])


def test_corrupted_public_key_point_rejected():
    params, gm, rng, root, fin, hr, sk, pk = _world()
    doc = json.loads(serial.serialize_artifact("cert", pk))
    doc["point"][0] = str((int(doc["point"][0]) + 1) % params.p)
    with pytest.raises(InvariantError):
        serial.deserialize_artifact(json.dumps(doc), curve=params.curve)
    # without curve context the structural parse still succeeds
    parsed = serial.deserialize_artifact(json.dumps(doc))
    assert parsed.point != pk.point


def test_corrupted_rl_member_point_rejected():
    params, gm, rng, root, fin, hr, sk, pk = _world()
    rl = revoke_member(empty_rl(), pk)
    doc = json.loads(serial.serialize_artifact("rl", rl))
    doc["members"][0]["point"][1] = "1"
    with pytest.raises(InvariantError):
        serial.deserialize_artifact(json.dumps(doc), curve=params.curve)


def test_parse_errors():
    with pytest.raises(ParseError):
        serial.deserialize_artifact("not json at all {{{")
    with pytest.raises(ParseError):
        serial.deserialize_artifact('{"no_kind":"1"}')
    with pytest.raises(ParseError):
        serial.deserialize_artifact('{"kind":"params","version":"99"}')
    with pytest.raises(ParseError):
        serial.deserialize_artifact(
            '{"kind":"wat","version":"%s"}' % serial.FORMAT_VERSION)
    # raw JSON numbers are rejected: precision safety demands strings
    bad = GOLDEN_RL_DOC.replace('"rl_version":"2"', '"rl_version":2')
    with pytest.raises(ParseError):
        serial.deserialize_artifact(bad)
    # truncated structure
    with pytest.raises(ParseError):
        serial.deserialize_artifact(
            '{"kind":"rl","version":"%s"}' % serial.FORMAT_VERSION)


def test_non_hex_cert_is_parse_error():
    params, gm, rng, root, fin, hr, sk, pk = _world()
    for kind, value in (("cert", pk), ("keypair", (sk, pk))):
        doc = json.loads(serial.serialize_artifact(kind, value))
        holder = doc if kind == "cert" else doc["pk"]
        written = holder["cert"]
        assert written.lower() == written != written.upper()
        # only the spelling dump writes loads: no upper case, no spaces
        for bad in ("zz", written.upper(), " " + written, written + " ",
                    written[:2] + " " + written[2:], "AB", " ab", "a b"):
            holder["cert"] = bad
            with pytest.raises(ParseError):
                serial.deserialize_artifact(json.dumps(doc))
        holder["cert"] = written
        assert serial.deserialize_artifact(json.dumps(doc)) == value


def test_unknown_kind_serialize():
    with pytest.raises(ValueError):
        serial.serialize_artifact("blob", b"x")


def test_tree_round_trip_preserves_structure():
    params, gm = make_mestre8_params()
    rng = random.Random(85)
    root = new_root()
    a = add_department(params, root, rng, name="a")
    b = add_department(params, root, rng, name="b")
    a1 = add_department(params, a, rng, name="one")
    text = serial.serialize_artifact("tree", root)
    back = serial.deserialize_artifact(text)
    node = back
    from hrpks.hierarchy import find_dept
    got_a1 = find_dept(back, "/a/one")
    assert got_a1.level == 2
    assert got_a1.constraints == a1.constraints
    assert find_dept(back, "/b").constraints == b.constraints
    assert serial.serialize_artifact("tree", back) == text


def _order_q_element(modulus, q):
    """An element of order q mod the prime `modulus` (q | modulus - 1)."""
    z = 2
    while pow(z, (modulus - 1) // q, modulus) == 1:
        z += 1
    return pow(z, (modulus - 1) // q, modulus)


def test_composite_aux_modulus_rejected_on_load():
    from hrpks import modmath

    params, _gm = make_toy_params()
    q = params.q
    # rho = rho1 * rho2 with both factors 1 mod q, so q | rho - 1, and g, h
    # of order q modulo each factor glued by CRT: every other aux check holds
    factors = [k * q + 1 for k in range(2, 200, 2)
               if modmath.is_probable_prime(k * q + 1)][:2]
    rho1, rho2 = factors
    rho = rho1 * rho2

    def crt(a1, a2):
        return (a1 + rho1 * ((a2 - a1) * pow(rho1, -1, rho2) % rho2)) % rho

    g = crt(_order_q_element(rho1, q), _order_q_element(rho2, q))
    h = pow(g, 12345, rho)
    assert (rho - 1) % q == 0 and (q + 1) ** 2 < rho
    for el in (g, h):
        assert 1 < el < rho and pow(el, q, rho) == 1
    doc = json.loads(serial.serialize_artifact("params", params))
    doc["aux"] = {"rho": str(rho), "g": str(g), "h": str(h)}
    with pytest.raises(InvariantError, match="rho is not prime"):
        serial.deserialize_artifact(json.dumps(doc))
    # the parameters `setup` makes load, their rho proven by Pocklington's
    # criterion without a Miller-Rabin test
    assert (q + 1) ** 2 > params.aux.rho
    text = serial.serialize_artifact("params", params)
    assert serial.deserialize_artifact(text) == params


def test_params_load_checks_each_prime_once(monkeypatch):
    from hrpks import modmath

    params, _gm = make_mestre8_params()
    assert params.p != params.q
    tested = []
    real = modmath.is_probable_prime

    def counting(n):
        tested.append(n)
        return real(n)
    monkeypatch.setattr(modmath, "is_probable_prime", counting)
    monkeypatch.setattr(serial, "is_probable_prime", counting)
    back = serial.deserialize_artifact(
        serial.serialize_artifact("params", params))
    assert back == params
    assert sorted(tested) == sorted([params.p, params.q])

    # q = rho - 1 passes every aux check but is composite
    doc = json.loads(serial.serialize_artifact("params", params))
    doc["q"] = str(params.aux.rho - 1)
    with pytest.raises(InvariantError, match="q is not prime"):
        serial.deserialize_artifact(json.dumps(doc))


def test_params_under_an_id_outside_the_catalog_load_back_equal():
    # a reduced curve is its p and coefficients alone: params saved under
    # a curve id the catalog does not know load back equal to the
    # original, and their msm finds the #E and the one comb table the
    # original found and built
    toy, _gm = make_toy_params()
    params = dataclasses.replace(toy, curve_id="toy17-copy")
    scalars = list(range(1, params.r + 1))
    curve_fp._comb_table.cache_clear()
    curve_fp.group_order.cache_clear()
    want = params.gens_msm(scalars)
    back = serial.deserialize_artifact(
        serial.serialize_artifact("params", params))
    assert back == params and back.curve is not params.curve
    assert back.gens_msm(scalars) == want
    assert curve_fp._comb_table.cache_info().misses == 1
    assert curve_fp.group_order.cache_info().misses == 1
