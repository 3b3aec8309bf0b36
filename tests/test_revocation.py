import hashlib
import random

import pytest

from hrpks import serial, sigma
from hrpks.curve_fp import ModPoint
from hrpks.errors import InvariantError, SignerRevoked
from hrpks.hierarchy import Hyperplane, PublicKey, add_department, join, \
    new_root
from hrpks.revocation import (ConstraintSet, RevocationList, RevokedMember,
                              coalesce,
                              empty_rl, is_member_revoked, revoke_group,
                              revoke_member, rl_hash)
from hrpks.sigma import sign, verify

from conftest import FINANCIAL, make_mestre8_params, make_toy_params


def _pk(x=1385928692, y=2187054458, member="emp1"):
    return PublicKey(point=ModPoint(x, y), member_id=member, dept="/financial")


def test_revoke_member_basic():
    rl = empty_rl()
    assert rl.version == 0
    rl1 = revoke_member(rl, _pk())
    assert rl1.version == 1
    assert len(rl1.members) == 1
    assert is_member_revoked(rl1, _pk())
    assert not is_member_revoked(rl, _pk())  # original snapshot untouched
    with pytest.raises(ValueError):
        revoke_member(rl1, _pk(member="same point, other id"))


def test_revoked_member_verifications_reject():
    params, gm = make_toy_params()
    rng = random.Random(61)
    root = new_root()
    fin = root.attach("financial", FINANCIAL, params)
    sk, pk = join(params, gm, fin, "emp1", rng)
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    assert verify(params, pk, empty_rl(), b"m", sig).accepted
    rl = revoke_member(empty_rl(), pk)
    assert verify(params, pk, rl, b"m", sig).reason == "PK_REVOKED"
    with pytest.raises(SignerRevoked):
        sign(params, sk, pk, rl, b"m2", rng)


def test_revoke_group_basic():
    params, gm = make_mestre8_params()
    rng = random.Random(63)
    root = new_root()
    l1 = add_department(params, root, rng)
    l2 = add_department(params, l1, rng)
    rl = revoke_group(empty_rl(), l2)
    assert rl.version == 1
    assert len(rl.groups) == 1
    assert rl.groups[0].path == l2.path
    assert len(rl.groups[0].constraints) == 2  # the line: both hyperplanes
    with pytest.raises(ValueError):
        revoke_group(rl, l2)
    with pytest.raises(ValueError):
        revoke_group(rl, root)


def test_group_revocation_blocks_and_spares():
    params, gm = make_toy_params()
    rng = random.Random(65)
    root = new_root()
    fin = root.attach("financial", FINANCIAL, params)
    hr = add_department(params, root, rng, name="hr")
    sk_f, pk_f = join(params, gm, fin, "f", rng)
    sk_h, pk_h = join(params, gm, hr, "h", rng)
    rl = revoke_group(empty_rl(), fin)
    with pytest.raises(SignerRevoked):
        sign(params, sk_f, pk_f, rl, b"m", rng)
    sig = sign(params, sk_h, pk_h, rl, b"m", rng)
    assert len(sig.nonzero_proofs) == 1
    assert verify(params, pk_h, rl, b"m", sig).accepted


def test_rl_hash_insertion_order_independent():
    a = revoke_member(revoke_member(empty_rl(), _pk(1, 2, "a")),
                      _pk(3, 4, "b"))
    b = revoke_member(revoke_member(empty_rl(), _pk(3, 4, "b")),
                      _pk(1, 2, "a"))
    assert a == b
    assert rl_hash(a) == rl_hash(b)


def test_rl_hash_mutation_scan():
    params, gm = make_mestre8_params()
    rng = random.Random(67)
    root = new_root()
    l1 = add_department(params, root, rng)
    base = revoke_member(revoke_group(empty_rl(), l1), _pk())
    seen = {rl_hash(base)}
    variants = [
        revoke_member(base, _pk(5, 6, "x")),
        revoke_group(base, add_department(params, root, rng)),
        RevocationList(members=base.members, groups=base.groups,
                       version=base.version + 1),
        RevocationList(members=(), groups=base.groups,
                       version=base.version),
    ]
    for rl in variants:
        h = rl_hash(rl)
        assert h not in seen
        seen.add(h)


def test_version_monotonicity():
    params, gm = make_mestre8_params()
    rng = random.Random(69)
    root = new_root()
    depts = [add_department(params, root, rng) for _ in range(3)]
    subs = [add_department(params, depts[0], rng) for _ in range(2)]
    rl = empty_rl()
    history = [rl.version]
    for op in range(6):
        if op % 2 == 0:
            rl = revoke_group(rl, (depts + subs)[op % 5])
        else:
            rl = revoke_member(rl, _pk(op, op + 1, f"m{op}"))
        history.append(rl.version)
    rl = coalesce(rl, root)
    history.append(rl.version)
    assert history == sorted(history)
    assert len(set(history[:-1])) == len(history[:-1])


def test_coalesce_complete_family():
    params, gm = make_mestre8_params()
    rng = random.Random(71)
    root = new_root()
    l1 = add_department(params, root, rng, name="ops")
    kids = [add_department(params, l1, rng, name=f"team{i}") for i in range(3)]
    rl = empty_rl()
    for k in kids:
        rl = revoke_group(rl, k)
    assert len(rl.groups) == 3
    out = coalesce(rl, root)
    assert out.version == rl.version + 1
    assert [g.path for g in out.groups] == ["/ops"]
    assert out.groups[0].constraints == l1.constraints


def test_coalesce_noop_when_family_incomplete():
    params, gm = make_mestre8_params()
    rng = random.Random(73)
    root = new_root()
    l1 = add_department(params, root, rng)
    kids = [add_department(params, l1, rng) for i in range(3)]
    rl = revoke_group(revoke_group(empty_rl(), kids[0]), kids[1])
    out = coalesce(rl, root)
    assert out == rl
    assert out.version == rl.version


def _unit_plane(params, a0, i):
    """a0 + x_i = 0: planes on distinct coordinates are independent."""
    return Hyperplane((a0,) + tuple(int(j == i) for j in range(params.r)))


def test_coalesce_cascades_two_levels():
    # the fixpoint over a hand-built tree of unit planes on mestre8 (r = 8)
    params, _gm = make_mestre8_params()
    root = new_root()
    a = root.attach("a", _unit_plane(params, 1, 0), params)
    a1 = a.attach("1", _unit_plane(params, 2, 1), params)
    a2 = a.attach("2", _unit_plane(params, 3, 2), params)
    a11 = a1.attach("x", _unit_plane(params, 4, 3), params)

    rl = empty_rl()
    for node in (a11, a2):
        rl = revoke_group(rl, node)
    # /a/1/x is /a/1's only child -> collapses to /a/1; then /a/1 + /a/2
    # complete /a's family -> collapses to /a
    out = coalesce(rl, root)
    assert [g.path for g in out.groups] == ["/a"]
    assert out.version == rl.version + 1
    assert coalesce(out, root) is out


def test_coalesce_preserves_blocked_set():
    params, gm = make_mestre8_params()
    rng = random.Random(75)
    root = new_root()
    l1 = add_department(params, root, rng, name="ops")
    kids = [add_department(params, l1, rng, name=f"t{i}") for i in range(2)]
    other = add_department(params, root, rng, name="lab")
    rl = empty_rl()
    for k in kids:
        rl = revoke_group(rl, k)
    out = coalesce(rl, root)
    assert [g.path for g in out.groups] == ["/ops"]

    members = []
    for dept in kids + [other]:
        for i in range(8):
            members.append(join(params, gm, dept, f"{dept.path}-{i}", rng))

    def blocked(sk, rl_):
        return any(all(hp.evaluate(sk.x, params.q) == 0
                       for hp in e.constraints) for e in rl_.groups)

    for sk, pk in members:
        assert blocked(sk, rl) == blocked(sk, out)
        # and the oracle in terms of actual signing behavior
        before = _sign_outcome(params, sk, pk, rl, rng)
        after = _sign_outcome(params, sk, pk, out, rng)
        assert before == after


def _sign_outcome(params, sk, pk, rl, rng):
    try:
        sig = sign(params, sk, pk, rl, b"oracle", rng)
    except SignerRevoked:
        return "revoked"
    assert verify(params, pk, rl, b"oracle", sig).accepted
    return "accepted"


# --- values a list computes once --------------------------------------------

def _lists_of_every_origin():
    """Lists made by revoke_member, revoke_group, coalesce and the loader,
    including two that share a version but not their contents."""
    params, gm = make_mestre8_params()
    rng = random.Random(77)
    root = new_root()
    ops = add_department(params, root, rng, name="ops")
    kids = [add_department(params, ops, rng, name=f"t{i}") for i in range(2)]
    lab = add_department(params, root, rng, name="lab")
    one_a = revoke_member(empty_rl(), _pk(1, 2, "a"))
    one_b = revoke_member(empty_rl(), _pk(3, 4, "b"))
    grouped = revoke_group(revoke_group(one_a, kids[0]), kids[1])
    coalesced = coalesce(grouped, root)
    assert coalesced is not grouped
    wider = revoke_group(coalesced, lab)
    loaded = serial.deserialize_artifact(
        serial.serialize_artifact("rl", wider))
    return params, [empty_rl(), one_a, one_b, grouped, coalesced, wider,
                    loaded]


def test_rl_hash_is_the_hash_of_the_serialized_list():
    _params, lists = _lists_of_every_origin()
    for _ in range(2):  # cold, then from the stored digest
        for rl in lists:
            text = serial.serialize_artifact("rl", rl)
            assert rl_hash(rl) == hashlib.sha256(
                text.encode("utf-8")).digest()


def test_warm_and_cold_lists_are_indistinguishable():
    params, lists = _lists_of_every_origin()
    for warm in lists:
        rl_hash(warm)
        is_member_revoked(warm, _pk())
        sigma._collapse_all(params, warm, 0)
        cold = RevocationList(members=warm.members, groups=warm.groups,
                              version=warm.version)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert serial.serialize_artifact("rl", warm) == \
            serial.serialize_artifact("rl", cold)
        assert rl_hash(cold) == rl_hash(warm)


def test_is_member_revoked_agrees_with_a_scan():
    rng = random.Random(79)
    edges = [ModPoint.infinity(), ModPoint(0, 0), ModPoint(0, 1),
             ModPoint(1, 0)]
    # listed ids sort before, equal to and after the probe's "anyone"
    ids = ["", "a", "anyone", "anyone2", "b"]
    sides = set()
    for _ in range(40):
        points = {ModPoint(rng.randrange(50), rng.randrange(50))
                  for _ in range(rng.randrange(12))}
        points.update(rng.sample(edges, rng.randrange(len(edges) + 1)))
        rl = RevocationList(members=tuple(
            RevokedMember(point=p, member_id=rng.choice(ids))
            for p in points), version=len(points))
        probes = edges + [m.point for m in rl.members] + [
            ModPoint(rng.randrange(50), rng.randrange(50))
            for _ in range(30)]
        for point in probes:
            pk = _member_pk(point, "anyone")
            scan = [m.member_id for m in rl.members if m.point == point]
            assert is_member_revoked(rl, pk) == bool(scan)
            sides.update((i > "anyone") - (i < "anyone") for i in scan)
    assert sides == {-1, 0, 1}


# --- mutations insert into the canonical order ------------------------------

def _assert_canonical(rl):
    """rl equals, serializes and hashes as the list the constructor builds
    from its entries given in reverse order."""
    ref = RevocationList(members=rl.members[::-1], groups=rl.groups[::-1],
                         version=rl.version)
    assert rl == ref
    assert serial.serialize_artifact("rl", rl) == \
        serial.serialize_artifact("rl", ref)
    assert rl_hash(rl) == rl_hash(ref)


def _member_pk(point, member_id):
    return PublicKey(point=point, member_id=member_id, dept="/d")


def _random_tree(params, rng):
    """A tree of up to three levels with shuffled names, a unit plane on
    coordinate k - 1 at each level k: coalesce and revoke_group read only
    paths, levels and constraints."""
    root = new_root()
    nodes = []
    frontier = [root]
    for level in range(1, 4):
        nxt = []
        for parent in frontier:
            for name in rng.sample("pqrstuvw", rng.randrange(1, 4)):
                nxt.append(parent.attach(
                    name, _unit_plane(params, level, level - 1), params))
        nodes += nxt
        frontier = rng.sample(nxt, min(len(nxt), 2))
    return root, nodes


def test_mutations_match_the_canonicalizing_constructor():
    rng = random.Random(81)
    points = [ModPoint.infinity(), ModPoint(0, 0)] + [
        ModPoint(rng.randrange(6), rng.randrange(6)) for _ in range(30)]
    ids = ["x", "y", "", "m0", "m00"]
    params, _gm = make_mestre8_params()
    for _ in range(30):
        root, nodes = _random_tree(params, rng)
        start = rng.sample(sorted(set(points), key=repr), rng.randrange(6))
        rl = RevocationList(
            members=[RevokedMember(pt, rng.choice(ids)) for pt in start],
            version=rng.randrange(5))
        _assert_canonical(rl)
        for _ in range(25):
            op = rng.randrange(3)
            if op == 0:
                pk = _member_pk(rng.choice(points), rng.choice(ids))
                if any(m.point == pk.point for m in rl.members):
                    with pytest.raises(ValueError):
                        revoke_member(rl, pk)
                    continue
                out = revoke_member(rl, pk)
            elif op == 1:
                dept = rng.choice(nodes)
                if any(g.path == dept.path for g in rl.groups):
                    with pytest.raises(ValueError):
                        revoke_group(rl, dept)
                    continue
                out = revoke_group(rl, dept)
            else:
                out = coalesce(rl, root)
                if out is rl:
                    continue
            assert out.version == rl.version + 1
            _assert_canonical(out)
            rl = out


def test_member_order_keeps_infinity_apart_from_the_origin():
    inf = RevokedMember(point=ModPoint.infinity(), member_id="x")
    origin = RevokedMember(point=ModPoint(0, 0), member_id="x")
    one = RevocationList(members=(inf, origin))
    other = RevocationList(members=(origin, inf))
    assert one == other
    assert one.members == (inf, origin)
    assert rl_hash(one) == rl_hash(other)
    for first, second in ((inf, origin), (origin, inf)):
        rl = empty_rl()
        for m in (first, second):
            rl = revoke_member(rl, _member_pk(m.point, m.member_id))
        assert rl.members == (inf, origin)
        _assert_canonical(rl)


def test_constraint_set_holds_only_hyperplanes():
    # the RL codec refuses such sets on load; one built in code must not
    # reach sign's evaluate or verify's collapse either
    for constraints in ((5,), (FINANCIAL, (123, 48, 79)), (FINANCIAL, None)):
        with pytest.raises(InvariantError, match="non-Hyperplane"):
            ConstraintSet("/b", constraints)
    assert ConstraintSet("/b", [FINANCIAL]).constraints == (FINANCIAL,)
