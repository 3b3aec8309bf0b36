import dataclasses
import itertools
import json
import random
import warnings

import pytest

from hrpks import curve_fp, hierarchy, modmath, serial
from hrpks.curve_fp import ModPoint, msm, neg_fp
from hrpks.errors import InvariantError, SignerRevoked
from hrpks.hierarchy import (Hyperplane, add_department, find_dept, join,
                             new_root, setup, verify_cert)
from hrpks.revocation import coalesce, empty_rl, revoke_group
from hrpks.sigma import sign, verify

from conftest import TOY_P, TOY_Q, make_mestre8_params, make_toy_params

FINANCIAL = Hyperplane((123, 48, 79))
HR = Hyperplane((752, 36, 139))
ENGINEERING = Hyperplane((937, 58, 32))


def test_setup_toy_generators():
    params, _gm = make_toy_params()
    assert params.gens == (ModPoint(3123456771, 3), ModPoint(2, 5))
    assert params.r == 2
    assert params.p == params.q == TOY_P
    assert params.l_c == 31  # min(128, bitlen(q) - 1)


def test_setup_deterministic():
    a_params, a_gm = make_toy_params(seed=555)
    b_params, b_gm = make_toy_params(seed=555)
    assert a_params == b_params
    assert a_gm == b_gm
    c_params, c_gm = make_toy_params(seed=556)
    assert c_gm != a_gm
    assert c_params.gm_pub != a_params.gm_pub


def test_setup_rejects_bad_inputs():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        setup("toy17", 4, TOY_Q, rng)
    with pytest.raises(ValueError):
        setup("toy17", TOY_P, 10, rng)
    with pytest.raises(ValueError):
        setup("rank14", TOY_P, TOY_Q, rng)  # catalog lists no generators
    with pytest.raises(ValueError):
        setup("toy17", TOY_P, 251, rng)  # 2^l_c < q needs q >= 257
    with pytest.raises(ValueError, match="bad reduction"):
        setup("toy17", 2, TOY_Q, rng)  # bad reduction
    # SystemParams' checks of setup's own arguments are usage errors too
    for l_s in (0, hierarchy.MAX_STAT_GAP_BITS + 1):
        with pytest.raises(ValueError, match="l_s"):
            setup("toy17", TOY_P, 257, rng, l_s=l_s)


def test_setup_warns_when_q_may_exceed_orders():
    # warns when the Hasse floor p + 1 - 2 sqrt(p) is at most 2^mask_bits,
    # mask_bits = bitlen(q) + l_c + l_s: q = p, and a small q whose l_c +
    # l_s slack (9 + 8 + 64 = 81 bits) exceeds a 32-bit floor
    rng = random.Random(2)
    for p, q, l_s in ((TOY_P, TOY_Q, 64), (TOY_P, 257, 64),
                      ((1 << 127) - 1, (1 << 89) - 1, 64)):
        with pytest.warns(UserWarning, match="orders"):
            setup("toy17", p, q, rng, l_s=l_s)
    # a floor above 2^mask_bits stays silent
    for p, q, l_s in ((TOY_P, 257, 8), ((1 << 255) - 19, (1 << 89) - 1, 64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            setup("toy17", p, q, rng, l_s=l_s)


def test_aux_group_structure():
    params, _ = make_toy_params()
    aux = params.aux
    assert aux.rho == 6 * TOY_Q + 1  # smallest k is 6 for the toy q
    assert (aux.rho - 1) % aux.q == 0
    assert pow(aux.g, aux.q, aux.rho) == 1 and aux.g != 1
    assert pow(aux.h, aux.q, aux.rho) == 1 and aux.h != 1
    assert aux.g != aux.h


def test_params_digest_distinguishes():
    a, _ = make_toy_params(seed=1)
    b, _ = make_toy_params(seed=2)
    assert a.digest() != b.digest()
    assert a.digest() == make_toy_params(seed=1)[0].digest()
    assert len(a.digest()) == 32


def test_warm_and_cold_params_are_indistinguishable():
    from hrpks import serial

    warm, _ = make_toy_params(seed=3)
    text = serial.serialize_artifact("params", warm)
    cold = serial.deserialize_artifact(text)
    warm.digest()
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert serial.serialize_artifact("params", warm) == text
    assert cold.digest() == warm.digest()


def _toy_tree(params, rng):
    root = new_root()
    fin = add_department(params, root, rng, name="financial",
                         constraint=FINANCIAL)
    hr = add_department(params, root, rng, name="hr", constraint=HR)
    eng = add_department(params, root, rng, name="engineering",
                         constraint=ENGINEERING)
    return root, fin, hr, eng


def test_add_department_depth_limit_r2():
    params, _ = make_toy_params()
    rng = random.Random(5)
    root = new_root()
    child = add_department(params, root, rng)
    assert child.level == 1 and len(child.constraints) == 1
    with pytest.raises(ValueError, match="depth"):
        add_department(params, child, rng)


def test_add_department_paths_and_names():
    params, _ = make_toy_params()
    rng = random.Random(6)
    root = new_root()
    a = add_department(params, root, rng, name="sales")
    assert a.path == "/sales"
    assert find_dept(root, "/sales") is a
    with pytest.raises(ValueError, match="exists"):
        add_department(params, root, rng, name="sales")
    with pytest.raises(ValueError):
        find_dept(root, "/nowhere")


@pytest.mark.parametrize("name", ["", "a/b", "sales"])
def test_add_department_and_the_loader_refuse_the_same_names(name):
    # one rule for both: empty, slash-bearing and taken names ("sales" is
    # taken) are refused, a ValueError from add_department and an
    # InvariantError from the loader, with the same message
    params, _ = make_toy_params()
    rng = random.Random(7)
    root = new_root()
    add_department(params, root, rng, name="sales")
    with pytest.raises(ValueError) as refused:
        add_department(params, root, rng, name=name)
    doc = json.loads(serial.serialize_artifact("tree", root))
    siblings = doc["root"]["children"]
    siblings.append(dict(siblings[0], name=name))
    with pytest.raises(InvariantError) as loaded:
        serial.deserialize_artifact(json.dumps(doc))
    assert str(loaded.value) == str(refused.value)


def _independent_pair(rows, q):
    """Rank-2 oracle for two rows: some 2x2 minor is nonzero."""
    a, b = rows
    return any((a[i] * b[j] - a[j] * b[i]) % q != 0
               for i, j in itertools.combinations(range(len(a)), 2))


def test_add_department_level2_independent():
    params, _gm = make_mestre8_params()
    rng = random.Random(8)
    root = new_root()
    for trial in range(10):
        l1 = add_department(params, root, rng)
        l2 = add_department(params, l1, rng)
        assert l2.level == 2 and len(l2.constraints) == 2
        rows = [hp.linear for hp in l2.constraints]
        assert _independent_pair(rows, params.q)  # oracle
        assert modmath.rank_mod(rows, params.q) == 2


def test_add_department_depth_limit_mestre8():
    # r = 8: a chain reaches level 7 = r - 1 and no further, a member at
    # level 7 is revoked with any ancestor, and a complete revoked family
    # at level 6 coalesces into its level-5 parent
    params, gm = make_mestre8_params()
    rng = random.Random(10)
    chain = [new_root()]
    for level in range(1, 8):
        chain.append(add_department(params, chain[-1], rng))
        assert chain[-1].level == len(chain[-1].constraints) == level
    with pytest.raises(ValueError, match="depth"):
        add_department(params, chain[-1], rng)
    sk, pk = join(params, gm, chain[7], "deep", rng)
    with pytest.raises(SignerRevoked):
        sign(params, sk, pk, revoke_group(empty_rl(), chain[3]), b"m", rng)

    open_sk, open_pk = join(
        params, gm, add_department(params, chain[4], rng), "open", rng)
    family = [chain[6]] + [add_department(params, chain[5], rng)
                           for _ in range(2)]
    rl = empty_rl()
    for node in family:
        rl = revoke_group(rl, node)
    out = coalesce(rl, chain[0])
    assert [g.path for g in out.groups] == [chain[5].path]
    assert out.groups[0].constraints == chain[5].constraints
    with pytest.raises(SignerRevoked):
        sign(params, sk, pk, out, b"m", rng)
    sig = sign(params, open_sk, open_pk, out, b"m", rng)
    assert verify(params, open_pk, out, b"m", sig).accepted


def test_add_department_rejects_dependent_pin():
    params, _gm = make_mestre8_params()
    rng = random.Random(9)
    root = new_root()
    l1 = add_department(params, root, rng,
                        constraint=Hyperplane((5, *range(1, 9))))
    with pytest.raises(ValueError, match="dependent"):
        add_department(params, l1, rng,
                       constraint=Hyperplane((7, *range(2, 18, 2))))


def test_join_reproduces_published_keys():
    # the worked example's keys, checked directly: a joined key is drawn
    # on the plane, and these are points of it
    params, _gm = make_toy_params()
    assert FINANCIAL.evaluate((6789, 118608156), TOY_Q) == 0
    assert params.gens_msm((6789, 118608156)) == \
        ModPoint(2132129612, 2902520269)
    assert FINANCIAL.evaluate((3257, 3083917365), TOY_Q) == 0
    # the published tuple's second coordinate misses the plane
    assert FINANCIAL.evaluate((3257, 2774256590), TOY_Q) != 0


def test_join_satisfies_all_constraints():
    params, gm = make_mestre8_params()
    rng = random.Random(13)
    root = new_root()
    l1 = add_department(params, root, rng)
    l2 = add_department(params, l1, rng)
    for dept in (l1, l2):
        for i in range(5):
            sk, pk = join(params, gm, dept, f"m{i}", rng)
            assert all(hp.evaluate(sk.x, params.q) == 0
                       for hp in dept.constraints)
            assert msm(params.curve, sk.x, params.gens) == pk.point
            assert all(0 <= v < params.q for v in sk.x)


def test_join_rejects_root():
    params, gm = make_toy_params()
    with pytest.raises(ValueError):
        join(params, gm, new_root(), "x", random.Random(0))


def test_hyperplanes_not_r_plus_1_wide_are_value_errors():
    # a hand-edited tree can stack hyperplanes of any width; a narrow one
    # made add_department sample forever and join raise IndexError, and a
    # wide one let add_department attach a child
    params, gm = make_mestre8_params()
    rng = random.Random(14)
    a = add_department(params, new_root(), rng, name="a")
    for coeffs in ((1, 2), tuple(range(1, 9)), tuple(range(1, 11))):
        hp = Hyperplane(coeffs)
        top = hierarchy.DeptNode(path="/x", constraints=(hp,))
        below = hierarchy.DeptNode(path="/a/x",
                                   constraints=a.constraints + (hp,))
        with pytest.raises(ValueError, match="not r \\+ 1 = 9 wide"):
            add_department(params, top, rng)
        for dept in (top, below):
            with pytest.raises(ValueError, match="not r \\+ 1 = 9 wide"):
                join(params, gm, dept, "m", rng)


def test_sibling_departments_disjoint_constraints():
    params, gm = make_toy_params()
    rng = random.Random(17)
    root, fin, hr, _eng = _toy_tree(params, rng)
    sk_f, _ = join(params, gm, fin, "f", rng)
    sk_h, _ = join(params, gm, hr, "h", rng)
    # each key fails the sibling's plane (fixed seed; failure probability
    # over the key randomness is ~1/q)
    assert HR.evaluate(sk_f.x, params.q) != 0
    assert FINANCIAL.evaluate(sk_h.x, params.q) != 0


def test_certificates():
    params, gm = make_toy_params()
    rng = random.Random(19)
    root, fin, _hr, _eng = _toy_tree(params, rng)
    sk, pk = join(params, gm, fin, "alice", rng)
    assert pk.cert is not None
    assert verify_cert(params, pk)

    tampered = hierarchy.PublicKey(point=pk.point, member_id="alicf",
                                   dept=pk.dept, cert=pk.cert)
    assert not verify_cert(params, tampered)

    moved = hierarchy.PublicKey(point=pk.point, member_id=pk.member_id,
                                dept="/hr", cert=pk.cert)
    assert not verify_cert(params, moved)

    swapped = hierarchy.PublicKey(point=params.gens[1], member_id=pk.member_id,
                                  dept=pk.dept, cert=pk.cert)
    assert not verify_cert(params, swapped)

    nocert = hierarchy.PublicKey(point=pk.point, member_id=pk.member_id,
                                 dept=pk.dept, cert=None)
    assert not verify_cert(params, nocert)

    garbage = hierarchy.PublicKey(point=pk.point, member_id=pk.member_id,
                                  dept=pk.dept, cert=b"not a signature")
    assert not verify_cert(params, garbage)


def test_cert_rejected_under_other_params():
    params_a, gm_a = make_toy_params(seed=23)
    params_b, _gm_b = make_toy_params(seed=24)
    rng = random.Random(25)
    root = new_root()
    fin = add_department(params_a, root, rng, constraint=FINANCIAL,
                         name="financial")
    _sk, pk = join(params_a, gm_a, fin, "alice", rng)
    assert verify_cert(params_a, pk)
    # same structure, different GM key -> challenge domain separates
    assert not verify_cert(params_b, pk)


def test_gm_certify_requires_matching_secret():
    params, gm = make_toy_params()
    rng = random.Random(27)
    wrong = hierarchy.SecretKey(x=(1, 2), member_id="gm", dept="")
    pk = hierarchy.PublicKey(point=params.gens[0], member_id="x", dept="/d")
    with pytest.raises(ValueError):
        hierarchy.gm_certify(params, wrong, pk, rng)


def test_hyperplane_invariants():
    with pytest.raises(InvariantError):
        Hyperplane((5, 0, 0))
    with pytest.raises(InvariantError):
        Hyperplane((5,))
    hp = Hyperplane((1, 2, 3))
    assert hp.evaluate((1, 1), 7) == 6
    with pytest.raises(ValueError):
        hp.evaluate((1, 1, 1), 7)


def test_setup_checks_each_prime_once(monkeypatch):
    tested = []
    real = modmath.is_probable_prime

    def counting(n):
        tested.append(n)
        return real(n)
    monkeypatch.setattr(modmath, "is_probable_prime", counting)
    p, q = 10007, 1009
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, _gm = hierarchy.setup("toy17", p, q, random.Random(4))
    assert (tested.count(p), tested.count(q)) == (1, 1)
    # the rest are the search for rho = k * q + 1, which ends on rho
    assert tested[-1] == params.aux.rho
    assert all((n - 1) % q == 0 for n in tested if n not in (p, q))


def test_setup_prime_errors_keep_their_messages():
    rng = random.Random(3)
    for p, q, want in ((4, TOY_Q, "p = 4 is not prime"),
                       (4, 10, "p = 4 is not prime"),
                       (TOY_P, 10, "q = 10 is not prime"),
                       (1, TOY_Q, "p = 1 is not prime")):
        with pytest.raises(ValueError, match=want):
            hierarchy.setup("toy17", p, q, rng)


def test_reduce_curve_prime_and_denominator_errors():
    from hrpks.curve_fp import reduce_curve
    from hrpks.curve_q import CurveQ

    cq = CurveQ(a1=0, a2=0, a3=0, a4=0, a6="17/6", curve_id="sixths")
    with pytest.raises(ValueError, match="p = 3 divides"):
        reduce_curve(cq, 3)
    # a composite p sharing a factor with the denominator, or dividing it
    for p in (9, 6, 0, -4):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            reduce_curve(cq, p)


def test_join_checks_the_gm_key_once(monkeypatch):
    params, gm = make_toy_params()
    rng = random.Random(29)
    root = hierarchy.new_root()
    fin = add_department(params, root, rng, name="financial",
                         constraint=FINANCIAL)
    join(params, gm, fin, "first", rng)
    calls = []
    real = hierarchy.msm

    def counting(*args, **kwargs):
        calls.append(kwargs.get("fixed", 0))
        return real(*args, **kwargs)
    monkeypatch.setattr(hierarchy, "msm", counting)
    join(params, gm, fin, "second", rng)
    # the member's point and the certificate's commitment, both on the
    # system's one comb over G_1..G_r; the GM key check was cached by the
    # first join
    assert calls == [params.r, params.r]


@pytest.mark.parametrize("make", [make_toy_params, make_mestre8_params])
def test_one_comb_table_per_system(make):
    # join, sign, a member's verify and a cold certificate check all read
    # one table over G_1..G_r; none builds a second
    params, gm = make()
    rng = random.Random(37)
    curve_fp._comb_table.cache_clear()
    dept = add_department(params, new_root(), rng)
    sk, pk = join(params, gm, dept, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    assert verify(params, pk, empty_rl(), b"m", sig).accepted
    # a cold certificate check runs -c * GM on a key comb of -GM alone,
    # the one key table it builds
    hierarchy._CERT_VERDICTS.clear()
    curve_fp._key_table.cache_clear()
    assert verify_cert(params, pk) is True
    keys = curve_fp._key_table.cache_info()
    assert (keys.misses, keys.currsize) == (1, 1)
    d = -(-params.mask_bits // curve_fp.COMB_TEETH)
    minus_gm = neg_fp(params.curve, params.gm_pub.point)
    curve_fp._key_table(params.curve, minus_gm, d, -(-params.l_c // d))
    assert curve_fp._key_table.cache_info().misses == 1  # -GM's: a hit
    assert curve_fp._comb_table.cache_info().misses == 1
    table = curve_fp._comb_table(params.curve, params.gens, params.mask_bits)
    info = curve_fp._comb_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)  # the lookup was a hit
    assert len(table.rows) == params.r


def test_cert_verdict_cache_answers_as_an_uncached_check():
    params, gm = make_toy_params()
    rng = random.Random(31)
    root, fin, _hr, _eng = _toy_tree(params, rng)
    _sk, pk = join(params, gm, fin, "alice", rng)
    hierarchy._CERT_VERDICTS.clear()
    assert verify_cert(params, pk) is True  # kept under params' digest

    cert = bytearray(pk.cert)
    digits = [i for i, b in enumerate(cert) if 0x30 <= b <= 0x39]
    cert[digits[len(digits) // 2]] ^= 1  # another digit: still a document
    assert serial.deserialize_artifact(cert.decode()).s != \
        serial.deserialize_artifact(pk.cert.decode()).s
    keys = [
        dataclasses.replace(pk, point=params.gens[1]),
        dataclasses.replace(pk, member_id="alicf"),
        dataclasses.replace(pk, dept="/hr"),
        dataclasses.replace(pk, cert=bytes(cert)),
        dataclasses.replace(pk, cert=None),
    ]
    for other in keys:
        assert hierarchy._check_cert(params, other) is False
        # the first answer is checked, the second one kept: False stays
        assert verify_cert(params, other) is False
        assert verify_cert(params, other) is False

    # params that differ in one field have another digest, so the True
    # kept under params is not theirs
    two_g2 = msm(params.curve, [2], [params.gens[1]])
    others = [
        dataclasses.replace(params, l_s=params.l_s - 1),
        dataclasses.replace(params, gens=(params.gens[0], two_g2)),
        dataclasses.replace(params, gm_pub=dataclasses.replace(
            params.gm_pub, point=neg_fp(params.curve, params.gm_pub.point))),
    ]
    for other in others:
        assert other.digest() != params.digest()
        assert hierarchy._check_cert(other, pk) is False
        assert verify_cert(other, pk) is False
    assert verify_cert(params, pk) is True
    # an equal key from elsewhere (a file, say) is the same entry
    twin = hierarchy.PublicKey(point=ModPoint(pk.point.x, pk.point.y),
                               member_id="alice", dept=fin.path,
                               cert=bytes(pk.cert))
    before = len(hierarchy._CERT_VERDICTS)
    assert verify_cert(params, twin) is True
    assert len(hierarchy._CERT_VERDICTS) == before


def test_cert_verdict_cache_is_bounded():
    params, _gm = make_toy_params()
    size = hierarchy._CERT_CACHE_SIZE
    hierarchy._CERT_VERDICTS.clear()
    keys = [hierarchy.PublicKey(point=params.gens[0], member_id=f"m{i}",
                                dept="/d", cert=b"not a signature")
            for i in range(size + 5)]
    for pk in keys:
        assert verify_cert(params, pk) is False
        assert len(hierarchy._CERT_VERDICTS) <= size
    assert len(hierarchy._CERT_VERDICTS) == size
    # the least recently used go first
    kept = {key for _, key in hierarchy._CERT_VERDICTS}
    assert kept == set(keys[5:])
    verify_cert(params, keys[5])  # used again: now the most recent
    verify_cert(params, keys[0])
    assert keys[5] in {key for _, key in hierarchy._CERT_VERDICTS}
    assert keys[6] not in {key for _, key in hierarchy._CERT_VERDICTS}
