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

from conftest import (ENGINEERING, FINANCIAL, HR, TOY_P, TOY_Q,
                      make_mestre8_params, make_toy_params)


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
    serial._LOADED.clear()  # no earlier load computed a digest
    cold = serial.deserialize_artifact(text)
    warm.digest()
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert serial.serialize_artifact("params", warm) == text
    assert cold.digest() == warm.digest()


def _toy_tree(params):
    root = new_root()
    fin = root.attach("financial", FINANCIAL, params)
    hr = root.attach("hr", HR, params)
    eng = root.attach("engineering", ENGINEERING, params)
    return root, fin, hr, eng


def test_add_department_depth_limit_r2():
    params, _ = make_toy_params()
    rng = random.Random(5)
    root = new_root()
    child = add_department(params, root, rng)
    assert child.level == 1 and len(child.constraints) == 1
    with pytest.raises(ValueError, match="depth"):
        add_department(params, child, rng)


def test_attach_refuses_a_department_deeper_than_r_minus_1():
    # on toy17 (r = 2) a second level would stack r planes, and each
    # member's key would be their one common point
    params, _gm = make_toy_params()
    fin = new_root().attach("financial", FINANCIAL, params)
    with pytest.raises(ValueError, match="deeper than r - 1 = 1"):
        fin.attach("b", Hyperplane((5, 7, 11)), params)
    assert fin.children == ()


def test_add_department_names_a_child_the_first_free_d_k():
    params, _ = make_toy_params()
    rng = random.Random(6)
    root = new_root()
    add_department(params, root, rng, name="d1")
    assert [add_department(params, root, rng).path
            for _ in range(2)] == ["/d0", "/d2"]


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
        serial.deserialize_artifact(json.dumps(doc), params=params)
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


class _ScriptedRng:
    """randrange that returns the scripted values in order."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, _stop):
        return self.values.pop(0)


def test_add_department_redraws_zero_and_dependent_planes():
    # one draw of r + 1 coefficients per attempt: a zero linear part and
    # one /a's plane spans are drawn again, and the third draw is attached
    params, _gm = make_mestre8_params()
    r, q = params.r, params.q
    a = new_root().attach("a", Hyperplane((1,) * (r + 1)), params)
    unit = (5, 1) + (0,) * (r - 1)
    rng = _ScriptedRng([7] + [0] * r + [3] + [2] * r + list(unit))
    child = add_department(params, a, rng, name="b")
    assert child.constraints[-1].coeffs == unit and not rng.values
    assert modmath.rank_mod([hp.linear for hp in child.constraints], q) == 2


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
    # a narrow plane once made add_department sample forever and join raise
    # IndexError, and a wide one let add_department attach a child; attach
    # refuses both, at the top and below, and attaches nothing
    params, _gm = make_mestre8_params()
    root = new_root()
    a = add_department(params, root, random.Random(14), name="a")
    for coeffs in ((1, 2), tuple(range(1, 9)), tuple(range(1, 11))):
        for parent in (root, a):
            with pytest.raises(ValueError, match="/x has a hyperplane that "
                                                 "is not r \\+ 1 = 9 wide"):
                parent.attach("x", Hyperplane(coeffs), params)
    assert [node.path for node in hierarchy.walk(root)] == ["", "/a"]


def test_attach_refuses_dependent_hyperplanes():
    # mestre8 with /a and /a/x sampled: an /a/b with twice /a's plane would
    # have all of /a's space, /a/x's member's key included, so listing it
    # would revoke that sibling's member too. attach refuses it, called
    # directly or by the loader, so no library call can list it; a linear
    # part that is nonzero but zero mod q adds no rank either
    params, gm = make_mestre8_params()
    rng = random.Random(15)
    root = new_root()
    a = add_department(params, root, rng, name="a")
    x = add_department(params, a, rng, name="x")
    twice = Hyperplane(tuple(2 * v % params.q
                             for v in a.constraints[0].coeffs))
    with pytest.raises(ValueError, match="/a/b stacks 2 hyperplanes of rank "
                                         "1 mod q"):
        a.attach("b", twice, params)
    with pytest.raises(ValueError, match="/b stacks 1 hyperplanes of rank 0"):
        root.attach("b", Hyperplane((1,) + (params.q,) * params.r), params)
    doc = json.loads(serial.serialize_artifact("tree", root))
    doc["root"]["children"][0]["children"].append(
        {"children": [], "name": "b", "hyperplane": [str(v)
                                                     for v in twice.coeffs]})
    with pytest.raises(InvariantError, match="/a/b stacks 2 hyperplanes of "
                                             "rank 1 mod q"):
        serial.deserialize_artifact(json.dumps(doc), params=params)
    assert a.children == (x,)
    sk, pk = join(params, gm, x, "sib", rng)
    assert twice.evaluate(sk.x, params.q) == 0
    # what the library can list spares the member: a sampled sibling, and
    # the family coalesce cannot fold while /a/x stays unlisted
    y = add_department(params, a, rng, name="y")
    rl = coalesce(revoke_group(empty_rl(), y), root)
    assert [g.path for g in rl.groups] == ["/a/y"]
    assert verify(params, pk, rl, b"m", sign(params, sk, pk, rl, b"m",
                                             rng)).accepted
    with pytest.raises(SignerRevoked, match="'/a'"):
        sign(params, sk, pk, revoke_group(rl, a), b"m", rng)


def test_sibling_departments_disjoint_constraints():
    params, gm = make_toy_params()
    rng = random.Random(17)
    root, fin, hr, _eng = _toy_tree(params)
    sk_f, _ = join(params, gm, fin, "f", rng)
    sk_h, _ = join(params, gm, hr, "h", rng)
    # each key fails the sibling's plane (fixed seed; failure probability
    # over the key randomness is ~1/q)
    assert HR.evaluate(sk_f.x, params.q) != 0
    assert FINANCIAL.evaluate(sk_h.x, params.q) != 0


def test_certificates():
    params, gm = make_toy_params()
    rng = random.Random(19)
    root, fin, _hr, _eng = _toy_tree(params)
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
    fin = root.attach("financial", FINANCIAL, params_a)
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
    fin = root.attach("financial", FINANCIAL, params)
    join(params, gm, fin, "first", rng)
    calls = []
    real = hierarchy.msm

    def counting(*args, **kwargs):
        calls.append((kwargs.get("fixed", 0), kwargs.get("fixed_bits", 0)))
        return real(*args, **kwargs)
    monkeypatch.setattr(hierarchy, "msm", counting)
    join(params, gm, fin, "second", rng)
    # the member's point and the certificate's commitment, both on the one
    # comb over G_1..G_r sized to bitlen(#E) = bitlen(q) = 32; the GM key
    # check was cached by the first join
    r, n = params.r, curve_fp.group_order(params.curve, params.gens[0])
    assert n.bit_length() == params.q.bit_length() == 32
    assert calls == [(r, 32), (r, 32)]


@pytest.mark.parametrize("make", [make_toy_params, make_mestre8_params])
def test_comb_tables_per_system(make):
    # where #E is known, a system keeps one table over G_1..G_r, sized to
    # b = min(bitlen(q), bitlen(#E)), ceil(b / t) columns from bit 0: the
    # key check and join's member point read it, and so do sign, verify
    # and a cold certificate check, for their scalars reduced mod #E; none
    # builds a second, and none a table of ceil(mask_bits / t) columns
    params, gm = make()
    rng = random.Random(37)
    dept = add_department(params, new_root(), rng)
    sk, pk = join(params, gm, dept, "alice", rng)
    tables = curve_fp._comb_table

    def cached(*args):
        # (misses so far, first bit, columns, rows) of the table for args,
        # which must already be built: the lookup is a hit
        misses = tables.cache_info().misses
        table = tables(params.curve, params.gens, *args)
        assert tables.cache_info().misses == misses
        return misses, table.start, table.d, len(table.rows)

    tables.cache_clear()
    hierarchy._KEY_MATCHES.clear()
    t, q_bits = curve_fp.COMB_TEETH, params.q.bit_length()
    n = curve_fp.group_order(params.curve, params.gens[0])
    bits = min(q_bits, n.bit_length())
    d = -(-bits // t)
    # toy17: 32 bits, 4 columns; mestre8 at 10007 with q = 1009: 10 bits
    # (#E = 10088 has 14, below the comb's top at 18), 2 columns
    assert (bits, d) == {2: (32, 4), 8: (10, 2)}[params.r]
    hierarchy.require_key_pair(params, sk, pk)
    assert cached(bits) == (1, 0, d, params.r)
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    assert cached(bits) == (1, 0, d, params.r)
    assert verify(params, pk, empty_rl(), b"m", sig).accepted
    # a cold certificate check runs -c * GM on a key comb of -GM alone in
    # the chain's columns, with the teeth it would have without #E: D =
    # max(d_q, d_hi) for d_hi = ceil((mask_bits - t * d_q) / t) gives t' =
    # ceil(l_c / D), and the chain is max(d, ceil(min(l_c, bitlen(#E)) /
    # t')) columns, the one key table it builds
    hierarchy._CERT_VERDICTS.clear()
    curve_fp._key_table.cache_clear()
    assert verify_cert(params, pk) is True
    keys = curve_fp._key_table.cache_info()
    assert (keys.misses, keys.currsize) == (1, 1)
    minus_gm = neg_fp(params.curve, params.gm_pub.point)
    d_q = -(-q_bits // t)
    teeth = -(-params.l_c // max(d_q, -(-(params.mask_bits - t * d_q) // t)))
    columns = max(d, -(-min(params.l_c, n.bit_length()) // teeth))
    assert (columns, teeth) == {2: (11, 3), 8: (3, 3)}[params.r]
    curve_fp._key_table(params.curve, minus_gm, columns, teeth)
    assert curve_fp._key_table.cache_info().misses == 1  # -GM's: a hit
    join(params, gm, dept, "bob", rng)
    info = tables.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # neither the table of ceil(mask_bits / t) columns from bit 0 nor the
    # one from the q comb's top up to mask_bits was ever built
    tables(params.curve, params.gens, params.mask_bits)
    tables(params.curve, params.gens, params.mask_bits - t * d_q, t * d_q)
    assert tables.cache_info().misses == 3


@pytest.mark.parametrize("make, d", [(make_toy_params, 4),
                                     (make_mestre8_params, 2)])
def test_key_point_makes_one_doubling_per_column_of_q(make, d, monkeypatch,
                                                      tmp_path):
    # key coordinates run on the comb sized to q, so a warm key_point is a
    # chain of d = ceil(bitlen(q) / t) doublings, not ceil(mask_bits / t),
    # and sums to the Straus msm; a coordinate at 2^(d*t) or past it, or
    # below 0, is reduced mod #E (a NAF row where #E is unknown) and gives
    # the exact point too
    params, gm = make()
    q, r = params.q, params.r
    assert -(-q.bit_length() // curve_fp.COMB_TEETH) == d
    assert -(-params.mask_bits // curve_fp.COMB_TEETH) > d
    rng = random.Random(47)
    x = [rng.randrange(q) for _ in range(r)]
    params.key_point(x)  # builds the table
    doublings = []
    real = curve_fp._jac_double

    def counting(*args):
        doublings.append(1)
        return real(*args)
    monkeypatch.setattr(curve_fp, "_jac_double", counting)
    top = 1 << d * curve_fp.COMB_TEETH
    for coords, columns in (([0] * r, 0), ([1] * r, d), ([q - 1] * r, d),
                            (x, d), ([q] + x[1:], d),
                            ([top] + x[1:], None), ([-1] + x[1:], None)):
        want = msm(params.curve, coords, params.gens)
        doublings.clear()
        assert params.key_point(coords) == want, coords
        if columns is not None:
            assert len(doublings) == columns, coords
    monkeypatch.undo()
    # a key loaded fresh from disk is checked on the same table, and a
    # mismatched pair still raises
    dept = add_department(params, new_root(), rng)
    pairs = [join(params, gm, dept, name, rng) for name in ("alice", "bob")]
    for i, pair in enumerate(pairs):
        serial.save_artifact(tmp_path / f"{i}.key", "keypair", pair)
    (alice_sk, alice), (bob_sk, bob) = (
        serial.load_artifact(tmp_path / f"{i}.key") for i in range(2))
    hierarchy._KEY_MATCHES.clear()
    misses = curve_fp._comb_table.cache_info().misses
    hierarchy.require_key_pair(params, alice_sk, alice)
    for sk, pk in ((alice_sk, bob), (bob_sk, alice)):
        with pytest.raises(ValueError, match="does not match"):
            hierarchy.require_key_pair(params, sk, pk)
    assert curve_fp._comb_table.cache_info().misses == misses


def test_cert_verdict_cache_answers_as_an_uncached_check():
    params, gm = make_toy_params()
    rng = random.Random(31)
    root, fin, _hr, _eng = _toy_tree(params)
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
