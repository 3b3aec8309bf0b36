import dataclasses
import json
import random

import pytest

from hrpks import curve_fp, hierarchy, revocation, serial, sigma
from hrpks.curve_fp import ModPoint, msm, point_order
from hrpks.errors import InvariantError, RetryExhausted, SignerRevoked
from hrpks.hierarchy import Hyperplane, PublicKey, add_department, join, \
    new_root
from hrpks.revocation import empty_rl, revoke_group, revoke_member
from hrpks.sigma import (Signature, collapse_constraints, pedersen_commit,
                         sign, verify)

from conftest import (ENGINEERING, FINANCIAL, HR, MERSENNE_89, MERSENNE_127,
                      TOY_P, make_mestre8_params, make_small_params,
                      make_toy_params, quiet_setup)


def _toy_world(seed=101):
    params, gm = make_toy_params()
    rng = random.Random(seed)
    root = new_root()
    fin = root.attach("financial", FINANCIAL)
    hr = root.attach("hr", HR)
    eng = root.attach("engineering", ENGINEERING)
    return params, gm, rng, root, fin, hr, eng


def test_sign_verify_empty_rl():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    assert sig.commitments == () and sig.nonzero_proofs == ()
    result = verify(params, pk, empty_rl(), b"hello", sig)
    assert result.accepted


def test_sign_verify_with_nonzero_proof():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    # a financial key, confirmed off the HR plane first
    sk, pk = join(params, gm, fin, "emp2", rng)
    assert HR.evaluate(sk.x, params.q) != 0
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"hello", rng)
    assert len(sig.nonzero_proofs) == 1
    assert len(sig.commitments) == params.r
    assert verify(params, pk, rl, b"hello", sig).accepted


def test_sign_fails_for_revoked_department():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "emp", rng)
    rl = revoke_group(empty_rl(), fin)
    with pytest.raises(SignerRevoked) as exc:
        sign(params, sk, pk, rl, b"hello", rng)
    assert exc.value.entry == "/financial"


def _mestre8_key_under_two_levels(seed):
    """A mestre8 key in /x/y beside an unrelated /w, which sorts first."""
    params, gm = make_mestre8_params()
    rng = random.Random(seed)
    root = new_root()
    w = add_department(params, root, rng, name="w")
    x = add_department(params, root, rng, name="x")
    y = add_department(params, x, rng, name="y")
    sk, pk = join(params, gm, y, "m", rng)
    return params, sk, pk, (w, x, y), rng


def test_sign_names_the_first_revoked_set_in_list_order():
    # the key lies on /x and on /x/y; /w, first in the list, it is off
    params, sk, pk, depts, rng = _mestre8_key_under_two_levels(61)
    rl = empty_rl()
    for dept in reversed(depts):
        rl = revoke_group(rl, dept)
    assert [g.path for g in rl.groups] == ["/w", "/x", "/x/y"]
    with pytest.raises(SignerRevoked) as exc:
        sign(params, sk, pk, rl, b"m", rng)
    assert exc.value.entry == "/x"


def test_sign_raises_as_the_revoked_set_check_meets_a_bad_entry():
    # an entry whose plane is not r + 1 wide: one that revokes the key and
    # sorts before it decides, one that sorts after it does not
    from hrpks.revocation import ConstraintSet, RevocationList

    params, sk, pk, (_w, x, _y), rng = _mestre8_key_under_two_levels(67)
    narrow = (Hyperplane((1, 2)),)
    before = RevocationList(groups=(ConstraintSet("/x", x.constraints),
                                    ConstraintSet("/z", narrow)))
    with pytest.raises(SignerRevoked) as exc:
        sign(params, sk, pk, before, b"m", rng)
    assert exc.value.entry == "/x"
    after = RevocationList(groups=(ConstraintSet("/a", narrow),
                                   ConstraintSet("/x", x.constraints)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        sign(params, sk, pk, after, b"m", rng)
    # a plane zero at every key, all-zero mod q in its linear part, has no
    # collapse, and still revokes the key
    flat = RevocationList(groups=(ConstraintSet(
        "/flat", (Hyperplane((0, params.q) + (0,) * (params.r - 1)),)),))
    with pytest.raises(SignerRevoked) as exc:
        sign(params, sk, pk, flat, b"m", rng)
    assert exc.value.entry == "/flat"


def test_sign_fails_for_revoked_member():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "emp", rng)
    rl = revoke_member(empty_rl(), pk)
    with pytest.raises(SignerRevoked):
        sign(params, sk, pk, rl, b"hello", rng)


def test_sign_requires_matching_key():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, _pk = join(params, gm, fin, "a", rng)
    _sk2, pk2 = join(params, gm, hr, "b", rng)
    with pytest.raises(ValueError):
        sign(params, sk, pk2, empty_rl(), b"x", rng)


def test_verify_rejects_wrong_message_and_rl_version():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = empty_rl()
    sig = sign(params, sk, pk, rl, b"hello", rng)
    assert verify(params, pk, rl, b"hellp", sig).reason == "BAD_CHALLENGE"
    rl2 = revoke_group(rl, hr)
    assert verify(params, pk, rl2, b"hello", sig).reason == "RL_MISMATCH"


def test_verify_rejects_revoked_pk_regardless_of_transcript():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    rl = revoke_member(empty_rl(), pk)
    # even a signature that was honest under the old list
    res = verify(params, pk, rl, b"hello", sig)
    assert res.reason == "PK_REVOKED"


def test_verify_range_rejection():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"hello", rng)
    too_big = Signature(challenge=sig.challenge,
                        s=(sig.s[0], 1 << params.mask_bits),
                        commitments=(), commitment_responses=(),
                        nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"hello", too_big).reason == "RANGE"
    negative = Signature(challenge=sig.challenge, s=(-1, sig.s[1]),
                         commitments=(), commitment_responses=(),
                         nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"hello", negative).reason == "RANGE"


def test_verify_is_pure():
    params, gm, rng, root, fin, _hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    first = verify(params, pk, empty_rl(), b"m", sig)
    for _ in range(5):
        assert verify(params, pk, empty_rl(), b"m", sig) == first


def test_response_range_bound_holds():
    params, gm, rng, root, fin, hr, _eng = _toy_world()
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    bound = 1 << params.mask_bits
    for i in range(50):
        sig = sign(params, sk, pk, rl, bytes([i]), rng)
        assert all(0 <= v < bound for v in sig.s)
        assert all(0 <= v < params.q for v in sig.commitment_responses)


# --- Pedersen commitments -------------------------------------------------

def test_commit_identity():
    params, _ = make_toy_params()
    assert pedersen_commit(params, 0, 0) == 1


def test_commit_homomorphism():
    params, _ = make_toy_params()
    q, rho = params.q, params.aux.rho
    rng = random.Random(33)
    for _ in range(50):
        v, w = rng.randrange(q), rng.randrange(q)
        t1, t2 = rng.randrange(q), rng.randrange(q)
        lhs = pedersen_commit(params, v, t1) * pedersen_commit(params, w, t2) \
            % rho
        rhs = pedersen_commit(params, (v + w) % q, (t1 + t2) % q)
        assert lhs == rhs


def test_commit_collision_scan():
    params, _ = make_toy_params()
    q = params.q
    rng = random.Random(35)
    seen = {}
    for _ in range(10 ** 4):
        v, t = rng.randrange(q), rng.randrange(q)
        c = pedersen_commit(params, v, t)
        if c in seen:
            assert seen[c] == (v, t)
        seen[c] = (v, t)


def test_commit_range_check():
    params, _ = make_toy_params()
    with pytest.raises(ValueError):
        pedersen_commit(params, params.q, 0)
    with pytest.raises(ValueError):
        pedersen_commit(params, 0, -1)


# --- aux-group multi-exponentiation -----------------------------------------

def _reference_aux_product(aux, a, b, bases, exps):
    """g^a h^b prod base^e with plain `pow`, exponents unreduced (negative
    ones invert)."""
    acc = pow(aux.g, a, aux.rho) * pow(aux.h, b, aux.rho) % aux.rho
    for base, e in zip(bases, exps):
        acc = acc * pow(base, e, aux.rho) % aux.rho
    return acc


def _aux_edges(aux, rng):
    q, rows = aux.q, len(sigma._gh_table(aux))
    top = 1 << q.bit_length()
    return [0, 1, 2, q - 1, q, q + 1, 2 * q - 1, 2 * q + 5, 255, 256,
            (1 << 16) - 1, (1 << (8 * rows)) - 1, top - 1, top, top + 1,
            3 * top + 5, rng.getrandbits(317), rng.randrange(q), -1, -q,
            -(q + 1), -(3 * q) - 2, -rng.getrandbits(64),
            -rng.getrandbits(200)]


def _aux_product_cases(aux, rng):
    """(a, b, bases, exps): 1 to 8 terms at every edge beside g and h
    exponents at an edge, the shapes of A_i (one C_i) and of B_j."""
    q, rho = aux.q, aux.rho
    edges = _aux_edges(aux, rng)

    def edge():
        return rng.choice(edges + [rng.randrange(q)])

    def element():
        return pow(aux.g, rng.randrange(1, q), rho)

    elements = [aux.g, aux.h, element(), element(), element()]
    # one term at every edge, on g, h, other elements and 1
    for e in edges:
        for base in elements + [1]:
            yield edge(), edge(), [base], [e]
    for e1 in edges:
        for e2 in edges[::2]:
            yield edge(), edge(), elements[:2], [e1, e2]
    yield 0, 0, elements, [0] * len(elements)
    yield q - 1, 1, [aux.g, aux.g], [q - 1, 1]      # repeats that cancel
    yield 5, 2 * q + 5, [aux.h, aux.h, aux.h], [5, 2 * q + 5, -10]
    for _ in range(60):
        bases = [rng.choice(elements + [element()])
                 for _ in range(rng.randrange(1, 9))]
        yield edge(), edge(), bases, [edge() for _ in bases]


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_aux_product_matches_plain_pow(make_aux):
    aux = make_aux()
    rng = random.Random(aux.q.bit_length())
    for a, b, bases, exps in _aux_product_cases(aux, rng):
        terms = [(sigma._aux_comb(aux, base), e)
                 for base, e in zip(bases, exps)]
        got = sigma._aux_product(aux, a, b, terms)
        assert got == _reference_aux_product(aux, a, b, bases, exps), \
            (a, b, bases, exps)


def _gh_cases(aux, rng):
    top = 1 << aux.q.bit_length()
    edges = _aux_edges(aux, rng)
    for a in edges:
        for b in edges:
            yield a, b
    # every byte digit of every row, of either base, the other base's
    # digit in the same row its complement
    for k in range(len(sigma._gh_table(aux))):
        for d in range(256):
            yield d << (8 * k), (255 - d) << (8 * k)
    for _ in range(50):
        yield rng.randrange(-top, 2 * top), rng.randrange(-top, 2 * top)


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_gh_matches_plain_pow(make_aux):
    # g^a h^b with no terms, as sign and `pedersen_commit` take it, reads
    # only the fixed-base table
    aux = make_aux()
    rng = random.Random(aux.q.bit_length() + 2)
    for a, b in _gh_cases(aux, rng):
        want = _reference_aux_product(aux, a, b, [], [])
        assert sigma._aux_product(aux, a, b) == want, (a, b)


def _reference_nonzero_b(aux, commitments, collapsed, e, f, x):
    """D^e h^f g^x with plain `pow`, the collapsed commitment
    D = g^a0 prod C_i^a_i built on its own first."""
    d = _reference_aux_product(aux, 0, 0, [aux.g, *commitments],
                               collapsed.coeffs)
    return _reference_aux_product(aux, x, f, [d], [e])


def _nonzero_b_cases(aux, rng):
    """(commitments, collapsed coefficients, e, f, x) with the zero and
    repeat edges: a0 = 0, some a_i = 0, e = 0 (sw = 0), x = 0 (c = 0) and
    a repeated C_i."""
    q, rho = aux.q, aux.rho

    def element():
        return pow(aux.g, rng.randrange(1, q), rho)

    def exponent():
        return rng.choice([0, 1, q - 1, rng.randrange(q)])

    c1, c2, c3 = element(), element(), element()
    yield (c1, c2), (0, 5, q - 1), rng.randrange(q), 7, -3
    yield (c1, c2, c3), (rng.randrange(q), 0, rng.randrange(q), 0), \
        rng.randrange(q), rng.randrange(q), -rng.randrange(1 << 31)
    yield (c1, c2), (rng.randrange(q), 3, 4), 0, rng.randrange(q), -9
    yield (c1, c2), (rng.randrange(q), 3, 4), rng.randrange(q), 0, 0
    yield (c1, c1, c2), (2, q - 1, 1, 6), rng.randrange(q), 1, -1
    yield (c3, c3), (0, 1, q - 1), q - 1, q - 1, 0
    for _ in range(40):
        commitments = tuple(rng.choice([c1, c2, c3, element()])
                            for _ in range(rng.randrange(1, 9)))
        coeffs = (exponent(),) + tuple(exponent() for _ in commitments)
        if not any(coeffs[1:]):
            coeffs = coeffs[:1] + (1,) + coeffs[2:]
        yield commitments, coeffs, exponent(), exponent(), \
            -rng.randrange(1 << 31) * rng.randrange(2)


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_nonzero_b_is_one_product_equal_to_plain_pow(make_aux):
    # B_j = g^(a0 e + x) h^f prod C_i^(a_i e), the one product verify
    # takes, must equal D^e h^f g^x, the value computed from the collapsed
    # commitment D that is not sent
    aux = make_aux()
    rng = random.Random(aux.q.bit_length() + 1)
    for commitments, coeffs, e, f, x in _nonzero_b_cases(aux, rng):
        collapsed = Hyperplane(coeffs)
        combs = [sigma._aux_comb(aux, c) for c in commitments]
        got = sigma._aux_product(
            aux, collapsed.a0 * e + x, f,
            [(comb, a * e) for comb, a in zip(combs, collapsed.linear)])
        assert got == _reference_nonzero_b(aux, commitments, collapsed,
                                           e, f, x), (coeffs, e, f, x)


def test_aux_table_holds_every_window_digit():
    # the window is one byte: row k of the fixed-base table holds
    # base^(d * 256^k) for every digit d < 256, in as many rows as an
    # exponent below q has bytes
    params, _ = make_toy_params()
    for aux in (params.aux, hierarchy._build_aux_group((1 << 127) - 1)):
        rows = sigma._gh_table(aux)
        assert len(rows) == -(-aux.q.bit_length() // 8)
        assert len(rows) == (4 if aux is params.aux else 16)
        for k, (g_row, h_row) in enumerate(rows):
            for base, row in ((aux.g, g_row), (aux.h, h_row)):
                assert row == tuple(pow(base, d << (8 * k), aux.rho)
                                    for d in range(256)), (base, k)
        # tuples, so a cached table cannot be changed by one caller under
        # another
        assert isinstance(rows, tuple)
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   and all(isinstance(row, tuple) for row in pair)
                   for pair in rows)


def _comb_bases(aux):
    """g, h, 2 and an element of order 2q: rho = k q + 1 with k even on
    both aux groups, so -g has order 2q."""
    assert (aux.rho - 1) // aux.q % 2 == 0
    minus_g = aux.rho - aux.g
    assert pow(minus_g, aux.q, aux.rho) == aux.rho - 1
    return [aux.g, aux.h, 2, minus_g]


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_aux_comb_entry_m_is_the_product_of_its_teeth(make_aux):
    aux = make_aux()
    rho, t = aux.rho, sigma._AUX_TEETH
    d = sigma._comb_columns(aux)
    assert d * t >= aux.q.bit_length() > (d - 1) * t
    for base in _comb_bases(aux):
        comb = sigma._aux_comb(aux, base)
        assert isinstance(comb, tuple) and len(comb) == 1 << t
        teeth = [pow(base, 1 << (d * k), rho) for k in range(t)]
        for m, entry in enumerate(comb):
            want = 1
            for k in range(t):
                if m >> k & 1:
                    want = want * teeth[k] % rho
            assert entry == want, (base, m)


@pytest.mark.parametrize("make_aux", [
    lambda: make_toy_params()[0].aux,                # toy17: 32-bit q
    lambda: hierarchy._build_aux_group((1 << 127) - 1),
], ids=["toy17-q32", "q127"])
def test_comb_product_is_exact_below_2_to_the_d_t(make_aux):
    # exponents are taken as given, so the chain equals plain `pow` on any
    # base, in the order-q subgroup or not: C_i^q on the comb is the
    # subgroup check
    aux = make_aux()
    q, rho = aux.q, aux.rho
    top = 1 << (sigma._comb_columns(aux) * sigma._AUX_TEETH)
    rng = random.Random(aux.q.bit_length() + 3)
    exps = [0, 1, q - 1, q, top - 1, rng.randrange(top)]
    bases = _comb_bases(aux) + [pow(aux.g, rng.randrange(1, q), rho)]
    combs = [sigma._aux_comb(aux, base) for base in bases]
    for base, comb in zip(bases, combs):
        for e in exps:
            assert sigma._comb_product(aux, [(comb, e)]) == \
                pow(base, e, rho), (base, e)
    # g, h and the random element pass the check, -g does not
    assert [sigma._comb_product(aux, [(comb, q)]) == 1
            for comb in combs] == [True, True, pow(2, q, rho) == 1, False,
                                   True]
    # all bases on one chain
    got = sigma._comb_product(aux, list(zip(combs, exps)))
    assert got == _reference_aux_product(aux, 0, 0, bases, exps)
    assert sigma._comb_product(aux, []) == 1


def test_verify_rejects_commitment_of_order_2q():
    # rho = k*q + 1 with k even, so -C_1 has order 2q. Its exponents may
    # not be reduced mod q: the subgroup check has to reject it before any
    # aux product is taken.
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=61)
    q, rho = params.q, params.aux.rho
    assert (rho - 1) // q % 2 == 0
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"m", rng)
    assert verify(params, pk, rl, b"m", sig).accepted
    flipped = rho - sig.commitments[0]
    assert pow(flipped, q, rho) == rho - 1
    c = sig.challenge
    assert pow(flipped, -c % q, rho) != pow(flipped, -c, rho)
    forged = Signature(
        challenge=c, s=sig.s,
        commitments=(flipped,) + sig.commitments[1:],
        commitment_responses=sig.commitment_responses,
        nonzero_proofs=sig.nonzero_proofs, retry=sig.retry,
        rl_version=sig.rl_version)
    assert verify(params, pk, rl, b"m", forged).reason == "MALFORMED"
    # a response out of range still comes first
    top = 1 << params.mask_bits
    assert verify(params, pk, rl, b"m", dataclasses.replace(
        forged, s=(top,) + sig.s[1:])).reason == "RANGE"


# --- constraint collapse ----------------------------------------------------

def test_collapse_singleton_identity():
    q = 1009
    hp = Hyperplane((5, 7, 11))
    assert collapse_constraints([hp], [1], q) == hp


def test_collapse_linearity_on_common_solutions():
    params, _gm = make_mestre8_params()
    q = params.q
    rng = random.Random(37)
    h1 = Hyperplane((1, 2, 3, 4))
    h2 = Hyperplane((5, 6, 7, 8))
    # find x on both planes
    from hrpks.modmath import solve_affine_mod
    x = solve_affine_mod([h1.linear, h2.linear], [-h1.a0, -h2.a0], q,
                         fill=lambda _: rng.randrange(q))
    assert h1.evaluate(x, q) == 0 and h2.evaluate(x, q) == 0
    for _ in range(100):
        g = [rng.randrange(1, q), rng.randrange(1, q)]
        assert collapse_constraints([h1, h2], g, q).evaluate(x, q) == 0


def test_collapse_schwartz_zippel():
    # small q so the 1/q failure rate is observable and bounded
    q = 257
    rng = random.Random(39)
    h1 = Hyperplane((1, 2, 3))
    h2 = Hyperplane((4, 5, 6))
    x = (1, 1)  # h1: 6 != 0 mod 257, h2: 15 != 0
    assert h1.evaluate(x, q) != 0
    zeros = 0
    trials = 10 ** 4
    for _ in range(trials):
        g = [rng.randrange(1, q), rng.randrange(1, q)]
        if collapse_constraints([h1, h2], g, q).evaluate(x, q) == 0:
            zeros += 1
    # expectation is ~ trials/q = 39; allow generous slack
    assert zeros <= 3 * trials // q + 10


def test_collapse_input_validation():
    q = 257
    hp = Hyperplane((1, 2, 3))
    with pytest.raises(ValueError):
        collapse_constraints([hp], [0], q)  # gamma out of [1, q)
    with pytest.raises(ValueError):
        collapse_constraints([hp], [1, 2], q)
    with pytest.raises(ValueError):
        collapse_constraints([], [], q)


# --- completeness across tree shapes ----------------------------------------

def test_completeness_randomized_r2_r8():
    for params, gm, seed in [(*make_small_params(), 41),
                             (*make_mestre8_params(), 43)]:
        rng = random.Random(seed)
        root = new_root()
        depts = [add_department(params, root, rng) for _ in range(3)]
        if params.r == 8:
            depts.append(add_department(params, depts[0], rng))
        members = [join(params, gm, d, f"m{i}", rng)
                   for i, d in enumerate(depts)]
        completed = 0
        for t in range(500):
            di = t % len(depts)
            sk, pk = members[di]
            # revoke one *other* top-level department
            others = [d for d in depts if d.path.split("/")[1]
                      != sk.dept.split("/")[1]]
            rl = empty_rl()
            if t % 3 != 0:
                rl = revoke_group(rl, others[t % len(others)])
            if any(all(hp.evaluate(sk.x, params.q) == 0
                       for hp in e.constraints) for e in rl.groups):
                continue  # rare: key accidentally on the other plane
            msg = f"msg {t}".encode()
            sig = sign(params, sk, pk, rl, msg, rng)
            assert verify(params, pk, rl, msg, sig).accepted
            completed += 1
        assert completed >= 450  # nearly all attempts were signable


def test_statistical_masking_smoke():
    # mean of s_i relative to the mask ceiling sits at 1/2 within 3 sigma
    params, gm = make_small_params(l_s=24)
    rng = random.Random(47)
    root = new_root()
    dept = add_department(params, root, rng)
    sk, pk = join(params, gm, dept, "m", rng)
    scale = 1 << params.mask_bits
    total = 0
    count = 0
    n_sigs = 10 ** 4
    for i in range(n_sigs):
        sig = sign(params, sk, pk, empty_rl(), i.to_bytes(4, "big"), rng)
        for v in sig.s:
            total += v / scale
            count += 1
    mean = total / count
    sigma_mean = (1 / 12) ** 0.5 / count ** 0.5
    assert abs(mean - 0.5) < 3 * sigma_mean


def _craft_key_hitting_zero_collapse():
    """A key off a revoked two-constraint set whose retry-0 collapse still
    evaluates to zero: solve for the key after fixing the list (and hence
    the hash-derived gammas)."""
    from hrpks.modmath import rank_mod, solve_affine_mod
    from hrpks.revocation import rl_hash

    params, gm = make_mestre8_params()
    q = params.q
    rng = random.Random(59)
    root = new_root()
    mine = add_department(params, root, rng, name="mine")
    other = add_department(params, root, rng, name="other")
    line = add_department(params, other, rng, name="line")
    rl = revoke_group(empty_rl(), line)

    g = mine.constraints[0]
    f1, f2 = line.constraints
    rows = [g.linear, f1.linear, f2.linear]
    assert rank_mod(rows, q) == 3  # seed chosen so the rows are independent

    gammas = sigma._derive_gammas(params, rl_hash(rl), 0, 2, retry=0)
    t = -gammas[0] * pow(gammas[1], -1, q) % q
    assert t != 0
    # g(x) = 0, f1(x) = 1, f2(x) = t  =>  collapsed value at retry 0 is
    # gamma1*1 + gamma2*t = 0 while x is off the revoked set
    x = tuple(solve_affine_mod(
        rows, [-g.a0, (1 - f1.a0) % q, (t - f2.a0) % q], q,
        fill=lambda _j: rng.randrange(q)))
    assert g.evaluate(x, q) == 0
    assert f1.evaluate(x, q) == 1 and f2.evaluate(x, q) == t
    collapsed = collapse_constraints([f1, f2], gammas, q)
    assert collapsed.evaluate(x, q) == 0

    from hrpks.curve_fp import msm
    from hrpks.hierarchy import SecretKey
    sk = SecretKey(x=x, member_id="crafted", dept=mine.path)
    pk = PublicKey(point=msm(params.curve, x, params.gens),
                   member_id="crafted", dept=mine.path)
    # certified by the GM, as a key on mine's plane, so verify reaches the
    # proof
    pk = dataclasses.replace(pk, cert=hierarchy.gm_certify(params, gm, pk,
                                                           rng))
    return params, sk, pk, rl, rng


def test_zero_collapse_triggers_retry_then_succeeds():
    params, sk, pk, rl, rng = _craft_key_hitting_zero_collapse()
    sig = sign(params, sk, pk, rl, b"needs a second try", rng)
    assert sig.retry >= 1
    assert verify(params, pk, rl, b"needs a second try", sig).accepted
    # the proofs answer the retry-counted collapse, not the first one
    first = dataclasses.replace(sig, retry=0)
    assert verify(params, pk, rl, b"needs a second try",
                  first).reason == "BAD_CHALLENGE"


def test_retry_exhausted_is_signaled(monkeypatch):
    params, sk, pk, rl, rng = _craft_key_hitting_zero_collapse()
    original = sigma._derive_gammas

    def stuck(params_, rlh, set_index, set_size, retry):
        return original(params_, rlh, set_index, set_size, 0)

    monkeypatch.setattr(sigma, "_derive_gammas", stuck)
    with pytest.raises(RetryExhausted):
        sign(params, sk, pk, rl, b"never works", rng)
    assert sigma.MAX_COLLAPSE_ATTEMPTS == 64


def test_retry_at_the_bound_rejects_malformed(monkeypatch):
    """A signature valid but for its retry counter, which sits at the
    bound sign stops at, rejects MALFORMED; so does every larger counter,
    before anything is collapsed for it."""
    from hrpks.revocation import RevocationList

    params, sk, pk, rl, rng = _craft_key_hitting_zero_collapse()
    bound = sigma.MAX_COLLAPSE_ATTEMPTS
    original = sigma._derive_gammas

    def late(params_, rlh, set_index, set_size, retry):
        # the key's zero collapse below the bound, a nonzero one from there
        return original(params_, rlh, set_index, set_size,
                        0 if retry < bound else 1)

    monkeypatch.setattr(sigma, "_derive_gammas", late)
    with monkeypatch.context() as m:
        m.setattr(sigma, "MAX_COLLAPSE_ATTEMPTS", bound + 1)
        sig = sign(params, sk, pk, rl, b"late", rng)
        assert sig.retry == bound
        assert verify(params, pk, rl, b"late", sig).accepted
    assert verify(params, pk, rl, b"late", sig).reason == "MALFORMED"

    cold = RevocationList(members=rl.members, groups=rl.groups,
                          version=rl.version)
    for retry in range(bound, bound + 100):
        forged = dataclasses.replace(sig, retry=retry)
        assert verify(params, pk, cold, b"late", forged).reason == \
            "MALFORMED"
    assert not cold._collapse_memo


def test_collapse_memo_matches_a_direct_collapse():
    params, gm, rng, root, fin, hr, eng = _toy_world(seed=83)
    small, _ = make_small_params()
    rl = revoke_group(revoke_group(empty_rl(), hr), eng)
    # one list under two q, each retry asked for again once it is stored
    for p in (params, small, params):
        for retry in (0, 1, 0, 1):
            direct = tuple(
                collapse_constraints(
                    entry.constraints,
                    sigma._derive_gammas(p, revocation.rl_hash(rl), j,
                                         len(entry.constraints), retry),
                    p.q)
                for j, entry in enumerate(rl.groups))
            assert sigma._collapse_all(p, rl, retry) == direct


def test_collapse_errors_are_not_kept():
    from hrpks.revocation import ConstraintSet, RevocationList

    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=85)
    sk, pk = join(params, gm, fin, "alice", rng)
    sig = sign(params, sk, pk, revoke_group(empty_rl(), hr), b"m", rng)
    # a wide plane beside HR (mixed widths) or alone (one width that is
    # not r + 1): verify first meets it in the collapse; sign's revoked-set
    # check stops at HR, which the key is off, or at the wide plane alone
    wide = Hyperplane((1, 2, 3, 4))
    for planes in ((HR, wide), (wide,)):
        bad = RevocationList(groups=(ConstraintSet(
            path="/hr", constraints=planes),), version=sig.rl_version)
        for _ in range(2):
            assert verify(params, pk, bad, b"m", sig).reason == "MALFORMED"
            with pytest.raises(ValueError):
                sign(params, sk, pk, bad, b"m", rng)
        assert not bad._collapse_memo


# --- transcript binding -----------------------------------------------------

def _mutate_doc(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, prefix + (i,))
    else:
        yield prefix, node


def test_single_field_mutation_flips_to_reject():
    params, gm, rng, root, fin, hr, eng = _toy_world(seed=51)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(revoke_group(empty_rl(), hr), eng)
    msg = b"the signed message"
    sig = sign(params, sk, pk, rl, msg, rng)
    assert verify(params, pk, rl, msg, sig).accepted

    doc = json.loads(serial.serialize_artifact("signature", sig))
    mutated_fields = 0
    for path, value in list(_leaf_paths(doc)):
        if path[0] in ("kind", "version"):
            continue  # format framing, not signature content
        fresh = json.loads(serial.serialize_artifact("signature", sig))
        assert isinstance(value, str)
        if value.lstrip("-").isdigit():
            _mutate_doc(fresh, path, str(int(value) + 1))
        else:
            _mutate_doc(fresh, path, value + "x")
        tampered = serial.deserialize_artifact(json.dumps(fresh))
        res = verify(params, pk, rl, msg, tampered)
        assert not res.accepted, f"mutation at {path} still accepted"
        mutated_fields += 1
    # c, 2x s, 2x C, 2x st, 2x proofs x 2 fields (sw, su), retry,
    # rl_version: every wire field of the signature
    assert mutated_fields == 13

    # input-side mutations
    assert not verify(params, pk, rl, msg + b"!", sig).accepted
    moved = PublicKey(point=pk.point, member_id="allce", dept=pk.dept,
                      cert=pk.cert)
    assert not verify(params, moved, rl, msg, sig).accepted
    moved2 = PublicKey(point=pk.point, member_id=pk.member_id, dept="/hr",
                       cert=pk.cert)
    assert not verify(params, moved2, rl, msg, sig).accepted
    other_pk = PublicKey(point=params.gens[0], member_id=pk.member_id,
                         dept=pk.dept, cert=pk.cert)
    assert not verify(params, other_pk, rl, msg, sig).accepted
    params_b, _ = make_toy_params(seed=777)
    assert not verify(params_b, pk, rl, msg, sig).accepted


def test_structural_rejections():
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=57)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    sig = sign(params, sk, pk, rl, b"m", rng)

    def variant(**kw):
        fields = dict(challenge=sig.challenge, s=sig.s,
                      commitments=sig.commitments,
                      commitment_responses=sig.commitment_responses,
                      nonzero_proofs=sig.nonzero_proofs, retry=sig.retry,
                      rl_version=sig.rl_version)
        fields.update(kw)
        return Signature(**fields)

    # wrong vector lengths
    assert verify(params, pk, rl, b"m",
                  variant(s=sig.s[:1])).reason == "MALFORMED"
    assert verify(params, pk, rl, b"m",
                  variant(nonzero_proofs=())).reason == "MALFORMED"
    assert verify(params, pk, rl, b"m",
                  variant(commitments=sig.commitments[:1])).reason == \
        "MALFORMED"
    # commitment outside the order-q subgroup
    bad_c = 2
    while pow(bad_c, params.q, params.aux.rho) == 1:
        bad_c += 1
    assert verify(params, pk, rl, b"m",
                  variant(commitments=(bad_c,) + sig.commitments[1:])
                  ).reason == "MALFORMED"
    # a retry counter one off: other gammas, other collapsed commitments
    assert verify(params, pk, rl, b"m",
                  variant(retry=sig.retry + 1)).reason == "BAD_CHALLENGE"
    # commitments present although the list has no groups
    sig_plain = sign(params, sk, pk, empty_rl(), b"m", rng)
    stuffed = Signature(challenge=sig_plain.challenge, s=sig_plain.s,
                        commitments=(5,), commitment_responses=(1,),
                        nonzero_proofs=(), retry=0, rl_version=0)
    assert verify(params, pk, empty_rl(), b"m", stuffed).reason == "MALFORMED"
    # off-curve public key never raises, only rejects
    from hrpks.curve_fp import ModPoint
    crooked_pk = PublicKey(point=ModPoint(1, 1), member_id="x", dept="/y")
    crooked_pk = dataclasses.replace(
        crooked_pk, cert=hierarchy.gm_certify(params, gm, crooked_pk, rng))
    assert verify(params, crooked_pk, rl, b"m", sig).reason == "MALFORMED"
    # revocation entry with the wrong dimensionality rejects cleanly too
    from hrpks.revocation import ConstraintSet, RevocationList
    wide = RevocationList(
        members=rl.members,
        groups=(ConstraintSet(path=rl.groups[0].path,
                              constraints=(Hyperplane((1, 2, 3, 4, 5)),)),),
        version=rl.version)
    assert verify(params, pk, wide, b"m", sig).reason == "MALFORMED"
    # a hyperplane nonzero as integers whose linear part is zero mod q:
    # no collapse exists, for the verifier or the signer
    flat = RevocationList(
        members=rl.members,
        groups=(ConstraintSet(path=rl.groups[0].path,
                              constraints=(Hyperplane((1, params.q, 0)),)),),
        version=rl.version)
    assert verify(params, pk, flat, b"m", sig).reason == "MALFORMED"
    with pytest.raises(InvariantError):
        sign(params, sk, pk, flat, b"m", rng)


def test_rl_differing_in_one_revoked_coefficient_rejects():
    # the same list version, one hyperplane coefficient moved: the list
    # hash and the rebuilt collapsed commitment both change
    from hrpks.revocation import ConstraintSet, RevocationList

    params, gm, rng, root, fin, hr, eng = _toy_world(seed=59)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(revoke_group(empty_rl(), hr), eng)
    sig = sign(params, sk, pk, rl, b"m", rng)
    assert verify(params, pk, rl, b"m", sig).accepted
    entry = rl.groups[1]
    coeffs = entry.constraints[0].coeffs
    moved = RevocationList(
        members=rl.members,
        groups=(rl.groups[0], ConstraintSet(
            path=entry.path,
            constraints=(Hyperplane(coeffs[:1] + ((coeffs[1] + 1)
                                                  % params.q,)
                                    + coeffs[2:]),))),
        version=rl.version)
    assert verify(params, pk, moved, b"m", sig).reason == "BAD_CHALLENGE"


def test_forged_random_transcripts_rejected():
    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=53)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(empty_rl(), hr)
    bound = 1 << params.mask_bits
    q, rho = params.q, params.aux.rho
    for trial in range(100):
        forged = Signature(
            challenge=rng.randrange(1 << params.l_c),
            s=tuple(rng.randrange(bound) for _ in range(params.r)),
            commitments=tuple(pow(params.aux.g, rng.randrange(q), rho)
                              for _ in range(params.r)),
            commitment_responses=tuple(rng.randrange(q)
                                       for _ in range(params.r)),
            nonzero_proofs=(sigma.NonzeroProof(
                sw=rng.randrange(q), su=rng.randrange(q)),),
            retry=0, rl_version=rl.version)
        assert not verify(params, pk, rl, b"forged", forged).accepted


def _q127_world(curve_id, seed):
    """A catalog curve mod TOY_P with q = 2^127 - 1 and r = its number of
    generators, a signer in /mine and revoked sets of one constraint up to
    min(r - 1, 3) constraints."""
    rng = random.Random(seed)
    params, gm = quiet_setup(curve_id, TOY_P, MERSENNE_127, rng)
    r = params.r
    root = new_root()
    mine = add_department(params, root, rng, name="mine")
    sk, pk = join(params, gm, mine, "signer", rng)
    rl = revoke_group(empty_rl(), add_department(params, root, rng))
    node = add_department(params, root, rng)
    for _ in range(min(r - 1, 3)):
        rl = revoke_group(rl, node)
        if node.level < r - 1:
            node = add_department(params, node, rng)
    return params, sk, pk, rl


def _oracle_world(kind):
    if kind == "toy17-q32":
        params, gm, rng, root, fin, hr, eng = _toy_world(seed=91)
        sk, pk = join(params, gm, fin, "alice", rng)
        return params, sk, pk, revoke_group(revoke_group(empty_rl(), hr), eng)
    if kind == "retry":
        params, sk, pk, rl, _rng = _craft_key_hitting_zero_collapse()
        return params, sk, pk, rl
    if kind == "empty-rl":
        params, sk, pk, _rl = _q127_world("mestre8", seed=95)
        return params, sk, pk, empty_rl()
    return _q127_world({"q127-r2": "toy17", "q127-r8": "mestre8"}[kind],
                       seed=93)


@pytest.mark.parametrize("kind", ["toy17-q32", "q127-r2", "q127-r8",
                                  "empty-rl", "retry"])
def test_sign_announcements_are_verify_equations_at_c0(kind, monkeypatch):
    # `sign` makes R, C_i, A_i and B_j from its openings; `_rebuild_challenge`
    # (verify's equations) at c = 0 with the nonces as responses is the oracle
    params, sk, pk, rl = _oracle_world(kind)
    q, aux, msg, seed = params.q, params.aux, b"oracle", 97
    hashed = []
    original = sigma._challenge

    def record(*args):
        hashed.append(args)
        return original(*args)

    monkeypatch.setattr(sigma, "_challenge", record)
    sig = sign(params, sk, pk, rl, msg, random.Random(seed))
    assert (sig.retry > 0) == (kind == "retry")
    assert bool(sig.commitments) == (kind != "empty-rl")

    # replay sign's draws: masks, then (t_i, u_i) per coordinate, then
    # (kw_j, ku_j) per revoked set
    rng = random.Random(seed)
    mask_top = (1 << params.mask_bits) - (1 << (q.bit_length() + params.l_c))
    ks = [rng.randrange(mask_top) for _ in range(params.r)]
    ts, us = [], []
    for _ in sig.commitments:
        ts.append(rng.randrange(q))
        us.append(rng.randrange(q))
    nonces = [sigma.NonzeroProof(sw=rng.randrange(q), su=rng.randrange(q))
              for _ in rl.groups]
    assert sig.s == tuple(k + sig.challenge * x for k, x in zip(ks, sk.x))
    assert sig.commitments == tuple(
        pow(aux.g, x, aux.rho) * pow(aux.h, t, aux.rho) % aux.rho
        for x, t in zip(sk.x, ts))

    collapsed = sigma._collapse_all(params, rl, sig.retry)
    combs = [sigma._aux_comb(aux, c_i) for c_i in sig.commitments]
    c = sigma._rebuild_challenge(params, pk, revocation.rl_hash(rl),
                                 sig.retry, collapsed, 0, ks,
                                 sig.commitments, combs, us, nonces, msg)
    assert c == sig.challenge
    signed, oracle = hashed
    names = ("params", "pk", "rlh", "retry", "R", "C", "A", "B", "message")
    for i, name in enumerate(names):
        got, want = signed[i], oracle[i]
        if name in ("C", "A", "B"):  # sign hands lists, the oracle tuples
            got, want = list(got), list(want)
        assert got == want, name
    assert len(signed[6]) == len(sig.commitments)
    assert len(signed[7]) == len(rl.groups)
    assert verify(params, pk, rl, msg, sig).accepted


@pytest.mark.parametrize("kind", ["toy17-q32", "q127-r8"])
def test_verify_takes_no_fixed_base_product(kind, monkeypatch):
    # verify checks each A_i and B_j as one `_aux_product` with C_i among
    # its terms; only sign and `pedersen_commit` take g^a h^b on its own
    params, sk, pk, rl = _oracle_world(kind)
    sig = sign(params, sk, pk, rl, b"one chain", random.Random(7))
    assert sig.nonzero_proofs
    real_product, calls = sigma._aux_product, []

    def terms_only(aux, a, b, terms=()):
        if not terms:
            raise AssertionError("verify took a fixed-base-only product")
        calls.append(len(terms))
        return real_product(aux, a, b, terms)

    monkeypatch.setattr(sigma, "_aux_product", terms_only)
    assert verify(params, pk, rl, b"one chain", sig).accepted
    assert len(calls) == params.r + len(rl.groups)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: a key coordinate shifted by a generator order keeps "
    "the certified point, lies off every revoked plane and keeps the "
    "responses in range"))
def test_generator_order_shift_is_rejected(monkeypatch):
    # preconditions fail through pytest.warns and pytest.fail, which the
    # xfail does not absorb; only the final verdict is the known defect
    with pytest.warns(UserWarning, match="orders"):
        params, gm = hierarchy.setup("toy17", TOY_P, TOY_P,
                                     random.Random(12345))
    rng = random.Random(71)
    fin = new_root().attach("financial", FINANCIAL)
    sk, pk = join(params, gm, fin, "mallory", rng)
    if not hierarchy.verify_cert(params, pk):
        pytest.fail("the member's certificate does not verify")
    rl = revoke_group(empty_rl(), fin)
    n = point_order(params.curve, params.gens[0])  # p + 1 on toy17
    shifted = dataclasses.replace(sk, x=(sk.x[0] + n,) + sk.x[1:])
    real = sigma.pedersen_commit
    monkeypatch.setattr(
        sigma, "pedersen_commit",
        lambda params, value, randomness: real(params, value % params.q,
                                               randomness))
    sig = sign(params, shifted, pk, rl, b"shifted", rng)
    assert not verify(params, pk, rl, b"shifted", sig).accepted


def test_uncertified_key_in_a_revoked_department_is_rejected():
    params, _gm, rng, _root, _fin, hr, _eng = _toy_world(seed=141)
    rl = revoke_group(empty_rl(), hr)
    x = tuple(rng.randrange(params.q) for _ in range(params.r))
    if HR.evaluate(x, params.q) == 0:
        pytest.fail("the drawn key lies on HR's plane")
    sk = hierarchy.SecretKey(x=x, member_id="mallory", dept=hr.path)
    pk = PublicKey(point=params.gens_msm(x), member_id="mallory",
                   dept=hr.path)
    if hierarchy.verify_cert(params, pk):
        pytest.fail("the uncertified key has a valid certificate")
    sig = sign(params, sk, pk, rl, b"uncertified", rng)
    assert verify(params, pk, rl, b"uncertified", sig).reason == \
        "UNCERTIFIED"


def test_keys_without_their_own_certificate_are_uncertified():
    # the GM's key has no certificate, and a member's certificate does not
    # vouch for another member id, though both signatures are sound proofs
    params, gm, rng, _root, fin, _hr, _eng = _toy_world(seed=145)
    sk00, m00 = join(params, gm, fin, "m00", rng)
    sig = sign(params, gm, params.gm_pub, empty_rl(), b"gm", rng)
    assert sigma._verify_proof(params, params.gm_pub, empty_rl(), b"gm",
                               sig).accepted
    assert verify(params, params.gm_pub, empty_rl(), b"gm",
                  sig).reason == "UNCERTIFIED"
    sk01 = hierarchy.SecretKey(x=sk00.x, member_id="m01", dept=fin.path)
    m01 = dataclasses.replace(m00, member_id="m01")
    sig = sign(params, sk01, m01, empty_rl(), b"m01", rng)
    assert sigma._verify_proof(params, m01, empty_rl(), b"m01",
                               sig).accepted
    assert verify(params, m01, empty_rl(), b"m01", sig).reason == \
        "UNCERTIFIED"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: h = g^e with a public e, so the nonzero proof opens "
    "g in base (D_j, h) at v_j = 0 with w = 1 and y = 1/e - tau_j"))
def test_nonzero_proof_at_zero_value_is_rejected():
    params, gm, rng, _root, _fin, hr, _eng = _toy_world(seed=143)
    q, aux, msg = params.q, params.aux, b"log_g h"
    sk, pk = join(params, gm, hr, "mallory", rng)
    rl = revoke_group(empty_rl(), hr)
    try:
        sign(params, sk, pk, rl, msg, rng)
        pytest.fail("honest sign did not refuse the revoked member")
    except SignerRevoked:
        pass
    e = sigma.hash_to_challenge(hierarchy.H_DERIVE_TAG, [aux.rho, aux.g],
                                q.bit_length() - 1) + 2
    if pow(aux.g, e, aux.rho) != aux.h:
        pytest.fail("h is not g^e for the derivation's e")
    if not hierarchy.verify_cert(params, pk):
        pytest.fail("the member's certificate does not verify")

    # sign's draws and announcements at retry 0, with v = f(x) = 0
    mask_top = (1 << params.mask_bits) - (1 << (q.bit_length() + params.l_c))
    ks = [rng.randrange(mask_top) for _ in range(params.r)]
    ts = [rng.randrange(q) for _ in range(params.r)]
    us = [rng.randrange(q) for _ in range(params.r)]
    commitments = [pedersen_commit(params, x, t) for x, t in zip(sk.x, ts)]
    announcements = [sigma._aux_product(aux, k, u) for k, u in zip(ks, us)]
    (collapsed,) = sigma._collapse_all(params, rl, 0)
    if collapsed.evaluate(sk.x, q) != 0:
        pytest.fail("the member's key lies off the collapsed plane")
    tau = sum(a * t for a, t in zip(collapsed.linear, ts)) % q
    kw, ku = rng.randrange(q), rng.randrange(q)
    bs = [sigma._aux_product(aux, 0, tau * kw + ku)]
    c = sigma._challenge(params, pk, revocation.rl_hash(rl), 0,
                         params.gens_msm(ks), commitments, announcements, bs,
                         msg)
    proof = sigma.NonzeroProof(sw=(kw + c) % q,
                               su=(ku + c * (pow(e, -1, q) - tau)) % q)
    sig = Signature(challenge=c,
                    s=tuple(k + c * x for k, x in zip(ks, sk.x)),
                    commitments=tuple(commitments),
                    commitment_responses=tuple(
                        (u + c * t) % q for u, t in zip(us, ts)),
                    nonzero_proofs=(proof,), retry=0, rl_version=rl.version)
    assert not verify(params, pk, rl, msg, sig).accepted


def test_sign_caches_the_key_check_per_secret_key(monkeypatch):
    import gc

    from hrpks import hierarchy

    params, gm, rng, root, fin, hr, _eng = _toy_world(seed=131)
    joined, pk = join(params, gm, fin, "a", rng)
    sk2, pk2 = join(params, gm, hr, "b", rng)
    calls = []
    real = hierarchy.msm

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(hierarchy, "msm", counting)
    sign(params, joined, pk, empty_rl(), b"zero", rng)
    assert len(calls) == 1  # join recorded the match: commitment only
    # an equal key from elsewhere (a file, say) is checked once
    sk = hierarchy.SecretKey(x=joined.x, member_id="a", dept=fin.path)
    del joined
    gc.collect()
    sign(params, sk, pk, empty_rl(), b"one", rng)
    assert len(calls) == 3  # key check and commitment
    sign(params, sk, pk, empty_rl(), b"two", rng)
    assert len(calls) == 4  # commitment only
    # a cached match never vouches for another pair
    with pytest.raises(ValueError, match="does not match"):
        sign(params, sk, pk2, empty_rl(), b"x", rng)
    with pytest.raises(ValueError, match="does not match"):
        sign(params, sk2, pk, empty_rl(), b"x", rng)
    other, _ = make_small_params()  # r = 2, other generators
    with pytest.raises(ValueError, match="does not match"):
        sign(other, sk, pk, empty_rl(), b"x", rng)
    sign(params, sk, pk, empty_rl(), b"three", rng)
    # the cache holds secret keys weakly
    assert sk in hierarchy._KEY_MATCHES
    before = len(hierarchy._KEY_MATCHES)
    del sk
    gc.collect()
    assert len(hierarchy._KEY_MATCHES) == before - 1


def test_sign_and_verify_make_exact_pow_and_hash_counts(monkeypatch):
    # noise-free costs beside the timings: sign inverts all v_j at once
    # and a list's gammas are hashed once; sign makes one aux product per
    # C_i, A_i and B_j and no comb, verify one comb per C_i, which also decides
    # C_i^q = 1 with no `pow`, and one product per A_i and B_j
    params, gm, rng, _root, fin, hr, eng = _toy_world(seed=151)
    sk, pk = join(params, gm, fin, "alice", rng)
    rl = revoke_group(revoke_group(empty_rl(), hr), eng)
    r, m = params.r, len(rl.groups)
    empty_sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    assert hierarchy.verify_cert(params, pk)  # verify reads a kept verdict
    exponents, hashes, products, combs = [], [], [], []
    real_hash, real_product = sigma.hash_to_challenge, sigma._aux_product
    real_comb = sigma._aux_comb

    def counting_pow(*args):
        exponents.append(args[1])
        return pow(*args)

    def counting_hash(*args):
        hashes.append(args[0])
        return real_hash(*args)

    def counting_product(*args):
        products.append(args[0])
        return real_product(*args)

    def counting_comb(*args):
        combs.append(args[1])
        return real_comb(*args)

    monkeypatch.setattr(sigma, "pow", counting_pow, raising=False)
    monkeypatch.setattr(sigma, "hash_to_challenge", counting_hash)
    monkeypatch.setattr(sigma, "_aux_product", counting_product)
    monkeypatch.setattr(sigma, "_aux_comb", counting_comb)

    def counts(run):
        for kept in (exponents, hashes, products, combs):
            kept.clear()
        result = run()
        return result, list(exponents), len(hashes), len(products), \
            list(combs)

    sig, *cold = counts(lambda: sign(params, sk, pk, rl, b"m", rng))
    assert cold == [[-1], 3, 2 * r + m, []]
    sig, *warm = counts(lambda: sign(params, sk, pk, rl, b"m", rng))
    assert warm == [[-1], 1, 2 * r + m, []]
    result, *checked = counts(lambda: verify(params, pk, rl, b"m", sig))
    assert result.accepted
    assert checked == [[], 1, r + m, list(sig.commitments)]
    result, *bare = counts(
        lambda: verify(params, pk, empty_rl(), b"m", empty_sig))
    assert result.accepted and bare == [[], 1, 0, []]


def test_sign_past_three_sets_inverts_once_and_reads_the_collapse(
        monkeypatch):
    # m = 3 sets, one two planes deep, the key off all of them: one
    # pow(., -1, q) for every v_j, 2r + m aux products, and, once the
    # collapse is kept on the list, only the m collapsed hyperplanes are
    # evaluated at the key, not the planes of the sets
    params, sk, pk, (w, _x, _y), rng = _mestre8_key_under_two_levels(71)
    rl = empty_rl()
    for dept in (w, add_department(params, w, rng, name="a"),
                 add_department(params, new_root(), rng, name="v")):
        rl = revoke_group(rl, dept)
    r, m = params.r, len(rl.groups)
    assert m == 3 and sum(len(g.constraints) for g in rl.groups) == 4
    sign(params, sk, pk, rl, b"cold", rng)
    inversions, products, evaluated = [], [], []
    real_product, real_evaluate = sigma._aux_product, Hyperplane.evaluate

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inversions.append(mod)
        return pow(base, exp, mod)

    def counting_product(*args):
        products.append(args[0])
        return real_product(*args)

    def counting_evaluate(hp, *args):
        evaluated.append(hp)
        return real_evaluate(hp, *args)

    monkeypatch.setattr(sigma, "pow", counting_pow, raising=False)
    monkeypatch.setattr(sigma, "_aux_product", counting_product)
    monkeypatch.setattr(Hyperplane, "evaluate", counting_evaluate)
    sig = sign(params, sk, pk, rl, b"warm", rng)
    assert sig.retry == 0 and len(sig.nonzero_proofs) == m
    assert inversions == [params.q]
    assert len(products) == 2 * r + m
    assert evaluated == list(sigma._collapse_all(params, rl, 0))
    assert verify(params, pk, rl, b"warm", sig).accepted


def test_sign_and_verify_make_exact_curve_inversion_counts(monkeypatch):
    # every inversion mod p is a pow(v, -1, p) in curve_fp; one per level
    # of summing rows, and one for the affine result. At r = 8 a warm sign
    # sums 8 comb rows in 3 levels, and a warm verify sums those and the
    # key's comb row in 4; a key's first verify also builds its table, a
    # normalisation and t - 1 levels of subset sums for t = 4 teeth
    params, gm = quiet_setup("mestre8", MERSENNE_127, MERSENNE_89,
                             random.Random(173))
    assert params.r == 8 and params.p.bit_length() == 127
    d = -(-params.mask_bits // curve_fp.COMB_TEETH)
    assert (d, -(-params.l_c // d)) == (27, 4)
    rng = random.Random(179)
    sk, pk = join(params, gm, add_department(params, new_root(), rng),
                  "alice", rng)
    inversions = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inversions.append(mod)
        return pow(base, exp, mod)
    monkeypatch.setattr(curve_fp, "pow", counting_pow, raising=False)
    # join built the system's table and recorded the key match: sign is warm
    sig = sign(params, sk, pk, empty_rl(), b"m", rng)
    assert inversions == [params.p] * 4
    assert hierarchy.verify_cert(params, pk)  # verify reads a kept verdict
    curve_fp._key_table.cache_clear()
    for expected in (4 + 5, 5):  # the key's first verify, then a warm one
        inversions.clear()
        assert verify(params, pk, empty_rl(), b"m", sig).accepted
        assert inversions == [params.p] * expected


def test_cert_check_makes_exact_chain_and_call_counts(monkeypatch):
    # a cold check runs -c * GM as c * (-GM) on a key comb of -GM in the
    # system comb's columns, so its chain is ceil(mask_bits / t) columns,
    # not the l_c + 1 digits of c's NAF; a warm check is a lookup that
    # loads and hashes nothing
    params, gm, rng, _root, fin, _hr, _eng = _toy_world(seed=161)
    _sk, pk = join(params, gm, fin, "alice", rng)
    bob_sk, bob = join(params, gm, fin, "bob", rng)
    hierarchy._CERT_VERDICTS.clear()
    assert hierarchy.verify_cert(params, bob)  # both tables built
    doublings, msms, hashes, loads = [], [], [], []
    real_double, real_msm = curve_fp._jac_double, hierarchy.msm
    real_hash, real_load = sigma.hash_to_challenge, serial.deserialize_artifact

    def counting_double(*args):
        doublings.append(1)
        return real_double(*args)

    def counting_msm(curve, scalars, points, **kwargs):
        msms.append((kwargs["fixed"], len(points)))
        return real_msm(curve, scalars, points, **kwargs)

    def counting_hash(*args):
        hashes.append(args[0])
        return real_hash(*args)

    def counting_load(*args, **kwargs):
        loads.append(1)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(curve_fp, "_jac_double", counting_double)
    monkeypatch.setattr(hierarchy, "msm", counting_msm)
    monkeypatch.setattr(sigma, "hash_to_challenge", counting_hash)
    monkeypatch.setattr(serial, "deserialize_artifact", counting_load)
    assert hierarchy.verify_cert(params, pk) is True
    d = -(-params.mask_bits // curve_fp.COMB_TEETH)
    assert d == 15 and params.l_c + 1 == 32
    assert len(doublings) == d
    # the comb over G_1..G_r and one key term, the GM's
    r = params.r
    assert msms == [(r, r + 1)] and len(hashes) == 1 and len(loads) == 1
    for warm in (pk, dataclasses.replace(pk, cert=bytes(pk.cert))):
        doublings.clear(), msms.clear(), hashes.clear(), loads.clear()
        assert hierarchy.verify_cert(params, warm) is True
        assert doublings == msms == hashes == loads == []
    # a member's verify runs -c * pk as c * (-pk) on a comb of -pk alone
    # in the same d columns: once that table is built, its chain is d
    # doublings too, not l_c + 1
    sig = sign(params, bob_sk, bob, empty_rl(), b"m", rng)
    assert verify(params, bob, empty_rl(), b"m", sig).accepted
    doublings.clear(), msms.clear()
    assert verify(params, bob, empty_rl(), b"m", sig).accepted
    assert msms == [(r, r + 1)] and len(doublings) == d


@pytest.mark.parametrize("make", [make_toy_params, make_mestre8_params])
def test_key_comb_matches_the_naf_path(make):
    # a verify's -c * pk, the GM's in a certificate check as a member's,
    # runs as c * (-pk) on a cached comb of -pk alone; cold or warm it
    # sums to what a NAF row of -c gives, and c = 0 adds no row and
    # builds no table
    params, gm = make()
    rng = random.Random(167)
    _sk, pk = join(params, gm, add_department(params, new_root(), rng),
                   "alice", rng)
    cache, top = curve_fp._key_table, 1 << params.mask_bits
    for key in (params.gm_pub.point, pk.point):
        for c in (0, 1, (1 << params.l_c) - 1,
                  rng.randrange(1 << params.l_c)):
            for s in ([0] * params.r, [top - 1] * params.r,
                      [rng.randrange(top) for _ in range(params.r)]):
                naf = msm(params.curve, [*s, -c], params.gens + (key,),
                          fixed=params.r, fixed_bits=params.mask_bits)
                cache.cache_clear()
                for state in ("cold", "warm"):
                    assert params.gens_msm(s, ((-c, key),)) == naf, \
                        (key, c, s, state)
                    assert cache.cache_info().currsize == (c != 0)
                assert cache.cache_info().misses == (c != 0)
    # a copy of the key loaded afresh, as every CLI command loads one, hits
    twin = serial.deserialize_artifact(serial.serialize_artifact("cert", pk))
    assert twin == pk and twin.point is not pk.point
    hits = cache.cache_info().hits
    assert params.gens_msm(s, ((-c, twin.point),)) == naf
    assert cache.cache_info()[:2] == (hits + 1, 1)  # (hits, misses)
    # the LRU stays within its size, the least recently used going first
    size = curve_fp.KEY_CACHE_SIZE
    keys = [msm(params.curve, [k], [pk.point]) for k in range(2, size + 7)]
    for key in keys:
        assert params.gens_msm(s, ((-1, key),)) == \
            msm(params.curve, [*s, -1], params.gens + (key,))
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().currsize == size
    misses = cache.cache_info().misses
    params.gens_msm(s, ((-1, keys[-1]),))
    params.gens_msm(s, ((-1, keys[0]),))
    assert cache.cache_info().misses == misses + 1
    # an off-curve point raises and caches nothing
    cache.cache_clear()
    off = ModPoint(pk.point.x, (pk.point.y + 1) % params.p)
    with pytest.raises(ValueError, match="not on the curve"):
        params.gens_msm(s, ((-1, off),))
    assert cache.cache_info().currsize == 0
