"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen (they are also captured in the normal report).
"""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from hrpks import modmath, serial, sigma
from hrpks.assumption_lab import order_report, relation_search
from hrpks.curve_fp import (ModPoint, add_fp, msm, on_curve_fp, point_order,
                            reduce_curve, reduce_point, scalar_mul_fp)
from hrpks.curve_q import RationalPoint, catalog, scalar_mul_q
from hrpks.errors import SignerRevoked
from hrpks.hierarchy import Hyperplane, add_department, join, new_root
from hrpks.revocation import coalesce, empty_rl, revoke_group, revoke_member
from hrpks.sigma import Signature, sign, verify

from conftest import TOY_P, make_mestre8_params, make_toy_params

F = Fraction


@contextlib.contextmanager
def criterion(num, desc):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num}: PASS - {desc} ({elapsed:.2f}s)")


P1_TABLE = [
    (F(-2), F(3)),
    (F(8), F(-23)),
    (F(19, 25), F(522, 125)),
    (F(752, 529), F(-54239, 12167)),
    (F(174598, 32761), F(76943337, 5929741)),
    (F(-4471631, 3027600), F(-19554357097, 5268024000)),
    (F(12870778678, 76545001), F(1460185427995887, 669692213749)),
]
P1_TABLE_MOD = [
    (3123456771, 3), (8, 3123456750), (2748641961, 2148938264),
    (743961350, 253378136), (1176218259, 691053659),
    (2180670293, 2607412353), (128580328, 2472269909),
]
P2_TABLE = [
    (F(2), F(5)),
    (F(-64, 25), F(59, 125)),
    (F(5023, 3249), F(-842480, 185193)),
    (F(38194304, 87025), F(-236046706033, 25672375)),
    (F(279124379042, 111229587121), F(212464088270704525, 37096290830311831)),
    (F(-22792283822695031, 9224204064998400),
     F(1225613646951190271274203, 885917648237503131648000)),
    (F(17206060394388022298882, 15290847667056681428641),
     F(-8116122042886721305956245646487115,
       1890807614539313964919688531912561)),
]
P2_TABLE_MOD = [
    (2, 5), (2248888874, 2923555540), (2602399966, 2884651714),
    (1188080486, 863393529), (842290081, 2500317348),
    (2145964735, 2073955284), (759645483, 758431348),
]

FINANCIAL = Hyperplane((123, 48, 79))
HR = Hyperplane((752, 36, 139))
ENGINEERING = Hyperplane((937, 58, 32))


def test_criterion_1_rational_multiples():
    with criterion(1, "seven rational multiples of P1, exact"):
        started = time.perf_counter()
        cq = catalog("toy17")
        p1 = cq.generators[0]
        for n, (x, y) in enumerate(P1_TABLE, start=1):
            assert scalar_mul_q(cq, n, p1) == RationalPoint(x, y)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_reduced_multiples_of_p1():
    with criterion(2, "mod-p reductions of P1 multiples, both directions"):
        started = time.perf_counter()
        cq = catalog("toy17")
        c = reduce_curve(cq, TOY_P)
        p1 = cq.generators[0]
        g1 = reduce_point(c, p1)
        for n in range(1, 8):
            want = ModPoint(*P1_TABLE_MOD[n - 1])
            assert reduce_point(c, scalar_mul_q(cq, n, p1)) == want
            assert scalar_mul_fp(c, n, g1) == want
        assert time.perf_counter() - started < 1.0


def test_criterion_3_p2_table_both_columns():
    with criterion(3, "P2 table: rational and reduced columns"):
        started = time.perf_counter()
        cq = catalog("toy17")
        c = reduce_curve(cq, TOY_P)
        p2 = cq.generators[1]
        g2 = reduce_point(c, p2)
        for n in range(1, 8):
            x, y = P2_TABLE[n - 1]
            assert scalar_mul_q(cq, n, p2) == RationalPoint(x, y)
            want = ModPoint(*P2_TABLE_MOD[n - 1])
            assert reduce_point(c, scalar_mul_q(cq, n, p2)) == want
            assert scalar_mul_fp(c, n, g2) == want
        assert time.perf_counter() - started < 1.0


def test_criterion_4_key_material_checks():
    with criterion(4, "published key tuples: plane membership and points"):
        p = TOY_P
        # plane congruences, exact integer arithmetic
        assert (48 * 6789 + 79 * 118608156 + 123) % p == 0
        assert (48 * 3257 + 79 * 3083917365 + 123) % p == 0
        # the published first tuple misses its own plane: the source is
        # internally inconsistent and we pin the residue to document it
        assert (48 * 3257 + 79 * 2774256590 + 123) % p == 524452959 != 0

        cq = catalog("toy17")
        c = reduce_curve(cq, p)
        gens = [reduce_point(c, g) for g in cq.generators]
        assert msm(c, [6789, 118608156], gens) == \
            ModPoint(2132129612, 2902520269)

        # both second-coordinate candidates, computed:
        # the published point PK1 matches the published (off-plane) tuple,
        # not the on-plane correction.
        pk1_published_tuple = msm(c, [3257, 2774256590], gens)
        pk1_on_plane_tuple = msm(c, [3257, 3083917365], gens)
        assert pk1_published_tuple == ModPoint(1385928692, 2187054458)
        assert pk1_on_plane_tuple == ModPoint(2298108553, 327407787)
        assert pk1_published_tuple != pk1_on_plane_tuple


def test_criterion_5_end_to_end_scheme():
    with criterion(5, "three-department workflow with both revocation kinds"):
        started = time.perf_counter()
        params, gm = make_toy_params(seed=4001)
        rng = random.Random(4002)
        root = new_root()
        fin = add_department(params, root, rng, name="financial",
                             constraint=FINANCIAL)
        hr = add_department(params, root, rng, name="hr", constraint=HR)
        eng = add_department(params, root, rng, name="engineering",
                             constraint=ENGINEERING)
        alice = join(params, gm, fin, "alice", rng)
        bob = join(params, gm, fin, "bob", rng)
        carol = join(params, gm, hr, "carol", rng)
        dave = join(params, gm, eng, "dave", rng)

        rl = empty_rl()
        kept = {}
        for sk, pk in (alice, bob, carol, dave):
            for i in range(100):
                msg = f"{pk.member_id}:{i}".encode()
                sig = sign(params, sk, pk, rl, msg, rng)
                assert verify(params, pk, rl, msg, sig).accepted
            kept[pk.member_id] = (msg, sig)

        # individual revocation of alice
        rl = revoke_member(rl, alice[1])
        msg, sig = kept["alice"]
        assert verify(params, alice[1], rl, msg, sig).reason == "PK_REVOKED"
        with pytest.raises(SignerRevoked):
            sign(params, alice[0], alice[1], rl, b"again", rng)

        # department revocation of financial
        rl = revoke_group(rl, fin)
        with pytest.raises(SignerRevoked) as exc:
            sign(params, bob[0], bob[1], rl, b"blocked", rng)
        assert exc.value.entry == "/financial"
        for sk, pk in (carol, dave):
            sig = sign(params, sk, pk, rl, b"still fine", rng)
            assert len(sig.nonzero_proofs) == 1
            assert verify(params, pk, rl, b"still fine", sig).accepted
        assert time.perf_counter() - started < 30.0


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaf_paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaf_paths(v, prefix + (i,))
    else:
        yield prefix, node


def test_criterion_6_forgery_resistance():
    with criterion(6, "1000 random forgeries + 1000 field mutations reject"):
        params, gm = make_toy_params(seed=4005)
        rng = random.Random(4006)
        root = new_root()
        fin = add_department(params, root, rng, name="financial",
                             constraint=FINANCIAL)
        hr = add_department(params, root, rng, name="hr", constraint=HR)
        eng = add_department(params, root, rng, name="engineering",
                             constraint=ENGINEERING)
        sk, pk = join(params, gm, fin, "alice", rng)
        rl = revoke_group(revoke_group(empty_rl(), hr), eng)
        msg = b"forgery target"
        # accidental acceptance probability per trial is 2^-l_c = 2^-31
        assert params.l_c == 31

        bound = 1 << params.mask_bits
        q, rho = params.q, params.aux.rho
        rejected = 0
        for _ in range(1000):
            forged = Signature(
                challenge=rng.randrange(1 << params.l_c),
                s=tuple(rng.randrange(bound) for _ in range(params.r)),
                commitments=tuple(pow(params.aux.g, rng.randrange(q), rho)
                                  for _ in range(params.r)),
                commitment_responses=tuple(rng.randrange(q)
                                           for _ in range(params.r)),
                nonzero_proofs=tuple(
                    sigma.NonzeroProof(sw=rng.randrange(q),
                                       su=rng.randrange(q))
                    for _ in range(2)),
                retry=0, rl_version=rl.version)
            if not verify(params, pk, rl, msg, forged).accepted:
                rejected += 1
        assert rejected == 1000

        sig = sign(params, sk, pk, rl, msg, rng)
        assert verify(params, pk, rl, msg, sig).accepted
        doc = json.loads(serial.serialize_artifact("signature", sig))
        paths = [p for p, _ in _leaf_paths(doc)
                 if p[0] not in ("kind", "version")]
        mutations = 0
        i = 0
        while mutations < 1000:
            path = paths[i % len(paths)]
            offset = i // len(paths) + 1
            fresh = json.loads(serial.serialize_artifact("signature", sig))
            node = fresh
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = str(int(node[path[-1]]) + offset)
            tampered = serial.deserialize_artifact(json.dumps(fresh))
            assert not verify(params, pk, rl, msg, tampered).accepted, \
                f"mutation {path}+{offset} accepted"
            mutations += 1
            i += 1


def test_criterion_7_coalescing_semantics():
    with criterion(7, "coalesce: single parent entry, blocked set unchanged"):
        params, gm = make_mestre8_params(seed=4011)
        rng = random.Random(4012)
        root = new_root()
        ops = add_department(params, root, rng, name="ops")
        t0 = add_department(params, ops, rng, name="t0")
        t1 = add_department(params, ops, rng, name="t1")
        lab = add_department(params, root, rng, name="lab")

        rl = revoke_group(revoke_group(empty_rl(), t0), t1)
        out = coalesce(rl, root)
        assert [g.path for g in out.groups] == ["/ops"]
        assert out.groups[0].constraints == ops.constraints
        assert out.version == rl.version + 1

        # 50 sampled member keys; identical sign outcome before and after
        members = []
        for dept, count in ((t0, 15), (t1, 15), (lab, 20)):
            for i in range(count):
                members.append(join(params, gm, dept, f"{dept.path}#{i}", rng))
        assert len(members) == 50

        def outcome(sk, pk, rl_):
            try:
                sig = sign(params, sk, pk, rl_, b"oracle", rng)
            except SignerRevoked:
                return "blocked"
            assert verify(params, pk, rl_, b"oracle", sig).accepted
            return "accepted"

        blocked = 0
        for sk, pk in members:
            before = outcome(sk, pk, rl)
            after = outcome(sk, pk, out)
            assert before == after
            blocked += before == "blocked"
        assert blocked == 30  # every t0/t1 key, nothing from /lab


def test_criterion_8a_order_and_relation_lab():
    with criterion("8a", "orders vs enumeration; search = oracle; "
                         "relations re-verify"):
        started = time.perf_counter()
        # p = 97 enumeration oracle
        from conftest import make_small_params

        params97, _ = make_small_params(seed=4021)
        c97 = params97.curve
        pts = [ModPoint.infinity()]
        for x in range(97):
            for y in range(97):
                if on_curve_fp(c97, ModPoint(x, y)):
                    pts.append(ModPoint(x, y))
        size = len(pts)
        assert size == 103
        for g in params97.gens:
            n = point_order(c97, g)
            assert size % n == 0
            # exact match against iterative order
            acc, m = g, 1
            while not acc.is_infinity:
                acc = add_fp(c97, acc, g)
                m += 1
            assert n == m == 103

        rep = order_report(params97)
        assert rep.orders == (103, 103)

        for bound in (25, 50):
            report = relation_search(params97, bound)
            # definitional oracle: msm on every nonzero vector of the box
            expected = tuple(
                (a, b) for a in range(-bound, bound + 1)
                for b in range(-bound, bound + 1)
                if (a, b) != (0, 0)
                and msm(c97, (a, b), params97.gens).is_infinity)
            assert report.relations == expected
            for vec in report.relations:
                assert msm(c97, vec, params97.gens).is_infinity
        assert time.perf_counter() - started < 60.0


def test_criterion_8b_toy_box_expected_empty():
    """The +-1e5 box around the toy generators holds exactly the relations
    that the lattice geometry predicts, and the lab finds all of them.

    The box cannot be empty. p = 3123456773 is 2 mod 3, so y^2 = x^3 + 17
    is supersingular over F_p with N = p+1 points. P1 has order N, so the
    group is cyclic and P2 = k*P1. The relations {(a, b) : a + b*k = 0 mod N}
    form a lattice of determinant N, and Minkowski puts a nonzero vector of
    sup-norm <= sqrt(N) ~ 55887 inside the box (README, "Acceptance 8b").
    The expected set is derived here without the lab: P1's order from its
    multiples, k by Pohlig-Hellman, then one candidate a per b in the box.
    """
    with criterion("8b", "toy p, B = 1e5: the lab's relations equal the "
                         "lattice prediction (12 vectors, Minkowski-short)"):
        bound = 10 ** 5
        params, _ = make_toy_params(seed=4022)
        started = time.perf_counter()
        report = relation_search(params, bound)
        assert time.perf_counter() - started < 60.0

        curve, (g1, g2) = params.curve, params.gens
        p = params.p
        assert p % 3 == 2  # supersingular: #E(F_p) = p + 1
        n = p + 1
        primes = _prime_factors(n)
        assert math.prod(primes) == n  # squarefree, as Pohlig-Hellman uses
        assert scalar_mul_fp(curve, n, g1).is_infinity
        # P1 has order exactly N, so it generates E(F_p); solve P2 = k*P1
        # in each prime-order projection and glue the residues by CRT.
        k = 0
        for ell in primes:
            cofactor = n // ell
            h1 = scalar_mul_fp(curve, cofactor, g1)
            h2 = scalar_mul_fp(curve, cofactor, g2)
            assert not h1.is_infinity
            acc, k_ell = ModPoint.infinity(), 0
            while acc != h2:
                acc, k_ell = add_fp(curve, acc, h1), k_ell + 1
                assert k_ell < ell
            k += k_ell * cofactor * pow(cofactor, -1, ell)
        k %= n
        assert scalar_mul_fp(curve, k, g1) == g2
        assert n // math.gcd(k, n) == n // 6  # order of P2
        assert n // 6 > bound  # so no single-coordinate relation fits

        expected = set()
        for b in range(-bound, bound + 1):
            a = -b * k % n
            if a > n // 2:
                a -= n
            if abs(a) <= bound and (a, b) != (0, 0):
                expected.add((a, b))
        assert report.relations == tuple(sorted(expected))
        assert not any(report.trivial_flags)
        for vec in report.relations:
            assert msm(curve, vec, params.gens).is_infinity
        assert len(expected) == 12  # ~ 4B^2/N = 12.8
        shortest = min(max(map(abs, v)) for v in expected)
        assert shortest <= math.isqrt(n)  # Minkowski


def _prime_factors(n):
    """Distinct prime factors of n by trial division, smallest first."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return primes


def test_criterion_9_rank28_smoke():
    with criterion(9, "rank-28 curve loads and stays closed mod a 64-bit "
                      "prime over 1e4 operations"):
        cq = catalog("rank28")
        assert cq.a4 == \
            -20067762415575526585033208209338542750930230312178956502
        assert cq.a6 == int(
            "344816117950305564670329856903907203748559443593"
            "19180361266008296291939448732243429")
        p64 = (1 << 64) - 59  # largest 64-bit prime
        assert modmath.is_probable_prime(p64)
        c = reduce_curve(cq, p64)

        rng = random.Random(4031)
        pool = []
        x = 0
        while len(pool) < 24:
            pt = _solve_point(c, rng.randrange(p64))
            if pt is not None:
                pool.append(pt)
        ops = 0
        while ops < 10 ** 4:
            kind = ops % 3
            if kind == 0:
                out = add_fp(c, rng.choice(pool), rng.choice(pool))
            elif kind == 1:
                pt = rng.choice(pool)
                out = add_fp(c, pt, pt)
            else:
                out = scalar_mul_fp(c, rng.randrange(1 << 16),
                                    rng.choice(pool))
            assert on_curve_fp(c, out)
            if not out.is_infinity and len(pool) < 64:
                pool.append(out)
            ops += 1


def _solve_point(curve, x):
    p = curve.p
    b = (curve.a1 * x + curve.a3) % p
    rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
    disc = (b * b + 4 * rhs) % p
    root = modmath.sqrt_mod(disc, p)
    if root is None:
        return None
    y = (-b + root) * pow(2, -1, p) % p
    return ModPoint(x, y)
