import math
import random

import pytest

from hrpks.curve_fp import (CurveFp, ModPoint, add_fp, hasse_interval, msm,
                            neg_fp, on_curve_fp, point_order, reduce_curve,
                            reduce_point, scalar_mul_fp)
from hrpks.curve_q import RationalPoint, catalog, scalar_mul_q
from hrpks.errors import InvariantError

from conftest import make_mestre8_params, make_toy_params

TOY_P = 3123456773

# reductions of n*P1 mod p, n = 1..7
P1_MOD = [
    (3123456771, 3),
    (8, 3123456750),
    (2748641961, 2148938264),
    (743961350, 253378136),
    (1176218259, 691053659),
    (2180670293, 2607412353),
    (128580328, 2472269909),
]

# reductions of n*P2 mod p, n = 1..7
P2_MOD = [
    (2, 5),
    (2248888874, 2923555540),
    (2602399966, 2884651714),
    (1188080486, 863393529),
    (842290081, 2500317348),
    (2145964735, 2073955284),
    (759645483, 758431348),
]


def toy_reduced():
    return reduce_curve(catalog("toy17"), TOY_P)


def _affine_law(curve, P, Q):
    """P + Q by the textbook affine law (Silverman, III.2.3), one inversion
    per pair: the oracle for `curve_fp._sum_rows`, where the library's law
    lives, and for every helper below that adds points."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    p, a1, a2, a3, a4 = curve.p, curve.a1, curve.a2, curve.a3, curve.a4
    if P.x != Q.x:
        lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    elif (P.y + Q.y + a1 * Q.x + a3) % p == 0:
        return ModPoint.infinity()  # Q = -P, 2-torsion P + P included
    else:
        lam = ((3 * P.x * P.x + 2 * a2 * P.x + a4 - a1 * P.y)
               * pow(2 * P.y + a1 * P.x + a3, -1, p) % p)
    nu = (P.y - lam * P.x) % p
    x3 = (lam * lam + a1 * lam - a2 - P.x - Q.x) % p
    return ModPoint(x3, (-(lam + a1) * x3 - nu - a3) % p)


def gens_mod():
    c = toy_reduced()
    g1, g2 = catalog("toy17").generators
    return c, reduce_point(c, g1), reduce_point(c, g2)


def test_reduce_curve_toy():
    c = toy_reduced()
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, 0, 0, 0, 17)
    assert c.p == TOY_P


def test_reduce_curve_bad_reduction():
    # disc(toy17) = -124848 is even, so p = 2 is bad reduction
    assert (-124848) % 2 == 0
    with pytest.raises(InvariantError):
        reduce_curve(catalog("toy17"), 2)


def test_reduce_curve_nonprime():
    with pytest.raises(ValueError):
        reduce_curve(catalog("toy17"), 4)


def test_reduce_curve_rank28():
    # oracle: plain modular reduction of the published coefficients
    cq = catalog("rank28")
    c = reduce_curve(cq, TOY_P)
    assert c.a1 == 1 and c.a3 == 1
    assert c.a2 == TOY_P - 1
    assert c.a4 == cq.a4.numerator % TOY_P
    assert c.a6 == cq.a6.numerator % TOY_P


def test_reduce_point_examples():
    c, g1, _ = gens_mod()
    assert g1 == ModPoint(3123456771, 3)
    assert reduce_point(c, RationalPoint.infinity()).is_infinity
    six = scalar_mul_q(catalog("toy17"), 6, catalog("toy17").generators[0])
    assert six.x.denominator == 3027600
    assert reduce_point(c, six) == ModPoint(2180670293, 2607412353)


def test_reduce_point_denominator_divisible_by_p():
    # on a small prime, pick a multiple whose denominator is divisible by p:
    # x(2*P1) over Q is 8 (den 1); x(3*P1) has den 25 -> p = 5 sends 3*P1 to
    # infinity. 5 is good reduction for toy17 (124848 = 2^4*3^3*17^2).
    c5 = reduce_curve(catalog("toy17"), 5)
    three = scalar_mul_q(catalog("toy17"), 3, catalog("toy17").generators[0])
    assert three.x.denominator % 5 == 0
    assert reduce_point(c5, three).is_infinity


def test_table_correspondence_p1():
    c, g1, _ = gens_mod()
    cq = catalog("toy17")
    p1 = cq.generators[0]
    for n in range(1, 8):
        want = ModPoint(*P1_MOD[n - 1])
        assert reduce_point(c, scalar_mul_q(cq, n, p1)) == want
        assert scalar_mul_fp(c, n, g1) == want


def test_table_correspondence_p2():
    c, _, g2 = gens_mod()
    cq = catalog("toy17")
    p2 = cq.generators[1]
    for n in range(1, 8):
        want = ModPoint(*P2_MOD[n - 1])
        assert reduce_point(c, scalar_mul_q(cq, n, p2)) == want
        assert scalar_mul_fp(c, n, g2) == want


def test_add_examples():
    c, g1, g2 = gens_mod()
    assert scalar_mul_fp(c, 2, g1) == ModPoint(8, 3123456750)
    assert scalar_mul_fp(c, 7, g2) == ModPoint(759645483, 758431348)
    assert scalar_mul_fp(c, 1, g1) == g1
    assert add_fp(c, g1, ModPoint.infinity()) == g1


def test_off_curve_rejected():
    c, g1, _ = gens_mod()
    with pytest.raises(ValueError):
        add_fp(c, ModPoint(1, 1), g1)
    with pytest.raises(ValueError):
        scalar_mul_fp(c, 3, ModPoint(1, 1))


def test_msm_published_keys():
    c, g1, g2 = gens_mod()
    assert msm(c, [6789, 118608156], [g1, g2]) == \
        ModPoint(2132129612, 2902520269)
    assert msm(c, [0, 0], [g1, g2]).is_infinity
    # the published first key tuple reproduces the published point even
    # though it misses the department plane; the on-plane variant gives a
    # different point (see toydata for the full story)
    assert msm(c, [3257, 2774256590], [g1, g2]) == \
        ModPoint(1385928692, 2187054458)
    assert msm(c, [3257, 3083917365], [g1, g2]) == \
        ModPoint(2298108553, 327407787)


def test_msm_matches_naive_sum():
    rng = random.Random(1009)
    c, g1, g2 = gens_mod()
    pts_pool = [g1, g2, scalar_mul_fp(c, 3, g1), scalar_mul_fp(c, 11, g2),
                ModPoint.infinity()]
    for _ in range(500):
        k = rng.randrange(1, 5)
        points = [rng.choice(pts_pool) for _ in range(k)]
        scalars = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(k)]
        # oracle: the definitional loop
        want = ModPoint.infinity()
        for n, pt in zip(scalars, points):
            want = add_fp(c, want, scalar_mul_fp(c, n, pt))
        assert msm(c, scalars, points) == want


def test_msm_length_mismatch():
    c, g1, _ = gens_mod()
    with pytest.raises(ValueError):
        msm(c, [1, 2], [g1])


def test_group_axioms_mod_p():
    rng = random.Random(4242)
    c, g1, g2 = gens_mod()
    for _ in range(40):
        a = scalar_mul_fp(c, rng.randrange(1 << 20), g1)
        b = scalar_mul_fp(c, rng.randrange(1 << 20), g2)
        d = scalar_mul_fp(c, rng.randrange(1 << 20), g1)
        assert on_curve_fp(c, add_fp(c, a, b))
        assert add_fp(c, a, b) == add_fp(c, b, a)
        assert add_fp(c, add_fp(c, a, b), d) == add_fp(c, a, add_fp(c, b, d))
        assert add_fp(c, a, neg_fp(c, a)).is_infinity


def _enumerate_group(curve: CurveFp):
    """Brute-force point enumeration oracle (small p only)."""
    pts = [ModPoint.infinity()]
    p = curve.p
    for x in range(p):
        for y in range(p):
            pt = ModPoint(x, y)
            if on_curve_fp(curve, pt):
                pts.append(pt)
    return pts


def _order_by_iteration(curve, pt):
    """Independent order oracle: repeated addition until infinity."""
    acc = pt
    n = 1
    while not acc.is_infinity:
        acc = _affine_law(curve, acc, pt)
        n += 1
    return n


def test_point_order_p97_against_enumeration():
    c97 = reduce_curve(catalog("toy17"), 97)
    group = _enumerate_group(c97)
    size = len(group)
    lo, hi = hasse_interval(97)
    assert lo <= size <= hi
    assert size == 103  # pinned from the enumeration oracle
    for pt in group[:12] + group[::9]:
        n = point_order(c97, pt)
        assert size % n == 0
        assert scalar_mul_fp(c97, n, pt).is_infinity
        assert n == _order_by_iteration(c97, pt)


def test_point_order_infinity():
    c, _, _ = gens_mod()
    assert point_order(c, ModPoint.infinity()) == 1


def test_point_order_two_torsion():
    # x = 2 gives x^3 + 17 = 0 mod 5, so (2, 0) is its own negation
    c5 = reduce_curve(catalog("toy17"), 5)
    pt = ModPoint(2, 0)
    assert on_curve_fp(c5, pt)
    assert neg_fp(c5, pt) == pt
    assert add_fp(c5, pt, pt).is_infinity
    assert point_order(c5, pt) == 2


def test_point_order_tiny_characteristic():
    # y^2 + y = x^3 + x has good reduction at 2 and 3 (disc = -91); the
    # long-form law needs no division by 2, so char 2 works as-is. With
    # toy17 mod 5, every point's order against the oracle's repeated sums
    for c in _tiny_curves():
        pts = _enumerate_group(c)
        size = len(pts)
        lo, hi = hasse_interval(c.p)
        assert max(lo, 1) <= size <= hi
        for pt in pts:
            n = point_order(c, pt)
            assert size % n == 0
            assert n == _order_by_iteration(c, pt)


def test_point_order_medium_prime():
    c = reduce_curve(catalog("toy17"), 10007)
    g = reduce_point(c, catalog("toy17").generators[0])
    n = point_order(c, g)
    assert scalar_mul_fp(c, n, g).is_infinity
    assert n == _order_by_iteration(c, g)


def test_point_order_small_primes_divide_group_size():
    # good-reduction primes below 10^4 (disc = 2^4 * 3^3 * 17^2)
    for p in (5, 7, 11, 53, 97, 101, 499):
        c = reduce_curve(catalog("toy17"), p)
        pts = _enumerate_group(c)
        size = len(pts)
        for pt in pts[1::max(1, len(pts) // 5)]:
            assert size % point_order(c, pt) == 0


def _group_size_by_qr_count(curve: CurveFp) -> int:
    """O(p) counting oracle for short-form curves: 1 + sum over x of
    (#square roots of x^3 + a4 x + a6)."""
    assert curve.a1 == curve.a2 == curve.a3 == 0
    p = curve.p
    count = 1
    for x in range(p):
        rhs = (x * x * x + curve.a4 * x + curve.a6) % p
        if rhs == 0:
            count += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            count += 2
    return count


def test_point_order_divides_qr_counted_size_up_to_1e4():
    # broader prime sample across the whole < 10^4 range
    rng = random.Random(321)
    for p in (547, 1009, 2003, 4999, 7919, 9973):
        c = reduce_curve(catalog("toy17"), p)
        size = _group_size_by_qr_count(c)
        lo, hi = hasse_interval(p)
        assert lo <= size <= hi
        for _ in range(3):
            pt = None
            while pt is None or pt.is_infinity:
                g = reduce_point(c, catalog("toy17").generators[0])
                pt = scalar_mul_fp(c, rng.randrange(1, size), g)
            assert size % point_order(c, pt) == 0


def test_point_order_refuses_p_above_guard():
    # the baby-step table would hold about 2 * p^(1/4) entries
    c = reduce_curve(catalog("toy17"), (1 << 127) - 1)
    g = reduce_point(c, catalog("toy17").generators[0])
    with pytest.raises(ValueError, match="2\\^64 order-search guard"):
        point_order(c, g)


def test_point_order_toy_prime_self_consistent():
    c, g1, g2 = gens_mod()
    lo, hi = hasse_interval(TOY_P)
    for g in (g1, g2):
        n = point_order(c, g)
        assert scalar_mul_fp(c, n, g).is_infinity
        # some multiple of the order annihilates within the Hasse window
        assert (hi // n) * n >= lo
        # stripping: no proper prime quotient annihilates
        for ell in set(_small_factors(n)):
            assert not scalar_mul_fp(c, n // ell, g).is_infinity


def _small_factors(n):
    out = []
    d = 2
    m = n
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def test_reduction_homomorphism():
    cq = catalog("toy17")
    c, g1, g2 = gens_mod()
    for gen_q, gen_p in zip(cq.generators, (g1, g2)):
        for n in range(1, 8):
            assert reduce_point(c, scalar_mul_q(cq, n, gen_q)) == \
                scalar_mul_fp(c, n, gen_p)
    # additivity across the reduction map
    a = scalar_mul_q(cq, 3, cq.generators[0])
    b = scalar_mul_q(cq, 4, cq.generators[1])
    from hrpks.curve_q import add_q
    assert reduce_point(c, add_q(cq, a, b)) == \
        add_fp(c, reduce_point(c, a), reduce_point(c, b))


def _point_from_x(curve: CurveFp, x: int):
    """Solve the curve equation for y at a given x, or None."""
    from hrpks.modmath import sqrt_mod

    p = curve.p
    b = (curve.a1 * x + curve.a3) % p
    rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
    disc = (b * b + 4 * rhs) % p
    root = sqrt_mod(disc, p)
    if root is None:
        return None
    y = (-b + root) * pow(2, -1, p) % p
    pt = ModPoint(x, y)
    assert on_curve_fp(curve, pt)
    return pt


def test_long_form_law_mod_p():
    c = reduce_curve(catalog("rank28"), 10007)
    pt = None
    x = 0
    while pt is None:
        pt = _point_from_x(c, x)
        x += 1
    acc = ModPoint.infinity()
    for n in range(10):
        assert scalar_mul_fp(c, n, pt) == acc
        assert on_curve_fp(c, acc)
        acc = add_fp(c, acc, pt)


# -- equivalence with the affine reference ----------------------------------

MERSENNE_127 = (1 << 127) - 1


def _reference_msm(curve, scalars, points):
    """The affine double-and-add MSM the Jacobian engine replaced: one
    shared doubling chain over the joint bit length, bit by bit."""
    pairs = []
    for n, pt in zip(scalars, points):
        if n < 0:
            n, pt = -n, neg_fp(curve, pt)
        if n and not pt.is_infinity:
            pairs.append((n, pt))
    acc = ModPoint.infinity()
    nbits = max((n.bit_length() for n, _ in pairs), default=0)
    for bit in range(nbits - 1, -1, -1):
        acc = _affine_law(curve, acc, acc)
        for n, pt in pairs:
            if (n >> bit) & 1:
                acc = _affine_law(curve, acc, pt)
    return acc


def _assert_matches_reference(curve, scalars, points):
    assert msm(curve, scalars, points) == \
        _reference_msm(curve, scalars, points), (scalars, points)
    for n, pt in zip(scalars, points):
        assert scalar_mul_fp(curve, n, pt) == \
            _reference_msm(curve, [n], [pt]), (n, pt)


def _random_points(curve, count, rng):
    pts = []
    while len(pts) < count:
        pt = _point_from_x(curve, rng.randrange(curve.p))
        if pt is not None:
            pts.append(pt)
    return pts


def test_msm_reference_edge_scalars_and_points():
    c, g1, g2 = gens_mod()
    order = point_order(c, g1)
    inf = ModPoint.infinity()
    neg = neg_fp(c, g1)
    cases = [
        ([0], [g1]),
        ([0, 0, 0], [g1, g2, inf]),
        ([-1], [g1]),
        ([-(1 << 70) - 3, 5], [g1, g2]),
        ([order], [g1]),
        ([order + 1, -order - 2], [g1, g2]),
        ([3 * order + 12345, 1 << 200], [g1, g2]),
        ([7, 7, 7], [g1, g1, g1]),
        ([11, 11], [g1, neg]),
        ([11, 12], [g1, neg]),
        ([(1 << 100) + 1, (1 << 100) + 1], [g2, neg_fp(c, g2)]),
        ([5, 9, 1 << 64], [inf, g2, inf]),
        ([(1 << 64) - 1, (1 << 64) + 1, -(1 << 64) + 1], [g1, g2, neg]),
        ([(1 << 33) - 1, -(1 << 33) - 1], [g1, g1]),
    ]
    for scalars, points in cases:
        _assert_matches_reference(c, scalars, points)
    assert msm(c, [order], [g1]).is_infinity
    assert msm(c, [11, 11], [g1, neg]).is_infinity


def test_msm_reference_small_order_points():
    # toy17 mod 5: (2, 0) is 2-torsion, and every point has order dividing
    # the 6-element group, so the NAF rows' column sums and the chain keep
    # landing on infinity and on tangents of 2-torsion
    c5 = reduce_curve(catalog("toy17"), 5)
    group = _enumerate_group(c5)
    assert len(group) == 6 and ModPoint(2, 0) in group
    rng = random.Random(55)
    for bits in (1, 5, 63, 64, 191, 192, 260):
        for _ in range(6):
            k = rng.randrange(1, 5)
            points = [rng.choice(group) for _ in range(k)]
            scalars = [rng.getrandbits(bits) * rng.choice((1, -1))
                       for _ in range(k)]
            _assert_matches_reference(c5, scalars, points)
    _assert_matches_reference(c5, [1 << 200, 3], [ModPoint(2, 0)] * 2)


def test_msm_reference_tiny_characteristic():
    from hrpks.curve_q import CurveQ

    cq = CurveQ(a1=0, a2=0, a3=1, a4=1, a6=0, curve_id="test-91")
    rng = random.Random(23)
    for p in (2, 3):
        c = reduce_curve(cq, p)
        group = _enumerate_group(c)
        for pt in group:
            for n in range(-6, 7):
                _assert_matches_reference(c, [n], [pt])
        for bits in (3, 70, 200):
            for _ in range(8):
                k = rng.randrange(1, 4)
                points = [rng.choice(group) for _ in range(k)]
                scalars = [rng.getrandbits(bits) - (1 << (bits - 1))
                           for _ in range(k)]
                _assert_matches_reference(c, scalars, points)


@pytest.mark.parametrize("p", [97, 10007, TOY_P])
def test_msm_reference_toy17(p):
    c = reduce_curve(catalog("toy17"), p)
    rng = random.Random(p)
    pool = _random_points(c, 6, rng)
    for bits in (8, 40, 100, 250):
        for _ in range(4):
            k = rng.randrange(1, 6)
            points = [rng.choice(pool) for _ in range(k)]
            scalars = [rng.getrandbits(bits) * rng.choice((1, -1))
                       for _ in range(k)]
            _assert_matches_reference(c, scalars, points)


@pytest.mark.parametrize("bits", [31, 89, 241, 317])
def test_msm_reference_rank28_long_form(bits):
    # a1 = a3 = 1; scalars of 31 to 317 bits, one to eight terms
    c = reduce_curve(catalog("rank28"), MERSENNE_127)
    assert c.a1 == c.a3 == 1
    rng = random.Random(bits)
    gens = _random_points(c, 8, rng)
    for k in (1, 2, 8):
        scalars = [rng.getrandbits(bits) for _ in range(k)]
        scalars[0] |= 1 << (bits - 1)
        _assert_matches_reference(c, scalars, gens[:k])
    _assert_matches_reference(c, [-(1 << (bits - 1)), 1 << (bits - 1)],
                              [gens[0], gens[0]])


# -- fixed-base comb against the affine reference ---------------------------


def _comb_cases(curve, bases, nbits, rng):
    """Scalar vectors for `bases` under the bound 2^nbits: the edges, random
    in-range draws, and vectors with out-of-range entries (the fallback)."""
    k = len(bases)
    top = (1 << nbits) - 1
    yield [0] * k
    yield [1] * k
    yield [top] * k
    yield [top, 1] + [0] * (k - 2)
    for _ in range(3):
        yield [rng.randrange(1 << nbits) for _ in range(k)]
        yield [rng.getrandbits(rng.randrange(1, nbits + 1)) for _ in range(k)]
    yield [-1] + [top] * (k - 1)
    yield [1 << nbits] + [rng.randrange(1 << nbits) for _ in range(k - 1)]
    yield [-(1 << (nbits + 5)) - 3, (1 << (nbits + 3)) + 7] + [top] * (k - 2)


def _assert_comb_matches_reference(curve, bases, nbits, rng):
    for scalars in _comb_cases(curve, bases, nbits, rng):
        want = _reference_msm(curve, scalars, bases)
        assert msm(curve, scalars, bases, fixed=len(bases),
                   fixed_bits=nbits) == want, (scalars, bases)
        # fixed bases followed by variable terms, as verify's -c * pk
        extra = rng.choice(bases)
        c = rng.randrange(1, 1 << (nbits + 2))
        assert msm(curve, scalars + [-c], bases + [extra], fixed=len(bases),
                   fixed_bits=nbits) == \
            _reference_msm(curve, scalars + [-c], bases + [extra])


def test_comb_reference_tiny_characteristic():
    from hrpks.curve_q import CurveQ

    cq = CurveQ(a1=0, a2=0, a3=1, a4=1, a6=0, curve_id="test-91")
    rng = random.Random(91)
    for p in (2, 3):
        c = reduce_curve(cq, p)
        group = _enumerate_group(c)
        assert len(group) >= 2
        # every point, infinity and repeats included, as a base
        for nbits in (1, 5, 8, 9, 23):
            _assert_comb_matches_reference(c, group + group[1:2], nbits, rng)
        for pt in group:
            for n in range(-4, 1 << 5):
                assert msm(c, [n], [pt], fixed=1, fixed_bits=5) == \
                    _reference_msm(c, [n], [pt])


def test_comb_reference_toy17():
    c, g1, g2 = gens_mod()
    rng = random.Random(17)
    for nbits in (8, 31, 127):
        _assert_comb_matches_reference(c, [g1, g2], nbits, rng)
    # small-order bases: toy17 mod 5 is a 6-element group
    c5 = reduce_curve(catalog("toy17"), 5)
    group = _enumerate_group(c5)
    _assert_comb_matches_reference(c5, group, 20, rng)
    # one-tooth NAF rows of d - 1, d and d + 1 digits against the comb's d
    # columns, with the variable point a combed base or its negation, so
    # the merge level meets tangents and opposites
    from hrpks.curve_fp import COMB_TEETH

    neg = neg_fp(c, g1)
    for nbits in (31, 127):
        d = -(-nbits // COMB_TEETH)
        for k in (d - 2, d - 1, d):
            for n in ((1 << k) - 1, 1 << k, (1 << k) + 1, -(1 << k) - 1,
                      -1, 1):
                for fixed in ([1, 0], [1, 1], [(1 << nbits) - 1, 3]):
                    for extra in (g1, neg):
                        scalars, points = fixed + [n], [g1, g2, extra]
                        assert msm(c, scalars, points, fixed=2,
                                   fixed_bits=nbits) == \
                            _reference_msm(c, scalars, points), scalars


@pytest.mark.parametrize("p, nbits", [(10007, 31), (MERSENNE_127, 241)])
def test_comb_reference_rank28_long_form(p, nbits):
    c = reduce_curve(catalog("rank28"), p)
    assert c.a1 == c.a3 == 1
    rng = random.Random(nbits)
    _assert_comb_matches_reference(c, _random_points(c, 8, rng), nbits, rng)


def test_comb_sums_to_infinity():
    c, g1, g2 = gens_mod()
    order = point_order(c, g1)
    neg = neg_fp(c, g1)
    nbits = order.bit_length() + 1
    for scalars, bases in (([order], [g1]),
                           ([5, 5], [g1, neg]),
                           ([order - 3, 3], [g1, g1]),
                           ([7, 0, 7], [g2, g1, neg_fp(c, g2)])):
        assert msm(c, scalars, bases, fixed=len(bases),
                   fixed_bits=nbits).is_infinity
        assert _reference_msm(c, scalars, bases).is_infinity
    # the comb part cancels the variable part
    assert msm(c, [9, 9], [g2, neg_fp(c, g2)], fixed=1,
               fixed_bits=8).is_infinity


def test_comb_cache_keyed_by_content_and_bounded():
    from hrpks import curve_fp

    cache, size = curve_fp._comb_table, curve_fp.COMB_CACHE_SIZE
    c, g1, g2 = gens_mod()
    cache.cache_clear()
    msm(c, [3, 4], (g1, g2), fixed=2, fixed_bits=40)
    table = cache(c, (g1, g2), 40)
    assert cache.cache_info()[:2] == (1, 1)  # (hits, misses)
    # equal content from fresh objects reuses the table
    twin = reduce_curve(catalog("toy17"), TOY_P)
    copies = (ModPoint(g1.x, g1.y), ModPoint(g2.x, g2.y))
    msm(twin, [5, 6], copies, fixed=2, fixed_bits=40)
    assert cache(twin, copies, 40) is table
    assert cache.cache_info().misses == 1
    assert cache.cache_info().currsize == 1
    # distinct bit bounds are distinct tables; the one kept in use stays
    for nbits in range(1, size + 4):
        msm(c, [1], (g1,), fixed=1, fixed_bits=nbits)
        msm(c, [1, 1], (g1, g2), fixed=2, fixed_bits=40)  # keep it recent
        assert cache.cache_info().currsize <= size
    assert cache.cache_info().currsize == size
    assert cache(c, (g1, g2), 40) is table
    misses = cache.cache_info().misses
    assert misses == 1 + size + 3
    # the newest cycled table is still cached; the least recent one went
    # first and is rebuilt on its next use
    msm(c, [1], (g1,), fixed=1, fixed_bits=size + 3)
    assert cache.cache_info().misses == misses
    msm(c, [1], (g1,), fixed=1, fixed_bits=1)
    assert cache.cache_info().misses == misses + 1
    assert cache.cache_info().currsize == size


def test_comb_rejects_bad_bases_and_arguments():
    from hrpks import curve_fp

    c, g1, g2 = gens_mod()
    off = ModPoint(g1.x, (g1.y + 1) % c.p)
    curve_fp._comb_table.cache_clear()
    with pytest.raises(ValueError, match="not on the curve"):
        msm(c, [1, 1], [g1, off], fixed=2, fixed_bits=8)
    with pytest.raises(ValueError, match="not on the curve"):
        msm(c, [1, 1], [g1, off], fixed=1, fixed_bits=8)
    assert curve_fp._comb_table.cache_info().currsize == 0
    # a slice bound must lie past the end of the slice before it: 8 bits
    # take one 9-bit column
    for fixed, nbits in ((3, 8), (-1, 8), (1, 0), (1, (0, 20)), (1, (8, 9))):
        with pytest.raises(ValueError, match="fixed"):
            msm(c, [1, 1], [g1, g2], fixed=fixed, fixed_bits=nbits)
    # a key's comb takes its d columns from the fixed bases' widest table,
    # and no more teeth than they have
    for fixed, nbits, keyed in ((0, 8, 8), (1, 8, 9), (1, 8, -1),
                                (1, (9, 18), 10)):
        with pytest.raises(ValueError, match="keyed_bits"):
            msm(c, [1, 1], [g1, g2], fixed=fixed, fixed_bits=nbits,
                keyed_bits=keyed)


@pytest.mark.parametrize("make", [make_toy_params, make_mestre8_params])
def test_gens_msm_splits_responses_at_the_top_of_the_q_comb(make,
                                                           monkeypatch):
    # gens_msm cuts each scalar at S = t * d_q, d_q = ceil(bitlen(q) / t),
    # the top of the comb key_point reads: bits below S run on that comb,
    # the rest on the comb from bit S up to mask_bits, d_hi columns, on one
    # chain of max(d_q, d_hi) columns. At the slice edges, past them (a NAF
    # row each) and with or without a key term it sums to the affine
    # reference
    from hrpks import curve_fp

    params, _gm = make()
    t, r = curve_fp.COMB_TEETH, params.r
    d_q = -(-params.q.bit_length() // t)
    split, top = t * d_q, 1 << params.mask_bits
    d_hi = -(-(params.mask_bits - split) // t)
    assert d_hi >= 1
    gens, key = list(params.gens), params.gm_pub.point
    rng = random.Random(61)
    edges = [0, (1 << split) - 1, 1 << split, top - 1]
    cases = [[e] * r for e in edges]
    cases += [[edges[(i + k) % 4] for i in range(r)] for k in range(4)]
    cases += [[top] + [rng.randrange(top) for _ in range(r - 1)],
              [-(1 << split) - 3] + [rng.randrange(top) for _ in range(r - 1)],
              [rng.randrange(top) for _ in range(r)]]
    for s in cases:
        assert params.gens_msm(s) == _reference_msm(params.curve, s, gens), s
        for c in (0, 1, (1 << params.l_c) - 1):
            assert params.gens_msm(s, ((-c, key),)) == \
                _reference_msm(params.curve, [*s, -c], gens + [key]), (s, c)
    # a warm call with both slices of every response nonzero and a key
    # term is exactly one doubling per column of the longer slice
    s = [(1 << split) + rng.randrange(top >> 1) for _ in range(r)]
    params.gens_msm(s, ((-1, key),))
    doublings = []
    real = curve_fp._jac_double

    def counting(*args):
        doublings.append(1)
        return real(*args)
    monkeypatch.setattr(curve_fp, "_jac_double", counting)
    for extra in ((), ((-1, key),), ((1 - (1 << params.l_c), key),)):
        doublings.clear()
        assert params.gens_msm(s, extra) == \
            _reference_msm(params.curve, [*s, *(n for n, _ in extra)],
                           gens + [P for _, P in extra])
        assert len(doublings) == max(d_q, d_hi), extra


# -- batched affine additions -----------------------------------------------


def _affine(pt):
    return None if pt.is_infinity else (pt.x, pt.y)


def _fold(curve, points):
    acc = ModPoint.infinity()
    for pt in points:
        acc = _affine_law(curve, acc, pt)
    return acc


def _tiny_curves():
    from hrpks.curve_q import CurveQ

    cq = CurveQ(a1=0, a2=0, a3=1, a4=1, a6=0, curve_id="test-91")
    return [reduce_curve(cq, 2), reduce_curve(cq, 3),
            reduce_curve(catalog("toy17"), 5)]


def test_add_pairs_matches_affine_law_on_tiny_groups():
    from hrpks.curve_fp import _jac_add_affine, _normalize, _sum_rows

    for c in _tiny_curves():
        group = _enumerate_group(c)
        pairs = [(P, Q) for P in group for Q in group]
        want = [_affine(_affine_law(c, P, Q)) for P, Q in pairs]
        # the oracle agrees with the Jacobian engine's formulas, chord and
        # tangent alike
        finite = [(P, Q) for P, Q in pairs
                  if not (P.is_infinity or Q.is_infinity)]
        assert [_affine(_affine_law(c, P, Q)) for P, Q in finite] == \
            _normalize(c, [_jac_add_affine(c, (P.x, P.y, 1), Q.x, Q.y)
                           for P, Q in finite])
        # one batch of every ordered pair, chord, tangent, opposite and
        # infinity alike, and each pair on its own
        assert _sum_rows(c, [[_affine(P) for P, _ in pairs],
                             [_affine(Q) for _, Q in pairs]]) == want
        assert [_affine(add_fp(c, P, Q)) for P, Q in pairs] == want


def test_add_pairs_mixed_batch_with_zero_denominators():
    # pairs with a zero denominator (opposite points, a 2-torsion point
    # doubled) first, last and side by side among chords, tangents and
    # infinities: they take no part in the shared inversion, and the pairs
    # around them must still get their own inverses
    from hrpks.curve_fp import _sum_rows

    big = reduce_curve(catalog("rank28"), MERSENNE_127)
    c5 = reduce_curve(catalog("toy17"), 5)
    inf, two_torsion = ModPoint.infinity(), ModPoint(2, 0)
    rng = random.Random(31)
    for c, (A, B, C) in ((big, _random_points(big, 3, rng)),
                         (c5, (ModPoint(3, 2), ModPoint(4, 1), two_torsion))):
        opposite = [(P, neg_fp(c, P)) for P in (A, B, C)]
        pairs = [opposite[0], (A, B), (B, B), opposite[1], opposite[2],
                 (inf, C), (C, inf), (A, C), (inf, inf), (C, C), (B, A),
                 (A, A), opposite[0], (C, B), opposite[1]]
        assert _sum_rows(c, [[_affine(P) for P, _ in pairs],
                             [_affine(Q) for _, Q in pairs]]) \
            == [_affine(_affine_law(c, P, Q)) for P, Q in pairs]
        assert _sum_rows(c, [[], []]) == []


def _rows(columns):
    """The columns, padded with infinity to one length, as rows of affine
    points: the layout `_sum_rows` sums column by column."""
    height = max(map(len, columns), default=0)
    return [[_affine(pts[i]) if i < len(pts) else None for pts in columns]
            for i in range(height)]


def test_sum_rows_matches_folds_on_tiny_groups():
    from hrpks.curve_fp import _sum_rows

    for c in _tiny_curves():
        group = _enumerate_group(c)
        for columns in ([[P, Q] for P in group for Q in group],
                        [[P, Q, R] for P in group for Q in group
                         for R in group]):
            assert _sum_rows(c, _rows(columns)) == \
                [_affine(_fold(c, pts)) for pts in columns]


def test_sum_rows_edge_columns():
    from hrpks.curve_fp import _sum_rows

    c5 = reduce_curve(catalog("toy17"), 5)
    two_torsion = ModPoint(2, 0)
    assert neg_fp(c5, two_torsion) == two_torsion
    big = reduce_curve(catalog("rank28"), MERSENNE_127)
    rng = random.Random(12)
    for c, pool in ((c5, _enumerate_group(c5)),
                    (big, _random_points(big, 5, rng))):
        pool = pool + [neg_fp(c, P) for P in pool]
        columns = [[], [ModPoint.infinity()], [pool[1]], [pool[1]] * 4,
                   [pool[1], neg_fp(c, pool[1])],
                   [pool[2], pool[1], neg_fp(c, pool[1])],
                   [pool[1], pool[2], neg_fp(c, pool[2]), neg_fp(c, pool[1])],
                   [pool[3]] * 7]
        if c is c5:
            columns += [[two_torsion] * k for k in range(1, 6)]
            columns.append([two_torsion, pool[1], two_torsion])
        for _ in range(40):
            columns.append([rng.choice(pool + [ModPoint.infinity()])
                            for _ in range(rng.randrange(12))])
        # every column at once, so the levels share their inversions
        assert _sum_rows(c, _rows(columns)) == \
            [_affine(_fold(c, pts)) for pts in columns]
        for height in range(1, 8):  # odd and even row counts
            assert _sum_rows(c, _rows(columns[-40:])[:height]) == \
                [_affine(_fold(c, pts[:height])) for pts in columns[-40:]]
    assert _sum_rows(big, []) == []


def test_progression_matches_affine_law():
    # start + k * step against the oracle's repeated sums: every start and
    # step of toy17 mod 5, the 2-torsion step (2, 0) among them, whose
    # tangent denominator is 0, and a sample mod 97; infinity is index 0
    # of each group, so it comes up as a start and as a step. Counts 0, 1
    # and 2, one that ends mid-level, and one past every point's order,
    # so the row wraps through infinity
    from hrpks.curve_fp import _progression

    for p, picks in ((5, slice(None)), (97, slice(None, None, 17))):
        c = reduce_curve(catalog("toy17"), p)
        group = _enumerate_group(c)
        assert group[0].is_infinity and (p != 5 or ModPoint(2, 0) in group)
        for start in group[picks]:
            for step in group[picks]:
                for count in (0, 1, 2, 5, len(group) + 2):
                    want, acc = [], start
                    for _ in range(count):
                        want.append(_affine(acc))
                        acc = _affine_law(c, acc, step)
                    assert _progression(c, start, step, count) == want


def test_long_progression_peaks_near_its_row(monkeypatch):
    # a level is added PROGRESSION_CHUNK new entries at a time, one
    # inversion each, so one chunk's pending pairs are all a walk holds
    # beyond its row; cut to 2^6 here, a walk of 2^12 points spans 32
    # chunks at its last level, and a tenth over the row bounds its peak
    # (the unchunked level, as at the default chunk, peaks near 1.5 times)
    import tracemalloc

    from hrpks import curve_fp
    from hrpks.curve_fp import _progression

    c = toy_reduced()
    start, step = ModPoint(*P1_MOD[0]), ModPoint(*P2_MOD[0])
    count, chunk = 1 << 12, 1 << 6
    whole = _progression(c, start, step, count)  # one call per level
    monkeypatch.setattr(curve_fp, "PROGRESSION_CHUNK", chunk)
    tracemalloc.start()
    try:
        row = _progression(c, start, step, count)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row == whole
    assert peak < 1.1 * size, (peak, size)
    inversions = []

    def counting(*args):
        inversions.append(args)
        return pow(*args)
    monkeypatch.setattr(curve_fp, "pow", counting, raising=False)
    assert _progression(c, start, step, count) == whole
    assert len(inversions) == sum(-(-(1 << k) // chunk) for k in range(12))


def test_sum_rows_one_inversion_per_level(monkeypatch):
    from hrpks import curve_fp

    c = reduce_curve(catalog("rank28"), MERSENNE_127)
    rng = random.Random(9)
    pool = [_affine(P) for P in _random_points(c, 40, rng)]
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(curve_fp, "pow", counting, raising=False)
    for height, levels in ((8, 3), (5, 3), (3, 2), (2, 1), (1, 0), (0, 0),
                           (9, 4), (16, 4)):
        rows = [rng.sample(pool, 6) for _ in range(height)]
        calls.clear()
        curve_fp._sum_rows(c, rows)
        assert len(calls) == levels, height
        assert all(args[1] == -1 for args in calls)
    # a comb-only msm of r = 8 bases: three levels plus the affine result
    bases = [ModPoint(*P) for P in pool[:8]]
    scalars = [rng.randrange(1, 1 << 100) for _ in bases]
    want = _reference_msm(c, scalars, bases)
    msm(c, scalars, bases, fixed=8, fixed_bits=100)  # builds the table
    calls.clear()
    assert msm(c, scalars, bases, fixed=8, fixed_bits=100) == want
    assert len(calls) == 4
    # verify's shape: the three comb levels, one level merging the column
    # sums with the NAF row of -c * pk, and the affine result
    pk, ch = ModPoint(*pool[8]), rng.randrange(1, 1 << 89)
    want = _reference_msm(c, scalars + [-ch], bases + [pk])
    calls.clear()
    assert msm(c, scalars + [-ch], bases + [pk], fixed=8,
               fixed_bits=100) == want
    assert len(calls) == 5
    # one NAF row needs no level: the affine result only
    want = _reference_msm(c, [ch], [pk])
    calls.clear()
    assert scalar_mul_fp(c, ch, pk) == want
    assert len(calls) == 1
