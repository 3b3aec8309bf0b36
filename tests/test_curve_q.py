import math
import random
from fractions import Fraction

import pytest

from hrpks import modmath
from hrpks.curve_fp import reduce_curve, reduce_point, scalar_mul_fp
from hrpks.curve_q import (CurveQ, RationalPoint, add_q, catalog,
                           discriminant_coeffs, discriminant_q, neg_q,
                           on_curve_q, scalar_mul_q)
from hrpks.errors import InvariantError

F = Fraction

# first seven multiples of P1 = (-2, 3) on y^2 = x^3 + 17
P1_MULTIPLES = [
    (F(-2), F(3)),
    (F(8), F(-23)),
    (F(19, 25), F(522, 125)),
    (F(752, 529), F(-54239, 12167)),
    (F(174598, 32761), F(76943337, 5929741)),
    (F(-4471631, 3027600), F(-19554357097, 5268024000)),
    (F(12870778678, 76545001), F(1460185427995887, 669692213749)),
]

# first seven multiples of P2 = (2, 5)
P2_MULTIPLES = [
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


def toy():
    return catalog("toy17")


def test_catalog_toy17():
    c = toy()
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (0, 0, 0, 0, 17)
    assert c.declared_rank == 2
    assert [(g.x, g.y) for g in c.generators] == [(-2, 3), (2, 5)]
    assert "no torsion" in c.torsion_note


def test_catalog_rank14():
    assert catalog("rank14").a4 == 402599774387690701016910427272483
    assert catalog("rank14").declared_rank == 14


def test_catalog_rank28():
    c = catalog("rank28")
    assert (c.a1, c.a2, c.a3) == (1, -1, 1)
    assert c.a4 == -20067762415575526585033208209338542750930230312178956502
    assert c.a6 == int("34481611795030556467032985690390720374855944359319180"
                       "361266008296291939448732243429")
    assert c.generators == ()
    assert c.declared_rank == 28


def test_catalog_unknown_id():
    with pytest.raises(ValueError):
        catalog("rank999")


def test_add_examples():
    c = toy()
    p1 = c.generators[0]
    assert add_q(c, p1, p1) == RationalPoint.affine(8, -23)
    assert add_q(c, p1, RationalPoint.infinity()) == p1
    two = scalar_mul_q(c, 2, p1)
    assert add_q(c, p1, two) == RationalPoint.affine(F(19, 25), F(522, 125))


def test_p1_multiples_exact():
    c = toy()
    p1 = c.generators[0]
    for n, (x, y) in enumerate(P1_MULTIPLES, start=1):
        assert scalar_mul_q(c, n, p1) == RationalPoint(x, y)


def test_p2_multiples_exact():
    c = toy()
    p2 = c.generators[1]
    for n, (x, y) in enumerate(P2_MULTIPLES, start=1):
        assert scalar_mul_q(c, n, p2) == RationalPoint(x, y)


def test_scalar_examples():
    c = toy()
    p1, p2 = c.generators
    assert scalar_mul_q(c, 5, p1) == RationalPoint(F(174598, 32761),
                                                   F(76943337, 5929741))
    assert scalar_mul_q(c, 0, p2).is_infinity
    assert scalar_mul_q(c, 4, p2) == RationalPoint(F(38194304, 87025),
                                                   F(-236046706033, 25672375))


def test_negative_scalar():
    c = toy()
    p1 = c.generators[0]
    assert scalar_mul_q(c, -3, p1) == neg_q(c, scalar_mul_q(c, 3, p1))
    assert add_q(c, p1, neg_q(c, p1)).is_infinity


def test_scalar_matches_repeated_addition():
    c = toy()
    for gen in c.generators:
        acc = RationalPoint.infinity()
        for n in range(13):
            assert scalar_mul_q(c, n, gen) == acc
            acc = add_q(c, acc, gen)


def test_closure_randomized():
    rng = random.Random(31)
    c = toy()
    p1, p2 = c.generators
    pts = [scalar_mul_q(c, rng.randrange(1, 8), rng.choice([p1, p2]))
           for _ in range(12)]
    for _ in range(60):
        a, b = rng.choice(pts), rng.choice(pts)
        out = add_q(c, a, b)
        assert on_curve_q(c, out)


def test_group_axioms_sampled():
    rng = random.Random(77)
    c = toy()
    p1, p2 = c.generators
    for _ in range(25):
        a = scalar_mul_q(c, rng.randrange(-5, 6), p1)
        b = scalar_mul_q(c, rng.randrange(-5, 6), p2)
        d = scalar_mul_q(c, rng.randrange(-3, 4), p1)
        assert add_q(c, a, b) == add_q(c, b, a)
        assert add_q(c, add_q(c, a, b), d) == add_q(c, a, add_q(c, b, d))


def test_long_form_group_law():
    # exercise the nonzero a1/a2/a3 branches; closure is the oracle.
    # (1, 2) lies on this curve: 4 + 2 + 2 = 1 - 1 + 3 + 5.
    cc = CurveQ(a1=1, a2=-1, a3=1, a4=3, a6=5, curve_id="test-long")
    pt = RationalPoint.affine(1, 2)
    assert on_curve_q(cc, pt)
    acc = RationalPoint.infinity()
    for n in range(9):
        assert scalar_mul_q(cc, n, pt) == acc
        assert on_curve_q(cc, acc)
        acc = add_q(cc, acc, pt)
    assert add_q(cc, pt, neg_q(cc, pt)).is_infinity
    # negation uses the long-form rule -(x,y) = (x, -y - a1x - a3)
    assert neg_q(cc, pt) == RationalPoint.affine(1, -2 - 1 * 1 - 1)


def test_discriminant_values():
    # oracle: short-form discriminant -16(4a^3 + 27b^2) evaluated directly
    assert discriminant_q(toy()) == -16 * (4 * 0 ** 3 + 27 * 17 ** 2)
    assert discriminant_q(toy()) == -124848
    a4 = catalog("rank14").a4
    assert discriminant_q(catalog("rank14")) == -64 * a4 ** 3
    assert discriminant_q(catalog("rank14")) != 0
    # cusp y^2 = x^3
    assert discriminant_coeffs(0, 0, 0, 0, 0) == 0


# --- mestre8: Mestre's degree-8 construction and its rank certificate -------

MESTRE_A = (-4, -3, -2, -1, 1, 2, 3, 5)


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _mestre_model(a_values, extra_x, u=32):
    """Mestre's construction (C. R. Acad. Sci. Paris 295, 1982), rebuilt:
    P = prod (x - a), g the monic quartic with deg(g^2 - P) <= 3 and
    h = g^2 - P = c3 x^3 + c2 x^2 + c1 x + c0, so y^2 = h(x) passes through
    every (a, g(a)). (X, Y) = (c3 u^2 x, c3 u^3 y) maps it to Y^2 = X^3 +
    c2 u^2 X^2 + c1 c3 u^4 X + c0 c3^2 u^6, and Y = y' + X + 1 to long
    form. Returns (a1, a2, a3, a4, a6) and the images of the points
    (a, g(a)), then of (extra_x, +sqrt(h(extra_x)))."""
    P = [F(1)]
    for a in a_values:
        P = _poly_mul(P, [F(-a), F(1)])
    g = [F(0)] * 4 + [F(1)]
    for k in (3, 2, 1, 0):  # match the x^(4 + k) terms of g^2 and P
        g[k] = (P[4 + k] - _poly_mul(g, g)[4 + k]) / 2
    h = [s - t for s, t in zip(_poly_mul(g, g), P)]
    assert h[4:] == [0] * 5
    c0, c1, c2, c3 = h[:4]
    coeffs = (2, c2 * u ** 2 - 1, 2, c1 * c3 * u ** 4 - 2,
              c0 * c3 ** 2 * u ** 6 - 1)

    def image(x, y):
        big_x = c3 * u ** 2 * x
        return (big_x, c3 * u ** 3 * y - big_x - 1)

    def at(poly, x):
        return sum(c * x ** i for i, c in enumerate(poly))

    square = at(h, F(extra_x))
    root = F(math.isqrt(square.numerator), math.isqrt(square.denominator))
    assert root * root == square
    return coeffs, [image(a, at(g, a)) for a in a_values] + \
        [image(extra_x, root)]


def _points_mod_ell(curve, points, ell, primes=8):
    """The rank over F_ell of the points' images in E(F_p) / ell E(F_p),
    stacked over the first `primes` primes p > 100 of good reduction with
    ell || #E(F_p), and the gcd of #E(F_p) over every good p tried.

    There E(F_p) / ell E(F_p) is Z/ell, and P -> (#E / ell) P sends it onto
    the order-ell subgroup. A relation sum n_i P_i = O over Z with some n_i
    prime to ell (divide out ell first: E(Q) has no ell-torsion when ell is
    prime to the gcd) is a kernel vector of the matrix mod ell, so rank
    len(points) proves the points independent."""
    disc = discriminant_q(curve)
    rows, gcd, p = [], 0, 100
    while len(rows) < primes:
        p += 1
        if not modmath.is_probable_prime(p) or disc % p == 0:
            continue
        red = reduce_curve(curve, p)
        n = 1  # infinity, then the y solving y^2 + b y = f(x) for each x
        for x in range(p):
            b = (red.a1 * x + red.a3) % p
            f = (x ** 3 + red.a2 * x * x + red.a4 * x + red.a6) % p
            d = (b * b + 4 * f) % p
            n += 1 if d == 0 else 2 if pow(d, (p - 1) // 2, p) == 1 else 0
        gcd = math.gcd(gcd, n)
        if n % ell or n % (ell * ell) == 0:
            continue
        images = [scalar_mul_fp(red, n // ell, reduce_point(red, P))
                  for P in points]
        base = next((Q for Q in images if not Q.is_infinity), None)
        if base is None:
            continue
        logs = [scalar_mul_fp(red, k, base) for k in range(ell)]
        rows.append([logs.index(Q) for Q in images])
    return modmath.rank_mod(rows, ell), gcd


def test_mestre8_is_mestres_construction():
    c = catalog("mestre8")
    coeffs, points = _mestre_model(MESTRE_A, 172)
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == coeffs == (
        2, 443645, 2, -8007831722, -3354540569415901)
    # y - g(x) vanishes at all eight (a, g(a)), so they sum to O: the
    # catalog keeps seven of them and the point at x = 172
    total = RationalPoint.infinity()
    for x, y in points[:8]:
        total = add_q(c, total, RationalPoint.affine(x, y))
    assert total.is_infinity
    assert [(P.x, P.y) for P in c.generators] == points[:7] + points[8:]
    assert c.declared_rank == len(c.generators) == 8
    assert "no torsion" in c.torsion_note


def test_mestre8_generators_are_independent():
    c = catalog("mestre8")
    for ell in (3, 5):
        rank, torsion_gcd = _points_mod_ell(c, c.generators, ell)
        assert (rank, torsion_gcd) == (8, 1)
    # the certificate can fail: the eight Mestre points are dependent
    _coeffs, points = _mestre_model(MESTRE_A, 172)
    dependent = [RationalPoint.affine(x, y) for x, y in points[:8]]
    assert _points_mod_ell(c, dependent, 3)[0] == 7
    # good reduction, with 8 distinct finite generators, where the tests
    # and the README run it
    for p in (97, 257, 10007, 3123456773, (1 << 127) - 1):
        red = reduce_curve(c, p)
        gens = {reduce_point(red, P) for P in c.generators}
        assert len(gens) == 8 and not any(G.is_infinity for G in gens)


def test_singular_curve_rejected():
    with pytest.raises(InvariantError):
        CurveQ(a1=0, a2=0, a3=0, a4=0, a6=0)


def test_generator_must_lie_on_curve():
    with pytest.raises(InvariantError):
        CurveQ(a1=0, a2=0, a3=0, a4=0, a6=17,
               generators=(RationalPoint.affine(1, 1),))


def test_off_curve_inputs_rejected():
    c = toy()
    bad = RationalPoint.affine(0, 0)
    with pytest.raises(ValueError):
        add_q(c, bad, c.generators[0])
    with pytest.raises(ValueError):
        scalar_mul_q(c, 2, bad)


def test_height_growth():
    # digit counts of the x-coordinate blow up monotonically for n = 2..7
    c = toy()
    p1 = c.generators[0]
    num_digits, den_digits = [], []
    for n in range(2, 8):
        pt = scalar_mul_q(c, n, p1)
        num_digits.append(len(str(abs(pt.x.numerator))))
        den_digits.append(len(str(pt.x.denominator)))
    assert num_digits == sorted(num_digits)
    assert den_digits == sorted(den_digits)
    assert all(a < b for a, b in zip(num_digits, num_digits[1:]))
    assert all(a < b for a, b in zip(den_digits, den_digits[1:]))


def test_scalar_cap():
    c = toy()
    p1 = c.generators[0]
    with pytest.raises(ValueError, match="height"):
        scalar_mul_q(c, (1 << 20) + 1, p1)
