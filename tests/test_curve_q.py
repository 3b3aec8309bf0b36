import random
from fractions import Fraction

import pytest

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
