"""Exact rational-point arithmetic on elliptic curves in long Weierstrass form.

Curves are y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with rational
coefficients, kept in long form so curves with nonzero a1/a2/a3 share the
same code path as short-form ones. All coordinates are `fractions.Fraction`,
which keeps every value in lowest terms with a positive denominator.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InvariantError

# Coordinate sizes of n*P grow quadratically in n; this cap on |n| protects
# against accidental memory blow-up.
_SCALAR_CAP = 1 << 20


@dataclass(frozen=True)
class RationalPoint:
    """A point of E(Q): affine (x, y) in lowest terms, or the point at infinity."""

    x: Optional[Fraction] = None
    y: Optional[Fraction] = None

    @staticmethod
    def infinity() -> "RationalPoint":
        return RationalPoint(None, None)

    @staticmethod
    def affine(x, y) -> "RationalPoint":
        return RationalPoint(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "RationalPoint(inf)"
        return f"RationalPoint({self.x}, {self.y})"


def discriminant_coeffs(a1, a2, a3, a4, a6):
    """Discriminant of y^2+a1xy+a3y = x^3+a2x^2+a4x+a6 (b2/b4/b6/b8 form),
    in the coefficients' own number type: Fractions over Q, ints for
    `curve_fp` to reduce mod p."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class CurveQ:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    declared_rank: int = 0
    generators: Tuple[RationalPoint, ...] = ()
    torsion_note: str = ""
    curve_id: str = ""

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        object.__setattr__(self, "generators", tuple(self.generators))
        if discriminant_q(self) == 0:
            raise InvariantError("singular curve (zero discriminant)")
        for g in self.generators:
            if not on_curve_q(self, g):
                raise InvariantError(f"listed generator {g} is not on the curve")


def discriminant_q(curve: CurveQ) -> Fraction:
    return discriminant_coeffs(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)


def on_curve_q(curve: CurveQ, P: RationalPoint) -> bool:
    """Exact curve-equation check (infinity counts as on-curve)."""
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    lhs = y * y + curve.a1 * x * y + curve.a3 * y
    rhs = x ** 3 + curve.a2 * x * x + curve.a4 * x + curve.a6
    return lhs == rhs


def neg_q(curve: CurveQ, P: RationalPoint) -> RationalPoint:
    if P.is_infinity:
        return P
    return RationalPoint(P.x, -P.y - curve.a1 * P.x - curve.a3)


def _require_on_curve(curve: CurveQ, P: RationalPoint):
    if not on_curve_q(curve, P):
        raise ValueError(f"point {P} is not on the curve")


def _add_unchecked(curve: CurveQ, P: RationalPoint, Q: RationalPoint) -> RationalPoint:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    x1, y1 = P.x, P.y
    x2, y2 = Q.x, Q.y
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        # Q = -P (covers the 2-torsion doubling case as well)
        return RationalPoint.infinity()
    if P == Q:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return RationalPoint(x3, y3)


def add_q(curve: CurveQ, P: RationalPoint, Q: RationalPoint) -> RationalPoint:
    """Chord-tangent group law; Infinity is the identity."""
    _require_on_curve(curve, P)
    _require_on_curve(curve, Q)
    return _add_unchecked(curve, P, Q)


def scalar_mul_q(curve: CurveQ, n: int, P: RationalPoint) -> RationalPoint:
    """n*P by double-and-add; negative n multiplies the negation."""
    _require_on_curve(curve, P)
    if abs(n) > _SCALAR_CAP:
        raise ValueError(
            f"|n| = {abs(n)} exceeds the scalar cap {_SCALAR_CAP}: coordinate "
            "height of n*P grows quadratically in n over Q, so large multiples "
            "exhaust memory")
    if n < 0:
        return scalar_mul_q(curve, -n, neg_q(curve, P))
    acc = RationalPoint.infinity()
    base = P
    while n:
        if n & 1:
            acc = _add_unchecked(curve, acc, base)
        n >>= 1
        if n:
            base = _add_unchecked(curve, base, base)
    return acc


def _pt(x, y) -> RationalPoint:
    return RationalPoint.affine(x, y)


_RANK28_B = -20067762415575526585033208209338542750930230312178956502
_RANK28_C = 34481611795030556467032985690390720374855944359319180361266008296291939448732243429
_RANK14_A4 = 402599774387690701016910427272483

_CATALOG = {}


def _register(curve_id, **kw):
    _CATALOG[curve_id] = CurveQ(curve_id=curve_id, **kw)


_register("toy17", a1=0, a2=0, a3=0, a4=0, a6=17, declared_rank=2,
          generators=(_pt(-2, 3), _pt(2, 5)),
          torsion_note="no torsion over Q")
# Mestre's degree-8 construction (C. R. Acad. Sci. Paris 295, 1982): for
# P(x) = prod (x - a) over a = -4, -3, -2, -1, 1, 2, 3, 5 and g the monic
# quartic with deg(g^2 - P) <= 3, y^2 = h(x) = g^2 - P passes through the
# eight points (a, g(a)), which sum to O. Scaled by h's leading coefficient
# and by u = 32 to an integral model, then moved by y -> y + x + 1 so that
# a1 and a3 are nonzero. The generators are the images of seven of those
# points (all but a = 5) and of the point at x = 172 on y^2 = h(x);
# tests/test_curve_q.py rebuilds them and certifies their independence.
_register("mestre8", a1=2, a2=443645, a3=2, a4=-8007831722,
          a6=-3354540569415901, declared_rank=8,
          generators=(_pt(-349920, 104866649), _pt(-262440, -105697711),
                      _pt(-174960, -79016311), _pt(-87480, 8551169),
                      _pt(87480, -3171151), _pt(174960, -119257111),
                      _pt(262440, -208049311), _pt(15046560, 59203555289)),
          torsion_note="no torsion over Q")
_register("rank14", a1=0, a2=0, a3=0, a4=_RANK14_A4, a6=0, declared_rank=14)
_register("rank28", a1=1, a2=-1, a3=1, a4=_RANK28_B, a6=_RANK28_C,
          declared_rank=28)


def catalog(curve_id: str) -> CurveQ:
    """Built-in curves by id. A test certifies mestre8's 8 generators
    independent, so its rank is at least 8; rank14's and rank28's
    declared ranks are recorded as published, without verification."""
    try:
        return _CATALOG[curve_id]
    except KeyError:
        raise ValueError(f"unknown curve id {curve_id!r}; "
                         f"known: {', '.join(sorted(_CATALOG))}") from None


def catalog_ids():
    return sorted(_CATALOG)
