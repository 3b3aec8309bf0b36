"""Arithmetic in E(F_p): reduction of rational curves and points mod p,
the long-Weierstrass group law, multi-scalar multiplication, exact
point-order computation via baby-step giant-step over the Hasse interval,
and #E(F_p) where one such search proves it.

Points cross every API boundary as affine `ModPoint`s. The affine
long-Weierstrass law lives in one place, `_sum_rows`: it adds lists of
affine points elementwise and in place, level by level of a pairwise
tree, with one shared inversion per level (Montgomery's trick, Math.
Comp. 1987). `add_fp` is one level on one pair, and the walks of BSGS and
the lab's box are `_progression` rows, one level per doubling. `msm` and
`scalar_mul_fp` share one engine: simultaneous double-and-add over rows
of affine points, one entry per column of a doubling chain that works in
long-Weierstrass Jacobian coordinates (x = X/Z^2, y = Y/Z^3) with a1..a6
kept, so it serves every p, 2 and 3 included. Every inversion is a
`pow(v, -1, p)` call in this module.

Long-lived bases, such as a system's generators, run on a fixed-base
comb (Lim and Lee, "More Flexible Exponentiation with Precomputation",
CRYPTO 1994) of t = COMB_TEETH = 9 teeth. For scalars below 2^(d*t),
cut into t blocks of d bits, each base G keeps the 2^t - 1 subset sums
of its teeth {2^(d*i) * G : i < t}; bit j of every block together picks
one table entry per base, so each base gives a row of d entries. Any
other term n * P is a comb with one tooth: its row holds P, -P or
nothing per column, from the non-adjacent form (NAF) of n, which needs
no table and has about one nonzero digit in three. No row depends on
the chain, so the rows are summed column by column up front in affine
form, by a pairwise tree whose every level is one batch across all
columns with one inversion: the comb rows first (five levels for eight
bases on two tables and a key), then those column sums and the NAF rows,
padded at the top to the longest. A call then costs one doubling and at
most one mixed addition per column, and one inversion to return the
result to affine form. A table is built with the same kernel: one batch
normalisation of the teeth, then one level per tooth, each with one
inversion but the first, which only copies tooth 0 into the table.

`msm(..., fixed=k, fixed_bits=nbits)` marks the first k points as
long-lived bases, with t = COMB_TEETH teeth and d = ceil(nbits / t)
columns; their scalars outside [0, 2^(d*t)) become NAF rows like every
other term. Their table is kept in a small LRU keyed by the content
(curve, bases, nbits and the start bit), so freshly loaded copies of the
same parameters share it. `fixed_bits` may also be increasing bounds
that cut each scalar into slices, one table per slice: a slice starts
where the one before it ends, its table's teeth start at that bit, and
the rows of all slices are padded at the top onto one chain as long as
the widest table. With `keyed_bits`, each other point is a key: its
scalar in [1, 2^(D*t')) runs on a comb of that point alone, in the
chain's D columns with t' = `key_teeth` teeth, kept in a second LRU of
KEY_CACHE_SIZE tables keyed by (curve, point, D, t'), so a key loaded
afresh still hits.

Where #E is known (`group_order`, for p up to 2^32), a system keeps one
table over its r generators: `SystemParams.key_point` and `gens_msm`
reduce every scalar mod #E, which is exact because #E annihilates every
point, and read one table sized to b = min(bitlen(q), bitlen(#E)), ceil(b
/ t) columns (4 at a 32-bit p). Elsewhere it keeps two. Bits 0 .. S - 1,
S = t * ceil(bitlen(q) / t), are on the one sized to q, d_q =
ceil(bitlen(q) / t) columns: `key_point` reads it alone, for key
coordinates (join's member point, the key check). Bits S and up, to
mask_bits (or to bitlen(#E), where #E is past S), are on the second, d_hi
= ceil((mask_bits - S) / t) columns, and `gens_msm` reads both, for sign,
verify and certificate checks, on a chain of D = max(d_q, d_hi) columns
rather than ceil(mask_bits / t): 17 instead of 27 at bitlen(q) = 89 and
mask_bits = 241. A key's comb has t' = ceil(l_c / D) teeth either way,
so it keeps its 2^t' - 1 entries, and where #E is known the chain is
max(ceil(b / t), ceil(min(l_c, bitlen(#E)) / t')) columns: 11 at toy17,
and 6 at a 32-bit p with q = 2^127 - 1, where D is 21. `gens_msm` runs
every key's -c * pk as c * (-pk) there, a member's in a verify and the
GM's in a certificate check alike, so the key adds no columns, where a
NAF row of c would take l_c + 1; a scalar the key's table cannot take, 0
among them, is a NAF row.

None of this is constant-time; the package is a research artifact for
desk-scale parameters, not a hardened signing stack.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from . import modmath
from .curve_q import CurveQ, RationalPoint, discriminant_coeffs
from .errors import InvariantError


@dataclass(frozen=True)
class ModPoint:
    """A point of E(F_p): affine (x, y) with 0 <= x, y < p, or infinity."""

    x: Optional[int] = None
    y: Optional[int] = None

    @staticmethod
    def infinity() -> "ModPoint":
        return ModPoint(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "ModPoint(inf)"
        return f"ModPoint({self.x}, {self.y})"


INF = ModPoint.infinity()


@dataclass(frozen=True)
class CurveFp:
    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        _require_prime(self.p)
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if discriminant_fp(self) == 0:
            raise InvariantError(
                f"bad reduction: discriminant vanishes mod {self.p}")


def _require_prime(p: int):
    if not modmath.is_probable_prime(p):
        raise ValueError(f"p = {p} is not prime")


def discriminant_fp(curve: CurveFp) -> int:
    return discriminant_coeffs(curve.a1, curve.a2, curve.a3, curve.a4,
                               curve.a6) % curve.p


def reduce_curve(curve: CurveQ, p: int) -> CurveFp:
    """Reduce a rational curve mod p. Errors if p is not prime (checked
    once, by `CurveFp`), divides a coefficient denominator, or the
    reduction is singular."""
    coeffs = []
    for frac in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6):
        try:
            inv = pow(frac.denominator, -1, p)
        except ValueError:
            # the denominator shares a factor with p: p divides it, or p
            # is not prime (or not a valid modulus)
            _require_prime(p)
            raise ValueError(
                f"p = {p} divides a coefficient denominator") from None
        coeffs.append(frac.numerator * inv % p)
    return CurveFp(p, *coeffs)


def reduce_point(curve: CurveFp, P: RationalPoint) -> ModPoint:
    """Reduction map E(Q) -> E(F_p).

    A coordinate denominator divisible by p means the point reduces to the
    identity (it sits in the kernel of reduction), so the map stays total.
    """
    if P.is_infinity:
        return INF
    p = curve.p
    if P.x.denominator % p == 0 or P.y.denominator % p == 0:
        return INF
    x = P.x.numerator * pow(P.x.denominator, -1, p) % p
    y = P.y.numerator * pow(P.y.denominator, -1, p) % p
    return ModPoint(x, y)


def on_curve_fp(curve: CurveFp, P: ModPoint) -> bool:
    if P.is_infinity:
        return True
    p = curve.p
    x, y = P.x, P.y
    if not (0 <= x < p and 0 <= y < p):
        return False
    lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
    rhs = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
    return lhs == rhs


def neg_fp(curve: CurveFp, P: ModPoint) -> ModPoint:
    if P.is_infinity:
        return P
    p = curve.p
    return ModPoint(P.x, (-P.y - curve.a1 * P.x - curve.a3) % p)


def _require_on_curve(curve: CurveFp, P: ModPoint):
    if not on_curve_fp(curve, P):
        raise ValueError(f"point {P} is not on the curve mod {curve.p}")


def _entry(P: ModPoint):
    """P as a `_sum_rows` row entry: affine (x, y), or None for infinity."""
    return None if P.is_infinity else (P.x, P.y)


def add_fp(curve: CurveFp, P: ModPoint, Q: ModPoint) -> ModPoint:
    _require_on_curve(curve, P)
    _require_on_curve(curve, Q)
    (R,) = _sum_rows(curve, [[_entry(P)], [_entry(Q)]])
    return INF if R is None else ModPoint(*R)


def scalar_mul_fp(curve: CurveFp, n: int, P: ModPoint) -> ModPoint:
    """n*P; 0*P = infinity, negative n via negation. Runs the `msm`
    engine on one term."""
    _require_on_curve(curve, P)
    return _straus(curve, [(n, P)])


def msm(curve: CurveFp, scalars: Sequence[int], points: Sequence[ModPoint],
        *, fixed: int = 0, fixed_bits: Union[int, Sequence[int]] = 0,
        keyed_bits: int = 0, key_teeth: int = 0) -> ModPoint:
    """Sum of scalars[i] * points[i] on one Jacobian doubling chain.

    Each term n * P is a row of P, -P or nothing per chain column, from
    the NAF of n; the rows are summed per column in affine form, one
    inversion per level of a pairwise tree, and the chain makes one
    doubling and at most one mixed addition per column. One inversion
    converts the result back to an affine `ModPoint`.

    The first `fixed` points are long-lived bases, on cached comb tables
    of t = COMB_TEETH teeth. `fixed_bits` is an int b, for one table of d
    = ceil(b / t) columns, or increasing bounds (b_1, b_2, ...) that cut
    the scalars into slices: the first slice is the table for b_1 from
    bit 0, and each next slice starts at the bit s where the one before
    ends, with ceil((b_k - s) / t) columns. A scalar in [0, 2^top), top
    the end of the last slice, gives each table the row of its slice's
    digit, padded at the top to the widest table's D columns; any other
    is a NAF row. With `keyed_bits` and t' = `key_teeth`, every other
    point is a key, such as the one a verify checks. The chain then has
    max(D, ceil(keyed_bits / t')) columns, every table's rows padded at
    the top to it, and a key's scalar in [1, 2^(columns * t')) runs on a
    cached comb of that point alone in those columns, of t' teeth.
    Summing the comb rows costs one inversion per level, ceil(log2 k)
    for k combed rows, and merging those sums with the other rows
    ceil(log2(m + 1)) more for m other terms. Building a missing table of
    t teeth costs t more: one to normalise the teeth and one per tooth
    after the first. The result is the same for every input either way.
    """
    if len(scalars) != len(points):
        raise ValueError(f"length mismatch: {len(scalars)} scalars, "
                         f"{len(points)} points")
    bounds = (fixed_bits,) if isinstance(fixed_bits, int) else fixed_bits
    if not 0 <= fixed <= len(points) or (fixed and bounds[0] < 1):
        raise ValueError("need 0 <= fixed <= len(points) and fixed_bits >= 1")
    if not fixed:
        if keyed_bits:
            raise ValueError("need keyed_bits = 0 without fixed bases")
        for P in points:
            _require_on_curve(curve, P)
        return _straus(curve, zip(scalars, points))
    # (nbits, start) of each slice's table; the first is looked up without
    # its start, as key coordinates' one-slice table is, so both are one
    # cache entry
    slices, start = [(bounds[0],)], 0
    for bound in bounds[1:]:
        start += COMB_TEETH * -(-slices[-1][0] // COMB_TEETH)
        if bound <= start:
            raise ValueError("fixed_bits bounds must grow past each slice")
        slices.append((bound - start, start))
    width = max(-(-nbits // COMB_TEETH) for nbits, *_ in slices)
    if not (0 <= keyed_bits <= bounds[-1]
            and (not keyed_bits or 1 <= key_teeth <= COMB_TEETH)):
        raise ValueError("need 0 <= keyed_bits <= fixed_bits, with fixed "
                         "bases, and 1 to COMB_TEETH key_teeth")
    if keyed_bits:
        width = max(width, -(-keyed_bits // key_teeth))
    combed, terms = [], []
    for n, P in zip(scalars[fixed:], points[fixed:]):
        if 0 < n < 1 << width * key_teeth:
            combed.append(_key_table(curve, P, width, key_teeth).row(0, n))
        else:
            _require_on_curve(curve, P)
            terms.append((n, P))
    bases = tuple(points[:fixed])
    tables = [_comb_table(curve, bases, *args) for args in slices]
    top = 1 << tables[-1].stop
    for i, (n, P) in enumerate(zip(scalars, bases)):
        if not 0 <= n < top:
            terms.append((n, P))
            continue
        for table in tables:
            m = n >> table.start & table.mask
            if m:
                combed.append([None] * (width - table.d) + table.row(i, m))
    return _straus(curve, terms, combed)


# -- Jacobian engine --------------------------------------------------------
#
# (X, Y, Z) with Z != 0 stands for the affine point (X/Z^2, Y/Z^3); Z == 0
# is infinity. The formulas are the affine long-Weierstrass law of
# `_sum_rows` with x1, x2, y1, y2 substituted and the denominators
# cleared, so a1..a6 stay general and no division by 2 or 3 appears: one
# path serves every p.

_JAC_INF = (1, 1, 0)

# Comb teeth per base (tables of 2^t - 1 entries, d = ceil(nbits / t)
# doublings and column sums per call), and how many tables the LRU holds:
# one per system where #E is known, else two, the one sized to q and the
# one above it up to mask_bits, so four to eight systems. `group_order`
# keeps as many orders.
# On the shape of a verify at r = 8 (eight generators and a key row,
# 241-bit scalars mod 2^127 - 1; CPython 3.11, 2-vCPU VM, best of three
# runs on a noisy host), t = 8, 9 and 10 took 1.04, 0.90 and 0.87 ms per
# msm, and the eight-base table 15, 20 and 31 ms to build, holding 0.19,
# 0.49 and 1.28 MiB by tracemalloc. t = 10 would save 3% more per msm for
# 1.6 times the build and 2.6 times the memory, which every fresh process
# pays, so t stops at 9.
COMB_TEETH = 9
COMB_CACHE_SIZE = 8
# How many key combs `msm` keeps for `keyed_bits` terms, the least
# recently used dropped first. A verifier that cycles through more
# distinct keys than this never hits. By tracemalloc (128 keys made
# beforehand, each verified once through `gens_msm`), an entry holds
# about 1.1 KB at toy17 (D = 11 columns, t' = 3 teeth, 7 entries), 9.5 KB
# at r = 8 mod 2^127 - 1 with q = 2^89 - 1 (D = 17, t' = 6, 63 entries)
# and 7.9 KB at r = 8 mod a 32-bit p with q = 2^127 - 1 (D = 21, t' = 6),
# 7.8 KB there with D = 6 once scalars are reduced mod #E; with the chain
# at ceil(mask_bits / t) columns the last two held 15 entries and read 2.2
# and 1.8 KB the same way.
KEY_CACHE_SIZE = 128


def _jac_double(curve: CurveFp, P):
    X, Y, Z = P
    if not Z:
        return P
    p, a1, a2, a3, a4 = curve.p, curve.a1, curve.a2, curve.a3, curve.a4
    ZZ = Z * Z % p
    # lambda = N / (Z * D) with D = Z^3 * (2y + a1 x + a3); D = 0 on
    # 2-torsion, where Z3 = 0 makes the result infinity
    D = (2 * Y + (a1 * X + a3 * ZZ) * Z) % p
    N = (3 * X * X + (2 * a2 * X + a4 * ZZ) * ZZ - a1 * Y * Z) % p
    Z3 = Z * D % p
    DD = D * D % p
    XDD = X * DD % p
    X3 = (N * (N + a1 * Z3) - a2 * Z3 * Z3 - 2 * XDD) % p
    Y3 = (N * (XDD - X3) - a1 * X3 * Z3 - Y * DD * D - a3 * Z3 * Z3 * Z3) % p
    return X3, Y3, Z3


def _jac_add_affine(curve: CurveFp, P, x2: int, y2: int):
    """P + (x2, y2) for Jacobian P and a finite affine point."""
    X1, Y1, Z1 = P
    if not Z1:
        return x2, y2, 1
    p, a1, a2, a3 = curve.p, curve.a1, curve.a2, curve.a3
    ZZ = Z1 * Z1 % p
    U2 = x2 * ZZ % p
    S2 = y2 * ZZ * Z1 % p
    H = (U2 - X1) % p
    R = (S2 - Y1) % p
    if not H and not R:
        return _jac_double(curve, P)
    # lambda = R / Z3; opposite points have H = 0, so Z3 = 0 is infinity
    Z3 = Z1 * H % p
    HH = H * H % p
    X1HH = X1 * HH % p
    X3 = (R * (R + a1 * Z3) - a2 * Z3 * Z3 - X1HH - U2 * HH) % p
    Y3 = (R * (X1HH - X3) - a1 * X3 * Z3 - Y1 * HH * H - a3 * Z3 * Z3 * Z3) % p
    return X3, Y3, Z3


def _invert_all(p: int, values):
    """The inverse mod p of each nonzero value, with one inversion for the
    whole batch (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        acc = acc * v % p
        prefix.append(acc)
    if not prefix:
        return []
    inv = pow(acc, -1, p)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * values[i] % p
    out[0] = inv
    return out


def _normalize(curve: CurveFp, jpoints):
    """Affine (x, y) for each Jacobian point, or None for infinity, with
    one inversion for the whole batch."""
    p = curve.p
    finite = [i for i, (_, _, Z) in enumerate(jpoints) if Z]
    out = [None] * len(jpoints)
    for i, zi in zip(finite, _invert_all(p, [jpoints[i][2] for i in finite])):
        X, Y, _ = jpoints[i]
        zi2 = zi * zi % p
        out[i] = (X * zi2 % p, Y * zi2 * zi % p)
    return out


def _sum_rows(curve: CurveFp, rows):
    """Elementwise affine sum of equal-length lists of affine (x, y) points,
    None for infinity, in place: each level adds row 2i + 1 into row 2i,
    an odd last row waiting for the next level, and the first row is the
    result. This is the one affine long-Weierstrass law. A forward pass
    over a level multiplies up the slope denominators of its finite pairs,
    x2 - x1 for a chord and 2y + a1 x + a3 for a tangent; one `pow(., -1,
    p)` inverts the product (Montgomery's trick, Math. Comp. 1987); and a
    backward pass peels off each pair's inverse and writes its sum. A
    tangent denominator of 0, which every opposite pair has, is infinity
    and joins neither pass, so a level with nothing to add inverts
    nothing."""
    p, a1, a2, a3, a4 = curve.p, curve.a1, curve.a2, curve.a3, curve.a4
    while len(rows) > 1:
        acc, todo = 1, []
        for A, B in zip(rows[::2], rows[1::2]):
            for i, Q in enumerate(B):
                P = A[i]
                if Q is None:
                    continue
                if P is None:
                    A[i] = Q
                    continue
                (x1, y1), (x2, y2) = P, Q
                if x1 != x2:
                    num, den = y2 - y1, x2 - x1
                else:
                    den = (y1 + y2 + a1 * x2 + a3) % p
                    if not den:
                        A[i] = None
                        continue
                    num = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1
                todo.append((A, i, acc, num, den, x1, y1, x2))
                acc = acc * den % p
        if todo:
            inv = pow(acc, -1, p)
            for A, i, prefix, num, den, x1, y1, x2 in reversed(todo):
                lam = num * prefix * inv % p
                inv = inv * den % p
                x3 = (lam * (lam + a1) - a2 - x1 - x2) % p
                A[i] = x3, (lam * (x1 - x3) - a1 * x3 - y1 - a3) % p
        rows = rows[::2]
    return rows[0] if rows else []


# New entries per `_sum_rows` call of a `_progression` level. The call
# keeps one pending-pair record per entry until its inversion, about 1.8
# times the entry's own size, so a longer level is added in chunks of this
# many: a long walk's peak stays near the size of its row.
PROGRESSION_CHUNK = 1 << 12


def _progression(curve: CurveFp, start: ModPoint, step: ModPoint,
                 count: int):
    """start + k * step for k < count as `_sum_rows` row entries, for
    points on the curve: each level adds n * step to the n entries so far
    and doubles n * step, ceil(log2 count) levels. A level makes one
    inversion per PROGRESSION_CHUNK new entries, its last chunk doubling
    the stride too, so a walk of at most 2 * PROGRESSION_CHUNK entries
    makes one per level."""
    row, stride = [_entry(start)], _entry(step)
    while len(row) < count:
        n = min(len(row), count - len(row))
        for i in range(0, n, PROGRESSION_CHUNK):
            part = row[i:min(i + PROGRESSION_CHUNK, n)]
            last = i + len(part) == n
            if last:
                part.append(stride)
            sums = _sum_rows(curve, [part, [stride] * len(part)])
            if last:
                stride = sums.pop()
            row += sums
    del row[count:]
    return row


class _Comb:
    """Comb tables of a tuple of bases with t teeth of d bits each, from
    bit `start` up to `stop` = start + d*t: rows[i][m] is the affine sum
    of the teeth 2^(start + d*k) * bases[i] over the set bits k of m, or
    None for infinity. The teeth are Jacobian doublings, `start` of them
    before the first, with one batch inversion to normalise them; the
    subset sums then take t one-level `_sum_rows` calls of two rows, one
    inversion each but the first: level k adds tooth k to entries 0 ..
    2^k - 1 of every row."""

    def __init__(self, curve: CurveFp, bases: Tuple[ModPoint, ...], d: int,
                 t: int, start: int = 0):
        self.d, self.start, self.stop = d, start, start + d * t
        self.mask = (1 << d * t) - 1
        self.digits = f"0{d * t}b"
        self.index = _comb_index(t)
        teeth = []
        for P in bases:
            tooth = _JAC_INF if P.is_infinity else (P.x, P.y, 1)
            for _ in range(start):
                tooth = _jac_double(curve, tooth)
            teeth.append(tooth)
            for _ in range(t - 1):
                for _ in range(d):
                    tooth = _jac_double(curve, tooth)
                teeth.append(tooth)
        teeth = _normalize(curve, teeth)
        rows = [[None] for _ in bases]
        for k in range(t):
            sums = iter(_sum_rows(curve, [
                [entry for row in rows for entry in row],
                [teeth[i * t + k] for i, row in enumerate(rows)
                 for _ in row]]))
            for row in rows:
                row += itertools.islice(sums, len(row))
        self.rows = rows

    def row(self, i: int, m: int):
        """The entries of bases[i]'s row for m = bits start .. stop - 1 of
        a scalar, 0 <= m < 2^(d*t), one per comb column, top column
        first: column j gathers bit d*k + j of m into bit k."""
        bits = format(m, self.digits)
        d, index, row = self.d, self.index, self.rows[i]
        return [row[index[bits[k::d]]] for k in range(d)]


@functools.lru_cache(maxsize=None)
def _comb_index(t: int):
    """Each t-bit string to the row index it names, shared by every comb
    of t teeth; `msm` makes none of more than COMB_TEETH."""
    return {format(m, f"0{t}b"): m for m in range(1 << t)}


@functools.lru_cache(maxsize=COMB_CACHE_SIZE)
def _comb_table(curve: CurveFp, bases: Tuple[ModPoint, ...], nbits: int,
                start: int = 0) -> _Comb:
    """The comb of (curve, bases) over nbits bits from bit `start`,
    COMB_TEETH teeth of ceil(nbits / COMB_TEETH) bits, cached by content;
    the bases are checked on the curve on a miss, and a failed check
    caches nothing."""
    for P in bases:
        _require_on_curve(curve, P)
    return _Comb(curve, bases, -(-nbits // COMB_TEETH), COMB_TEETH, start)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _key_table(curve: CurveFp, P: ModPoint, d: int, t: int) -> _Comb:
    """The comb of the one base P in d columns of t teeth, cached by
    content, so a key loaded afresh still hits; P is checked on the curve
    on a miss, and a failed check caches nothing."""
    _require_on_curve(curve, P)
    return _Comb(curve, (P,), d, t)


def _naf_row(curve: CurveFp, n: int, P: ModPoint):
    """n * P as a comb row with one tooth: P, -P or None per digit of the
    non-adjacent form of n != 0, top digit first, for a finite P. With
    h = 3n, bit i + 1 of h & ~n marks digit i as +1 and of n & ~h as -1;
    Python's unbounded two's complement makes this hold for n < 0 too."""
    h = 3 * n
    plus, minus = (h & ~n) >> 1, (n & ~h) >> 1
    digits = f"0{(plus | minus).bit_length()}b"
    Q = neg_fp(curve, P)
    pos, neg = (P.x, P.y), (Q.x, Q.y)
    return [pos if a == "1" else neg if b == "1" else None
            for a, b in zip(format(plus, digits), format(minus, digits))]


def _straus(curve: CurveFp, terms, combed=()) -> ModPoint:
    """Sum of n * P over (n, P) terms; points are already known on the
    curve. Simultaneous double-and-add over rows of affine entries, top
    column first: each list in `combed` holds one base's comb table
    entries for one slice, all lists d columns long, and each term is a
    `_naf_row`. `_sum_rows` sums the comb rows per column first, so their
    levels do not walk the NAF rows' padding, then sums those d sums and
    the NAF rows, all padded at the top to the longest; the chain makes
    one Jacobian doubling and at most one mixed addition per column."""
    rows = [_naf_row(curve, n, P) for n, P in terms
            if n and not P.is_infinity]
    if combed:
        rows.append(_sum_rows(curve, combed))
    width = max(map(len, rows), default=0)
    acc = _JAC_INF
    for entry in _sum_rows(curve, [[None] * (width - len(row)) + row
                                   for row in rows]):
        acc = _jac_double(curve, acc)
        if entry is not None:
            acc = _jac_add_affine(curve, acc, *entry)
    (out,) = _normalize(curve, [acc])
    return INF if out is None else ModPoint(*out)


ORDER_P_GUARD = 1 << 64


def hasse_interval(p: int) -> Tuple[int, int]:
    """[p+1-2sqrt(p), p+1+2sqrt(p)], widened outward to integers."""
    two_sqrt = math.isqrt(4 * p)
    if two_sqrt * two_sqrt < 4 * p:
        two_sqrt += 1
    return p + 1 - two_sqrt, p + 1 + two_sqrt


def _bsgs_annihilator(curve: CurveFp, P: ModPoint) -> int:
    """Smallest-found m in the Hasse interval with m*P = infinity.

    Classic collision search: with W the interval width, baby steps cover
    j in [0, ceil(sqrt(W))) and giant steps stride by that same amount.
    Both are `_progression` rows, one inversion per doubling of a row, and
    both are held at once: about 2*p^(1/4) entries each, 4*p^(1/4) in all.
    """
    lo, hi = hasse_interval(curve.p)
    lo = max(lo, 1)  # p <= 3 pushes the raw floor to 0; orders start at 1
    width = hi - lo + 1
    m_step = math.isqrt(width)
    if m_step * m_step < width:
        m_step += 1

    baby = {}
    for j, entry in enumerate(_progression(curve, INF, P, m_step)):
        baby.setdefault(entry, j)

    # find k in [0, width) with k*P = -lo*P, then m = lo + k
    giants = _progression(curve, _straus(curve, [(-lo, P)]),
                          _straus(curve, [(-m_step, P)]), -(-width // m_step))
    for i, gamma in enumerate(giants):
        j = baby.get(gamma)
        if j is not None and i * m_step + j < width:
            return lo + i * m_step + j
    raise ArithmeticError(
        "no annihilating multiple in the Hasse interval; "
        "this indicates a group-law bug")


def point_order(curve: CurveFp, P: ModPoint) -> int:
    """Exact order of P: find one annihilator in the Hasse interval, factor
    it, then strip primes while the quotient still kills P. Refuses p above
    ORDER_P_GUARD, where the baby and giant rows (about 4*p^(1/4) entries
    together) outgrow a desk."""
    if curve.p > ORDER_P_GUARD:
        raise ValueError("p exceeds the 2^64 order-search guard")
    _require_on_curve(curve, P)
    if P.is_infinity:
        return 1
    m = _bsgs_annihilator(curve, P)
    for prime in sorted(modmath.factorize(m)):
        while m % prime == 0 and _straus(curve, [(m // prime, P)]).is_infinity:
            m //= prime
    return m


# `group_order` searches only up to this p. `point_order` on mestre8's G_1,
# at the largest prime below 2^32, 2^40, 2^48 and 2^56 that reduces well,
# took 2.6, 6.9, 29 and 128 ms (best of five, CPython 3.11, shared 2-vCPU
# host), about p^(1/4) growth. Every fresh process that joins, signs or
# verifies pays it once, and saves a comb table's build in return: its
# first sign took 13 and 7 ms less at the 32- and 40-bit primes but 12.5
# ms more at the 48-bit one with r = 8 and q = 2^127 - 1, and 0.05 and 4.2
# ms more at toy17's 32-bit toy p and a 40-bit p with r = 2 (fresh
# processes, 16 alternating pairs each). Up to 2^32 no shape loses.
GROUP_ORDER_P_BOUND = 1 << 32


@functools.lru_cache(maxsize=COMB_CACHE_SIZE)
def group_order(curve: CurveFp, base: ModPoint) -> Optional[int]:
    """#E(F_p) where one point-order search proves it, else None. For p up
    to GROUP_ORDER_P_BOUND, #E is a multiple of o = ord(base) in the Hasse
    interval [lo, hi], and the only one when o > hi - lo. Cached by
    content, like the comb tables, so freshly loaded copies of the same
    parameters search once; a base off the curve raises and caches
    nothing."""
    if curve.p > GROUP_ORDER_P_BOUND:
        return None
    lo, hi = hasse_interval(curve.p)
    o = point_order(curve, base)
    # o <= #E <= hi, so a floor lo <= 0 (p <= 3) never passes
    return -(-lo // o) * o if o > hi - lo else None
