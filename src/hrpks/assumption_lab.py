"""Desk-scale empirical probes of the relation-hardness assumptions: search
for integer relations sum x_i * G_i = infinity among the reduced generators,
and report generator orders against the Hasse interval.

A relation with exactly one nonzero coordinate is just a generator-order
multiple and is flagged as trivial; the hardness claim under test concerns
relations with at least two nonzero coordinates and bounded entries.
"""

import time

from . import curve_fp
from .curve_fp import msm, point_order
from .errors import InvariantError
from .hierarchy import SystemParams
from .serial import OrderReport, RelationReport

SEARCH_GUARD = 10 ** 6  # probe steps, (2 * bound + 1) ** ceil(r / 2)


def _is_trivial(vec) -> bool:
    return sum(1 for v in vec if v != 0) == 1


def _box(curve, gens, bound: int):
    """Yield (x, sum x_i * G_i) for every x in [-bound, bound]^len(gens),
    in `itertools.product` order, the sum as a `_sum_rows` row entry. The
    last generator's 2 * bound + 1 multiples are one row, and each box
    point of the other generators is added to it in one `_sum_rows` level,
    one inversion per row."""
    if not gens:
        yield (), None
        return
    *head, last = gens
    span = range(-bound, bound + 1)
    row = curve_fp._progression(
        curve, curve_fp._straus(curve, [(-bound, last)]), last, len(span))
    for vec, point in _box(curve, head, bound):
        sums = curve_fp._sum_rows(curve, [[point] * len(row), row])
        yield from zip((vec + (v,) for v in span), sums)


def relation_search(params: SystemParams, bound: int) -> RelationReport:
    """Every nonzero x in [-bound, bound]^r with sum x_i * G_i = infinity.

    Meet in the middle: a table maps each box point of the first r // 2
    generators to its vectors, and the box points of the other generators,
    negated, probe it. With B = bound, time is (2B + 1)^ceil(r/2) steps,
    memory (2B + 1)^(r//2) table entries and a row of 2B + 1 per generator.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    r = params.r
    steps = (2 * bound + 1) ** ((r + 1) // 2)
    if steps > SEARCH_GUARD:
        raise ValueError(
            f"{steps} probe steps exceed the {SEARCH_GUARD} guard")
    started = time.perf_counter()
    # the orders come before the walk, so p past the guard fails at once
    orders = tuple(point_order(params.curve, g) for g in params.gens)
    curve, gens = params.curve, params.gens
    half = r // 2
    # box point -> its vector, or a list of its vectors once two share it
    table: dict = {}
    for vec, point in _box(curve, gens[:half], bound):
        heads = table.get(point)
        if heads is None:
            table[point] = vec
        elif isinstance(heads, list):
            heads.append(vec)
        else:
            table[point] = [heads, vec]
    negated = [curve_fp.neg_fp(curve, g) for g in gens[half:]]
    relations = []
    for tail, point in _box(curve, negated, bound):
        heads = table.get(point)
        if heads is None:
            continue
        for head in heads if isinstance(heads, list) else (heads,):
            vec = head + tail
            if any(vec):
                relations.append(vec)
    relations.sort()
    for vec in relations:
        if not any(vec):
            raise InvariantError("all-zero vector reported as a relation")
        if not msm(curve, vec, gens).is_infinity:
            raise InvariantError(
                f"reported relation {vec} fails re-verification")
    return RelationReport(
        params_digest=params.digest().hex(), method="mitm", bound=bound,
        relations=tuple(relations),
        trivial_flags=tuple(_is_trivial(v) for v in relations),
        orders=orders,
        q_over_min_order=params.q / min(orders),
        wall_time=time.perf_counter() - started)


def order_report(params: SystemParams) -> OrderReport:
    """Exact order of every generator, with the Hasse-interval sanity check
    that some multiple of each order lands inside the interval."""
    started = time.perf_counter()
    lo, hi = curve_fp.hasse_interval(params.p)
    orders = []
    for g in params.gens:
        n = point_order(params.curve, g)
        if (hi // n) * n < lo:
            raise InvariantError(
                f"order {n} has no multiple in the Hasse interval [{lo}, {hi}]")
        orders.append(n)
    return OrderReport(
        params_digest=params.digest().hex(), orders=tuple(orders),
        hasse_lo=lo, hasse_hi=hi,
        q_over_min_order=params.q / min(orders),
        wall_time=time.perf_counter() - started)
