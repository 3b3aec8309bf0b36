"""Desk-scale empirical probes of the relation-hardness assumptions: search
for integer relations sum x_i * G_i = infinity among the reduced generators,
and report generator orders against the Hasse interval.

A relation with exactly one nonzero coordinate is just a generator-order
multiple and is flagged as trivial; the hardness claim under test concerns
relations with at least two nonzero coordinates and bounded entries.
"""

import time
from dataclasses import dataclass
from typing import Tuple

from . import curve_fp
from .curve_fp import INF, ModPoint, msm, point_order
from .errors import InvariantError
from .hierarchy import SystemParams

EXHAUSTIVE_GUARD = 10 ** 8


@dataclass(frozen=True)
class RelationReport:
    params_digest: str
    method: str
    bound: int
    relations: Tuple[Tuple[int, ...], ...]   # sorted vectors, re-verified
    trivial_flags: Tuple[bool, ...]          # parallel: single-coordinate?
    orders: Tuple[int, ...]
    q_over_min_order: float
    wall_time: float


@dataclass(frozen=True)
class OrderReport:
    params_digest: str
    orders: Tuple[int, ...]
    hasse_lo: int
    hasse_hi: int
    q_over_min_order: float
    wall_time: float


def _is_trivial(vec) -> bool:
    return sum(1 for v in vec if v != 0) == 1


def _finish_relations(params: SystemParams, method: str, bound: int,
                      found, orders: Tuple[int, ...],
                      started: float) -> RelationReport:
    relations = tuple(sorted(set(found)))
    for vec in relations:
        if all(v == 0 for v in vec):
            raise InvariantError("all-zero vector reported as a relation")
        if not msm(params.curve, vec, params.gens).is_infinity:
            raise InvariantError(f"reported relation {vec} fails re-verification")
    return RelationReport(
        params_digest=params.digest().hex(), method=method, bound=bound,
        relations=relations,
        trivial_flags=tuple(_is_trivial(v) for v in relations),
        orders=orders,
        q_over_min_order=params.q / min(orders),
        wall_time=time.perf_counter() - started)


def relation_search_exhaustive(params: SystemParams, bound: int) -> RelationReport:
    """Every x in [-bound, bound]^r with sum x_i * G_i = infinity.

    Walks the grid with one point addition per step instead of one scalar
    multiplication per vector.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    r = params.r
    if bound ** r > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"bound^r = {bound ** r} exceeds the {EXHAUSTIVE_GUARD} guard")
    started = time.perf_counter()
    # the orders come before the walk, so p past the guard fails at once
    orders = tuple(point_order(params.curve, g) for g in params.gens)
    curve, gens = params.curve, params.gens
    found = []
    vec = [0] * r

    def sweep(i: int, acc: ModPoint):
        base = curve_fp._add_unchecked(
            curve, acc, curve_fp._scalar_unchecked(curve, -bound, gens[i]))
        for v in range(-bound, bound + 1):
            vec[i] = v
            if i + 1 < r:
                sweep(i + 1, base)
            elif base.is_infinity and any(vec):
                found.append(tuple(vec))
            if v < bound:
                base = curve_fp._add_unchecked(curve, base, gens[i])
        vec[i] = 0

    sweep(0, INF)
    return _finish_relations(params, "exhaustive", bound, found, orders,
                             started)


def relation_search_mitm(params: SystemParams, bound: int) -> RelationReport:
    """Meet-in-the-middle for r = 2: table x1*G1, probe -x2*G2.

    Output agrees with the exhaustive search over the same box; memory is
    one table entry per x1 in [-bound, bound].
    """
    if params.r != 2:
        raise ValueError("meet-in-the-middle search supports exactly r = 2")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    started = time.perf_counter()
    orders = tuple(point_order(params.curve, g) for g in params.gens)
    curve = params.curve
    g1, g2 = params.gens
    found = []

    table: dict = {}
    acc = curve_fp._scalar_unchecked(curve, -bound, g1)
    for x1 in range(-bound, bound + 1):
        table.setdefault(acc, []).append(x1)
        if x1 < bound:
            acc = curve_fp._add_unchecked(curve, acc, g1)

    neg_g2 = curve_fp.neg_fp(curve, g2)
    probe = curve_fp._scalar_unchecked(curve, bound, g2)  # -(-bound)*G2
    for x2 in range(-bound, bound + 1):
        for x1 in table.get(probe, ()):
            if x1 or x2:
                found.append((x1, x2))
        if x2 < bound:
            probe = curve_fp._add_unchecked(curve, probe, neg_g2)
    return _finish_relations(params, "mitm", bound, found, orders, started)


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
