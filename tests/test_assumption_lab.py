import dataclasses
import itertools
import time

import pytest

from hrpks import assumption_lab, curve_fp, modmath
from hrpks.assumption_lab import OrderReport, order_report, relation_search
from hrpks.curve_fp import (add_fp, hasse_interval, msm, point_order,
                            scalar_mul_fp)

from conftest import make_mestre8_params, make_small_params, make_toy_params


def _brute_relations(params, bound):
    """Definitional oracle: msm on every nonzero vector of the box, in
    sorted order."""
    box = itertools.product(range(-bound, bound + 1), repeat=params.r)
    return tuple(vec for vec in box if any(vec)
                 and msm(params.curve, vec, params.gens).is_infinity)


def _relation_params():
    """mestre8 mod 10007 with G1, G2 and G1 + G2 in place of its
    generators, so that (1, 1, -1) is a relation."""
    params, _gm = make_mestre8_params()
    g1, g2 = params.gens[:2]
    return dataclasses.replace(
        params, gens=(g1, g2, add_fp(params.curve, g1, g2)), r=3)


def test_mitm_finds_order_relations_p97():
    # both reduced generators have order 103 (enumerated in test_curve_fp),
    # so a bound of 110 > 103 must surface the single-generator relations
    params, _gm = make_small_params()
    report = relation_search(params, 110)
    assert report.method == "mitm"
    assert (103, 0) in report.relations
    assert (-103, 0) in report.relations
    assert (0, 103) in report.relations
    flags = dict(zip(report.relations, report.trivial_flags))
    assert flags[(103, 0)] is True
    assert flags[(0, -103)] is True
    # the group is cyclic of order 103, so plenty of mixed relations exist
    assert any(not f for f in report.trivial_flags)
    assert report.orders == (103, 103)
    assert report.params_digest == params.digest().hex()


def test_mitm_bound_zero_empty():
    params, _gm = make_small_params()
    report = relation_search(params, 0)
    assert report.relations == ()
    assert report.trivial_flags == ()


def test_mitm_matches_brute_force_oracle():
    params, _gm = make_small_params()
    for bound in (1, 7, 25):
        report = relation_search(params, bound)
        assert report.relations == _brute_relations(params, bound)
    # r = 1: the table holds only infinity; P1 mod 97 has order 103
    params1 = dataclasses.replace(params, gens=params.gens[:1], r=1)
    for bound in (0, 1, 102, 103, 150):
        report = relation_search(params1, bound)
        assert report.relations == _brute_relations(params1, bound)
        assert all(report.trivial_flags)
    assert relation_search(params1, 103).relations == ((-103,), (103,))
    # r = 3: G3 = G1 + G2, so (1, 1, -1) and its multiples are relations
    params3 = _relation_params()
    for bound in range(7):
        report = relation_search(params3, bound)
        assert report.relations == _brute_relations(params3, bound)
        assert report.trivial_flags == tuple(
            sum(map(bool, v)) == 1 for v in report.relations)
    assert (1, 1, -1) in report.relations


def test_mitm_agrees_with_exhaustive():
    params, _gm = make_small_params()
    for bound in (10, 50):
        assert relation_search(params, bound).relations == \
            _brute_relations(params, bound)
    # and on a second small prime
    params997, _ = make_small_params(p=997, q=257, seed=8)
    report = relation_search(params997, 50)
    assert report.relations and \
        report.relations == _brute_relations(params997, 50)


def test_mitm_trivial_flags():
    params, _gm = make_small_params()
    report = relation_search(params, 110)
    flags = dict(zip(report.relations, report.trivial_flags))
    assert flags[(103, 0)] is True and flags[(0, 103)] is True
    mixed = [v for v, f in flags.items() if not f]
    assert mixed and all(v[0] != 0 and v[1] != 0 for v in mixed)


def test_relations_reverify_via_msm():
    params, _gm = make_small_params()
    report = relation_search(params, 60)
    assert report.relations  # cyclic 103-order group: relations exist
    for vec in report.relations:
        assert msm(params.curve, vec, params.gens).is_infinity
        assert any(vec)


def test_mitm_tiny_bound_on_toy_prime():
    params, _gm = make_toy_params()
    report = relation_search(params, 1)
    assert report.relations == ()


def test_guards():
    params, _gm = make_small_params()
    with pytest.raises(ValueError):
        relation_search(params, -1)
    # (2 * bound + 1) ** ceil(r / 2) probe steps: just past the guard is
    # refused before the orders and the walk; one bound less is allowed
    assert 2 * 499999 + 1 <= assumption_lab.SEARCH_GUARD < 2 * 500000 + 1
    assert 999 ** 2 <= assumption_lab.SEARCH_GUARD < 1001 ** 2
    for params, bound in ((params, 500000), (_relation_params(), 500)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="probe steps"):
            relation_search(params, bound)
        assert time.perf_counter() - started < 1.0


def test_order_report_p97():
    params, _gm = make_small_params()
    report = order_report(params)
    assert report.orders == (103, 103)
    assert report.hasse_lo <= 103 <= report.hasse_hi
    assert report.q_over_min_order == params.q / 103
    text_roundtrip_ok = isinstance(report, OrderReport)
    assert text_roundtrip_ok


def test_order_report_toy():
    params, _gm = make_toy_params()
    report = order_report(params)
    for n, g in zip(report.orders, params.gens):
        assert scalar_mul_fp(params.curve, n, g).is_infinity
        assert (report.hasse_hi // n) * n >= report.hasse_lo
    assert report.q_over_min_order == params.q / min(report.orders)


def test_order_report_guard():
    # a prime just above 2^64 passes setup but trips the order-search guard
    p = (1 << 64) + 13
    while not modmath.is_probable_prime(p):
        p += 2
    params, _gm = make_small_params(p=p, q=257, seed=5)
    with pytest.raises(ValueError):
        order_report(params)


def test_searches_refuse_p_above_order_guard_before_walking():
    params, _gm = make_small_params(p=(1 << 127) - 1, q=(1 << 89) - 1,
                                    seed=1)
    # the box passes the search guard and would take seconds to walk
    started = time.perf_counter()
    with pytest.raises(ValueError, match="order-search guard"):
        relation_search(params, 100000)
    assert time.perf_counter() - started < 1.0


def test_walks_make_exact_curve_inversion_counts(monkeypatch):
    # every inversion mod p is a pow(v, -1, p) in curve_fp, and a walk of
    # n points is a row of ceil(log2 n) levels, one inversion each
    toy, _gm = make_toy_params()
    params, _gm = make_small_params()
    inversions = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inversions.append(mod)
        return pow(base, exp, mod)
    monkeypatch.setattr(curve_fp, "pow", counting_pow, raising=False)
    # BSGS at the toy prime: a Hasse width of 223553 gives 473 baby and
    # 473 giant steps, 9 levels each, and -lo * P and -473 * P one each.
    # P1's order is p + 1 = 2 * 3 * 29 * 809 * 22189, so stripping makes
    # five products, none of them infinity, one inversion each
    lo, hi = hasse_interval(toy.p)
    assert hi - lo + 1 == 223553 and sorted(modmath.factorize(
        toy.p + 1)) == [2, 3, 29, 809, 22189]
    assert point_order(toy.curve, toy.gens[0]) == toy.p + 1
    assert inversions == [toy.p] * (9 + 2 + 9 + 5)
    # mod 97, both orders 103: 7 baby steps and 6 giant steps, 3 levels
    # each, 2 more for -lo * P and -7 * P, and 1 for 103 itself; then a
    # box of 51 points per half, -25 * G and 6 levels. The re-verifying
    # msm calls are counted apart
    in_msm = []

    def msm_apart(*args):
        before = len(inversions)
        out = msm(*args)
        in_msm.append(len(inversions) - before)
        return out
    monkeypatch.setattr(assumption_lab, "msm", msm_apart)
    inversions.clear()
    report = relation_search(params, 25)
    assert report.orders == (103, 103) and len(report.relations) == \
        len(in_msm) > 0
    assert len(inversions) - sum(in_msm) == 2 * (3 + 2 + 3 + 1) + 2 * (1 + 6)
    assert set(inversions) == {97}
