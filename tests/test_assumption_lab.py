import time

import pytest

from hrpks import assumption_lab, modmath
from hrpks.assumption_lab import (OrderReport, order_report,
                                  relation_search_exhaustive,
                                  relation_search_mitm)
from hrpks.curve_fp import add_fp, msm, scalar_mul_fp

from conftest import make_small_params, make_toy_params


def _brute_relations(params, bound):
    """Definitional oracle: try every vector with scalar_mul/add."""
    found = []
    curve, gens = params.curve, params.gens
    assert params.r == 2
    for a in range(-bound, bound + 1):
        pa = scalar_mul_fp(curve, a, gens[0])
        for b in range(-bound, bound + 1):
            if (a, b) == (0, 0):
                continue
            pb = scalar_mul_fp(curve, b, gens[1])
            if add_fp(curve, pa, pb).is_infinity:
                found.append((a, b))
    return tuple(sorted(found))


def test_exhaustive_finds_order_relations_p97():
    # both reduced generators have order 103 (enumerated in test_curve_fp),
    # so a bound of 110 > 103 must surface the single-generator relations
    params, _gm = make_small_params()
    report = relation_search_exhaustive(params, 110)
    assert report.method == "exhaustive"
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


def test_exhaustive_bound_zero_empty():
    params, _gm = make_small_params()
    report = relation_search_exhaustive(params, 0)
    assert report.relations == ()
    assert report.trivial_flags == ()


def test_exhaustive_matches_brute_force_oracle():
    params, _gm = make_small_params()
    for bound in (1, 7, 25):
        report = relation_search_exhaustive(params, bound)
        assert report.relations == _brute_relations(params, bound)


def test_relations_reverify_via_msm():
    params, _gm = make_small_params()
    report = relation_search_exhaustive(params, 60)
    assert report.relations  # cyclic 103-order group: relations exist
    for vec in report.relations:
        assert msm(params.curve, vec, params.gens).is_infinity
        assert any(vec)


def test_mitm_agrees_with_exhaustive():
    params, _gm = make_small_params()
    for bound in (10, 50):
        mitm = relation_search_mitm(params, bound)
        full = relation_search_exhaustive(params, bound)
        assert mitm.relations == full.relations
        assert mitm.trivial_flags == full.trivial_flags
    # and on a second small prime
    params997, _ = make_small_params(p=997, q=257, seed=8)
    assert relation_search_mitm(params997, 50).relations == \
        relation_search_exhaustive(params997, 50).relations


def test_mitm_trivial_flags():
    params, _gm = make_small_params()
    report = relation_search_mitm(params, 110)
    flags = dict(zip(report.relations, report.trivial_flags))
    assert flags[(103, 0)] is True and flags[(0, 103)] is True
    mixed = [v for v, f in flags.items() if not f]
    assert mixed and all(v[0] != 0 and v[1] != 0 for v in mixed)


def test_mitm_tiny_bound_on_toy_prime():
    params, _gm = make_toy_params()
    report = relation_search_mitm(params, 1)
    assert report.relations == ()


def test_guards():
    params, _gm = make_small_params()
    with pytest.raises(ValueError):
        relation_search_exhaustive(params, 10 ** 5)  # bound^r over guard
    with pytest.raises(ValueError):
        relation_search_exhaustive(params, -1)
    params3 = _fake_r3()
    with pytest.raises(ValueError):
        relation_search_mitm(params3, 5)


def _fake_r3():
    from conftest import make_r3_params

    return make_r3_params()[0]


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
    # both boxes pass their own guards and would take seconds to walk
    for search, bound in ((relation_search_mitm, 100000),
                          (relation_search_exhaustive, 200)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="order-search guard"):
            search(params, bound)
        assert time.perf_counter() - started < 1.0
