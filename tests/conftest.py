import random
import warnings

import pytest

from hrpks import curve_fp, hierarchy, toydata
from hrpks.hierarchy import Hyperplane

TOY_P = 3123456773
TOY_Q = 3123456773
MERSENNE_127 = (1 << 127) - 1
MERSENNE_89 = (1 << 89) - 1

# the worked example's department planes, (a0, a1, a2)
FINANCIAL = Hyperplane(toydata.FINANCIAL_PLANE)
HR = Hyperplane((752, 36, 139))
ENGINEERING = Hyperplane((937, 58, 32))


@pytest.fixture
def no_group_order(monkeypatch):
    """#E(F_p) unknown at every p, as above `curve_fp.GROUP_ORDER_P_BOUND`,
    for params made while the fixture is in use: their `key_point` and
    `gens_msm` run on unreduced scalars. The search's cache is emptied on
    both sides, so no None it cached outlives the test."""
    monkeypatch.setattr(curve_fp, "GROUP_ORDER_P_BOUND", 0)
    curve_fp.group_order.cache_clear()
    yield
    monkeypatch.undo()
    curve_fp.group_order.cache_clear()


def quiet_setup(curve_id, p, q, rng, **kwargs):
    """`hierarchy.setup`, with its expected generator-order warning
    suppressed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hierarchy.setup(curve_id, p, q, rng, **kwargs)


def make_toy_params(seed=12345, l_s=64):
    """toy17 with p = q, as in the worked example."""
    return quiet_setup("toy17", TOY_P, TOY_Q, random.Random(seed), l_s=l_s)


def make_small_params(seed=7, p=97, q=257, l_s=24):
    return quiet_setup("toy17", p, q, random.Random(seed), l_s=l_s)


def make_mestre8_params(seed=99, p=10007, q=1009, l_s=32):
    """mestre8's eight certified generators (r = 8), for trees up to seven
    levels deep."""
    return quiet_setup("mestre8", p, q, random.Random(seed), l_s=l_s)
