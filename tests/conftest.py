import random
import warnings

import pytest

from hrpks import curve_q, hierarchy, modmath
from hrpks.curve_fp import ModPoint, msm, reduce_curve

TOY_P = 3123456773
TOY_Q = 3123456773
MERSENNE_127 = (1 << 127) - 1
MERSENNE_89 = (1 << 89) - 1


def make_toy_params(seed=12345, l_s=64):
    """toy17 with p = q, as in the worked example. Suppresses the expected
    q-range warning."""
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hierarchy.setup("toy17", TOY_P, TOY_Q, rng, l_s=l_s)


def make_small_params(seed=7, p=97, q=257, l_s=24):
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hierarchy.setup("toy17", p, q, rng, l_s=l_s)


def make_r3_params(seed=99, p=10007, q=1009, l_s=32):
    """Three generators on toy17 (P1, P2, P1+P2) for depth-2 trees.

    The third point is a dependent combination, which is fine for
    exercising the tree/proof machinery at functional scale.
    """
    curve = curve_q.catalog("toy17")
    g1, g2 = curve.generators
    g3 = curve_q.add_q(curve, g1, g2)
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hierarchy.setup("toy17", p, q, rng, l_s=l_s,
                               generators=[g1, g2, g3])


def _rank28_points(curve, count, rng):
    """`count` seeded random affine points of E(F_p) from the long form:
    y solves y^2 + (a1 x + a3) y = f(x) through one square root."""
    p = curve.p
    points = []
    while len(points) < count:
        x = rng.randrange(p)
        b = (curve.a1 * x + curve.a3) % p
        f = (x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
        root = modmath.sqrt_mod((b * b + 4 * f) % p, p)
        if root is not None:
            points.append(ModPoint(x, (root - b) * pow(2, -1, p) % p))
    return tuple(points)


def make_rank28_params(rng, r):
    """rank28 (a1 = a3 = 1) mod 2^127 - 1 with q = 2^89 - 1 and r
    generators, and the GM secret key, drawing from `rng`.

    The catalog publishes no rank-28 generators, so the generators are
    seeded random points of the reduced curve, and the parameters are
    assembled around the auxiliary group `setup` builds for the same q.
    """
    curve = reduce_curve(curve_q.catalog("rank28"), MERSENNE_127)
    gens = _rank28_points(curve, r, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        donor, _ = hierarchy.setup("toy17", MERSENNE_127, MERSENNE_89, rng)
    gm_x = tuple(rng.randrange(MERSENNE_89) for _ in gens)
    gm_pub = hierarchy.PublicKey(point=msm(curve, gm_x, gens),
                                 member_id="gm", dept="")
    params = hierarchy.SystemParams(
        curve_id="rank28", curve=curve, r=len(gens), p=MERSENNE_127,
        q=MERSENNE_89, gens=gens, aux=donor.aux, l_c=donor.l_c,
        l_s=donor.l_s, gm_pub=gm_pub)
    return params, hierarchy.SecretKey(x=gm_x, member_id="gm", dept="")


@pytest.fixture(scope="session")
def toy():
    return make_toy_params()


@pytest.fixture(scope="session")
def small97():
    return make_small_params()


@pytest.fixture(scope="session")
def r3():
    return make_r3_params()
