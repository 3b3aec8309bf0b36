import bisect
import random

from hrpks import modmath
from hrpks.modmath import is_probable_prime

PSI_13 = 3317044064679887385961981
# psi_1 .. psi_13, OEIS A014233: the least odd composite that is a strong
# probable prime to each of the first k prime bases
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       PSI_13)
FIRST_13_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _strong_probable_prime(n, a):
    """One Miller-Rabin round: does n pass to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _bases_fooled(n):
    """How many of the first 13 prime bases, in order, n passes."""
    count = 0
    while count < 13 and _strong_probable_prime(n, FIRST_13_PRIMES[count]):
        count += 1
    return count


def _random_bases_prime(n, rounds=64):
    """The random-base Miller-Rabin every n used to get, kept as a
    reference for the sample below."""
    if n < 2:
        return False
    for sp in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79, 83, 89, 97]:
        if n % sp == 0:
            return n == sp
    rng = random.Random(n)
    return all(_strong_probable_prime(n, rng.randrange(2, n - 1))
               for _ in range(rounds))


def test_bound_is_psi_13():
    assert modmath._PSI == PSI and modmath._PSI[-1] == PSI_13
    assert modmath._SMALL_PRIMES[:13] == FIRST_13_PRIMES


def test_each_psi_k_fools_exactly_the_bases_below_its_tier(monkeypatch):
    # below psi_k the first k bases are tested; psi_k itself sits in the
    # next tier (past a repeated value, the first tier above it), whose
    # last base catches it, and psi_13 is left to the random bases
    for psi in PSI:
        tier = bisect.bisect_right(PSI, psi)
        assert _bases_fooled(psi) == tier, psi
        assert not is_probable_prime(psi)
    # a prime pays one modular exponentiation per base of its tier
    exponents = []

    def counting_pow(*args):
        exponents.append(args[1])
        return pow(*args)

    monkeypatch.setattr(modmath, "pow", counting_pow, raising=False)
    for prime, bases in ((101, 1), (2039, 1), (2053, 2), ((1 << 31) - 1, 4),
                         (3123456773, 4), ((1 << 61) - 1, 9),
                         (PSI_13 - 168, 13)):
        exponents.clear()
        assert is_probable_prime(prime)
        assert len(exponents) == bases, prime


def test_psi_12_rejected_by_the_last_fixed_base():
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert psi_12 < PSI_13
    assert _bases_fooled(psi_12) == 12  # 2..37 pass, 41 catches it
    assert not is_probable_prime(psi_12)
    assert is_probable_prime(PSI_13 - 168)


def test_psi_13_rejected_through_random_bases():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert _bases_fooled(PSI_13) == 13  # the fixed bases alone would pass it
    assert not is_probable_prime(PSI_13)


def test_strong_pseudoprimes_to_leading_bases_rejected():
    # psi_4 .. psi_11: each fools a prefix of the fixed bases
    for n, fooled in ((3215031751, 4), (2152302898747, 5),
                      (3474749660383, 6), (341550071728321, 8),
                      (3825123056546413051, 11)):
        assert _bases_fooled(n) == fooled
        assert not is_probable_prime(n)


def test_carmichael_numbers_rejected():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                  825265, 321197185, 5394826801, 232250619601,
                  9746347772161]
    for n in carmichael:
        assert pow(2, n - 1, n) == 1  # Fermat would call it prime
        assert not is_probable_prime(n)


def test_primes_on_both_sides_of_the_bound():
    below, above = PSI_13 - 168, PSI_13 + 142
    for p in (below, above, (1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1,
              (1 << 127) - 1, 3123456773):
        assert is_probable_prime(p), p
    assert below < PSI_13 < above
    # composites with no factor below 100, on each side
    assert ((1 << 31) - 1) * 3123456773 < PSI_13
    assert not is_probable_prime(((1 << 31) - 1) * 3123456773)
    assert not is_probable_prime(((1 << 61) - 1) * ((1 << 31) - 1))
    assert not is_probable_prime(above * 3123456773)
    # `below` is the largest prime under the bound
    for n in range(below + 1, PSI_13):
        assert not is_probable_prime(n)


def test_exact_on_every_small_n():
    # every n of the one-base tier below psi_1 and the two-base tier
    limit = 1 << 20
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(-5, limit) if is_probable_prime(n)] == \
        [n for n in range(limit) if sieve[n]]


def test_agrees_with_random_bases_on_a_seeded_sample():
    rng = random.Random(2017)
    sample = []
    for bits in (20, 32, 48, 64, 81, 82, 96, 127):
        sample += [rng.getrandbits(bits) | 1 for _ in range(300)]
    # enough primes that the agreement is not all on composites
    primes = [n for n in sample if _random_bases_prime(n)]
    assert len(primes) > 60
    for n in sample:
        assert is_probable_prime(n) == _random_bases_prime(n), n
