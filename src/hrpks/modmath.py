"""Modular-arithmetic utilities: primality, factoring, square roots, and
linear algebra mod a prime.

Everything here works on plain Python ints (arbitrary precision).
"""

import math
import random

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


# psi_13: the least strong pseudoprime to every one of the first 13 prime
# bases 2..41 (Sorenson and Webster, Math. Comp. 2017). Below it those
# bases decide primality exactly.
_PSI_13 = 3317044064679887385961981
_PSI_13_BASES = _SMALL_PRIMES[:13]


def is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Miller-Rabin primality test.

    Exact below psi_13 = 3 317 044 064 679 887 385 961 981 (about 2^81.5),
    where it tests the 13 fixed bases 2..41 and ignores `rounds`. From
    psi_13 up it is probabilistic: `rounds` random bases from a generator
    seeded by n, so repeated calls agree.
    """
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _PSI_13:
        bases = _PSI_13_BASES
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(rounds))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a non-trivial factor of composite n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n ^ 0x5DEECE66D)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}.

    Trial division by small primes, then Pollard rho on what remains.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict = {}
    for sp in _SMALL_PRIMES:
        while n % sp == 0:
            out[sp] = out.get(sp, 0) + 1
            n //= sp
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def sqrt_mod(a: int, p: int):
    """Tonelli-Shanks: a square root of a mod odd prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def rank_mod(rows, q: int) -> int:
    """Row rank of an integer matrix mod prime q (Gaussian elimination)."""
    mat = [[v % q for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, q)
        mat[rank] = [v * inv % q for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def solve_affine_mod(rows, rhs, q: int, fill, pinned=None):
    """Solve A*x = rhs (mod prime q) with chosen values for free variables.

    rows: k sequences of n coefficients; rhs: k values.
    pinned: optional {column: value} assignments fixed up front.
    fill: callable(column) -> value, invoked for every remaining free column.

    Returns the full solution vector (length n). Raises ValueError if the
    system (with the pinned values substituted) is inconsistent.
    """
    pinned = dict(pinned or {})
    k = len(rows)
    n = len(rows[0]) if k else 0
    if any(not 0 <= j < n for j in pinned):
        raise ValueError("pinned column index out of range")
    free_cols = [j for j in range(n) if j not in pinned]
    # move pinned columns to the right-hand side
    aug = []
    for i in range(k):
        b = rhs[i] % q
        for j, v in pinned.items():
            b = (b - rows[i][j] * v) % q
        aug.append([rows[i][j] % q for j in free_cols] + [b])

    m = len(free_cols)
    pivots = {}  # column index (into free_cols) -> row
    row = 0
    for col in range(m):
        pivot = None
        for i in range(row, k):
            if aug[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = pow(aug[row][col], -1, q)
        aug[row] = [v * inv % q for v in aug[row]]
        for i in range(k):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[row])]
        pivots[col] = row
        row += 1
        if row == k:
            break
    # zero rows must have zero rhs
    for i in range(row, k):
        if aug[i][m] != 0:
            raise ValueError("inconsistent linear system mod q")

    values = [None] * m
    for col in range(m):
        if col not in pivots:
            values[col] = fill(free_cols[col]) % q
    for col, r in sorted(pivots.items(), reverse=True):
        acc = aug[r][m]
        for j in range(col + 1, m):
            if aug[r][j] != 0:
                acc = (acc - aug[r][j] * values[j]) % q
        values[col] = acc

    x = [0] * n
    for j, v in pinned.items():
        x[j] = v % q
    for idx, j in enumerate(free_cols):
        x[j] = values[idx]
    return x
