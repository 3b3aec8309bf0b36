"""Modular-arithmetic utilities: primality, factoring, square roots, and
linear algebra mod a prime.

Everything here works on plain Python ints (arbitrary precision).
"""

import bisect
import math
import random

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97]


# psi_k (OEIS A014233): the least odd composite that is a strong probable
# prime to each of the first k prime bases, k = 1..13 (Jaeschke, Math.
# Comp. 1993; Sorenson and Webster, Math. Comp. 2017). Below psi_k those k
# bases decide primality exactly.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
# random Miller-Rabin bases from psi_13 up
_RANDOM_ROUNDS = 64


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Exact below psi_13 = 3 317 044 064 679 887 385 961 981 (about 2^81.5):
    below psi_k it tests the first k prime bases, so 4 bases (2, 3, 5, 7)
    decide every n below psi_4 = 3 215 031 751 and the 13 bases 2..41 the
    last tier. From psi_13 up it is probabilistic: 64 random bases from a
    generator seeded by n, so repeated calls agree.
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
    if n < _PSI[-1]:
        bases = _SMALL_PRIMES[:bisect.bisect_right(_PSI, n) + 1]
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(_RANDOM_ROUNDS))
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


def _row_reduce(mat, ncols: int, q: int):
    """Gauss-Jordan elimination mod prime q, in place: brings the rows of
    `mat` (residues mod q) to reduced row echelon form over their first
    `ncols` columns. Returns the pivot column of each nonzero row, in row
    order; the rows below those are zero in the first `ncols` columns."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(mat):
            break
        pivot = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], -1, q)
        mat[row] = [v * inv % q for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % q for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
    return pivots


def rank_mod(rows, q: int) -> int:
    """Row rank of an integer matrix mod prime q (Gaussian elimination)."""
    mat = [[v % q for v in row] for row in rows]
    return len(_row_reduce(mat, len(mat[0]) if mat else 0, q))


def solve_affine_mod(rows, rhs, q: int, fill):
    """Solve A*x = rhs (mod prime q) with chosen values for free variables.

    rows: k sequences of n coefficients; rhs: k values.
    fill: callable(column) -> value, invoked for every free column.

    Returns the full solution vector (length n). Raises ValueError if the
    system is inconsistent.
    """
    k = len(rows)
    n = len(rows[0]) if k else 0
    aug = [[v % q for v in row] + [b % q]
           for row, b in zip(rows, rhs, strict=True)]
    # pivot column -> its row
    pivots = {col: row for row, col in enumerate(_row_reduce(aug, n, q))}
    # zero rows must have zero rhs
    for i in range(len(pivots), k):
        if aug[i][n] != 0:
            raise ValueError("inconsistent linear system mod q")

    x = [None] * n
    for col in range(n):
        if col not in pivots:
            x[col] = fill(col) % q
    for col, r in sorted(pivots.items(), reverse=True):
        acc = aug[r][n]
        for j in range(col + 1, n):
            if aug[r][j] != 0:
                acc = (acc - aug[r][j] * x[j]) % q
        x[col] = acc
    return x
