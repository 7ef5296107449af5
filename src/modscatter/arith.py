"""Integer arithmetic around the congruence x^2 == -1 (mod q).

Solvability is governed by the factorization of q: solutions exist exactly
when 4 does not divide q and no prime factor of q is 3 (mod 4).  In the
solvable cases the number of solutions in [1, q) is 2**m, where m counts the
distinct odd prime factors (each of which is then 1 (mod 4)).  The convention
for q = 1 is a count of 1, matching the single trivial geodesic it indexes
downstream.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

MAX_N = 2**63 - 1

_TRIAL_LIMIT = 10**6
# The first trial pass reaches at least this far (or to isqrt(n), when that
# is less): a pass this short costs its few numpy calls, whatever its length.
_TRIAL_FLOOR = 100
# Deterministic Miller-Rabin witness set: valid for every n below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# (b, k): below b the first k witnesses suffice.  Each b is the least odd
# composite that passes for all of them (OEIS A014233).
_MR_PREFIXES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
                (3825123056546413051, 9))
# Largest n with n*n <= 2**63 - 1: products of two residues below it and
# the sieve's prefix sums to x stay inside int64.
_INT64_ROOT = math.isqrt(MAX_N)
# The byte budget of every working set that grows with the input, and so
# the size of the largest count table: 65,384,615 entries at 13 bytes each.
_BYTE_BUDGET = 850_000_000


class MemoryBudgetExceeded(ValueError):
    """A requested table or working set is larger than the memory budget."""


def _check_budget(nbytes: float, what: str) -> None:
    """Refuse a working set of about nbytes bytes, described by what, that
    would pass the byte budget; call it before anything is allocated."""
    if nbytes > _BYTE_BUDGET:
        raise MemoryBudgetExceeded(
            f"{what} would take about {nbytes} bytes, over the budget of {_BYTE_BUDGET}"
        )


@dataclass(frozen=True)
class Factorization:
    """n = prod p**e over `factors`, primes strictly increasing; n = 1 is empty."""

    n: int
    factors: tuple[tuple[int, int], ...]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    k = next((k for b, k in _MR_PREFIXES if n < b), len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's variant of Pollard rho)."""
    rng = random.Random(0xC0FFEE ^ n)
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


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def _prime_bytes(n: int) -> int:
    """Bytes of the sieve to n and its int64 primes: (n + 1)//2 flags and
    8 bytes a prime, as pi(n) < 1.25506*n/ln(n) for n > 1 (Rosser-Schoenfeld)."""
    if n < 2:
        return 0
    return (n + 1) // 2 + 8 * math.ceil(1.25506 * n / math.log(n))


def _sieve_primes(n: int) -> np.ndarray:
    """Primes up to n, ascending, as int64."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones((n + 1) // 2, dtype=bool)  # sieve[i] stands for 2i + 1, sieve[0] for 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = False  # the odd multiples of p from p*p
    primes = np.flatnonzero(sieve)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


# (top, the primes up to top as read-only int64): the one prime table of the
# process, read by trial division, the segment sieves and the Euler product.
# Sieved on first need, never at import, and replaced whole, only when a
# larger bound is asked for; callers keep views of the table they were given.
_prime_table: tuple[int, np.ndarray] = (0, np.zeros(0, dtype=np.int64))
_prime_table[1].flags.writeable = False


def _small_primes(n: int) -> np.ndarray:
    """Primes up to n, ascending, as a read-only int64 view of the shared table."""
    global _prime_table
    top, primes = _prime_table
    if n > top:
        _check_budget(_prime_bytes(n), f"the primes up to {n}")
        # doubling keeps a run of growing bounds to a few sieves, but never
        # past the budget that n itself meets
        top = max(n, 2 * top)
        if _prime_bytes(top) > _BYTE_BUDGET:
            top = n
        # let the old table go first, so a growth holds only what was priced
        _prime_table = (0, _prime_table[1][:0])
        primes = _sieve_primes(top)
        primes.flags.writeable = False
        _prime_table = (top, primes)
    return primes[: primes.searchsorted(n, "right")]


def _trial_divide(m: int, lo: int, hi: int, factors: list[tuple[int, int]]) -> int:
    """m with every prime in (lo, hi] divided out, each appended to factors
    with its exponent."""
    primes = _small_primes(hi)
    if lo:
        primes = primes[primes.searchsorted(lo, "right") :]
    # one int64 pass finds every prime divisor in the range (m < 2**63)
    for d in primes[m % primes == 0].tolist():
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        factors.append((d, e))
    return m


def _icbrt(n: int) -> int:
    """The integer cube root of n >= 0."""
    c = round(n ** (1 / 3))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def factorize(n: int) -> Factorization:
    """Unique prime factorization of 1 <= n < 2**63.

    Trial division by the primes up to the cube root of n, and by those up
    to the square root of the cofactor when that is neither 1 nor prime,
    never past 10**6; then Miller-Rabin plus Brent rho for any remaining
    cofactor, so single large moduli stay tractable.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, 2**63 - 1], got {n}")
    factors: list[tuple[int, int]] = []
    # After a pass every prime factor of m is above bound, so below
    # (bound + 1)**2 m can only be 1 or prime.
    bound = math.isqrt(n)
    if bound > _TRIAL_FLOOR:
        bound = min(_TRIAL_LIMIT, max(_TRIAL_FLOOR, _icbrt(n)))
    m = _trial_divide(n, 0, bound, factors)
    if m >= (bound + 1) ** 2 and not is_prime(m):
        lo, bound = bound, min(_TRIAL_LIMIT, math.isqrt(m))
        m = _trial_divide(m, lo, bound, factors)
        if m >= (bound + 1) ** 2:
            big: dict[int, int] = {}
            _factor_into(m, big)
            factors.extend(sorted(big.items()))
            m = 1
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def count_sqrt_minus_one(q: int | Factorization) -> int:
    """Number of p in [1, q) with p*p == -1 (mod q), 1 for q = 1: read off
    the factorization by the rule in the module docstring."""
    f = q if isinstance(q, Factorization) else factorize(q)
    count = 1
    for p, e in f.factors:
        if p % 4 == 3 or (p == 2 and e > 1):
            return 0
        if p % 4 == 1:
            count *= 2
    return count


def sqrt_minus_one_mod_prime(p: int) -> tuple[int, int]:
    """The two square roots of -1 modulo a prime p == 1 (mod 4), smaller first.

    Computed as a**((p-1)/4) for the smallest quadratic non-residue a; the
    result is verified before returning.
    """
    if p % 4 != 1:
        raise ValueError(f"p must be 1 (mod 4), got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    a = 2
    while pow(a, (p - 1) // 2, p) != p - 1:
        a += 1
    x = pow(a, (p - 1) // 4, p)
    if x * x % p != p - 1:
        raise ArithmeticError(f"root verification failed for p = {p}")
    return (x, p - x) if x < p - x else (p - x, x)


def sqrt_minus_one_crt(q: int | Factorization) -> list[int]:
    """All solutions of x^2 == -1 (mod q), sorted, from the prime-power roots.

    An odd prime power p**e contributes the pair {r, p**e - r}, with
    r = x**(p**(e-1)) mod p**e for the smaller root x mod p: x**2 = -1 + kp
    and (-1 + kp)**(p**(e-1)) == -1 (mod p**e) for odd p, while Fermat keeps
    r == x (mod p), so r is the root that lifting x one power at a time
    reaches.  A single factor of 2 pins the residue 1 mod 2.  Each solution
    is sum(r_i * c_i) mod q over one CRT basis, c_i = (q/m_i) * ((q/m_i)^-1
    mod m_i) for the prime powers m_i.  Rejects moduli with no solutions and
    q < 2.
    """
    f = q if isinstance(q, Factorization) else factorize(q)
    if not count_sqrt_minus_one(f):
        raise ValueError(f"x^2 == -1 (mod {f.n}) has no solutions")
    if f.n < 2:
        raise ValueError("q must be at least 2")
    pairs: list[tuple[int, ...]] = []
    for p, e in f.factors:
        m = p**e
        c = f.n // m
        c *= pow(c, -1, m)
        if p == 2:
            pairs.append((c,))
            continue
        r = pow(sqrt_minus_one_mod_prime(p)[0], p ** (e - 1), m)
        if (r * r + 1) % m:
            raise ArithmeticError(f"the lifted root {r} does not square to -1 mod {p}^{e}")
        pairs.append((r * c, (m - r) * c))
    return sorted(sum(combo) % f.n for combo in itertools.product(*pairs))
