import math
import random
import subprocess
import sys

import numpy as np
import pytest

from modscatter import arith, lfunction
from modscatter.arith import (
    count_sqrt_minus_one,
    factorize,
    sqrt_minus_one_crt,
    sqrt_minus_one_mod_prime,
)
from oracles import sqrt_minus_one_brute


def test_factorize_golden():
    assert factorize(1).factors == ()
    assert factorize(65).factors == ((5, 1), (13, 1))
    assert factorize(20).factors == ((2, 2), (5, 1))
    assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)  # Mersenne prime


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


def test_factorize_reconstructs_and_orders():
    for n in list(range(1, 2000)) + [10**9 + 7, 2 * 3 * 5 * 7 * 11 * 13 * 17]:
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            assert e >= 1
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n
        assert list(f.factors) == sorted(f.factors)


def test_factorize_large_semiprime():
    p, q = 1_000_000_007, 1_000_000_009
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def loop_factorize(n):
    """Independent oracle: factors of n by a Python loop over 2 and the odd
    d up to 10**6 while d*d <= m, then Miller-Rabin plus Brent rho."""
    m = n
    factors = []
    d = 2
    while d <= 10**6 and d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        if d * d > m:
            factors.append((m, 1))
        else:
            big = {}
            arith._factor_into(m, big)
            factors.extend(sorted(big.items()))
    return tuple(factors)


def _bench_moduli():
    """Moduli shaped like the benchmark's single sq calls: semiprimes of
    primes in 1e7..1e9, prime squares, large primes and twice a large prime."""
    rng = random.Random(10)

    def prime(lo, hi, residue):
        while True:
            p = rng.randrange(lo, hi) | 1
            if p % 4 == residue and arith.is_prime(p):
                return p

    p1, p2, p5, p7 = (prime(10**8, 10**9, 1) for _ in range(4))
    p3, p6 = prime(10**7, 10**8, 1), prime(10**7, 10**8, 1)
    p4 = prime(10**8, 10**9, 3)
    big1, big2 = prime(10**17, 10**18, 1), prime(10**17, 4 * 10**18, 1)
    return [p1 * p2, p2 * p7, 2 * p5 * p6, p5 * p5, p7 * p7, big1, 2 * big2,
            p1 * p6 * 5, p3 * p4]


_EDGE_CASES = [999983**2, 1000003**2, 999983 * 1000003, 999979 * 999983, 10**12,
               10**12 + 39, 2 * 1000003, 2**61 - 1, 2**63 - 1]


def test_factorize_matches_loop_oracle():
    for n in range(1, 200_001):
        assert factorize(n).factors == loop_factorize(n), n
    for n in _EDGE_CASES + _bench_moduli():
        assert factorize(n).factors == loop_factorize(n), n


def test_factorize_declares_small_cofactors_prime(monkeypatch):
    # below (bound + 1)**2 a cofactor free of primes up to the trial bound
    # is prime, so neither Miller-Rabin nor rho runs; that covers every
    # n < (10**6 + 1)**2, such as the prime 10**12 + 39
    def refuse(m, out):
        raise AssertionError(f"cofactor {m} sent to Miller-Rabin and rho")

    monkeypatch.setattr(arith, "_factor_into", refuse)
    rng = random.Random(3)
    sample = [rng.randrange(1, 10**12) for _ in range(200)]
    sample += [999983**2, 999983 * 1000003, 999979 * 999983, 10**12, 10**12 + 39]
    for n in sample:
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
    with pytest.raises(AssertionError, match="cofactor"):
        factorize(1000003**2)


@pytest.mark.parametrize("n, factors", [(10**12, ((2, 12), (5, 12))),
                                        (2 * 1000003, ((2, 1), (1000003, 1)))])
def test_factorize_stops_at_cube_root(monkeypatch, n, factors):
    # a prime table holding no prime past the cube root, topped at the trial
    # limit so nothing is sieved, and a record of every bound asked of it
    cube = round(n ** (1 / 3))
    while cube**3 > n:
        cube -= 1
    monkeypatch.setattr(arith, "_prime_table", (arith._TRIAL_LIMIT, arith._sieve_primes(cube)))
    asked = []
    small_primes = arith._small_primes

    def record(hi):
        asked.append(hi)
        return small_primes(hi)

    monkeypatch.setattr(arith, "_small_primes", record)
    assert factorize(n).factors == factors
    assert asked and max(asked) <= cube


def _trial_primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def test_small_primes_odd_sieve(monkeypatch):
    # ascending int64 with 2 first, against trial division, for every
    # n <= 200, from a table grown by doubling from empty and from one
    # grown to 10**5
    monkeypatch.setattr(arith, "_prime_table", (0, np.zeros(0, dtype=np.int64)))
    for grown in (False, True):
        if grown:
            arith._small_primes(10**5)
            assert arith._prime_table[0] >= 10**5
        for n in range(201):
            primes = arith._small_primes(n)
            assert primes.dtype == np.int64
            assert primes.tolist() == _trial_primes(n), (grown, n)
    # and the sieve itself at every n, odd sizes included
    for n in range(201):
        primes = arith._sieve_primes(n)
        assert primes.dtype == np.int64
        assert primes.tolist() == _trial_primes(n), n


def test_small_primes_are_read_only():
    primes = arith._small_primes(100)
    with pytest.raises(ValueError, match="read-only"):
        primes[0] = 3
    with pytest.raises(ValueError, match="read-only"):
        primes *= 2
    assert arith._small_primes(100).tolist() == _trial_primes(100)


def test_prime_bytes_bound_the_sieve():
    # flags for the odd numbers plus 8 bytes for every prime, never fewer
    for n in (2, 3, 10, 100, 1000, 10**5, 10**6):
        pi = len(arith._sieve_primes(n))
        assert (n + 1) // 2 + 8 * pi <= arith._prime_bytes(n) <= (n + 1) // 2 + 16 * pi + 64, n


def test_prime_table_refused_before_the_sieve(monkeypatch):
    def sieve(n):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(arith, "_prime_table", (0, np.zeros(0, dtype=np.int64)))
    monkeypatch.setattr(arith, "_sieve_primes", sieve)
    with pytest.raises(arith.MemoryBudgetExceeded, match="primes up to 10000000000"):
        lfunction.series_by_euler_product(2.0, 10**10)
    assert arith._prime_table[0] == 0


def test_prime_table_doubles_only_within_the_budget(monkeypatch):
    sieved = []

    def sieve(n):
        assert arith._prime_table[0] == 0, "the old table is still held"
        sieved.append(n)
        return np.array([2, 3, 5], dtype=np.int64)  # a stand-in: nothing this large is sieved

    # doubling 5e8 would pass the budget, which n = 5e8 + 1 itself meets
    top, n = 5 * 10**8, 5 * 10**8 + 1
    assert arith._prime_bytes(n) <= arith._BYTE_BUDGET < arith._prime_bytes(2 * top)
    monkeypatch.setattr(arith, "_prime_table", (top, np.array([2, 3], dtype=np.int64)))
    monkeypatch.setattr(arith, "_sieve_primes", sieve)
    assert arith._small_primes(n).tolist() == [2, 3, 5]
    assert sieved == [n] and arith._prime_table[0] == n
    # within the budget the table doubles
    monkeypatch.setattr(arith, "_prime_table", (1000, np.array([2, 3], dtype=np.int64)))
    arith._small_primes(1001)
    assert sieved == [n, 2000] and arith._prime_table[0] == 2000


def test_is_prime_witness_prefixes():
    # each bound is the least odd composite passing its shorter witness set,
    # so one witness too few would call it prime
    for bound, _ in arith._MR_PREFIXES:
        assert not arith.is_prime(bound), bound
    sieve = set(arith._small_primes(200_000).tolist())
    assert all(arith.is_prime(n) == (n in sieve) for n in range(200_001))
    assert arith.is_prime(2**61 - 1) and not arith.is_prime(3825123056546413051)


def test_trial_primes_are_built_lazily():
    code = ("import modscatter.cli; from modscatter import arith\n"
            "modscatter.cli.build_parser(); print(arith._prime_table[0])\n"
            "arith.factorize(7); print(arith._prime_table[0])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    unbuilt, after_seven = map(int, proc.stdout.split())
    assert unbuilt == 0
    assert 2 <= after_seven < 100


def test_root_count_golden():
    # 0 for a prime factor 3 (mod 4) or 4 | q, else 2 per prime 1 (mod 4)
    for q, count in ((7, 0), (1, 1), (130, 4), (12, 0), (2, 1), (65, 4), (6, 0)):
        assert count_sqrt_minus_one(factorize(q)) == count


def test_count_golden():
    assert count_sqrt_minus_one(1) == 1
    assert count_sqrt_minus_one(2) == 1
    assert count_sqrt_minus_one(5) == 2
    assert count_sqrt_minus_one(65) == 4
    assert count_sqrt_minus_one(12) == 0


def test_brute_golden():
    assert sqrt_minus_one_brute(5) == [2, 3]
    assert sqrt_minus_one_brute(3) == []
    assert sqrt_minus_one_brute(25) == [7, 18]
    assert sqrt_minus_one_brute(1) == []


def test_count_matches_brute():
    for q in range(2, 2000):
        assert count_sqrt_minus_one(q) == len(sqrt_minus_one_brute(q)), q


def test_solution_symmetry():
    # p is a solution iff q - p is
    for q in range(3, 500):
        sols = sqrt_minus_one_brute(q)
        assert sorted(q - p for p in sols) == sols


def test_vanishing_exactly_when_expected():
    for q in range(1, 2000):
        f = factorize(q)
        has_bad = q % 4 == 0 or any(p % 4 == 3 for p, _ in f.factors)
        assert (count_sqrt_minus_one(q) == 0) == has_bad, q


def test_count_bounded_by_sqrt():
    # bulk coverage to 1e6 is vectorised in test_counting via the sieve column
    for q in range(1, 20_000):
        assert count_sqrt_minus_one(q) <= math.isqrt(q)
    for q in (4096, 5 * 13 * 17 * 29, 999_983, 5 * 13 * 17 * 29 * 37 * 41):
        assert count_sqrt_minus_one(q) <= math.isqrt(q)


def test_sqrt_mod_prime_golden():
    assert sqrt_minus_one_mod_prime(5) == (2, 3)
    assert sqrt_minus_one_mod_prime(13) == (5, 8)
    assert sqrt_minus_one_mod_prime(17) == (4, 13)


def test_sqrt_mod_prime_rejects():
    with pytest.raises(ValueError):
        sqrt_minus_one_mod_prime(7)  # 3 (mod 4)
    with pytest.raises(ValueError):
        sqrt_minus_one_mod_prime(21)  # 1 (mod 4) but composite


def test_sqrt_mod_prime_verifies():
    for p in (5, 13, 17, 29, 101, 104729, 982451653):
        x, y = sqrt_minus_one_mod_prime(p)
        assert x * x % p == p - 1
        assert y == p - x
        assert x < y


def test_crt_golden():
    assert sqrt_minus_one_crt(65) == [8, 18, 47, 57]
    assert sqrt_minus_one_crt(10) == [3, 7]
    assert sqrt_minus_one_crt(5) == [2, 3]


def test_crt_rejects():
    with pytest.raises(ValueError):
        sqrt_minus_one_crt(12)
    with pytest.raises(ValueError):
        sqrt_minus_one_crt(7)
    with pytest.raises(ValueError):
        sqrt_minus_one_crt(1)


def test_crt_matches_brute():
    for q in range(2, 3000):
        if count_sqrt_minus_one(q):
            assert sqrt_minus_one_crt(q) == sqrt_minus_one_brute(q), q


def test_crt_prime_powers():
    for q in (25, 125, 169, 2 * 5**4, 5**7, 13**4):
        assert sqrt_minus_one_crt(q) == sqrt_minus_one_brute(q)
    # past the brute scan, up to 2**63: each root's defining congruences
    big = next(p for p in range(3 * 10**9 + 1, 4 * 10**9, 4) if arith.is_prime(p))
    omega_11 = 1  # the primes == 1 (mod 4) in order, while their product stays below 2**63
    for p in filter(arith.is_prime, range(5, 1000, 4)):
        if omega_11 * p >= 2**63:
            break
        omega_11 *= p
    assert len(factorize(omega_11).factors) == 11
    for q in (5**27, 13**17, 2 * 5**26, big * big, omega_11):
        assert q < 2**63
        factors = factorize(q).factors
        roots = sqrt_minus_one_crt(q)
        assert len(roots) == 2 ** sum(p != 2 for p, _ in factors)
        assert roots == sorted(set(roots))
        assert all(0 < r < q and (r * r + 1) % q == 0 for r in roots)
        for p, _ in factors:
            mod_p = {1} if p == 2 else set(sqrt_minus_one_mod_prime(p))
            assert {r % p for r in roots} <= mod_p
