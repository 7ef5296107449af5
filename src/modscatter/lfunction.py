"""Dirichlet series of the root counts over odd moduli, evaluated three ways.

The series sum_{n odd} roots(n)/n^s (equivalently: over n whose prime
factors are all 1 mod 4, weighted 2**omega(n)) admits the Euler product
prod_{p == 1 mod 4} (1 + p^-s)/(1 - p^-s) and collapses to the closed form

    zeta(s) * beta(s) / ((1 + 2^-s) * zeta(2s)),

where beta is the alternating Dirichlet series of the nontrivial character
mod 4.  Its residue at s = 1 is 4*beta(1)/pi^2 = 1/pi, the density constant
behind the first-order counting laws.  Each evaluation carries its own tail
estimate so accuracy claims stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith, counting


@dataclass(frozen=True)
class SeriesValue:
    s: float
    value: float
    terms_used: int
    tail_bound: float


def riemann_zeta(s: float, terms: int = 100_000) -> tuple[float, float]:
    """(zeta(s), error bound) for s > 1: direct sum plus the first
    Euler-Maclaurin corrections."""
    if not 1 < s < math.inf:
        raise ValueError(f"s must be a finite number above 1, got {s}")
    n = np.arange(1, terms + 1, dtype=np.float64)
    head = float(np.sum(n ** (-s)))
    big_n = float(terms)
    # sum_{n > N} n^-s = N^(1-s)/(s-1) - N^-s/2 + s*N^(-s-1)/12 - ...
    tail = big_n ** (1 - s) / (s - 1) - 0.5 * big_n ** (-s) + s * big_n ** (-s - 1) / 12.0
    # N^(-s-3) first: for huge s it underflows to 0 before s^3 can overflow
    err = s * big_n ** (-s - 3) * (s + 1) * (s + 2) / 720.0 + 1e-15 * head
    return head + tail, err


def dirichlet_beta(s: float, terms: int = 256) -> float:
    """beta(s) = 1 - 3^-s + 5^-s - ... by iterated pairwise averaging.

    Repeatedly replacing the partial-sum sequence by adjacent means converges
    geometrically for this alternating series, so a few hundred raw terms
    reach full double precision even at s = 1 (where beta(1) = pi/4).
    """
    return _beta_and_gap(s, terms)[0]


def _beta_and_gap(s: float, terms: int = 256) -> tuple[float, float]:
    """beta(s) and a self-estimate of its averaging error, the gap between
    the last two stages, from one pass."""
    if s <= 0:
        raise ValueError("s must be positive")
    k = np.arange(terms, dtype=np.float64)
    partial = np.cumsum((-1.0) ** k * (2.0 * k + 1.0) ** (-s))
    prev = partial
    while partial.size > 1:
        prev = partial
        partial = 0.5 * (partial[:-1] + partial[1:])
    value = float(partial[0])
    return value, abs(value - float(prev[0])) + 1e-16


def series_by_sum(
    s: float, n_max: int, table: counting.CountTable | None = None
) -> SeriesValue:
    """Partial sum of roots(n)/n^s over odd n <= n_max.

    The reported tail uses the divisor-function majorant (the weights are
    below d(n) <= 2*sqrt(n)), which needs s > 3/2; the true tail is far
    smaller because qualifying n are sparse.
    """
    if s <= 1.5:
        raise ValueError("the tail estimate requires s > 1.5")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if table is None or table.limit < n_max:
        table = counting.sieve_tables(n_max)
    odd = table.roots[1 : n_max + 1 : 2]  # odd[i] is roots(2i + 1)
    idx = np.flatnonzero(odd)
    n = (2 * idx + 1).astype(np.float64)
    value = float(np.sum(odd[idx] * n ** (-s)))
    tail = 2.0 * n_max ** (1.5 - s) / (s - 1.5)
    return SeriesValue(s, value, n_max, tail)


def series_by_euler_product(s: float, p_max: int) -> SeriesValue:
    """Partial product of (1 + p^-s)/(1 - p^-s) over primes p == 1 (mod 4)
    up to p_max; empty products are 1."""
    if s <= 1:
        raise ValueError("s must exceed 1")
    primes = arith._small_primes(p_max)
    primes = primes[primes % 4 == 1]
    if primes.size == 0:
        return SeriesValue(s, 1.0, 0, 0.0)
    x = primes.astype(np.float64) ** (-s)
    value = float(np.prod((1.0 + x) / (1.0 - x)))
    # missing factors multiply in at most exp(sum 2 p^-s) over p > p_max
    log_tail = 2.0 * p_max ** (1 - s) / (s - 1)
    return SeriesValue(s, value, int(primes.size), value * math.expm1(log_tail))


def series_by_zeta_identity(s: float, terms: int = 100_000) -> SeriesValue:
    """zeta(s)*beta(s)/((1 + 2^-s)*zeta(2s)) with a combined error estimate."""
    if s <= 1:
        raise ValueError("s must exceed 1")
    z1, e1 = riemann_zeta(s, terms)
    z2, e2 = riemann_zeta(2 * s, terms)
    beta, eb = _beta_and_gap(s)
    value = z1 * beta / ((1.0 + 2.0 ** (-s)) * z2)
    rel = e1 / z1 + e2 / z2 + eb / abs(beta)
    return SeriesValue(s, value, terms, abs(value) * rel)


def residue_at_one() -> float:
    """Density constant 4*beta(1)/pi^2, equal to 1/pi: the limiting slope of
    the odd-modulus root count divided by x."""
    return 4.0 * dirichlet_beta(1.0) / (math.pi * math.pi)
