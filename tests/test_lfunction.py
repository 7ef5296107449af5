import math

import numpy as np
import pytest
import scipy.special

from modscatter import arith, lfunction
from modscatter.arith import count_sqrt_minus_one
from modscatter.counting import sieve_tables
from modscatter.lfunction import (
    dirichlet_beta,
    riemann_zeta,
    series_by_euler_product,
    series_by_sum,
    series_by_zeta_identity,
)

CATALAN = 0.915965594177219015054603514932


def test_zeta_against_scipy():
    for s in (2.0, 2.5, 3.0, 4.0, 8.0):
        value, err = riemann_zeta(s)
        assert abs(value - scipy.special.zeta(s)) <= max(err, 1e-12)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)


def test_beta_special_values():
    assert dirichlet_beta(1.0) == pytest.approx(math.pi / 4, abs=1e-13)
    assert dirichlet_beta(2.0) == pytest.approx(CATALAN, abs=1e-13)
    # beta(3) = pi^3/32
    assert dirichlet_beta(3.0) == pytest.approx(math.pi**3 / 32, abs=1e-13)


def test_residue_constant():
    # the residue 4*beta(1)/pi^2 of the series at s = 1 is the density constant 1/pi
    c = 4.0 * dirichlet_beta(1.0) / (math.pi * math.pi)
    assert abs(c - 1 / math.pi) <= 1e-8
    assert abs(c * math.pi - 1) <= 1e-7


def test_closed_form_at_two():
    # zeta(2)*beta(2)/((5/4)*zeta(4)) collapses to 12*Catalan/pi^2
    val = series_by_zeta_identity(2.0)
    assert val.value == pytest.approx(12 * CATALAN / math.pi**2, abs=1e-9)


def test_three_routes_agree():
    table = sieve_tables(10**5)
    for s in (2.0, 2.5, 3.0):
        d = series_by_sum(s, 10**5, table=table)
        e = series_by_euler_product(s, 10**5)
        c = series_by_zeta_identity(s)
        assert abs(d.value - e.value) <= 1e-3
        assert abs(e.value - c.value) <= 1e-3
        assert abs(d.value - c.value) <= d.tail_bound + c.tail_bound


def _sum_plain(s, n_max, table):
    # series_by_sum's loop with numpy's integer flatnonzero
    odd = table.roots[1 : n_max + 1 : 2]
    value = 0.0
    for a in range(0, odd.size, lfunction._SUM_SLICE):
        part = odd[a : a + lfunction._SUM_SLICE]
        idx = np.flatnonzero(part)
        value += float(np.sum(part[idx] * (2.0 * (idx + a) + 1) ** (-s)))
    return value


def _euler_plain(s, p_max):
    # series_by_euler_product on a fresh sieve with the int64 % 4 filter
    primes = arith._sieve_primes(p_max)
    primes = primes[primes % 4 == 1]
    x = primes.astype(np.float64) ** (-s)
    return float(np.prod((1.0 + x) / (1.0 - x))), int(primes.size)


def test_sum_and_product_are_bit_identical_to_their_plain_forms():
    # 3*2^18 + 5 spans two _SUM_SLICE slices of odd entries
    top = 3 * 2**18 + 5
    table = sieve_tables(top)
    for n in (10**5, top):
        for s in (1.6, 2.345, 4.0):
            d = series_by_sum(s, n, table=table)
            assert (d.value, d.terms_used) == (_sum_plain(s, n, table), n), (s, n)
            e = series_by_euler_product(s, n)
            assert (e.value, e.terms_used) == _euler_plain(s, n), (s, n)


def test_large_s_tends_to_one():
    assert series_by_sum(40.0, 10**4).value == pytest.approx(1.0, abs=1e-11)
    assert series_by_zeta_identity(40.0).value == pytest.approx(1.0, abs=1e-11)


def test_empty_euler_product():
    assert series_by_euler_product(2.0, 3).value == 1.0
    assert series_by_euler_product(2.0, 3).terms_used == 0


def test_euler_leading_factor():
    # below 13 only the p = 5 factor contributes
    val = series_by_euler_product(4.0, 12).value
    assert val == pytest.approx((1 + 5.0**-4) / (1 - 5.0**-4), abs=1e-15)


def test_decreasing_in_s():
    values = [series_by_zeta_identity(s).value for s in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1.0 for v in values)


def test_partial_sums_nondecreasing():
    table = sieve_tables(20_000)
    prev = 0.0
    for n_max in (100, 1000, 5000, 20_000):
        val = series_by_sum(2.0, n_max, table=table).value
        assert val >= prev
        prev = val


def test_partial_sum_matches_plain_loop():
    # roots(n)/n^s over odd n <= n_max, added in order: bit for bit while
    # fewer than 8 terms are nonzero (numpy sums those in order too), to
    # rounding past that
    table = sieve_tables(5000)
    for n_max in (1, 2, 3, 4, 5, 12, 13, 14, 40, 999, 1000, 5000):
        for s in (1.6, 2.345, 4.0):
            total, terms = 0.0, 0
            for n in range(1, n_max + 1, 2):
                r = count_sqrt_minus_one(n)
                if r:
                    total += r * float(n) ** -s
                    terms += 1
            value = series_by_sum(s, n_max, table=table).value
            if terms < 8:
                assert value == total, (n_max, s)
            else:
                assert value == pytest.approx(total, rel=1e-14), (n_max, s)


def test_divisor_function_domination():
    # term weights stay below d(n), so partial sums stay below sum d(n)/n^s
    n_max = 2000
    table = sieve_tables(n_max)
    for s in (2.0, 3.0):
        bound = sum(
            sum(1 for d in range(1, n + 1) if n % d == 0) / n**s
            for n in range(1, n_max + 1)
        )
        assert series_by_sum(s, n_max, table=table).value <= bound


def test_tail_bounds_are_bounds():
    table = sieve_tables(10**5)
    for s in (2.0, 3.0):
        approx = series_by_sum(s, 10**5, table=table)
        exactish = series_by_zeta_identity(s).value
        assert 0 <= exactish - approx.value <= approx.tail_bound


def test_preconditions():
    with pytest.raises(ValueError):
        series_by_sum(1.4, 10**4)
    with pytest.raises(ValueError):
        series_by_euler_product(1.0, 10**4)
    with pytest.raises(ValueError):
        dirichlet_beta(0.0)


def test_series_refuse_nan():
    for route in (lambda s: series_by_sum(s, 100), lambda s: series_by_euler_product(s, 100),
                  series_by_zeta_identity, dirichlet_beta):
        with pytest.raises(ValueError):
            route(math.nan)


def test_residue_matches_empirical_slope(table_1e7):
    # the constant is the limiting density of the odd-modulus root count
    from modscatter.counting import odd_modulus_roots

    slope = odd_modulus_roots(10**7, table_1e7) / 10**7
    residue = 4.0 * dirichlet_beta(1.0) / (math.pi * math.pi)
    assert abs(residue / slope - 1) < 0.05
