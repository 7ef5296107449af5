"""Acceptance gate: one test per release criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from modscatter import arith, counting, lfunction, scatterset
from modscatter.cli import main as cli_main
from modscatter.hyperbolic import trace_sojourn
from modscatter.scatterset import INFINITY
from oracles import sqrt_minus_one_brute


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "structure count and CRT solutions match the brute-force oracle, q <= 2e4"):
        for q in range(2, 20_001):
            sols = sqrt_minus_one_brute(q)
            assert arith.count_sqrt_minus_one(q) == len(sols), q
            if sols:
                assert arith.sqrt_minus_one_crt(q) == sols, q


def test_criterion_2_cardinality():
    with criterion(2, "pairing enumeration gives (phi(q) + s_q)/2 members, q <= 1e4"):
        n = 10_000
        phi, _ = counting._phi_roots_segment(0, n + 1, counting._small_primes(math.isqrt(n)))
        for q in range(2, n + 1):
            units, _, members = scatterset.pairing_census(q)
            assert units == int(phi[q]), q
            assert 2 * members == units + arith.count_sqrt_minus_one(q), q


def test_criterion_3_equivalence_witnesses():
    # Witness exists iff q | p1*p2 + 1, checked over every ordered coprime
    # pair with p1 != p2 (equal fractions label one geodesic trivially and
    # return the identity); every witness acts exactly as required.
    with criterion(3, "equivalence witnesses exist exactly when q | p1*p2 + 1, q <= 500"):
        for q in range(2, 501):
            units = [p for p in range(1, q) if math.gcd(p, q) == 1]
            fracs = {p: Fraction(p, q) for p in units}
            for p1 in units:
                w1 = fracs[p1]
                for p2 in units:
                    witness = scatterset.equivalence_witness(w1, fracs[p2])
                    if p1 == p2:
                        assert witness == scatterset.UnimodularMatrix.identity()
                        continue
                    if (p1 * p2 + 1) % q == 0:
                        assert witness is not None, (q, p1, p2)
                        a, b, c, d = witness.astuple()
                        assert a * d - b * c == 1
                        assert witness.apply_to(INFINITY) == fracs[p2]
                        assert witness.apply_to(w1) == INFINITY
                    else:
                        assert witness is None, (q, p1, p2)


def test_criterion_4_exact_identities(table_1e7):
    with criterion(4, "split and member identities hold exactly for all x <= 1e6"):
        top = 10**6
        x = np.arange(1, top + 1)
        roots_cum = np.cumsum(table_1e7.roots[: top + 1], dtype=np.int64)
        odd_cum = table_1e7.odd_roots_cum
        assert (roots_cum[1:] == odd_cum[1 : top + 1] + odd_cum[x // 2]).all()
        phi, _ = counting._phi_roots_segment(0, top + 1, counting._small_primes(math.isqrt(top)))
        phibar = np.cumsum(phi, dtype=np.int64)
        assert (2 * table_1e7.members_cum[: top + 1] == phibar + roots_cum).all()


def test_criterion_5_bounds(table_1e7):
    with criterion(5, "2*floor(sqrt(x-1)) - 1 <= S(x) <= (2/3)(x+1)^1.5 for 5 <= x <= 1e6"):
        xs = np.arange(5, 10**6 + 1, dtype=np.int64)
        s = np.cumsum(table_1e7.roots[: 10**6 + 1], dtype=np.int64)[5:]
        r = np.sqrt((xs - 1).astype(np.float64)).astype(np.int64)
        r -= r * r > xs - 1
        r += (r + 1) * (r + 1) <= xs - 1
        assert (2 * r - 1 <= s).all()
        assert (s <= (2.0 / 3.0) * (xs + 1.0) ** 1.5).all()


def test_criterion_6_asymptotics(table_1e7):
    with criterion(6, "first-order laws within tolerance and improving with x"):
        def rel_err(kind, x):
            rep = counting.asymptotic_report(kind, x, table_1e7)
            return abs(rep.ratio - 1.0)

        assert rel_err("tau", 10**7) <= 0.05
        assert rel_err("S", 10**7) <= 0.05
        assert rel_err("psi", 10**5) <= 0.01
        assert rel_err("tau", 10**7) <= rel_err("tau", 10**3)
        assert rel_err("S", 10**7) <= rel_err("S", 10**3)
        assert rel_err("psi", 10**5) <= rel_err("psi", 10**3)


def test_criterion_7_sojourn_counting(table_1e7):
    # e^(sojourn) of the fraction p/q is (q*t0)^2, so the enumeration below
    # counts exactly the geodesics with sojourn at most log(Y).
    with criterion(7, "geodesic count by enumeration equals the sieved member count"):
        t0 = 2.0
        for Y in (16, 10**2, 10**4, 4 * 10**6):
            enumerated = 0
            q = 1
            while (q * t0) ** 2 <= Y:
                enumerated += len(scatterset.scatter_set(q).members)
                q += 1
            assert enumerated == counting.count_geodesics(Y, t0, table_1e7), Y
        Y = 4 * 10**8
        ratio = counting.count_geodesics(Y, t0, table_1e7) / counting.main_term("pi", Y, t0)
        assert 0.95 <= ratio <= 1.05


def test_criterion_8_sojourn_numerics():
    with criterion(8, "traced sojourns match 2*log(q*t0) within 2*step + 1e-6"):
        step = 1e-3
        for q in range(1, 21):
            members = scatterset.scatter_set(q).members
            for w in members:
                for t0 in (1.5, 2.0, 5.0):
                    trace = trace_sojourn(w, t0, step=step)
                    gap = abs(trace.measured_sojourn - trace.predicted_sojourn)
                    assert gap <= 2 * step + 1e-6, (w, t0, gap)


def test_criterion_9_series_identity(table_1e7):
    with criterion(9, "three series routes agree to 1e-4; residue within 1e-8 of 1/pi"):
        for s in (2.0, 2.5, 3.0, 4.0):
            direct = lfunction.series_by_sum(s, 10**6, table=table_1e7).value
            euler = lfunction.series_by_euler_product(s, 10**6).value
            closed = lfunction.series_by_zeta_identity(s).value
            assert abs(direct - euler) <= 1e-4, s
            assert abs(euler - closed) <= 1e-4, s
            assert abs(direct - closed) <= 1e-4, s
        residue = 4.0 * lfunction.dirichlet_beta(1.0) / (math.pi * math.pi)
        assert abs(residue - 1 / math.pi) <= 1e-8


def test_criterion_10_histogram(capsys):
    with criterion(10, "histogram of the first 10000 fractions: 100 bins summing to 10000"):
        code = cli_main(["histogram", "--first", "10000", "--bins", "100"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 101
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 10_000
