import math
import random
from dataclasses import fields

import numpy as np
import pytest

from modscatter import arith, counting, scatterset
from modscatter.arith import MemoryBudgetExceeded
from modscatter.counting import (
    Sums,
    asymptotic_report,
    checkpoint_sums,
    count_geodesics,
    main_term,
    odd_modulus_roots,
    roots_sum_in_bounds,
    sieve_tables,
    sojourn_threshold,
    sublinear_sums,
    sums_at,
    total_members,
    total_roots,
)


def _phi(n):
    """Totients for 0..n straight from the segment sieve, not from a table."""
    phi, _ = counting._phi_roots_segment(0, n + 1, counting._small_primes(math.isqrt(n)))
    return phi


def test_small_prefix_values(table_1e4):
    names = [f.name for f in fields(table_1e4)]
    assert names == ["limit", "roots", "odd_roots_cum", "members_cum"]
    nbytes = sum(getattr(table_1e4, name).nbytes for name in names[1:])
    assert nbytes == 17 * (table_1e4.limit + 1)
    assert total_roots(1, table_1e4) == 1
    assert total_members(1, table_1e4) == 1
    assert total_roots(5, table_1e4) == 4  # 1 + 1 + 0 + 0 + 2
    assert total_members(5, table_1e4) == 7  # 1 + 1 + 1 + 1 + 3


def test_budget_rejected(monkeypatch):
    def alloc(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "empty", alloc)
    # 17 bytes an entry: one entry past 50,000,000 passes the budget
    for limit in (10**9, 50_000_001):
        with pytest.raises(MemoryBudgetExceeded, match="budget"):
            sieve_tables(limit)
    with pytest.raises(AssertionError, match="allocated before refusing"):
        sieve_tables(50_000_000)
    with pytest.raises(ValueError):
        sieve_tables(0)


def test_phi_column_matches_direct(table_1e4):
    phi = _phi(table_1e4.limit)
    for q in range(1, 3000):
        expected = q
        for p, _ in arith.factorize(q).factors:
            expected -= expected // p
        assert int(phi[q]) == expected


def test_roots_column_matches_structure_count(table_1e4):
    for q in range(1, 5000):
        assert int(table_1e4.roots[q]) == arith.count_sqrt_minus_one(q)


def test_roots_column_matches_brute(table_1e4):
    for q in range(2, 600):
        assert int(table_1e4.roots[q]) == len(arith.sqrt_minus_one_brute(q))


def test_prefixes_monotone(table_1e6):
    x = np.arange(table_1e6.limit + 1)
    total = table_1e6.odd_roots_cum[x] + table_1e6.odd_roots_cum[x // 2]
    assert (np.diff(total) >= 0).all()
    assert (np.diff(table_1e6.members_cum) >= 0).all()
    assert (np.diff(table_1e6.odd_roots_cum) >= 0).all()


def test_tau_examples(table_1e4):
    assert odd_modulus_roots(100, table_1e4) == 33
    assert odd_modulus_roots(4, table_1e4) == 1
    assert odd_modulus_roots(50, table_1e4) == 15
    assert total_roots(100, table_1e4) == 48


def test_split_identity_everywhere(table_1e4):
    x = np.arange(1, table_1e4.limit + 1)
    lhs = np.cumsum(table_1e4.roots, dtype=np.int64)[1:]
    rhs = table_1e4.odd_roots_cum[1:] + table_1e4.odd_roots_cum[x // 2]
    assert (lhs == rhs).all()


def test_member_identity_everywhere(table_1e4):
    phibar = np.cumsum(_phi(table_1e4.limit), dtype=np.int64)
    roots_cum = np.cumsum(table_1e4.roots, dtype=np.int64)
    assert (2 * table_1e4.members_cum == phibar + roots_cum).all()


def test_noninteger_arguments(table_1e4):
    assert total_roots(100.7, table_1e4) == total_roots(100, table_1e4)
    assert odd_modulus_roots(99.999, table_1e4) == odd_modulus_roots(99, table_1e4)
    with pytest.raises(ValueError):
        total_roots(table_1e4.limit + 1, table_1e4)


def test_sojourn_threshold_exact():
    assert sojourn_threshold(16.0, 2.0) == 2  # (2*2)^2 == 16 inclusive
    assert sojourn_threshold(15.99, 2.0) == 1
    assert sojourn_threshold(3.9, 2.0) == 0
    assert sojourn_threshold(4 * 10**6, 2.0) == 1000
    assert sojourn_threshold(100.0, 2.0) == 5
    for t0 in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sojourn_threshold(100.0, t0)


def test_sojourn_threshold_refused_past_2_52():
    # (2^52 * 2)^2 = 2^106: the largest guess the walk takes, answered exactly
    assert sojourn_threshold(2.0**106, 2.0) == 2**52
    # from 2^53, (k + 1)*t0 rounds to k*t0: the walk gave 2^53 + 1 at
    # 2^108, and it never ended near 1e50
    for Y, t0 in ((2.0**108, 2.0), (1e300, 1e100), (1e308, 2.0)):
        with pytest.raises(ValueError, match="past 2"):
            sojourn_threshold(Y, t0)


def test_geodesic_count_examples(table_1e4):
    assert count_geodesics(4 * 2.0**2, 2.0, table_1e4) == 2
    assert count_geodesics(100.0, 2.0, table_1e4) == 7
    assert count_geodesics(3.99, 2.0, table_1e4) == 0


def test_geodesic_count_against_enumeration(table_1e4):
    # exact agreement with a direct walk over the fraction family
    t0 = 2.0
    for y in (16.0, 17.0, 99.0, 100.0, 5000.0, (100 * t0) ** 2):
        n = 0
        for w in scatterset.iter_fractions():
            if (w.denominator * t0) ** 2 > y:
                break
            n += 1
        assert count_geodesics(y, t0, table_1e4) == n


def test_bounds_hold(table_1e6):
    for x in (5, 100, 10**5, 10**6):
        assert roots_sum_in_bounds(x, table_1e6)
    with pytest.raises(ValueError):
        roots_sum_in_bounds(4, table_1e6)


def test_bounds_explicit_at_five(table_1e4):
    s = total_roots(5, table_1e4)
    assert 2 * math.isqrt(4) - 1 == 3 <= s <= (2.0 / 3.0) * 6**1.5


def test_report_examples(table_1e4):
    rep = asymptotic_report("S", 100, table_1e4)
    assert rep.exact == 48
    assert rep.predicted == pytest.approx(47.746, abs=5e-4)
    assert rep.ratio == pytest.approx(1.0053, abs=1e-4)
    assert rep.abs_error == pytest.approx(abs(48 - rep.predicted))

    rep = asymptotic_report("psi", 5, table_1e4)
    assert rep.exact == 7
    assert rep.predicted == pytest.approx(3.80, abs=5e-3)

    rep = asymptotic_report("tau", 100, table_1e4)
    assert rep.exact == 33
    assert rep.predicted == pytest.approx(31.83, abs=5e-3)

    rep = asymptotic_report("pi", 100.0, table_1e4, t0=2.0)
    assert rep.exact == 7
    assert rep.predicted == pytest.approx(3 * 100 / (2 * math.pi**2 * 4))


def test_report_rejects_bad_kind(table_1e4):
    with pytest.raises(ValueError):
        asymptotic_report("zeta", 10, table_1e4)
    with pytest.raises(ValueError):
        asymptotic_report("pi", 10, table_1e4)  # t0 missing
    with pytest.raises(ValueError):
        main_term("pi", 10.0)


def test_sums_fields_keep_the_positional_order(table_1e4):
    # bench/checks.py reads the counts by position, in this order
    assert Sums._fields == ("S", "tau", "psi")
    assert counting._KINDS == ("S", "tau", "psi", "pi")
    sums = checkpoint_sums([100])[100]
    assert tuple(sums) == (sums.S, sums.tau, sums.psi) == (
        total_roots(100, table_1e4), odd_modulus_roots(100, table_1e4),
        total_members(100, table_1e4))


def test_pi_law_keeps_the_old_bits():
    # the old form 3.0*Y/(2.0*(pi*t0)**2) overflowed in 3Y or in its doubled
    # square; wherever it was finite and at least 2**-1021 the bits agree
    rng = random.Random(16)
    checked = 0
    for _ in range(20_000):
        t0 = 10 ** rng.uniform(0, 154.2)
        y = 10 ** rng.uniform(-300, 308.2)
        old = 3.0 * y / (2.0 * counting._square(math.pi * t0))
        if math.isfinite(old) and old >= 2.0**-1021:
            assert main_term("pi", y, t0) == old, (y, t0)
            checked += 1
    assert checked > 10_000


def test_totient_sum_first_order(table_1e6):
    x = 10**5
    phisum = 2 * total_members(x, table_1e6) - total_roots(x, table_1e6)
    assert abs(phisum / (3 / math.pi**2 * x * x) - 1) < 0.01


def test_checkpoints_match_table(table_1e6):
    pts = [1, 2, 5, 100, 65_536, 10**6]
    sums = checkpoint_sums(pts)
    for x in pts:
        assert sums[x] == Sums(
            total_roots(x, table_1e6),
            odd_modulus_roots(x, table_1e6),
            total_members(x, table_1e6),
        )
    assert checkpoint_sums([]) == {}


def test_checkpoints_beyond_default_table():
    # streaming evaluation is not bound by the table budget
    (vals,) = checkpoint_sums([2 * 10**6]).values()
    assert vals.S > 0


def test_root_counts_below_sqrt(table_1e6):
    q = np.arange(1, table_1e6.limit + 1, dtype=np.int64)
    r = np.sqrt(q.astype(np.float64)).astype(np.int64)
    r -= r * r > q
    r += (r + 1) * (r + 1) <= q
    assert (table_1e6.roots[1:] <= r).all()


def test_convergence_trend(table_1e7):
    # the relative error of each first-order law shrinks along 1e3, 1e5, 1e7
    for kind, xs in [
        ("S", (10**3, 10**5, 10**7)),
        ("tau", (10**3, 10**5, 10**7)),
        ("psi", (10**3, 10**4, 10**5)),
    ]:
        errs = [abs(asymptotic_report(kind, x, table_1e7).ratio - 1) for x in xs]
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[-1] < 0.05


def test_segment_at_the_int64_bound():
    # the last segment checkpoint_sums could need reaches past _INT64_ROOT,
    # where the kernel's uint32 products come closest to 2**32: phi and the
    # root count against factorize on primes, multiples of prime squares,
    # values whose one prime cofactor lies just above sqrt(hi), and random
    # values
    hi = counting._INT64_ROOT + 2
    lo = hi - (1 << 16)
    root = math.isqrt(hi - 1)
    phi, roots = counting._phi_roots_segment(lo, hi, counting._small_primes(root))
    assert phi.dtype == np.uint32 and roots.dtype == np.uint8
    rng = random.Random(11)
    primes = [n for n in range(lo, hi) if arith.is_prime(n)][:40]
    squares = [k * p * p for p in (2, 3, 5, 13, 101, 251) for k in
               range(-(-lo // (p * p)), (hi - 1) // (p * p) + 1)][::50]
    big = [p for p in range(root + 1, root + 2000) if arith.is_prime(p)]
    cofactored = [k * p for p in big for k in range(-(-lo // p), (hi - 1) // p + 1)]
    sample = [*primes, *squares, *cofactored, hi - 1, *(rng.randrange(lo, hi) for _ in range(300))]
    assert len(primes) == 40 and len(squares) > 100 and len(cofactored) > 100
    for n in sample:
        f = arith.factorize(n)
        expected = n
        for p, _ in f.factors:
            expected -= expected // p
        assert int(phi[n - lo]) == expected, n
        assert int(roots[n - lo]) == arith.count_sqrt_minus_one(f), n


def test_checkpoints_refuse_int64_wrap(monkeypatch):
    def sieve(*args):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(counting, "_small_primes", sieve)
    monkeypatch.setattr(counting, "_phi_roots_segment", sieve)
    bound = counting._INT64_ROOT
    assert bound * bound < 2**63 <= (bound + 1) ** 2
    with pytest.raises(ValueError, match="wrap"):
        checkpoint_sums([10, bound + 1])


def test_point_sums_match_sieve():
    rng = random.Random(7)
    # both sides of the point-table cap and of the streamed-sieve segments,
    # also for x // 2
    ends = [k * size + d for size in (counting._POINT_TABLE, counting._SEGMENT)
            for k in (1, 2) for d in (-1, 0, 1)]
    pts = [*range(3001), *(rng.randrange(3001, 10**6) for _ in range(200)), *ends]
    sums = checkpoint_sums(pts)
    for x in pts:
        assert sublinear_sums([x])[x] == sums[x], x


def _sweep(x, points):
    """The points `count --x X --points K` evaluates (log-spaced from 10)."""
    pts = sorted({int(v) for v in np.geomspace(10.0, x, points)})
    return pts if pts[-1] == x else [*pts, x]


@pytest.mark.parametrize("top,points", [(10**7, 300), (123_457, 4), (123_457, 200)])
def test_shared_tables_match_sieve(top, points):
    # one table set, sized by the largest point, serves points on both sides
    # of its end b, halvings that cross it or equal another point above it,
    # and repeated points
    b = counting._table_size(top)
    above = [v for d in range(1, 5) for v in (b + d, 2 * (b + d), 2 * (b + d) + 1)]
    pts = [0, 1, 1, 2, b - 1, b, b, b + 1, 2 * b, 2 * b + 1, *above, *_sweep(top, points), top]
    sums = checkpoint_sums(pts)
    assert sublinear_sums(pts) == sums
    assert sums_at(pts) == sums
    assert sublinear_sums([0]) == {0: Sums(0, 0, 0)}
    assert sublinear_sums([]) == {}


def _roots_cum(n):
    """T(0..n) as the prefix sums of the segment sieve's root counts."""
    _, roots = counting._phi_roots_segment(0, n + 1, counting._small_primes(math.isqrt(n)))
    return np.cumsum(roots, dtype=np.int64)


@pytest.mark.parametrize("b", [1, 10, 1000])
def test_roots_sum_recursion_at_depth(b):
    # tables far below _table_size reach the deep levels of the recursion:
    # many g above each other, each level reading the ones below it
    expect = _roots_cum(10**6)
    rng = random.Random(b)
    xs = [*range(3001), *(rng.randrange(3001, 10**6 + 1) for _ in range(20)), 10**6]
    for x in xs:
        assert counting._roots_sum(x, expect[: b + 1]) == expect[x], x


def test_roots_sum_at_the_point_range_end():
    # S and tau at 10**12 from the root-sum recursion and its halvings over
    # the table sublinear_sums builds; both constants were first computed by
    # Moebius inversion over the lattice count R
    x = counting._POINT_SUMS_MAX
    roots_cum = _roots_cum(counting._table_size(x))
    halves = [counting._roots_sum(x >> j, roots_cum) for j in range(x.bit_length())]
    assert halves[0] == 477_464_828_496
    assert sum(halves[0::2]) - sum(halves[1::2]) == 318_309_886_127


def test_point_sums_beyond_int64():
    # Phi(6e9) exceeds 2**63; the constant comes from the plain Python-int
    # totient-sum recursion over a sieved table to 2**22.
    x = 6 * 10**9
    sums = sublinear_sums([x])[x]
    assert 2 * sums.psi - sums.S == 10942687833564150102
    assert sums_at([x])[x] == sums


def test_sums_at_picks_the_cheaper_route(monkeypatch):
    routes = []
    for name in ("sublinear_sums", "checkpoint_sums"):
        def spy(arg, fn=getattr(counting, name), name=name):
            routes.append((name, list(arg)))
            return fn(arg)
        monkeypatch.setattr(counting, name, spy)
    sparse = [10, 1000, 10**5, 10**6]
    dense = list(range(10**5 - 300, 10**5 + 1))
    sweep = _sweep(10**7, 300)
    assert sums_at(sparse) == checkpoint_sums(sparse)
    assert routes == [("sublinear_sums", sparse)]  # once, with every point
    assert sums_at(dense) == checkpoint_sums(dense)
    assert routes[1:] == [("checkpoint_sums", dense)]
    assert sums_at(sweep) == checkpoint_sums(sweep)
    assert routes[2:] == [("sublinear_sums", sweep)]
    # past the break-even, near 1,100 points to 1e7, one sieve is cheaper
    wide = _sweep(10**7, 1500)
    expect = sublinear_sums(wide)
    assert sums_at(wide) == expect
    assert routes[3:] == [("checkpoint_sums", wide)]
    assert sums_at([]) == {}
    with pytest.raises(ValueError):
        sums_at([5, -1])
    # past the sieve's int64 bound only sublinear_sums can answer, however dense
    expect = checkpoint_sums(dense)
    monkeypatch.setattr(counting, "_INT64_ROOT", dense[0] - 1)
    assert sums_at(dense) == expect
    assert routes[4:] == [("sublinear_sums", dense)]
    with pytest.raises(ValueError, match="sublinear_sums"):
        checkpoint_sums(dense)


def test_point_sums_refuse_out_of_range():
    with pytest.raises(ValueError):
        sublinear_sums([-1])
    with pytest.raises(ValueError):
        sublinear_sums([counting._POINT_SUMS_MAX + 1])


@pytest.mark.parametrize("y", [10**6 + 3, 12_345_678, 10**9 + 7, 10**10])
def test_hyperbola_matches_gauss_circle(y):
    # R(y) = sum_{d <= y} chi4(d) floor(y/d) counts a quarter of the nonzero
    # lattice points in the disc of radius sqrt(y)
    r = math.isqrt(y)
    disc = sum(2 * math.isqrt(y - a * a) + 1 for a in range(-r, r + 1))
    assert (disc - 1) % 4 == 0
    assert counting._chi4_divisor_sum(y) == (disc - 1) // 4
