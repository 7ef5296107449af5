"""Sieves and counting functions for the congruence x^2 == -1 and the
scattering family, with their first-order growth laws.

A single smallest-prime pass per segment produces, for every q up to the
limit, the totient phi(q) and the solution count of x^2 == -1 (mod q)
(classified through the odd part of q).  Two prefix sums then give

  odd share     t(x)  = sum_{q <= x, q odd} roots(q)      ~ x/pi
  members       M(x)  = sum_{q <= x} (phi(q)+roots(q))/2  ~ 3x^2/(2*pi^2)
  total roots   T(x)  = sum_{q <= x} roots(q) = t(x) + t(floor(x/2))  ~ 3x/(2*pi)

and the geodesic count by sojourn bound, Pi(Y) = M(floor(sqrt(Y)/t0)),
grows like 3Y/(2*pi^2*t0^2).

A single x needs no sieve up to x.  roots(q) counts the primitive lattice
points a >= 1, c >= 0 with a^2 + c^2 = q, and every lattice point is gcd(a, c)
times a primitive one, so with R(y) = sum_{d <= y} chi4(d)*floor(y/d), the
count of all such points of norm <= y,

  T(x) = R(x) - sum_{2 <= h <= sqrt(x)} T(floor(x/h^2)),
  t(x) = sum_{j >= 0} (-1)^j * T(floor(x/2^j)),
  M(x) = (Phi(x) + T(x)) / 2,   Phi(x) = sum_{q <= x} phi(q),

with R(y) by the Dirichlet hyperbola method.  T and Phi run the same table
recursion (Deleglise-Rivat for Phi) on the root and totient prefix sums of
one table sieved up to about x^(2/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .arith import _INT64_ROOT, _check_budget, _small_primes
from .scatterset import _require_t0

# Entries per streamed-sieve segment, chosen by timing 2^18..2^22: smaller
# segments shrink the working arrays (about 35 bytes per entry), larger ones
# keep the per-segment loop over the primes a small share of the work; 2^20
# was the fastest sieve to 1e8 and 2e8 and as fast as any to 1e7.
_SEGMENT = 1 << 20
# The sublinear table stops below this many entries.  sublinear_sums adds
# table values in int64 blocks of at most x*_POINT_TABLE/2, which stays below
# 2**63 up to _POINT_SUMS_MAX; its running totals are Python ints.
_POINT_TABLE = 1 << 22
_POINT_SUMS_MAX = 10**12
# Cost of one streamed-sieve entry in _sublinear_work's unit: timed on one
# core at 1e6 to 5e7, where the sieve took 26-28 ns an entry and the unit
# 38-51 ns, the routes breaking even near 250 points to 1e6 and 1,100 to 1e7.
_SIEVE_ENTRY_WORK = 0.6


@dataclass(frozen=True)
class CountTable:
    """Per-q root counts (index = q, entry 0 unused) plus exact prefix sums,
    17 bytes per entry.  The all-moduli sum is read as tau(x) + tau(x/2)."""

    limit: int
    roots: np.ndarray          # uint8: solutions of p^2 == -1 (mod q), with roots[1] = 1
    odd_roots_cum: np.ndarray  # int64: cumulative roots over odd q only
    members_cum: np.ndarray    # int64: cumulative (phi + roots) / 2


def _phi_roots_segment(lo: int, hi: int, primes: np.ndarray):
    """phi (uint32) and root-count (uint8) arrays for the values lo, lo+1,
    ..., hi-1, with hi <= 2**32.

    `primes` must cover every prime up to sqrt(hi - 1).  Only uint32 slice
    multiplies touch the arrays: per prime p, f *= p - 1 and s *= p on its
    multiples, and f *= p, s *= p on those of each higher power, so s is the
    part of n made of sieving primes and f its totient.  Each value divides
    n, so none wraps (at n = 0 they do, but s keeps a factor 2**k < 2**32
    and is not 0).  The cofactor r = n / s, exact in float64, is 1, 0 at
    n = 0, or one prime above the last sieving prime; phi = f * (r - 1)
    when r > 1, else f * r.  The root count starts at 1 and doubles per
    prime == 1 (mod 4); a prime == 3 (mod 4) or a factor 4 zeroes it.  The
    callers stay below 2**32: checkpoint_sums refuses points past
    _INT64_ROOT and the sublinear table stops below _POINT_TABLE.
    """
    n = hi - lo
    f = np.ones(n, dtype=np.uint32)
    s = np.ones(n, dtype=np.uint32)
    roots = np.ones(n, dtype=np.uint8)
    roots[-lo % 4 :: 4] = 0  # multiples of 4 (and 0) never admit a root
    for p in primes.tolist():
        first = -(-lo // p) * p
        if first >= hi:
            continue
        sl = slice(first - lo, n, p)
        f[sl] *= p - 1
        s[sl] *= p
        if p % 4 == 1:
            roots[sl] <<= 1
        elif p % 4 == 3:
            roots[sl] = 0
        pk = p * p
        while pk < hi:
            fk = -(-lo // pk) * pk
            if fk < hi:
                sl = slice(fk - lo, n, pk)
                f[sl] *= p
                s[sl] *= p
            pk *= p
    r = np.arange(lo, hi, dtype=np.float64)
    r /= s
    m = s  # reuses the buffer: m = r - 1 for a prime cofactor, else r
    np.copyto(m, r, casting="unsafe")
    del r
    m -= m > 1
    f *= m
    # m % 4 is 0 past a prime == 1 (mod 4), 2 past one == 3 (mod 4), 1 at r = 1
    roots *= _COFACTOR_ROOTS[m & 3]
    return f, roots


# Root-count factor of the cofactor r, indexed by (r - (r > 1)) % 4.
_COFACTOR_ROOTS = np.array([2, 1, 0, 0], dtype=np.uint8)


def _carried_segments(top: int, table: CountTable | None = None):
    """Sieve 0..top segment by segment, yielding (lo, roots, c_odd,
    c_members): the segment's root counts and the running prefix sums of
    roots over odd q and of (phi + roots)/2, carried across segments.

    With a table to top, each segment is written straight into its slices
    and the prefix sums yielded are those slices; without, they go to two
    segment buffers reused from one segment to the next.
    """
    primes = _small_primes(math.isqrt(top))
    if table is None:
        size = min(_SEGMENT, top + 1)
        buf_odd, buf_members = np.empty(size, np.int64), np.empty(size, np.int64)
    run_odd = run_members = 0
    for lo in range(0, top + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, top + 1)
        phi, rt = _phi_roots_segment(lo, hi, primes)
        if table is None:
            c_odd, c_members = buf_odd[: hi - lo], buf_members[: hi - lo]
        else:
            table.roots[lo:hi] = rt
            c_odd, c_members = table.odd_roots_cum[lo:hi], table.members_cum[lo:hi]
        phi += rt  # phi + roots stays below 2**32 and is even termwise
        phi >>= 1
        np.cumsum(phi, dtype=np.int64, out=c_members)
        c_members += run_members
        odd = rt.copy()
        odd[lo % 2 :: 2] = 0  # zero the even-q slots
        np.cumsum(odd, dtype=np.int64, out=c_odd)
        c_odd += run_odd
        run_odd, run_members = int(c_odd[-1]), int(c_members[-1])
        yield lo, rt, c_odd, c_members


def sieve_tables(limit: int) -> CountTable:
    """Materialized count table for all q <= limit.

    Rejects a limit whose stored arrays, 17 bytes per entry, would pass the
    byte budget (above 50,000,000 entries); use point_sums for isolated
    large evaluation points.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    _check_budget(17 * limit, f"a count table of {limit} entries")
    size = limit + 1
    table = CountTable(limit, np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.int64),
                       np.empty(size, dtype=np.int64))
    for _ in _carried_segments(limit, table):
        pass
    return table


def _sorted_points(points: Iterable[int]) -> list[int]:
    """The distinct points as ascending Python ints, all nonnegative."""
    want = sorted({int(x) for x in points})
    if want and want[0] < 0:
        raise ValueError("points must be nonnegative")
    return want


def checkpoint_sums(points: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """(total roots, odd-q roots, members) at each requested x, streamed
    segment by segment so memory stays bounded regardless of max(points)."""
    want = _sorted_points(points)
    if not want:
        return {}
    top = want[-1]
    if top > _INT64_ROOT:
        raise ValueError(
            f"x = {top} exceeds {_INT64_ROOT}, where the sieve's int64 "
            "prefix sums would wrap; use sublinear_sums"
        )
    tau: dict[int, int] = {}
    members: dict[int, int] = {}
    pending = iter(sorted({*want, *(x // 2 for x in want)}))
    nxt = next(pending)
    for lo, rt, c_odd, c_members in _carried_segments(top):
        while nxt is not None and nxt < lo + rt.size:
            tau[nxt], members[nxt] = int(c_odd[nxt - lo]), int(c_members[nxt - lo])
            nxt = next(pending, None)
        if nxt is None:
            break
    return {x: (tau[x] + tau[x // 2], tau[x], members[x]) for x in want}


def _chi4_divisor_sum(y: int) -> int:
    """R(y) = sum_{d <= y} chi4(d)*floor(y/d) in O(sqrt(y)) by the hyperbola
    method: R(y) = sum_{d <= u} chi4(d)*floor(y/d) + sum_{m <= u} C(floor(y/m))
    - u*C(u), where u = isqrt(y) and C(t) = sum_{d <= t} chi4(d) is 1 exactly
    when t mod 4 is 1 or 2."""
    u = math.isqrt(y)
    quot = y // np.arange(1, u + 1, dtype=np.int64)
    head = quot[0::2]  # odd d: chi4 = +1, -1, ...
    total = int(head[0::2].sum()) - int(head[1::2].sum())
    t = quot & 3
    total += int(np.count_nonzero((t == 1) | (t == 2)))
    return total - u * (u % 4 in (1, 2))


def _roots_sum(x: int, roots_cum: np.ndarray) -> int:
    """T(x) by T(n) = R(n) - sum_{h >= 2} T(floor(n/h^2)), evaluated at
    n = floor(x/g^2) for every g with n above the table, largest g first."""
    b = roots_cum.size - 1
    top = math.isqrt(x // (b + 1))  # floor(x/g^2) > b exactly for g <= top
    if top == 0:
        return roots_cum.item(x)
    k = np.arange(top + 1, math.isqrt(x) + 1, dtype=np.int64)
    small = roots_cum[x // (k * k)]  # small[k - top - 1] = T(floor(x/k^2))
    big = [0] * (top + 1)  # big[g] = T(floor(x/g^2))
    for g in range(top, 0, -1):
        # floor(n/h^2) = floor(x/(g*h)^2) is big[g*h] or, once g*h > top, small
        first = (top // g + 1) * g
        big[g] = (_chi4_divisor_sum(x // (g * g)) - sum(big[2 * g : first : g])
                  - int(small[first - top - 1 :: g].sum()))
    return big[1]


def _totient_sum(x: int, phi_cum: np.ndarray) -> int:
    """Phi(x) by Phi(n) = n(n+1)/2 - sum_{d >= 2} Phi(floor(n/d)), evaluated
    at n = floor(x/i) for every i with n above the table, largest i first.
    phi_cum must reach past isqrt(x)."""
    b = phi_cum.size - 1
    top = x // (b + 1)  # floor(x/i) > b exactly for i <= top
    if top == 0:
        return int(phi_cum[x])
    big = [0] * (top + 1)  # big[i] = Phi(floor(x/i))
    for i in range(top, 0, -1):
        n = x // i
        r = math.isqrt(n)
        dtop = min(top // i, r)  # floor(n/d) = floor(x/(i*d)) is big[i*d]
        total = n * (n + 1) // 2 - sum(big[2 * i : dtop * i + 1 : i])
        d = np.arange(dtop + 1, r + 1, dtype=np.int64)
        total -= int(phi_cum[n // d].sum())
        # d > r: each value v = floor(n/d) <= r is taken floor(n/v) - floor(n/(v+1)) times
        v = np.arange(1, n // (r + 1) + 1, dtype=np.int64)
        total -= int(((n // v - n // (v + 1)) * phi_cum[v]).sum())
        big[i] = total
    return big[1]


def _table_size(top: int) -> int:
    """Largest value b the sublinear table covers for points up to top:
    about top^(2/3), capped below _POINT_TABLE, never below isqrt(top)."""
    return max(min(round(top ** (2 / 3)), _POINT_TABLE - 1), math.isqrt(top))


def sublinear_sums(points: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """The checkpoint_sums tuple at each point, without sieving to the
    largest point.

    One table serves every point: the phi and root prefix sums, sieved up to
    b = _table_size(max(points)).  A point or halving up to b is read off
    them; only those above b run the root-sum or the totient recursion, in
    about x^(2/3) time each.  The results are exact Python ints for every
    point up to 10**12.
    """
    want = _sorted_points(points)
    if not want:
        return {}
    top = want[-1]
    if top > _POINT_SUMS_MAX:
        raise ValueError(f"x = {top} exceeds {_POINT_SUMS_MAX}, the exact range of sublinear_sums")
    b = _table_size(top)
    phi, roots = _phi_roots_segment(0, b + 1, _small_primes(math.isqrt(b)))
    phi_cum = np.cumsum(phi, dtype=np.int64)
    del phi
    roots_cum = np.cumsum(roots, dtype=np.int64)
    totals: dict[int, int] = {}  # T(v), shared by the points

    def total(v: int) -> int:
        if v not in totals:
            totals[v] = _roots_sum(v, roots_cum)
        return totals[v]

    sums = {}
    for x in want:
        halves = [total(x >> j) for j in range(x.bit_length())]
        odd = sum(halves[0::2]) - sum(halves[1::2])
        phi_sum = _totient_sum(x, phi_cum)
        s = total(x)
        sums[x] = (s, odd, (phi_sum + s) // 2)
    return sums


def point_sums(x: int) -> tuple[int, int, int]:
    """(total roots, odd-q roots, members) at one x, the tuple that
    checkpoint_sums gives for it, in about x^(2/3) time without sieving to x:
    sublinear_sums at the one point."""
    return sublinear_sums([x])[int(x)]


def _sublinear_work(want: list[int]) -> float:
    """Cost of sublinear_sums(want) in units of about 90 ns on one core, of
    which a streamed-sieve entry costs _SIEVE_ENTRY_WORK.  Fitted to timings
    on one core: the table costs 3400 plus 2 units per value up to b; a
    point x above b, with m = x // (b + 1),
    adds its totient recursion (100 per step for m steps, 0.27 per element
    of its arrays, about x/sqrt(b) of them) and the root-sum recursions of
    its m.bit_length() halvings above b (270 each, 550*sqrt(m) for their
    steps over g, 0.34*sqrt(x)*(1 + log m) for their hyperbola sums and
    table reads); every point adds 135 for its reads."""
    b = _table_size(want[-1])
    work = 3400 + 2 * b + 135 * len(want)
    for x in want:
        m = x // (b + 1)
        if m:
            work += (100 * m + 0.27 * x / math.sqrt(b) + 270 * m.bit_length()
                     + 550 * math.sqrt(m) + 0.34 * math.sqrt(x) * (1 + math.log(m)))
    return work


def sums_at(points: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """The checkpoint_sums tuple at each point, from sublinear_sums when its
    estimated cost is below that of one streamed sieve to the largest point
    or when that point is past the sieve's int64 bound, else from
    checkpoint_sums."""
    want = _sorted_points(points)
    if not want:
        return {}
    if want[-1] > _INT64_ROOT or _sublinear_work(want) < _SIEVE_ENTRY_WORK * want[-1]:
        return sublinear_sums(want)
    return checkpoint_sums(want)


def _floor_index(x: float, table: CountTable) -> int:
    ix = math.floor(x)
    if ix > table.limit:
        raise ValueError(f"x = {x} exceeds the table limit {table.limit}")
    return max(ix, 0)


def total_roots(x: float, table: CountTable) -> int:
    """Sum of the root counts of x^2 == -1 over all moduli q <= x, read as
    tau(x) + tau(x/2) (the all-moduli series is (1 + 2^-s) times the odd one)."""
    i = _floor_index(x, table)
    return table.odd_roots_cum.item(i) + table.odd_roots_cum.item(i // 2)


def odd_modulus_roots(x: float, table: CountTable) -> int:
    """Same sum restricted to odd moduli.  Satisfies, exactly,
    total_roots(x) == odd_modulus_roots(x) + odd_modulus_roots(x/2)."""
    return table.odd_roots_cum.item(_floor_index(x, table))


def total_members(x: float, table: CountTable) -> int:
    """Number of scattering fractions with denominator at most x."""
    return table.members_cum.item(_floor_index(x, table))


def _square(v: float) -> float:
    """v ** 2, or inf where the square leaves the float range (** raises)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def sojourn_threshold(Y: float, t0: float) -> int:
    """Largest q >= 0 with (q*t0)**2 <= Y, found by adjusting an initial
    floating guess so perfect-square thresholds land exactly."""
    _require_t0(t0)
    if Y <= 0:
        return 0
    k = max(int(math.sqrt(Y) / t0), 0)
    while _square((k + 1) * t0) <= Y:
        k += 1
    while k > 0 and _square(k * t0) > Y:
        k -= 1
    return k


def count_geodesics(Y: float, t0: float, table: CountTable) -> int:
    """Number of scattering geodesics whose sojourn time is at most log(Y),
    i.e. of fractions p/q with (q*t0)**2 <= Y."""
    k = sojourn_threshold(Y, t0)
    if k > table.limit:
        raise ValueError(f"threshold {k} exceeds the table limit {table.limit}")
    return table.members_cum.item(k)


def roots_sum_in_bounds(x: float, table: CountTable) -> bool:
    """Whether 2*floor(sqrt(x-1)) - 1 <= total_roots(x) <= (2/3)*(x+1)**1.5.

    Both inequalities hold for every x >= 5; this evaluates them at one x.
    """
    if x < 5:
        raise ValueError("bounds are asserted for x >= 5 only")
    s = total_roots(x, table)
    lower = 2 * math.isqrt(math.floor(x) - 1) - 1
    upper = (2.0 / 3.0) * (x + 1.0) ** 1.5
    return lower <= s <= upper


_KINDS = ("S", "tau", "psi", "pi")


def main_term(kind: str, x: float, t0: float | None = None) -> float:
    """First-order growth law for one counting function at x (Y for pi)."""
    if kind == "S":
        return 3.0 * x / (2.0 * math.pi)
    if kind == "tau":
        return x / math.pi
    if kind == "psi":
        return 3.0 * x * x / (2.0 * math.pi**2)
    if kind == "pi":
        if t0 is None:
            raise ValueError("kind 'pi' needs t0")
        return 3.0 * x / (2.0 * _square(math.pi * t0))
    raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class AsymptoticReport:
    kind: str
    x: float
    exact: int
    predicted: float

    @property
    def ratio(self) -> float:
        return self.exact / self.predicted

    @property
    def abs_error(self) -> float:
        return abs(self.exact - self.predicted)


def asymptotic_report(
    kind: str, x: float, table: CountTable, t0: float | None = None
) -> AsymptoticReport:
    """Exact count next to its predicted main term at the point x (Y for pi)."""
    if kind == "S":
        exact = total_roots(x, table)
    elif kind == "tau":
        exact = odd_modulus_roots(x, table)
    elif kind == "psi":
        exact = total_members(x, table)
    elif kind == "pi":
        if t0 is None:
            raise ValueError("kind 'pi' needs t0")
        exact = count_geodesics(x, t0, table)
    else:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return AsymptoticReport(kind, x, exact, main_term(kind, x, t0))
