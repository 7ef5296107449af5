"""Sieves and counting functions for the congruence x^2 == -1 and the
scattering family, with their first-order growth laws.

A single smallest-prime pass per segment produces, for every q up to the
limit, the totient phi(q) and the solution count of x^2 == -1 (mod q).  Two
prefix sums then give

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
one count table, T(n) = t(n) + t(floor(n/2)) and Phi(n) = 2*M(n) - T(n):
about x^(2/3) entries when Phi is needed, a few sqrt(x) when only T is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .arith import _INT64_ROOT, _check_budget, _small_primes
from .scatterset import _require_t0

# Entries per streamed-sieve segment, chosen by timing 2^18..2^22: smaller
# segments shrink the working arrays (11 bytes per entry, 23 in checkpoint_sums),
# larger ones keep the per-segment loop over the primes a small share of the
# work; 2^20 was the fastest sieve to 1e8 and 2e8 and as fast as any to 1e7.
_SEGMENT = 1 << 20
_SLICE = 1 << 16  # entries per cofactor pass: its temporaries stay this size
# The sublinear table stops below this many entries.  sublinear_sums adds
# table values in int64 blocks of at most x*_POINT_TABLE/2, which stays below
# 2**63 up to _POINT_SUMS_MAX; its running totals are Python ints.
_POINT_TABLE = 1 << 22
_POINT_SUMS_MAX = 10**12
# Entries of a root-only sublinear table per isqrt(max point): see _table_size.
_ROOT_TABLE = 2


@dataclass(frozen=True)
class CountTable:
    """Per-q root counts (index = q, entry 0 unused) plus exact prefix sums,
    13 bytes per entry.  The all-moduli sum is read as tau(x) + tau(x/2).
    odd_roots_cum fits uint32: t(x) <= T(x), the count of lattice points
    a >= 1, c >= 0 in the disc of radius sqrt(x), at most
    isqrt(x)*(isqrt(x) + 1) <= x + sqrt(x) < 2**32 for x up to _INT64_ROOT."""

    limit: int
    roots: np.ndarray          # uint8: solutions of p^2 == -1 (mod q), with roots[1] = 1
    odd_roots_cum: np.ndarray  # uint32: cumulative roots over odd q only
    members_cum: np.ndarray    # int64: cumulative (phi + roots) / 2


class Sums(NamedTuple):
    """The exact counts at one x, one field per count kind: S = T(x), tau =
    t(x) and psi = M(x).  A tuple in this order, so positional reads hold.
    A kind that was not asked for is None."""

    S: int | None = None
    tau: int | None = None
    psi: int | None = None


def _kinds(kinds: Iterable[str]) -> tuple[str, ...]:
    """The kinds as a tuple, each one a field of Sums."""
    kinds = tuple(kinds)
    unknown = set(kinds) - set(Sums._fields)
    if unknown:
        raise ValueError(f"kinds must be among {Sums._fields}, got {sorted(unknown)}")
    return kinds


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
    prime == 1 (mod 4); a prime == 3 (mod 4) or a factor 4 zeroes it, all
    _SLICE entries at a time.  The one caller, _carried_segments, stays below
    2**32: checkpoint_sums refuses points past _INT64_ROOT and sieve_tables
    limits past the byte budget.
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
    for a in range(0, n, _SLICE):
        m = s[a : a + _SLICE]  # reuses the buffer: m = r - 1 for a prime cofactor, else r
        r = np.arange(lo + a, lo + a + m.size, dtype=np.float64)
        r /= m
        np.copyto(m, r, casting="unsafe")
        m -= m > 1
        f[a : a + _SLICE] *= m
        # m % 4 is 0 past a prime == 1 (mod 4), 2 past one == 3 (mod 4), 1 at r = 1
        m &= 3
        roots[a : a + _SLICE] *= _COFACTOR_ROOTS[m]
    return f, roots


# Root-count factor of the cofactor r, indexed by (r - (r > 1)) % 4.
_COFACTOR_ROOTS = np.array([2, 1, 0, 0], dtype=np.uint8)


def _carried_segments(top: int, table: CountTable | None = None):
    """Sieve 0..top segment by segment, yielding (lo, c_odd, c_members):
    the running prefix sums of roots over odd q (uint32: t(x) < 2**32 up
    to _INT64_ROOT, see CountTable, and so is any count bounded by t) and
    of (phi + roots)/2.

    With a table to top, each segment is written straight into its slices
    and the prefix sums yielded are those slices; without, they go to two
    segment buffers reused from one segment to the next.  Each is summed in
    place, the running total first added to its first entry.
    """
    primes = _small_primes(math.isqrt(top))
    if table is None:
        size = min(_SEGMENT, top + 1)
        buf_odd, buf_members = np.empty(size, np.uint32), np.empty(size, np.int64)
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
        c_members[:] = phi
        c_members[0] += run_members
        np.cumsum(c_members, out=c_members)
        c_odd[:] = rt
        c_odd[lo % 2 :: 2] = 0  # zero the even-q slots
        c_odd[0] += run_odd
        np.cumsum(c_odd, dtype=np.uint32, out=c_odd)
        run_odd, run_members = int(c_odd[-1]), int(c_members[-1])
        del phi, rt  # freed before the next segment is sieved
        yield lo, c_odd, c_members


def sieve_tables(limit: int) -> CountTable:
    """Materialized count table for all q <= limit.

    Rejects a limit whose stored arrays, 13 bytes per entry (uint8, uint32,
    int64), would pass the byte budget (above 65,384,615 entries); use
    sublinear_sums for isolated large evaluation points.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    _check_budget(13 * limit, f"a count table of {limit} entries")
    size = limit + 1
    table = CountTable(limit, np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.uint32),
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


def checkpoint_sums(points: Iterable[int]) -> dict[int, Sums]:
    """The Sums at each x, streamed segment by segment so memory stays
    bounded regardless of max(points)."""
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
    for lo, c_odd, c_members in _carried_segments(top):
        while nxt is not None and nxt < lo + c_odd.size:
            tau[nxt], members[nxt] = int(c_odd[nxt - lo]), int(c_members[nxt - lo])
            nxt = next(pending, None)
        if nxt is None:
            break
    return {x: Sums(tau[x] + tau[x // 2], tau[x], members[x]) for x in want}


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


def _table_size(top: int, kinds: Iterable[str] = Sums._fields) -> int:
    """Largest value b the sublinear table covers for points up to top.

    The totient recursion (psi) runs about x/sqrt(b) table reads per point
    and must read past isqrt(x), so with psi b is about top^(2/3), capped
    below _POINT_TABLE, never below isqrt(top).  The root-sum recursion
    alone (S, tau) costs about sqrt(x)*log(x/b) per point, so past a few
    sqrt(top) a larger table saves less than sieving it costs: without psi
    b is _ROOT_TABLE*isqrt(top), which stays below _POINT_TABLE up to
    _POINT_SUMS_MAX.
    """
    if "psi" in kinds:
        return max(min(round(top ** (2 / 3)), _POINT_TABLE - 1), math.isqrt(top))
    return min(_ROOT_TABLE * math.isqrt(top), _POINT_TABLE - 1)


def sublinear_sums(points: Iterable[int], kinds: Iterable[str] = Sums._fields) -> dict[int, Sums]:
    """The Sums at each x, without sieving to the largest point, with only
    the fields named in kinds filled (the others None).

    One count table serves every point: sieve_tables to
    b = _table_size(max(points), kinds), whose prefix sums give the root
    (and, for psi, the phi) prefix sums.  A point or halving up to b is
    read off them; only those above b run a recursion.
    S runs the root-sum recursion at x, tau runs it at every halving
    x >> j, and psi runs it at x and the totient recursion at x, in about
    x^(2/3) time.  Without psi the table is a few sqrt(max(points)) entries
    and S takes about sqrt(x)*log(x) time.  The results are exact Python
    ints for every point up to 10**12.
    """
    kinds = _kinds(kinds)
    want = _sorted_points(points)
    if not want:
        return {}
    top = want[-1]
    if top > _POINT_SUMS_MAX:
        raise ValueError(f"x = {top} exceeds {_POINT_SUMS_MAX}, the exact range of sublinear_sums")
    table = sieve_tables(max(_table_size(top, kinds), 1))  # sieve_tables(0) refuses
    odd = table.odd_roots_cum
    roots_cum = np.repeat(odd[: odd.size // 2 + 1], 2)[: odd.size]
    roots_cum += odd  # T(n) = t(n // 2) + t(n) < 2**32, see CountTable
    if "psi" in kinds:
        phi_cum = table.members_cum  # Phi(n) = 2*M(n) - T(n), in place
        phi_cum *= 2
        phi_cum -= roots_cum
    del table, odd  # the recursions hold only the prefix sums they read
    totals: dict[int, int] = {}  # T(v), shared by the points

    def total(v: int) -> int:
        if v not in totals:
            totals[v] = _roots_sum(v, roots_cum)
        return totals[v]

    sums = {}
    for x in want:
        got = {}
        if "S" in kinds:
            got["S"] = total(x)
        if "tau" in kinds:
            halves = [total(x >> j) for j in range(x.bit_length())]
            got["tau"] = sum(halves[0::2]) - sum(halves[1::2])
        if "psi" in kinds:
            got["psi"] = (_totient_sum(x, phi_cum) + total(x)) // 2
        sums[x] = Sums(**got)
    return sums


def _sublinear_work(want: list[int], kinds: Iterable[str] = Sums._fields) -> float:
    """Cost of sublinear_sums(want, kinds) in streamed-sieve entries, fitted
    to timings of single points from 1e4 to 1e12 and sweeps to 1e11 on one
    core, which it puts at 0.75-1.6 times their cost.

    The table costs 4000 plus 1 per value up to b.  A point x above b, with
    m = x // (b + 1) and g = isqrt(m), adds
    - for S, the root sum at x: 600, 260 per step over g and
      0.0066*sqrt(x)*(1 + log g)*log x for its hyperbola sums and reads;
    - for tau, its m.bit_length() halvings above b, the first of them the
      root sum at x: 260 each and 3 times the steps and sums of the one at
      x, since they shrink by sqrt(2) a halving;
    - for psi, the root sum at x and the totient recursion: 390 per step
      for m steps and 0.65 per element of its arrays, about sqrt(x*m).
    Points that share halvings are priced as if they shared none.
    """
    b = _table_size(want[-1], kinds)
    work = 4000 + b
    for x in want:
        m = x // (b + 1)
        if not m:
            continue
        g = math.isqrt(m)
        root = 260 * g + 0.0066 * math.sqrt(x) * (1 + math.log(g)) * math.log(x)
        if "tau" in kinds:
            work += 260 * m.bit_length() + 3 * root
        elif "S" in kinds or "psi" in kinds:
            work += 600 + root
        if "psi" in kinds:
            work += 390 * m + 0.65 * math.sqrt(x * m)
    return work


def sums_at(points: Iterable[int], kinds: Iterable[str] = Sums._fields) -> dict[int, Sums]:
    """The Sums at each x with the fields named in kinds filled (the others
    None), from sublinear_sums when its estimated cost in sieve entries is
    below the max(points) + 1 entries of one streamed sieve, or when that
    point is past the sieve's int64 bound, else from checkpoint_sums.  The
    sieve fills every field at the same cost, so only the sublinear route's
    cost and the route taken depend on kinds; the result does not."""
    kinds = _kinds(kinds)
    want = _sorted_points(points)
    if not want:
        return {}
    if want[-1] > _INT64_ROOT or _sublinear_work(want, kinds) < want[-1] + 1:
        return sublinear_sums(want, kinds)
    return {x: Sums(**{k: getattr(v, k) for k in kinds})
            for x, v in checkpoint_sums(want).items()}


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
    floating guess so perfect-square thresholds land exactly.  A guess past
    2^52 is refused: from 2^53 q*t0 stops growing with q, and the walk too."""
    _require_t0(t0)
    if Y <= 0:
        return 0
    k = max(int(math.sqrt(Y) / t0), 0)
    if k > 2**52:
        raise ValueError(f"sojourn threshold near {k:.3e} is past 2^52 (Y = {Y}, t0 = {t0})")
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


_KINDS = (*Sums._fields, "pi")


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
        # 3x/(2(pi t0)^2) to the bit in the normal range, without 3x's overflow
        return 2.0 * (0.75 * x / _square(math.pi * t0))
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
    predicted = main_term(kind, x, t0)  # refuses an unknown kind, and pi without t0
    if kind == "pi":
        exact = count_geodesics(x, t0, table)
    else:
        exact = {"S": total_roots, "tau": odd_modulus_roots, "psi": total_members}[kind](x, table)
    return AsymptoticReport(kind, x, exact, predicted)
