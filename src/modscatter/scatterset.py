"""Pairing structure of units modulo q and the induced family of scattering fractions.

For q >= 2 every unit p in [1, q) has a unique partner y with p*y == -1
(mod q).  Units equal to their partner are self-paired (p^2 == -1 mod q);
the rest fall into two-element orbits {p, y}.  Keeping the self-paired
residues together with the minimum of every orbit yields the fraction family
for denominator q, and the disjoint union over q = 1, 2, 3, ... indexes the
geodesics of the modular surface that escape to the cusp in both directions.
The family is ordered by denominator first, fraction value second.  One
vectorised kernel lists the lower half p <= q/2 of the units of a run of
consecutive denominators with their partners, which fixes the rest: q - p
has partner q - y.  scatter_set and pairing_census read one q straight off
that half, and the columnar family_blocks reads the family off it a run at
a time.

Two fractions p1/q and p2/q (denominators >= 2) label the same geodesic
exactly when q divides p1*p2 + 1; the witness is the determinant-1 matrix
(p2, -(1 + p1*p2)/q; q, -p1), which sends infinity to p2/q and p1/q to
infinity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import arith
from .arith import _INT64_ROOT, _check_budget

INFINITY = math.inf
# Bytes per unit of the working set the pairing of one q is budgeted:
# q + 42*phi(q).  The kernel holds one mask byte per residue of the lower
# half and, per unit of that half, the unit, its partner, the modulus, the
# base it squares and one check temporary; family_blocks adds an int8
# window over the residues of q.  Measured with tracemalloc (numpy 2.4),
# pairing_census takes q/2 + 17.6*phi(q) and family_blocks q + 25*phi(q) at
# most, for q prime, a prime power and products of small primes.
_PAIRING_BYTES_PER_UNIT = 42
# Bytes per unit scatter_set is budgeted: one Fraction per member and a
# tuple of two ints per pair, on top of the kernel.  Measured with
# tracemalloc (numpy 2.4), 136-137 bytes per unit for q prime, a prime power
# and products of small primes from 1e5 to 1e6.
_SCATTER_SET_BYTES_PER_UNIT = 150


class UnimodularMatrix:
    """Integer 2x2 matrix of determinant 1, identified with its negation.

    The sign is normalized on construction (c > 0, or c == 0 and a > 0) so
    equality of group elements is a plain component comparison.  Acts by
    z -> (a z + b)/(c z + d): exactly on extended rationals (apply_to), and
    on the upper half-plane through hyperbolic.mobius_apply.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    def __mul__(self, o: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def apply_to(self, w):
        """Exact action on a Fraction or on INFINITY."""
        if w == INFINITY:
            return Fraction(self.a, self.c) if self.c else INFINITY
        den = self.c * w + self.d
        if den == 0:
            return INFINITY
        return (self.a * w + self.b) / den

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other) -> bool:
        return isinstance(other, UnimodularMatrix) and self.astuple() == other.astuple()

    def __hash__(self) -> int:
        return hash(self.astuple())

    def __repr__(self) -> str:
        return f"UnimodularMatrix({self.a}, {self.b}, {self.c}, {self.d})"


def partner(p: int, q: int) -> int:
    """The unique y in [1, q) with p*y == -1 (mod q), for p a unit mod q.

    Involutive: partner(partner(p, q), q) == p.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if not 1 <= p < q:
        raise ValueError(f"p must lie in [1, {q}), got {p}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got gcd({p}, {q}) > 1")
    return (-pow(p, -1, q)) % q


@dataclass(frozen=True)
class ScatterSet:
    """The fraction family of one denominator plus its pairing decomposition.

    self_paired lists the residues with p^2 == -1 (mod q); pairs holds the
    two-element orbits as (min, max); members are the fractions p/q for p
    self-paired or an orbit minimum, sorted increasingly.  For q = 1 the
    family is the single fraction 0.
    """

    q: int
    self_paired: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    members: tuple[Fraction, ...]


def scatter_set(q: int) -> ScatterSet:
    """Build the fraction family for denominator q from the partner pairing.

    A q whose family would pass the byte budget, at
    _SCATTER_SET_BYTES_PER_UNIT bytes per unit, is refused before the
    pairing kernel runs."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ScatterSet(1, (), (), (Fraction(0),))
    _check_square(q, q + 1)
    phi = _totient(q)[1]
    _check_budget(_SCATTER_SET_BYTES_PER_UNIT * phi, f"the family of q = {q} with {phi} units")
    _, p, y = _pairing_run(q, q + 1)
    # an orbit {p, y} of the lower half with p > y mirrors to {q - p, q - y},
    # whose minimum q - p lies above q/2: reversed, those come last in order
    low, high = p < y, p > y
    pairs = tuple(zip(np.concatenate([p[low], q - p[high][::-1]]).tolist(),
                      np.concatenate([y[low], q - y[high][::-1]]).tolist()))
    fixed = p[p == y]
    selfp = np.union1d(fixed, q - fixed).tolist()  # q = 2: 1 is its own mirror
    # built from the ints already held, not a third list of them (peak memory)
    members = tuple(Fraction(m, q) for m in sorted(selfp + [a for a, _ in pairs]))
    return ScatterSet(q, tuple(selfp), pairs, members)


def _mod_pow(base: np.ndarray, exps: np.ndarray, counts: np.ndarray,
             mod: np.ndarray) -> np.ndarray:
    """base**e % mod elementwise, squaring base in place.

    The exponent goes by blocks: the first counts[0] elements take exps[0],
    the next counts[1] take exps[1], and so on; mod is given per element.
    """
    result = np.ones_like(base)
    for bit in range(int(exps.max()).bit_length()):
        if bit:
            np.multiply(base, base, out=base)
            np.remainder(base, mod, out=base)
        # a block shares each bit, so the masked passes branch once a block
        odd = np.repeat(((exps >> bit) & 1).astype(bool), counts)
        np.multiply(result, base, out=result, where=odd)
        np.remainder(result, mod, out=result, where=odd)
    return result


def _check_square(qa: int, qb: int) -> None:
    """Refuse the denominators [qa, qb) when the square of the last one
    leaves int64."""
    if qb - 1 > _INT64_ROOT:
        q = max(qa, _INT64_ROOT + 1)
        raise ValueError(f"q = {q} exceeds {_INT64_ROOT}, where q*q leaves int64")


def _totient(q: int) -> tuple[list[int], int]:
    """The distinct prime factors of q, ascending, and phi(q)."""
    ps = [p for p, _ in arith.factorize(q).factors]
    phi = q
    for p in ps:
        phi -= phi // p
    return ps, phi


def _pairing_run(qa: int, qb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The units p <= q/2 of every q in [qa, qb), q by q and ascending
    within each, the partner y of each, and how many each q has,
    (phi(q)+1)//2.

    The partner of q - p is q - y, so this lower half determines the whole
    pairing.  p**(phi(q)-1) is the inverse of p, and every partner is
    checked to satisfy p*y == -1 (mod q) and 1 <= y < q: that makes y the
    unique partner of p, so the map is an involution of the unit group.  A
    q whose square leaves int64, or whose working set would pass the byte
    budget, is refused before anything is allocated.
    """
    if qa < 2:
        raise ValueError("q must be at least 2")
    _check_square(qa, qb)
    qs = range(qa, qb)
    primes, phis = [], []
    for q in qs:
        ps, phi = _totient(q)
        _check_budget(q + _PAIRING_BYTES_PER_UNIT * phi, f"q = {q} with {phi} units")
        primes.append(ps)
        phis.append(phi)
    # one mask over the residues 0..q//2 of each q in turn
    offsets = list(itertools.accumulate((q // 2 + 1 for q in qs), initial=0))
    mask = np.ones(offsets[-1], dtype=bool)
    for q, off, ps in zip(qs, offsets, primes):
        seg = mask[off : off + q // 2 + 1]
        for p in ps:
            seg[::p] = False
    phis = np.array(phis)
    counts = (phis + 1) // 2  # q = 2 has one unit, 1, its own mirror
    p = np.flatnonzero(mask)
    del mask
    p -= np.repeat(offsets[:-1], counts)
    qcol = np.repeat(np.arange(qa, qb), counts)
    y = _mod_pow(p.copy(), phis - 1, counts, qcol)  # squares its copy away
    np.subtract(qcol, y, out=y)
    check = p * y
    check += 1
    np.remainder(check, qcol, out=check)
    what = f"q = {qa}" if qb - qa == 1 else f"q in [{qa}, {qb})"
    if check.any():
        raise ArithmeticError(f"inverse computation failed for {what}")
    if ((y < 1) | (y >= qcol)).any():
        raise ArithmeticError(f"partner map is not an involution for {what}")
    return counts, p, y


def pairing_census(q: int) -> tuple[int, int, int]:
    """Counts of the partner involution mod q, read off the pairing kernel.

    Returns (units, self_paired, members) where units equals phi(q); the
    member count comes from the pairing itself, not from a closed form.
    """
    _, p, y = _pairing_run(q, q + 1)
    # each unit p < q/2 stands for itself and q - p; q = 2's one unit is both
    units = 2 * len(p) - (q == 2)
    self_paired = 2 * int((p == y).sum()) - (q == 2)
    return units, self_paired, self_paired + (units - self_paired) // 2


# Residues a run of denominators covers at most, unless one q has more: the
# runs of a family walk start at one q and double up to it.
_RUN_RESIDUES = 1 << 16


def _member_runs(
    limit: int | None = None, start: int = 1
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the family one run of consecutive denominators at a time.

    Each run is (qa, ends, p, self_paired) for q = qa, qa+1, ...: the member
    numerators of every q of the run, q by q and ascending within each
    (int64), whether each is its own partner (bool), and the index where
    each q's members end.  With a limit the runs stop after that many
    members in all, the last one cut short after the q that reaches it.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if start < 1:
        raise ValueError("start must be positive")
    left, qa, size = limit, start, start
    while True:
        qb, total = qa + 1, qa
        while total + qb <= size:
            total += qb
            qb += 1
        if qa == 1:
            ends, p, self_paired = np.ones(1, np.int64), np.zeros(1, np.int64), np.ones(1, bool)
        else:
            # of p <= q/2 and q - p exactly one is a member, p when p < y
            # and q - p when p > y, or both when p = y (one slot at q = 2):
            # mark them in a window over the residues 0..q-1 of each q,
            # 1 a member and 2 a self-paired one, and read it back in order
            counts, half, y = _pairing_run(qa, qb)
            qs = np.arange(qa, qb)
            stop = np.cumsum(qs)
            mark = 1 + (half == y)
            window = np.zeros(int(stop[-1]), np.int8)
            window[np.repeat(stop - qs, counts) + half] = mark * (half <= y)
            window[np.repeat(stop, counts) - half] = mark * (half >= y)
            del counts, half, y, mark
            p = np.flatnonzero(window)
            self_paired = window[p] == 2
            ends = np.searchsorted(p, stop)
            p -= np.repeat(stop - qs, np.diff(ends, prepend=0))
        if left is not None:
            if left <= p.size:
                ends = ends[: np.searchsorted(ends, left) + 1]
                ends[-1] = left
                yield qa, ends, p[:left], self_paired[:left]
                return
            left -= p.size
        yield qa, ends, p, self_paired
        qa, size = qb, min(2 * size, _RUN_RESIDUES)


def family_blocks(
    limit: int | None = None, start: int = 1
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield the family one denominator at a time, for q = start, start+1, ...

    Each block is (q, p, self_paired): the member numerators of q ascending
    (int64) and whether each is its own partner (bool), read off the pairing
    kernel one run of denominators at a time.  With a limit the blocks stop
    after that many members in all, the last one cut short.
    """
    for qa, ends, p, self_paired in _member_runs(limit, start):
        lo = 0
        for q, hi in zip(itertools.count(qa), ends.tolist()):
            yield q, p[lo:hi], self_paired[lo:hi]
            lo = hi


def iter_fractions(limit: int | None = None) -> Iterator[Fraction]:
    """Yield the scattering fractions in order: blocks of increasing q,
    increasing within each block.  Starts 0, 1/2, 1/3, 1/4, 1/5, 2/5, 3/5, ...
    """
    for q, p, _ in family_blocks(limit):
        for n in p.tolist():
            yield Fraction(n, q)


def equivalence_witness(w1, w2) -> UnimodularMatrix | None:
    """Determinant-1 witness that w1 and w2 label the same geodesic, or None.

    Both arguments must be fractions in (0, 1) with denominator >= 2 (they
    are always in lowest terms as Fractions).  Equal inputs return the
    identity; otherwise a witness exists exactly when the denominators agree
    and q divides p1*p2 + 1, and then the returned matrix maps infinity to w2
    and w1 to infinity.
    """
    if not isinstance(w1, Fraction):
        w1 = Fraction(w1)
    if not isinstance(w2, Fraction):
        w2 = Fraction(w2)
    p1, q1 = w1.numerator, w1.denominator
    p2, q2 = w2.numerator, w2.denominator
    if not (0 < p1 < q1 and 0 < p2 < q2):
        raise ValueError("fractions must lie strictly between 0 and 1")
    if q1 == q2 and p1 == p2:
        return UnimodularMatrix.identity()
    if q1 != q2:
        return None
    if (p1 * p2 + 1) % q1 != 0:
        return None
    return UnimodularMatrix(p2, -(1 + p1 * p2) // q1, q1, -p1)


def canonical_fraction(w) -> Fraction:
    """The member of the scattering family labelling the same geodesic as w.

    Fixes self-paired numerators and orbit minima; otherwise swaps to the
    partner.  Idempotent, and two fractions in (0, 1) share an image exactly
    when they admit an equivalence witness.
    """
    w = Fraction(w)
    if not 0 <= w < 1:
        raise ValueError(f"w must lie in [0, 1), got {w}")
    q = w.denominator
    if q == 1:
        return Fraction(0)
    y = partner(w.numerator, q)
    return w if y >= w.numerator else Fraction(y, q)


def _require_t0(t0: float) -> None:
    """Check a cusp height: it must be a finite number above 1 (NaN fails)."""
    if not 1 < t0 < math.inf:
        raise ValueError(f"t0 must be a finite number above 1, got {t0}")


def sojourn_time(w, t0: float) -> float:
    """Time the geodesic labelled by w = p/q spends in the compact core cut
    at height t0: equal to 2*log(q*t0).  Requires t0 > 1.
    """
    _require_t0(t0)
    w = Fraction(w)
    if not 0 <= w < 1:
        raise ValueError(f"w must lie in [0, 1), got {w}")
    return 2.0 * math.log(w.denominator * t0)


def fraction_record(w, t0: float) -> dict:
    """JSON-ready record (q, p, class, sojourn) for one scattering fraction."""
    w = Fraction(w)
    q, p = w.denominator, w.numerator
    # p is its own partner exactly when p*p == -1 (mod q); q = 1 included
    kind = "self_paired" if (p * p + 1) % q == 0 else "pair_min"
    return {"q": q, "p": p, "class": kind, "sojourn": sojourn_time(w, t0)}
