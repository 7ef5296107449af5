"""Pairing structure of units modulo q and the induced family of scattering fractions.

For q >= 2 every unit p in [1, q) has a unique partner y with p*y == -1
(mod q).  Units equal to their partner are self-paired (p^2 == -1 mod q);
the rest fall into two-element orbits {p, y}.  Keeping the self-paired
residues together with the minimum of every orbit yields the fraction family
for denominator q, and the disjoint union over q = 1, 2, 3, ... indexes the
geodesics of the modular surface that escape to the cusp in both directions.
The family is ordered by denominator first, fraction value second.  One
vectorised kernel lists the units of q with their partners; scatter_set,
pairing_census and the columnar family_blocks all read the family off it.

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
from .arith import _BYTE_BUDGET, _INT64_ROOT, MemoryBudgetExceeded

INFINITY = math.inf
# Peak bytes _pairing(q) holds: one mask byte per residue plus, per unit, the
# units, the exponentiation's operands and temporaries, partners and search
# positions.  Measured with tracemalloc (numpy 2.4): q + 41*phi(q) and a few
# hundred bytes, for q prime, a prime power and products of small primes.
_PAIRING_BYTES_PER_UNIT = 42


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
    """Build the fraction family for denominator q from the partner pairing."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return ScatterSet(1, (), (), (Fraction(0),))
    units, y = _pairing(q)
    low = units < y
    selfp = units[units == y].tolist()
    pairs = tuple(zip(units[low].tolist(), y[low].tolist()))
    # built from the ints already held, not a third list of them (peak memory)
    members = tuple(Fraction(p, q) for p in sorted(selfp + [a for a, _ in pairs]))
    return ScatterSet(q, tuple(selfp), pairs, members)


def _mod_pow(base: np.ndarray, exp: int, q: int) -> np.ndarray:
    result = np.ones_like(base)
    b = base % q
    while exp:
        if exp & 1:
            result = result * b % q
        b = b * b % q
        exp >>= 1
    return result


def _pairing(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The units mod q in ascending order and the partner of each.

    Partners come from the vectorised inverse p**(phi(q)-1), and the map is
    verified to be an involution of the unit group.  q whose square leaves
    int64, or whose working set would pass the byte budget, is refused
    before anything is allocated.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > _INT64_ROOT:
        raise ValueError(f"q = {q} exceeds {_INT64_ROOT}, where q*q leaves int64")
    primes = [p for p, _ in arith.factorize(q).factors]
    phi = q
    for p in primes:
        phi -= phi // p
    need = q + _PAIRING_BYTES_PER_UNIT * phi
    if need > _BYTE_BUDGET:
        raise MemoryBudgetExceeded(
            f"q = {q} needs {need} bytes for its {phi} units, "
            f"over the budget of {_BYTE_BUDGET}"
        )
    mask = np.ones(q, dtype=bool)
    mask[0] = False
    for p in primes:
        mask[::p] = False
    units = np.nonzero(mask)[0].astype(np.int64)
    inv = _mod_pow(units, len(units) - 1, q)  # p**(phi(q)-1) == p^-1 (mod q)
    if ((units * inv) % q != 1).any():
        raise ArithmeticError(f"inverse computation failed for q = {q}")
    y = q - inv
    pos = np.searchsorted(units, y)
    if (units[pos] != y).any() or (y[pos] != units).any():
        raise ArithmeticError(f"partner map is not an involution for q = {q}")
    return units, y


def pairing_census(q: int) -> tuple[int, int, int]:
    """Counts of the partner involution mod q, read off the pairing kernel.

    Returns (units, self_paired, members) where units equals phi(q); the
    member count comes from the pairing itself, not from a closed form.
    """
    units, y = _pairing(q)
    self_paired = int((y == units).sum())
    return len(units), self_paired, self_paired + (len(units) - self_paired) // 2


def family_blocks(
    limit: int | None = None, start: int = 1
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield the family one denominator at a time, for q = start, start+1, ...

    Each block is (q, p, self_paired): the member numerators of q ascending
    (int64) and whether each is its own partner (bool), read off the pairing
    kernel.  With a limit the blocks stop after that many members in all,
    the last one cut short.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if start < 1:
        raise ValueError("start must be positive")
    left = limit
    for q in itertools.count(start):
        if q == 1:
            p, self_paired = np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool)
        else:
            units, y = _pairing(q)
            keep = units <= y
            p, self_paired = units[keep], (units == y)[keep]
        if left is not None:
            if left <= p.size:
                yield q, p[:left], self_paired[:left]
                return
            left -= p.size
        yield q, p, self_paired


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
