"""Upper half-plane geometry: Mobius action, reduction into the fundamental
domain {0 <= Re z <= 1, |z| >= 1, |z - 1| >= 1}, and numerical sojourn
measurement along vertical geodesic lifts.

Reduction is the nearest-integer walk with two moves: translate by the
integer nearest to Re z, and invert z -> -1/z while |z| < 1.  An inversion
strictly inside the unit circle raises the imaginary part, so the walk ends,
after about one step per partial quotient of the nearest-integer continued
fraction.  It stops with |Re z| <= 1/2; a final shift by +1 of the points
with Re z < 0 lands in the domain above.  Points within DEFAULT_EPS of a
boundary are accepted as inside.

The geodesic labelled by w = p/q lifts to the vertical line Re = p/q.  In
the quotient it crosses into the region Im <= t0 at height t0 and leaves it
for good at height 1/(t0*q**2), so the time spent there is 2*log(q*t0);
trace_sojourn measures that elapsed time from uniformly spaced samples.  It
samples heights above 1/q on the line itself and those below in the chart of
the witness matrix that sends p/q to infinity, where float(p/q) is not needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _check_budget
from .scatterset import UnimodularMatrix, _require_t0, partner, sojourn_time

DEFAULT_EPS = 1e-9
MAX_REDUCTION_STEPS = 256
_INSIDE_SQ = (1.0 - DEFAULT_EPS) ** 2  # least |z|^2 accepted outside the unit circle

_INVERT = UnimodularMatrix(0, -1, 1, 0)  # z -> -1/z
_SHIFT = UnimodularMatrix(1, 1, 0, 1)    # z -> z + 1
# Bytes a trace holds per sample (its arrays and the reduction's working
# copies), from peak RSS at 2.8e4, 2.8e5 and 1.4e6 samples.
_SAMPLE_BYTES = 110


class ReductionError(RuntimeError):
    """The reduction walk did not finish within the step cap."""


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)) or z.imag <= 0:
        raise ValueError(f"point must lie in the open upper half-plane, got {z}")
    return z


def mobius_apply(m: UnimodularMatrix, z: complex) -> complex:
    """Image of an upper half-plane point under z -> (a z + b)/(c z + d)."""
    z = _require_upper(z)
    return (m.a * z + m.b) / (m.c * z + m.d)


def hyperbolic_distance(z1: complex, z2: complex) -> float:
    """Distance in the metric ds^2 = (dx^2 + dy^2)/y^2.

    acosh(1 + |z1 - z2|^2 / (2 y1 y2)); for points on one vertical this is
    |log(y2/y1)|.
    """
    z1, z2 = _require_upper(z1), _require_upper(z2)
    d2 = (z1.real - z2.real) ** 2 + (z1.imag - z2.imag) ** 2
    return math.acosh(1.0 + d2 / (2.0 * z1.imag * z2.imag))


def in_fundamental_domain(z: complex) -> bool:
    x, y = z.real, z.imag
    if x < -DEFAULT_EPS or x > 1.0 + DEFAULT_EPS:
        return False
    u = min(abs(x), abs(x - 1.0))  # distance to the nearer centre, 0 or 1
    return u * u + y * y >= _INSIDE_SQ


@dataclass(frozen=True)
class ReducedPoint:
    """A fundamental-domain representative z together with the group element
    g satisfying g(original) == z."""

    z: complex
    matrix: UnimodularMatrix


def reduce_to_domain(z: complex, max_steps: int = MAX_REDUCTION_STEPS) -> ReducedPoint:
    """Walk z into the fundamental domain, accumulating the applied matrix."""
    w = _require_upper(z)
    g = UnimodularMatrix.identity()
    for _ in range(max_steps):
        n = round(w.real)
        if n:
            w = complex(w.real - n, w.imag)
            g = UnimodularMatrix(1, -n, 0, 1) * g
        if w.real * w.real + w.imag * w.imag >= _INSIDE_SQ:
            break
        w = -1.0 / w
        g = _INVERT * g
    else:
        raise ReductionError(f"no fundamental-domain representative found for {z}")
    if w.real < 0:
        w = complex(w.real + 1.0, w.imag)
        g = _SHIFT * g
    return ReducedPoint(w, g)


def reduce_points(zs: np.ndarray, max_steps: int = MAX_REDUCTION_STEPS) -> np.ndarray:
    """Fundamental-domain representatives of an array of points.

    Vectorised version of reduce_to_domain without matrix tracking: each
    step touches only the points still inside the unit circle.  The two
    implementations are checked against each other in the test-suite.
    """
    w = np.array(zs, dtype=np.complex128)
    if w.size and (w.imag <= 0).any():
        raise ValueError("all points must lie in the open upper half-plane")
    _reduce_in_place(w.reshape(-1), max_steps)
    return w


def _reduce_in_place(flat: np.ndarray, max_steps: int) -> None:
    """reduce_points on a 1-d complex128 array, overwriting it.

    The first step works on `flat` itself and later ones on a compacted copy
    of the points still walking, so a step costs only what is still walking;
    each point is written back once, when it leaves the unit circle."""
    v, active = flat, np.arange(flat.size)
    for _ in range(max_steps):
        x = v.real
        x -= np.rint(x)
        with np.errstate(over="ignore"):  # a height past 1e154 squares to inf: outside
            inside = x**2 + v.imag**2 < _INSIDE_SQ
        if v is not flat:
            done = ~inside
            flat[active[done]] = v[done]
        active = active[inside]
        if not active.size:
            break
        v = v[inside]
        np.divide(-1.0, v, out=v)
    else:
        raise ReductionError(
            f"{active.size} points failed to reduce within {max_steps} steps"
        )
    flat.real[flat.real < 0] += 1.0


@dataclass(frozen=True)
class GeodesicTrace:
    """Uniform arc-length samples along the vertical lift of one geodesic.

    t[k] = k*step; lift_y holds the ordinates on the line Re = w (descending
    from 2*t0); reduced holds the fundamental-domain representatives; in_core
    flags reduced ordinates at most t0.
    """

    w: Fraction
    t0: float
    step: float
    t: np.ndarray
    lift_y: np.ndarray
    reduced: np.ndarray
    in_core: np.ndarray

    @property
    def measured_sojourn(self) -> float:
        idx = np.nonzero(self.in_core)[0]
        if idx.size == 0:
            return 0.0
        return float(self.t[idx[-1]] - self.t[idx[0]])

    @property
    def predicted_sojourn(self) -> float:
        return sojourn_time(self.w, self.t0)


def trace_sojourn(
    w, t0: float, step: float = 1e-3, tail_factor: float = 10.0
) -> GeodesicTrace:
    """Trace the vertical lift of the geodesic labelled by w = p/q and
    measure its sojourn in the region Im <= t0 of the quotient.

    Samples run from ordinate 2*t0 (safely outside) down to
    1/(tail_factor*t0*q**2) (a factor tail_factor past the permanent exit) at
    unit-speed parameter t = log(y_start/y).  The measured sojourn, last
    in-core t minus first in-core t, matches 2*log(q*t0) to within 2*step
    plus the reduction tolerance.  Samples with y < 1/q are mapped first by
    the witness (a, -(1 + a*p)/q; q, -p), a the partner of p, which sends
    p/q + iy to a/q + i/(q**2*y).  A q and t0 whose exit height underflows,
    or whose ratio y_start/y_end overflows, are refused, and so is a sample
    count whose arrays would pass the byte budget, before anything is
    allocated.
    """
    w = Fraction(w)
    if not 0 <= w < 1:
        raise ValueError(f"w must lie in [0, 1), got {w}")
    _require_t0(t0)
    if not 0 < step <= 0.01:
        raise ValueError(f"step must lie in (0, 0.01], got {step}")
    if not 4 <= tail_factor < math.inf:
        raise ValueError(f"tail_factor must be a finite number at least 4, got {tail_factor}")
    p, q = w.numerator, w.denominator
    y_start = 2.0 * t0
    y_end = 1.0 / (tail_factor * t0 * q * q)
    if not 0 < y_end < math.inf:
        raise ValueError(f"q = {q} with t0 = {t0} is too large: the exit height "
                         f"underflows a float")
    span = y_start / y_end
    if span == math.inf:
        raise ValueError(f"t0 = {t0} with q = {q} is too large: the ratio of the start "
                         f"height to the exit height overflows a float")
    # np.ceil keeps the inf count of a subnormal step for the budget to refuse
    samples = np.ceil(math.log(span) / step) + 1
    _check_budget(samples * _SAMPLE_BYTES, f"{samples:.0f} samples")
    samples = int(samples)
    # built in place, without the full-size temporaries of the expressions
    # t = arange*step, y = y_start*exp(-t), z = w + 1j*y (same values)
    t = np.arange(samples, dtype=np.float64)
    t *= step
    y = np.negative(t)
    np.exp(y, out=y)
    y *= y_start
    reduced = np.empty(samples, dtype=np.complex128)
    reduced.real = float(w)
    reduced.imag = y
    low = y < 1.0 / q
    a = partner(p, q) if q > 1 else 0
    reduced.real[low] = float(Fraction(a, q))
    reduced.imag[low] = 1.0 / (float(q) ** 2 * y[low])
    _reduce_in_place(reduced, MAX_REDUCTION_STEPS)
    in_core = reduced.imag <= t0
    return GeodesicTrace(w, t0, step, t, y, reduced, in_core)
