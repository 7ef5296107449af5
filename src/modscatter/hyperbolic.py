"""Upper half-plane geometry: Mobius action, reduction into the fundamental
domain {0 <= Re z <= 1, |z| >= 1, |z - 1| >= 1}, and numerical sojourn
measurement along vertical geodesic lifts.

Reduction uses three determinant-1 moves: integer translation, inversion
z -> -1/z about |z| = 1, and the conjugate inversion z -> (z - 2)/(z - 1)
about |z - 1| = 1.  Each inversion applied strictly inside its circle raises
the imaginary part, so the walk terminates; points within `eps` of a
boundary are accepted as inside.

The geodesic labelled by w = p/q lifts to the vertical line Re = p/q.  In
the quotient it crosses into the region Im <= t0 at height t0 and leaves it
for good at height 1/(t0*q**2), so the time spent there is 2*log(q*t0);
trace_sojourn measures that elapsed time from uniformly spaced samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scatterset import UnimodularMatrix, _require_t0

DEFAULT_EPS = 1e-9
MAX_REDUCTION_STEPS = 256

_INVERT = UnimodularMatrix(0, -1, 1, 0)          # z -> -1/z
_INVERT_AT_ONE = UnimodularMatrix(1, -2, 1, -1)  # z -> (z - 2)/(z - 1)


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


def in_fundamental_domain(z: complex, eps: float = DEFAULT_EPS) -> bool:
    x, y = z.real, z.imag
    if x < -eps or x > 1.0 + eps:
        return False
    lim = (1.0 - eps) ** 2
    return x * x + y * y >= lim and (x - 1.0) ** 2 + y * y >= lim


@dataclass(frozen=True)
class ReducedPoint:
    """A fundamental-domain representative z together with the group element
    g satisfying g(original) == z."""

    z: complex
    matrix: UnimodularMatrix


def reduce_to_domain(
    z: complex, eps: float = DEFAULT_EPS, max_steps: int = MAX_REDUCTION_STEPS
) -> ReducedPoint:
    """Walk z into the fundamental domain, accumulating the applied matrix."""
    w = _require_upper(z)
    g = UnimodularMatrix.identity()
    lim = (1.0 - eps) ** 2
    for _ in range(max_steps):
        moved = False
        n = math.floor(w.real)
        if n != 0:
            w = complex(w.real - n, w.imag)
            g = UnimodularMatrix(1, -n, 0, 1) * g
            moved = True
        if w.real * w.real + w.imag * w.imag < lim:
            w = -1.0 / w
            g = _INVERT * g
            moved = True
        elif (w.real - 1.0) ** 2 + w.imag * w.imag < lim:
            w = (w - 2.0) / (w - 1.0)
            g = _INVERT_AT_ONE * g
            moved = True
        if not moved:
            return ReducedPoint(w, g)
    raise ReductionError(f"no fundamental-domain representative found for {z}")


def reduce_points(
    zs: np.ndarray, eps: float = DEFAULT_EPS, max_steps: int = MAX_REDUCTION_STEPS
) -> np.ndarray:
    """Fundamental-domain representatives of an array of points.

    Mask-vectorised version of reduce_to_domain without matrix tracking; the
    two implementations are checked against each other in the test-suite.
    """
    w = np.asarray(zs, dtype=np.complex128).copy()
    if w.size and (w.imag <= 0).any():
        raise ValueError("all points must lie in the open upper half-plane")
    lim = (1.0 - eps) ** 2
    for _ in range(max_steps):
        n = np.floor(w.real)
        shifted = n != 0
        if shifted.any():
            w = w - n
        m1 = w.real**2 + w.imag**2 < lim
        if m1.any():
            w[m1] = -1.0 / w[m1]
        m2 = ~m1 & ((w.real - 1.0) ** 2 + w.imag**2 < lim)
        if m2.any():
            w[m2] = (w[m2] - 2.0) / (w[m2] - 1.0)
        if not (shifted.any() or m1.any() or m2.any()):
            return w
    stuck = int(shifted.sum() + m1.sum() + m2.sum())
    raise ReductionError(f"{stuck} points failed to reduce within {max_steps} steps")


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
        return 2.0 * math.log(self.w.denominator * self.t0)


def trace_sojourn(
    w, t0: float, step: float = 1e-3, tail_factor: float = 10.0
) -> GeodesicTrace:
    """Trace the vertical lift of the geodesic labelled by w = p/q and
    measure its sojourn in the region Im <= t0 of the quotient.

    Samples run from ordinate 2*t0 (safely outside) down to
    1/(tail_factor*t0*q**2) (a factor tail_factor past the permanent exit) at
    unit-speed parameter t = log(y_start/y).  The measured sojourn, last
    in-core t minus first in-core t, matches 2*log(q*t0) to within 2*step
    plus the reduction tolerance.
    """
    w = Fraction(w)
    if not 0 <= w < 1:
        raise ValueError(f"w must lie in [0, 1), got {w}")
    _require_t0(t0)
    if not 0 < step <= 0.01:
        raise ValueError(f"step must lie in (0, 0.01], got {step}")
    if tail_factor < 4:
        raise ValueError(f"tail_factor must be at least 4, got {tail_factor}")
    q = w.denominator
    y_start = 2.0 * t0
    y_end = 1.0 / (tail_factor * t0 * q * q)
    t = np.arange(math.ceil(math.log(y_start / y_end) / step) + 1) * step
    y = y_start * np.exp(-t)
    reduced = reduce_points(float(w) + 1j * y)
    in_core = reduced.imag <= t0
    return GeodesicTrace(w, t0, step, t, y, reduced, in_core)
