import math
import random
from fractions import Fraction

import numpy as np
import pytest

from modscatter.hyperbolic import (
    GeodesicTrace,
    ReductionError,
    hyperbolic_distance,
    in_fundamental_domain,
    mobius_apply,
    reduce_points,
    reduce_to_domain,
    trace_sojourn,
)
from modscatter.scatterset import UnimodularMatrix, partner, scatter_set

S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)


def random_group_element(rng, max_entry=50):
    while True:
        m = UnimodularMatrix.identity()
        for _ in range(rng.randrange(1, 9)):
            m = m * rng.choice([S, T, T.inverse()])
        if max(abs(v) for v in m.astuple()) <= max_entry:
            return m


def random_point(rng):
    return complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(0.05), math.log(5))))


def test_mobius_golden():
    ident = UnimodularMatrix.identity()
    z = 0.3 + 1.7j
    assert mobius_apply(ident, z) == z
    assert mobius_apply(S, 1j) == pytest.approx(1j)
    assert mobius_apply(S, 2j) == pytest.approx(0.5j)


def test_mobius_preserves_upper_half_plane():
    rng = random.Random(11)
    for _ in range(300):
        g = random_group_element(rng)
        z = random_point(rng)
        assert mobius_apply(g, z).imag > 0


def test_mobius_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mobius_apply(S, 1 - 1j)


def test_distance_golden():
    assert hyperbolic_distance(1j, 2j) == pytest.approx(math.log(2), abs=1e-14)
    assert hyperbolic_distance(0.4 + 1j, 0.4 + 1j) == 0.0
    a, b = 0.25 + 0.5j, 0.25 + 3.2j
    assert hyperbolic_distance(a, b) == pytest.approx(abs(math.log(3.2 / 0.5)), abs=1e-12)
    assert hyperbolic_distance(a, b) == hyperbolic_distance(b, a)


def test_distance_triangle_inequality():
    rng = random.Random(23)
    for _ in range(200):
        z1, z2, z3 = (random_point(rng) for _ in range(3))
        assert hyperbolic_distance(z1, z3) <= (
            hyperbolic_distance(z1, z2) + hyperbolic_distance(z2, z3) + 1e-12
        )


def test_isometry():
    rng = random.Random(37)
    for _ in range(300):
        g = random_group_element(rng)
        z1, z2 = random_point(rng), random_point(rng)
        d0 = hyperbolic_distance(z1, z2)
        d1 = hyperbolic_distance(mobius_apply(g, z1), mobius_apply(g, z2))
        assert abs(d0 - d1) <= 1e-10 * max(1.0, d0)


def test_reduce_golden():
    rp = reduce_to_domain(0.5 + 2j)
    assert rp.z == 0.5 + 2j
    assert rp.matrix == UnimodularMatrix.identity()

    rp = reduce_to_domain(2.3 + 5j)
    assert rp.z == pytest.approx(0.3 + 5j)
    assert rp.matrix == UnimodularMatrix(1, -2, 0, 1)

    rp = reduce_to_domain(0.5 + 0.1j)
    assert rp.z.imag >= math.sqrt(3) / 2 - 1e-9
    assert in_fundamental_domain(rp.z)


def test_reduce_tracks_matrix():
    rng = random.Random(41)
    for _ in range(400):
        z = random_point(rng)
        rp = reduce_to_domain(z)
        assert in_fundamental_domain(rp.z)
        image = mobius_apply(rp.matrix, z)
        assert abs(image - rp.z) <= 1e-9 * max(1.0, abs(rp.z))


def test_reduce_idempotent_interior():
    rng = random.Random(43)
    hits = 0
    while hits < 100:
        rp = reduce_to_domain(random_point(rng))
        z = rp.z
        # keep points safely off the boundary, where the representative is unique
        interior = (
            1e-6 < z.real < 1 - 1e-6
            and abs(z) > 1 + 1e-6
            and abs(z - 1) > 1 + 1e-6
        )
        if not interior:
            continue
        hits += 1
        again = reduce_to_domain(z)
        assert again.z == z
        assert again.matrix == UnimodularMatrix.identity()


def test_reduce_invariant_under_group():
    rng = random.Random(47)
    hits = 0
    while hits < 200:
        z = random_point(rng)
        rp = reduce_to_domain(z)
        zz = rp.z
        if not (
            1e-5 < zz.real < 1 - 1e-5
            and abs(zz) > 1 + 1e-5
            and abs(zz - 1) > 1 + 1e-5
        ):
            continue
        hits += 1
        g = random_group_element(rng)
        moved = reduce_to_domain(mobius_apply(g, z))
        assert abs(moved.z - zz) <= 1e-6 * max(1.0, abs(zz))


def test_reduce_points_matches_scalar():
    rng = np.random.default_rng(53)
    zs = rng.uniform(-4, 4, 500) + 1j * np.exp(rng.uniform(np.log(1e-3), np.log(6), 500))
    vector = reduce_points(zs)
    scalar = np.array([reduce_to_domain(complex(z)).z for z in zs])
    assert np.abs(vector - scalar).max() <= 1e-9


def test_reduce_points_rejects_lower():
    with pytest.raises(ValueError):
        reduce_points(np.array([1 + 1j, 2 - 1j]))


def gather_scatter_reduce(zs, eps=1e-9, max_steps=256):
    """Oracle: the reduction walk that gathers every walking point from the
    whole array and scatters it back at each step."""
    w = np.asarray(zs, dtype=np.complex128).copy()
    flat = w.reshape(-1)
    lim = (1.0 - eps) ** 2
    active = np.arange(flat.size)
    for _ in range(max_steps):
        v = flat[active]
        v -= np.rint(v.real)
        inside = v.real**2 + v.imag**2 < lim
        v[inside] = -1.0 / v[inside]
        flat[active] = v
        active = active[inside]
        if not active.size:
            flat.real[flat.real < 0] += 1.0
            return w
    raise ReductionError(f"{active.size} points failed to reduce")


def test_reduce_points_bitwise_matches_oracle():
    rng = np.random.default_rng(7)
    for n in (0, 1, 17, 4000):
        zs = rng.uniform(-40, 40, n) + 1j * np.exp(rng.uniform(np.log(1e-9), np.log(1e3), n))
        before = zs.copy()
        got = reduce_points(zs.reshape(-1, 1) if n == 17 else zs)
        assert got.tobytes() == gather_scatter_reduce(zs).tobytes()
        assert zs.tobytes() == before.tobytes()  # the input is left alone
    zs = np.array([0.3 + 1e-6j, 0.5 + 0.5j])
    with pytest.raises(ReductionError):
        reduce_points(zs, max_steps=3)
    with pytest.raises(ReductionError):
        gather_scatter_reduce(zs, max_steps=3)


def test_trace_reduction_bitwise_matches_oracle():
    # trace_sojourn builds and reduces its points in place; the same points
    # built by the plain expressions and reduced by the oracle agree bit for bit
    for w, t0, step in [(Fraction(0), 2.0, 1e-2), (Fraction(1, 2), 1.5, 1e-3),
                        (Fraction(12345, 99991), 3.0, 1e-3),
                        (Fraction(483203951, 799947541), 3.0, 1e-3),
                        (Fraction(10**9 - 1, 10**9), 2.0, 1e-2)]:
        tr = trace_sojourn(w, t0, step=step)
        p, q = w.numerator, w.denominator
        t = np.arange(tr.t.size) * step
        y = 2.0 * t0 * np.exp(-t)
        z = float(w) + 1j * y
        low = y < 1.0 / q
        a = partner(p, q) if q > 1 else 0
        z[low] = float(Fraction(a, q)) + 1j / (float(q) ** 2 * y[low])
        assert tr.t.tobytes() == t.tobytes()
        assert tr.lift_y.tobytes() == y.tobytes()
        assert tr.reduced.tobytes() == gather_scatter_reduce(z).tobytes()


def test_trace_examples():
    tr = trace_sojourn(Fraction(0), 2.0, step=1e-3)
    assert abs(tr.measured_sojourn - 2 * math.log(2)) <= 3e-3
    tr = trace_sojourn(Fraction(1, 2), 2.0, step=1e-3)
    assert abs(tr.measured_sojourn - 2 * math.log(4)) <= 3e-3
    tr = trace_sojourn(Fraction(2, 5), 3.0, step=1e-3)
    assert abs(tr.measured_sojourn - 2 * math.log(15)) <= 3e-3


def test_trace_preconditions():
    for t0 in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            trace_sojourn(Fraction(2, 5), t0)
    with pytest.raises(ValueError):
        trace_sojourn(Fraction(2, 5), 2.0, step=0.5)
    for tail_factor in (2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tail_factor"):
            trace_sojourn(Fraction(2, 5), 2.0, tail_factor=tail_factor)
    with pytest.raises(ValueError):
        trace_sojourn(Fraction(3, 2), 2.0)
    with pytest.raises(ValueError, match="underflows"):
        trace_sojourn(Fraction(1, 10**160), 2.0)  # exit height below the float range


def test_trace_sample_grid():
    tr = trace_sojourn(Fraction(1, 3), 2.0, step=1e-3)
    gaps = np.diff(tr.t)
    assert np.abs(gaps - 1e-3).max() < 1e-12
    assert (tr.lift_y[:-1] > tr.lift_y[1:]).all()
    assert tr.lift_y[0] == pytest.approx(4.0)


def test_trace_core_window():
    # not in the core while the lift ordinate still exceeds t0; one block inside
    for w, t0 in [(Fraction(0), 2.0), (Fraction(1, 2), 1.5), (Fraction(2, 5), 2.0)]:
        tr = trace_sojourn(w, t0, step=1e-3)
        idx = np.nonzero(tr.in_core)[0]
        assert idx.size > 0
        assert (~tr.in_core[: idx[0]]).all()
        assert (tr.lift_y[: idx[0]] > t0 - 1e-9).all()
        assert (np.diff(idx) == 1).all()
        assert tr.measured_sojourn >= 0


def test_trace_matches_formula_across_family():
    cases = [(w, 2.0) for q in range(1, 9) for w in scatter_set(q).members]
    # long partial quotients (253/254 = [0; 1, 253]) and denominators far
    # beyond the resolution of float(p/q) near the exit height
    labels = [
        Fraction(253, 254),
        Fraction(336, 1009),
        Fraction(333334, 1000003),
        Fraction(10**8, 10**8 + 7),
        Fraction(123456789, 10**9 + 7),
        Fraction(1, 10**12 + 39),
    ]
    cases += [(w, t0) for w in labels for t0 in (1.5, 3.0)]
    for w, t0 in cases:
        tr = trace_sojourn(w, t0, step=1e-3)
        assert abs(tr.measured_sojourn - tr.predicted_sojourn) <= 2e-3 + 1e-6, (w, t0)


def test_reduce_points_exit_height_sweep():
    # every coprime p/q with q <= 1000, on both sides of the exit height
    # 1/(t0*q^2): the witness sends p/q + i*k/(t0*q^2) to a/q + i*t0/k, so
    # the reduced ordinate is at most t0 exactly when k >= 1
    t0 = 2.0
    ps, qs = [], []
    for q in range(1, 1001):
        p = np.arange(q)
        p = p[np.gcd(p, q) == 1]
        ps.append(p)
        qs.append(np.full(p.size, q))
    p = np.concatenate(ps).astype(np.float64)
    q = np.concatenate(qs).astype(np.float64)
    assert p.size == 304_192
    ks = np.array([0.5, 0.999, 1.001, 2.0])
    zs = p / q + 1j * ks[:, None] / (t0 * q * q)
    reduced = reduce_points(zs, max_steps=16)
    assert reduced.shape == zs.shape
    assert ((reduced.imag <= t0) == (ks[:, None] >= 1)).all()


def test_reduction_error_is_reported():
    with pytest.raises(ReductionError):
        reduce_to_domain(0.3 + 1e-9j, max_steps=3)
