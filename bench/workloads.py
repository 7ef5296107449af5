"""Seeded operation lists of the four benchmark workloads.

Each builder turns a `random.Random` into a fixed list of operations.  An
operation calls `cli.main` (with `--out`) or one public library function and
returns a compact result that the checks in `checks.py` verify after the
timed passes.  Inputs are drawn on a jittered
quantile grid (one draw from the middle half of each of L equal strata of
the range), so every seed covers the whole range and the total work varies
little from seed to seed.

Why these four workloads:

counts  -- isolated `count` point queries: the streamed sieve does almost all
           the work and its cost grows with x, not with the output.
table   -- one dense CountTable far beyond the last-level cache answering many
           lookups, plus dense `--points` sweeps and the three series routes.
family  -- enumeration and emission (G, histogram, gq, sq, equiv and library
           pairing calls): scatterset, arith and the CLI emitter do the work.
trace   -- numerical geodesic traces and scalar reductions: only hyperbolic
           works; q size drives sample counts, partial quotients drive steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from modscatter import cli, counting, hyperbolic, lfunction, scatterset

from checks import is_prime

T0S = (1.5, 2.0, 3.0)
TABLE_N = 10**7
SERIES_TERMS = 10**6
LOOKUPS = ("total_roots", "odd_modulus_roots", "total_members",
           "count_geodesics", "asymptotic_report")


@dataclass
class Op:
    kind: str                                # "cli.<command>" or "lib.<function>"
    run: Callable[[dict, str], object]       # (pass context, output path stem) -> result
    info: dict = field(default_factory=dict)  # inputs, read by the checks


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    samples: str | None = None


def _grid(rng: random.Random, count: int, lo: float, hi: float, log: bool = True):
    """One draw from the middle half of each of `count` equal strata."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(count):
        v = a + (i + 0.25 + 0.5 * rng.random()) / count * (b - a)
        out.append(math.exp(v) if log else v)
    return out


def _balanced(rng: random.Random, values, count: int) -> list:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _cli(argv: list[str], fmt: str = "csv", dump: bool = False):
    def run(ctx, stem):
        out = f"{stem}.{fmt}"
        extra = ["--format", fmt, "--out", out]
        samples = None
        if dump:
            samples = f"{stem}.samples.csv"
            extra += ["--dump-samples", samples]
        try:
            code = cli.main(argv + extra)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out, samples)

    return run


def _unit(rng: random.Random, q: int) -> int:
    while True:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return p


# counts ------------------------------------------------------------------

def counts_ops(rng: random.Random) -> list[Op]:
    n_ops = 24
    xs = [int(x) for x in _grid(rng, n_ops, 1e6, 2e7)]
    kinds = _balanced(rng, ("S", "tau", "psi", "pi"), n_ops)
    ops = []
    for x, kind in zip(xs, kinds):
        if kind == "pi":
            t0 = rng.choice(T0S)
            y = (x * t0) ** 2  # exact in binary64 for these x, so the threshold is x
            argv = ["count", "pi", "--Y", repr(y), "--t0", repr(t0)]
            info = {"kind": kind, "x": x, "Y": y, "t0": t0}
        else:
            argv = ["count", kind, "--x", str(x)]
            info = {"kind": kind, "x": x}
        ops.append(Op("cli.count", _cli(argv), info))
    rng.shuffle(ops)
    return ops


# table -------------------------------------------------------------------

def _build_table(ctx, stem):
    ctx["table"] = counting.sieve_tables(TABLE_N)
    return ctx["table"].limit


def _lookup(fn_name: str, *args, **kwargs):
    def run(ctx, stem):
        result = getattr(counting, fn_name)(*args, ctx["table"], **kwargs)
        if fn_name == "asymptotic_report":
            return (result.exact, result.predicted)
        return result

    return run


def _sweep_points(x: int, points: int) -> list[int]:
    """The checkpoints `count --points` visits below x (log-spaced from 10)."""
    pts = sorted({int(math.floor(v)) for v in np.geomspace(10.0, x, points)})
    if pts[-1] != x:
        pts.append(x)
    return pts


def _series_lib(fn_name: str, s: float, with_table: bool = False):
    def run(ctx, stem):
        fn = getattr(lfunction, fn_name)
        if fn_name == "series_by_zeta_identity":
            v = fn(s)
        elif with_table:
            v = fn(s, TABLE_N, table=ctx["table"])
        else:
            v = fn(s, TABLE_N)
        return (v.value, v.tail_bound)

    return run


def table_ops(rng: random.Random) -> list[Op]:
    ops = [Op("lib.sieve_tables", _build_table, {"n": TABLE_N})]
    lookups = []
    for g in range(250):
        x = rng.randrange(2, TABLE_N + 1)
        t0 = rng.choice(T0S)
        y = (x * t0) ** 2
        kind = rng.choice(("S", "tau", "psi", "pi"))
        arg = y if kind == "pi" else x
        base = {"group": g, "x": x, "t0": t0}
        lookups += [
            Op("lib.total_roots", _lookup("total_roots", x), {**base, "role": "S"}),
            Op("lib.odd_modulus_roots", _lookup("odd_modulus_roots", x),
               {**base, "role": "tau"}),
            Op("lib.odd_modulus_roots", _lookup("odd_modulus_roots", x / 2),
               {**base, "role": "tau_half"}),
            Op("lib.total_members", _lookup("total_members", x), {**base, "role": "psi"}),
            Op("lib.count_geodesics", _lookup("count_geodesics", y, t0),
               {**base, "role": "pi", "Y": y}),
            Op("lib.asymptotic_report",
               _lookup("asymptotic_report", kind, arg, t0=t0),
               {**base, "role": "report", "kind": kind}),
        ]
    rng.shuffle(lookups)
    ops += lookups

    fn_of = {"S": "total_roots", "tau": "odd_modulus_roots", "psi": "total_members"}
    for sweep, kind in enumerate(rng.sample(("S", "tau", "psi"), 2)):
        points = rng.randrange(150, 301)
        ops.append(Op("cli.count",
                      _cli(["count", kind, "--x", str(TABLE_N), "--points", str(points)]),
                      {"kind": kind, "x": TABLE_N, "points": points, "sweep": sweep}))
        for x in _sweep_points(TABLE_N, points):
            ops.append(Op(f"lib.{fn_of[kind]}", _lookup(fn_of[kind], x),
                          {"x": x, "role": "sweep", "sweep": sweep, "kind": kind}))

    svals = sorted(round(v, 3) for v in _grid(rng, 3, 1.6, 4.0, log=False))
    ops.append(Op("cli.series",
                  _cli(["series", *map(repr, svals), "--terms", str(SERIES_TERMS)]),
                  {"s": svals, "terms": SERIES_TERMS}))
    for s in _grid(rng, 2, 1.6, 4.0, log=False):
        s = round(s, 3)
        ops += [
            Op("lib.series_by_sum", _series_lib("series_by_sum", s, True), {"s": s}),
            Op("lib.series_by_euler_product", _series_lib("series_by_euler_product", s),
               {"s": s}),
            Op("lib.series_by_zeta_identity", _series_lib("series_by_zeta_identity", s),
               {"s": s}),
        ]
    return ops


# family ------------------------------------------------------------------

def _lib(fn_name: str, *args):
    def run(ctx, stem):
        return getattr(scatterset, fn_name)(*args)

    return run


def _large_moduli(rng: random.Random) -> list[tuple[int, int]]:
    """(q, expected root count) for single moduli whose factorization needs
    Brent rho (two prime factors above the trial-division bound) or a
    primality proof of a large prime."""

    def prime(lo: int, hi: int, residue: int) -> int:
        while True:
            p = rng.randrange(lo, hi) | 1
            if p % 4 == residue and is_prime(p):
                return p

    p1, p2, p5, p7 = (prime(10**8, 10**9, 1) for _ in range(4))
    p3, p6 = prime(10**7, 10**8, 1), prime(10**7, 10**8, 1)
    p4 = prime(10**8, 10**9, 3)
    big1, big2 = prime(10**17, 10**18, 1), prime(10**17, 4 * 10**18, 1)
    return [
        (p1 * p2, 4),          # two odd primes, both 1 mod 4
        (p2 * p7, 4),
        (2 * p5 * p6, 4),      # twice an odd solvable modulus
        (p5 * p5, 2),          # prime squares: Hensel lifting
        (p7 * p7, 2),
        (big1, 2),             # large primes
        (2 * big2, 2),
        (p1 * p6 * 5, 8),      # three odd primes 1 mod 4
        (p3 * p4, 0),          # a prime 3 mod 4: no roots
    ]


def family_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    fmts = ("csv", "json")
    t0s = iter(_balanced(rng, T0S, 12))

    # One G (JSON, the largest output) and four histograms no longer than
    # it, so each histogram can be checked against G's labels.  Their sizes
    # vary little, so the slowest operations are the same kinds for every
    # seed: the tail (the eleventh-slowest of two passes) falls among the
    # three smaller histograms, not among the single-modulus sq calls below,
    # whose Brent rho cost depends on the seed.
    n_g = rng.randrange(200_000, 210_001)
    t0 = next(t0s)
    ops.append(Op("cli.G", _cli(["G", "--first", str(n_g), "--t0", repr(t0)], "json"),
                  {"n": n_g, "t0": t0, "fmt": "json"}))
    n_h, bins = rng.randrange(170_000, n_g + 1), rng.randrange(20, 201)
    sizes = [(n_h, bins)] + [(rng.randrange(150_000, 160_001), rng.randrange(20, 201))
                             for _ in range(3)]
    for i, (n_h, bins) in enumerate(sizes):
        fmt = fmts[i % 2]
        ops.append(Op("cli.histogram",
                      _cli(["histogram", "--first", str(n_h), "--bins", str(bins)], fmt),
                      {"n": n_h, "bins": bins, "fmt": fmt}))

    # gq: small denominators, two medium ones and one near 1e6.  The large q
    # is a multiple of 2*3*5*7*11*13, so the pairing scan covers ~1e6
    # residues while the output (~1e5 rows) stays close to the G sizes; a
    # prime there would put half the workload's time into one operation.
    small = [int(q) for q in _grid(rng, 8, 2, 2000)]
    medium = [int(_grid(rng, 1, 2e3, 5e3)[0]), int(_grid(rng, 1, 5e3, 1.2e4)[0])]
    large = 30030 * rng.choice((32, 33))
    for i, q in enumerate(small + medium + [large]):
        fmt = fmts[i % 2]
        t0 = next(t0s)
        ops.append(Op("cli.gq", _cli(["gq", str(q), "--t0", repr(t0)], fmt),
                      {"q": q, "t0": t0, "fmt": fmt}))

    # sq: ranges over moduli 1e3..1e7, and single moduli up to ~8e18.
    for i, q in enumerate(_grid(rng, 4, 1e3, 1e7)):
        q = int(q)
        ops.append(Op("cli.sq", _cli(["sq", str(q), "--to", str(q + 299)], fmts[i % 2]),
                      {"q": q, "to": q + 299, "fmt": fmts[i % 2]}))
    for i, (q, s) in enumerate(_large_moduli(rng)):
        ops.append(Op("cli.sq", _cli(["sq", str(q)], fmts[i % 2]),
                      {"q": q, "to": q, "expect_s": s, "fmt": fmts[i % 2]}))

    # equiv: partners (equivalent), identical labels and unrelated labels.
    for i, q in enumerate(_grid(rng, 20, 3, 1e6)):
        q = int(q)
        p1 = _unit(rng, q)
        mode = ("partner", "partner", "same", "random")[i % 4]
        p2 = {"partner": (-pow(p1, -1, q)) % q, "same": p1,
              "random": _unit(rng, q)}[mode]
        ops.append(Op("cli.equiv", _cli(["equiv", f"{p1}/{q}", f"{p2}/{q}"], fmts[i % 2]),
                      {"q": q, "p1": p1, "p2": p2, "fmt": fmts[i % 2]}))

    # Library calls.
    for q in _grid(rng, 3, 1e3, 5e4):
        ops.append(Op("lib.scatter_set", _lib("scatter_set", int(q)), {"q": int(q)}))
    for q in _grid(rng, 2, 5e4, 2e5):
        ops.append(Op("lib.pairing_census", _lib("pairing_census", int(q)), {"q": int(q)}))
    # Enough cheap calls that the median operation is one of them.
    for q in _grid(rng, 150, 2, 1e9):
        q = int(q)
        w = Fraction(_unit(rng, q), q)
        ops.append(Op("lib.canonical_fraction", _lib("canonical_fraction", w), {"w": w}))
    rng.shuffle(ops)
    return ops


# trace -------------------------------------------------------------------

def _label(rng: random.Random, q0: int, kind: str) -> Fraction:
    """A coprime label p/q with q near q0.  'cusp1' puts it next to the cusp
    at 1, 'cusp0' next to 0, 'pq' gives one large partial quotient (p/q is
    1/(b*q) away from a/b with small b)."""
    if q0 <= 2:
        return Fraction(1, 2)
    if kind == "cusp0":
        return Fraction(1, q0)
    if kind == "cusp1":
        return Fraction(q0 - 1, q0)
    if kind == "pq" and q0 >= 16:
        b = rng.randrange(2, min(30, math.isqrt(q0) // 2) + 1)
        a = _unit(rng, b)
        r = (-pow(a, -1, b)) % b
        q = q0 - (q0 - r) % b
        if q <= b:
            q += b
        return Fraction((a * q + 1) // b, q)
    return Fraction(_unit(rng, q0), q0)


def _trace_lib(w: Fraction, t0: float, step: float):
    def run(ctx, stem):
        tr = hyperbolic.trace_sojourn(w, t0, step=step)
        return (tr.measured_sojourn, tr.predicted_sojourn, len(tr.t))

    return run


def _reduce_lib(z: complex):
    def run(ctx, stem):
        r = hyperbolic.reduce_to_domain(z)
        return (r.z, r.matrix.astuple())

    return run


def trace_ops(rng: random.Random) -> list[Op]:
    # Every (label kind, step) cell gets its own stratified q sample, so the
    # mix of costly cases (fine steps, large q, cusp labels) is the same for
    # every seed.
    kinds = ("cusp0", "cusp1", "pq", "random", "random", "random", "random", "random")
    cells = [(kind, step) for kind in kinds for step in (1e-3, 1e-2)]
    per_cell = 25
    t0s = iter(_balanced(rng, T0S, len(cells) * per_cell))
    ops = []
    for kind, step in cells:
        for q0 in _grid(rng, per_cell, 2, 1e9):
            w = _label(rng, max(2, int(q0)), kind)
            t0 = next(t0s)
            ops.append(Op("lib.trace_sojourn", _trace_lib(w, t0, step),
                          {"w": w, "t0": t0, "step": step, "label": kind}))
    for _ in range(160):
        z = complex(rng.random(), math.exp(rng.uniform(math.log(1e-4), math.log(2.0))))
        ops.append(Op("lib.reduce_to_domain", _reduce_lib(z), {"z": z}))
    for q0 in _grid(rng, 4, 10, 1e5):
        w = _label(rng, int(q0), "random")
        t0 = rng.choice(T0S)
        ops.append(Op("cli.trace",
                      _cli(["trace", f"{w.numerator}/{w.denominator}", "--t0", repr(t0),
                            "--step", "0.001"], dump=True),
                      {"w": w, "t0": t0, "step": 1e-3, "label": "random"}))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "counts": counts_ops,
    "table": table_ops,
    "family": family_ops,
    "trace": trace_ops,
}
