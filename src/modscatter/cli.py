"""Command line front end.

Subcommands cover the whole library: root counts of x^2 == -1 (mod q),
scattering-fraction listings, counting functions against their growth laws,
density histograms, geodesic traces, and equivalence witnesses.  Output is
CSV (default) or JSON, to stdout or --out.

Exit codes: 0 success, 2 invalid arguments (including a NaN or infinite
number), 3 precondition violation (e.g. --t0 at most 1, or an --out or
--dump-samples file that cannot be written), 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import arith, counting, hyperbolic, lfunction, scatterset
from .scatterset import _require_t0

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4


class ResourceCapExceeded(Exception):
    pass


def _fraction_arg(text: str) -> Fraction:
    num, _, den = text.partition("/")
    try:
        w = Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}")
    if not 0 <= w < 1:
        raise argparse.ArgumentTypeError(f"fraction must lie in [0, 1), got {text!r}")
    return w


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _emit(columns: list[str], chunks: Iterable[str], fmt: str, path: str | None) -> None:
    """Write one table to the file at path (stdout when None) as its text
    chunks come.

    A chunk holds whole rows: CSV lines, or JSON records as they sit inside
    json.dumps(rows, indent=2).  The CSV header, the JSON brackets and the
    commas between chunks are written here, so the bytes are those of the
    whole table formatted at once.  The file opens before the first chunk
    is made: a command makes its checks before it calls this.
    """
    as_json = fmt == "json"
    out = _open_output(path) if path else contextlib.nullcontext(sys.stdout)
    with out as fh:
        if not as_json:
            fh.write(",".join(columns) + "\n")
        sep = "[\n"
        for chunk in chunks:
            fh.write(sep + chunk if as_json else chunk)
            sep = ",\n"
        if as_json:
            fh.write("[]\n" if sep == "[\n" else "\n]\n")


# A table is formatted and written a slice at a time, so the strings held at
# once stay bounded however long or wide it is: _emit_columns takes this many
# cells, whole rows, a slice and _emit_family this many rows.
_CHUNK_ROWS = 1 << 16


def _cells(values, as_json: bool) -> list[str]:
    """The text of one column slice, by the type of its values: floats as
    format(v, ".10g") in CSV and as json.dumps writes finite ones, lists
    joined by ";" or nested as json.dumps(indent=2) nests them, strs as they
    are in CSV (none holds a comma, quote or newline, which csv.writer would
    quote) and quoted in JSON, the rest through str."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    v = values[0]
    if isinstance(v, float):
        if as_json:
            return list(map(float.__repr__, values))
        return list(map(format, values, itertools.repeat(".10g")))
    if isinstance(v, list):  # of ints, whose JSON text is their str
        if as_json:
            return ["[\n      " + ",\n      ".join(map(str, x)) + "\n    ]" if x else "[]"
                    for x in values]
        return [";".join(map(str, x)) for x in values]
    if isinstance(v, str) and as_json:
        quoted = {x: json.dumps(x) for x in set(values)}
        return [quoted[x] for x in values]
    return list(map(str, values))


def _emit_columns(columns: list[str], values: list, fmt: str, path: str | None) -> None:
    """Write a table given as one sequence (a list or numpy array) per
    column, with the bytes of csv.writer or json.dumps(rows, indent=2) over
    its rows: each slice of _CHUNK_ROWS cells, whole rows, is formatted a
    column at a time, and its rows are filled into one %-template."""
    as_json = fmt == "json"
    if as_json:
        row = "  {\n" + ",\n".join(f"    {json.dumps(c)}: %s" for c in columns) + "\n  }"
    else:
        row = ",".join(["%s"] * len(columns)) + "\n"
    join = ",\n" if as_json else ""
    rows = max(1, _CHUNK_ROWS // len(columns))

    def chunks():
        for i in range(0, len(values[0]), rows):
            cells = [_cells(v[i:i + rows], as_json) for v in values]
            yield join.join([row % r for r in zip(*cells)])

    _emit(columns, chunks(), fmt, path)


def _emit_family(blocks, args) -> None:
    """Write the rows fraction_record(p/q, t0) of every member of the blocks,
    with the bytes _emit_columns would give them.  The sojourn depends on q
    alone, so it is formatted once per block."""
    as_json = args.format == "json"
    join = ",\n" if as_json else ""
    kinds = ("pair_min", "self_paired")  # indexed by the self_paired flag

    def chunks():
        for q, p, self_paired in blocks:
            sojourn = scatterset.sojourn_time(Fraction(int(p[0]), q), args.t0)
            if as_json:
                head = f'  {{\n    "q": {q},\n    "p": '
                tails = [f',\n    "class": "{c}",\n    "sojourn": {json.dumps(sojourn)}\n  }}'
                         for c in kinds]
            else:
                head = f"{q},"
                tails = [f",{c},{sojourn:.10g}\n" for c in kinds]
            for i in range(0, p.size, _CHUNK_ROWS):
                cut = slice(i, i + _CHUNK_ROWS)
                yield join.join([head + str(n) + tails[k] for n, k in
                                 zip(p[cut].tolist(), self_paired[cut].tolist())])

    _emit(["q", "p", "class", "sojourn"], chunks(), args.format, args.out)


def _open_output(path: str):
    """Open an output file for writing; one that cannot be opened is a
    precondition violation (exit 3)."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _check_cap(n: int, args, what: str) -> None:
    if n > args.limit:
        raise ResourceCapExceeded(f"{what} {n} exceeds --limit {args.limit}")


# Bytes a command holds per item of its output before it writes, from peak
# RSS at two sizes: an `sq` row (its count and solutions list) 115-390 B, a
# histogram bin 31-35 B (edge and count, and np.histogram's temporaries), a
# `count` point 490 B (of pi, between 3e5 and 1e6 points: its float, the
# threshold maps, its Sums and report; S, tau and psi hold about 235 B).
_SQ_ROW_BYTES = 390
_BIN_BYTES = 35
_POINT_BYTES = 490


def _cmd_sq(args) -> None:
    last = args.to if args.to is not None else args.q
    if last < args.q:
        raise ValueError("--to must not be below q")
    rows = last - args.q + 1
    _check_cap(rows, args, "row count")
    # every row is held until the last: a factorization refused past 2^63 - 1
    # mid-range writes nothing
    arith._check_budget(rows * _SQ_ROW_BYTES, f"{rows} rows")
    qs = range(args.q, last + 1)
    counts, solutions = [], []
    for q in qs:
        f = arith.factorize(q)
        s = arith.count_sqrt_minus_one(f)
        sols = arith.sqrt_minus_one_crt(f) if (s and q > 1) else []
        counts.append(s)
        solutions.append(sols)
    _emit_columns(["q", "s", "solutions"], [qs, counts, solutions], args.format, args.out)


def _cmd_gq(args) -> None:
    _check_cap(args.q, args, "denominator")
    _require_t0(args.t0)
    # the pairing runs (or is refused) before the output opens
    block = next(scatterset.family_blocks(start=args.q))
    _emit_family([block], args)


def _cmd_g(args) -> None:
    _check_cap(args.first, args, "element count")
    _require_t0(args.t0)
    _emit_family(scatterset.family_blocks(args.first), args)


def _log_spaced(hi: float, points: int) -> list[int]:
    if points <= 1 or hi <= 10.0:
        return [int(math.floor(hi))]
    xs = np.geomspace(10.0, hi, points)
    out = sorted({int(math.floor(v)) for v in xs})
    if out[-1] != int(math.floor(hi)):
        out.append(int(math.floor(hi)))
    return out


def _cmd_count(args) -> None:
    kind = args.kind
    _check_cap(args.points, args, "point count")
    arith._check_budget(args.points * _POINT_BYTES, f"{args.points} points")
    if kind == "pi":
        if args.Y is None:
            raise ValueError("kind 'pi' needs --Y")
        lo = args.Y if args.points <= 1 else min(4.0 * args.t0 * args.t0, args.Y)
        # the law grows with Y (and leaves the float range only with t0)
        for y in (lo, args.Y):
            law = counting.main_term(kind, y, args.t0)
            if not 0 < law < math.inf:
                raise ValueError(f"the first-order law of pi is {law} at Y = {y} with "
                                 f"t0 = {args.t0}, not positive and finite as a float")
        ys = [float(v) for v in np.geomspace(lo, args.Y, args.points)]
        # k >= int(sqrt(Y)/t0) - 1, refused before the walk (which stops at 2^52)
        _check_cap(int(math.sqrt(ys[-1]) / args.t0) - 1, args, "sojourn threshold at least")
        thresholds = {y: counting.sojourn_threshold(y, args.t0) for y in ys}
        sums = _sums_at(thresholds.values(), args, ("psi",))
        exact = [(y, sums[thresholds[y]].psi) for y in ys]
    else:
        if args.x is None:
            raise ValueError(f"kind {kind!r} needs --x")
        if args.x < 1:
            raise ValueError(f"--x must be at least 1, got {args.x}")
        xs = _log_spaced(args.x, args.points)
        sums = _sums_at(xs, args, (kind,))
        exact = [(float(x), getattr(sums[x], kind)) for x in xs]
    reports = [counting.AsymptoticReport(kind, x, n, counting.main_term(kind, x, args.t0))
               for x, n in exact]
    columns = ["x", "exact", "predicted", "ratio", "abs_error"]
    _emit_columns(columns, [[getattr(r, c) for r in reports] for c in columns],
                  args.format, args.out)


def _sums_at(points, args, kinds: tuple[str, ...]) -> dict[int, counting.Sums]:
    """The Sums of the given kinds at the points, within --limit."""
    pts = sorted(set(points))
    _check_cap(pts[-1], args, "evaluation point")
    # Below the sieve's int64 bound the route taken costs at most one sieve
    # to the largest point; above it only the sublinear route can answer,
    # and its cost grows with the number of points as well.
    if pts[-1] > counting._INT64_ROOT:
        work = math.ceil(counting._sublinear_work(pts, kinds))
        _check_cap(work, args, "work in sieve entries")
    return counting.sums_at(pts, kinds)


def _cmd_histogram(args) -> None:
    _check_cap(args.first, args, "element count")
    _check_cap(args.bins, args, "bin count")
    arith._check_budget(args.bins * _BIN_BYTES, f"{args.bins} bins")
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    counts = np.zeros(args.bins, dtype=np.int64)
    for qa, ends, p, _ in scatterset._member_runs(args.first):
        q = np.repeat(np.arange(qa, qa + ends.size), np.diff(ends, prepend=0))
        # p / q rounds as float(Fraction(p, q)): both operands are exact floats
        counts += np.histogram(p / q, bins=edges)[0]
    _emit_columns(["bin_left", "bin_right", "count", "density"],
                  [edges[:-1], edges[1:], counts, counts * args.bins / args.first],
                  args.format, args.out)


def _cmd_trace(args) -> None:
    trace = hyperbolic.trace_sojourn(
        args.w, args.t0, step=args.step, tail_factor=args.tail_factor
    )
    measured = trace.measured_sojourn
    predicted = trace.predicted_sojourn
    if args.dump_samples:
        _emit_columns(["t", "x_lift", "y_lift", "x_reduced", "y_reduced", "in_core"],
                      [trace.t, np.broadcast_to(float(args.w), trace.t.shape), trace.lift_y,
                       trace.reduced.real, trace.reduced.imag, trace.in_core.view(np.uint8)],
                      "csv", args.dump_samples)
    row = (str(args.w), args.w.denominator, args.t0, args.step,
           measured, predicted, abs(measured - predicted))
    _emit_columns(["w", "q", "t0", "step", "measured", "predicted", "abs_gap"],
                  [[v] for v in row], args.format, args.out)


def _cmd_series(args) -> None:
    _check_cap(args.terms, args, "truncation")
    for s in args.s:  # refused as the routes below refuse it, before the sieve
        lfunction._require_tail_s(s)
        lfunction._require_zeta_s(2 * s)
    rows = []
    table = counting.sieve_tables(args.terms)
    for s in args.s:
        direct = lfunction.series_by_sum(s, args.terms, table=table)
        euler = lfunction.series_by_euler_product(s, args.terms)
        closed = lfunction.series_by_zeta_identity(s)
        gap = max(abs(direct.value - euler.value), abs(euler.value - closed.value),
                  abs(direct.value - closed.value))
        rows.append((s, direct.value, euler.value, closed.value, gap))
    _emit_columns(["s", "F_direct", "F_euler", "F_closed", "max_pairwise_gap"],
                  list(zip(*rows)), args.format, args.out)


def _cmd_equiv(args) -> None:
    witness = scatterset.equivalence_witness(args.w1, args.w2)
    if witness is None:
        row = (str(args.w1), str(args.w2), "distinct", "", "", "", "")
    else:
        row = (str(args.w1), str(args.w2), "equivalent", *witness.astuple())
    _emit_columns(["w1", "w2", "result", "a", "b", "c", "d"],
                  [[v] for v in row], args.format, args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: main calls
    it on every run, and parsing leaves it unchanged.  Callers share it, so
    none may modify it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--t0", type=_finite_float, default=2.0,
        help="horocycle height cutting off the cusp region (must exceed 1; default 2)",
    )
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument(
        "--threads", type=_positive_int, default=os.cpu_count() or 1,
        help="accepted for compatibility; computation is vectorised in-process",
    )
    common.add_argument(
        "--limit", type=_positive_int, default=200_000_000,
        help="largest evaluation point / element count a command may request",
    )

    parser = argparse.ArgumentParser(
        prog="modscatter",
        description="Scattering geodesics of the modular surface: congruence "
        "data, counting laws, and sojourn-time numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sq", parents=[common],
                       help="solutions of p^2 == -1 (mod q); columns q,s,solutions")
    p.add_argument("q", type=_positive_int)
    p.add_argument("--to", type=_positive_int, default=None,
                   help="emit one row per modulus from q up to this value")
    p.set_defaults(func=_cmd_sq)

    p = sub.add_parser("gq", parents=[common],
                       help="scattering fractions of one denominator; columns q,p,class,sojourn")
    p.add_argument("q", type=_positive_int)
    p.set_defaults(func=_cmd_gq)

    p = sub.add_parser("G", parents=[common],
                       help="first N scattering fractions in family order")
    p.add_argument("--first", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_g)

    p = sub.add_parser("count", parents=[common],
                       help="counting function vs. its first-order law; "
                            "columns x,exact,predicted,ratio,abs_error")
    p.add_argument("kind", choices=counting._KINDS,
                   help="S: roots over all moduli; tau: odd moduli only; "
                        "psi: scattering fractions by denominator; "
                        "pi: geodesics by sojourn bound (uses --Y and --t0)")
    p.add_argument("--x", type=_finite_float, default=None,
                   help="evaluation point for S/tau/psi")
    p.add_argument("--Y", type=_finite_float, default=None,
                   help="sojourn bound exp scale for pi")
    p.add_argument("--points", type=_positive_int, default=1,
                   help="emit this many log-spaced checkpoints up to the target")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("histogram", parents=[common],
                       help="equal-width histogram of the first N fractions; "
                            "columns bin_left,bin_right,count,density")
    p.add_argument("--first", type=_positive_int, required=True)
    p.add_argument("--bins", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("trace", parents=[common],
                       help="numerically trace one geodesic and compare the measured "
                            "sojourn with 2*log(q*t0)")
    p.add_argument("w", type=_fraction_arg)
    p.add_argument("--step", type=_finite_float, default=1e-3)
    p.add_argument("--tail-factor", type=_finite_float, default=10.0, dest="tail_factor")
    p.add_argument("--dump-samples", default=None,
                   help="write per-sample CSV (t,x_lift,y_lift,x_reduced,y_reduced,in_core)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("series", parents=[common],
                       help="compare the three evaluation routes of the root-count "
                            "Dirichlet series; columns s,F_direct,F_euler,F_closed,"
                            "max_pairwise_gap")
    p.add_argument("s", type=_finite_float, nargs="+", help="evaluation points (each > 1.5)")
    p.add_argument("--terms", type=_positive_int, default=10**6,
                   help="truncation for the direct sum and the Euler product")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("equiv", parents=[common],
                       help="equivalence witness for two fractions, or 'distinct'")
    p.add_argument("w1", type=_fraction_arg)
    p.add_argument("w2", type=_fraction_arg)
    p.set_defaults(func=_cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (arith.MemoryBudgetExceeded, ResourceCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
