"""modscatter benchmark: one closed-loop client, in-process, no threads.

    python3 bench/run.py --workload counts|table|family|trace|all \
        --seed N --seconds S --trace 0|1

Each workload is a fixed, seeded list of operations (see workloads.py).  A
run repeats that list for a number of passes fixed by --seconds and the
workload's nominal pass time at the commit that introduced the benchmark, so
the work done never depends on how fast the program is.  Each operation
starts when the previous one has returned.  End-to-end times are scaled to
a reference machine speed measured by a probe during the run (see CAL_REF_S).
Outputs are checked after the timed passes (checks.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
traced run (spans.py).  A fuller record, with provenance and spans, is
written to .bench_out/ under the repository root.

Exit status: 0 when every exact result is right, 1 when one is wrong, 2 when
the benchmark cannot run (for example when src/modscatter is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("counts", "table", "family", "trace")
# Seconds one pass took at the commit that introduced the benchmark (2-core
# x86-64, Python 3.11; they varied by a third with the shared host's speed);
# passes = --seconds / nominal, rounded, at least 1.
NOMINAL_PASS_S = {"counts": 24.0, "table": 6.5, "family": 10.0, "trace": 6.5}
# setup_s is the lower quartile of SETUP_SAMPLES fresh-interpreter samples,
# each scaled by the speed probe taken just before it.  SETUP_FIRST are
# taken before the first pass and the rest one at each speed probe of the
# untraced passes (topped up after them), so a slow spell of the host hits
# few of them.
SETUP_SAMPLES = 11
SETUP_FIRST = 3
# Numerical thread pools are pinned to one thread in the setup interpreter:
# numpy's BLAS pool starts threads at import, and on a small shared host
# whether they race the importing thread made import time bimodal.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The machine's speed drifts by tens of percent over minutes on shared hosts.
# A fixed probe of benchmark-owned work runs every CAL_EVERY_S seconds of
# untraced operations and before each setup sample (outside their timing),
# and the end-to-end times of operations are reported scaled by
# CAL_REF_S / mean(probe) (setup samples each by their own probe):
# seconds at the speed the machine had when the benchmark was written.  Raw
# times are in the record.
CAL_EVERY_S = 2.0
CAL_REF_S = 0.11
TAIL_BEYOND = 10
MAX_RUN_S = 150.0   # stop starting passes past this, to stay within 180 s
EXACT = {"counts", "table", "family"}

SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import modscatter
from modscatter import cli
cli.build_parser()
print(time.perf_counter() - t)
"""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def require_sources() -> None:
    if not (SRC / "modscatter" / "__init__.py").is_file():
        fail(f"no modscatter sources under {SRC}; run from a full checkout")


def load_library():
    require_sources()
    sys.path.insert(0, str(SRC))
    import modscatter
    from modscatter import arith, cli, counting, hyperbolic, lfunction, scatterset

    if Path(modscatter.__file__).resolve().parent != (SRC / "modscatter").resolve():
        fail(f"imported modscatter from {modscatter.__file__}, not from {SRC}")
    return argparse.Namespace(package=modscatter, arith=arith, cli=cli, counting=counting,
                              hyperbolic=hyperbolic, lfunction=lfunction,
                              scatterset=scatterset)


# Provenance ------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {"commit": _commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu": _cpu_model(), "seed": seed}


# Measurement -----------------------------------------------------------------

class Sampler:
    """Speed probes and setup samples, taken between the operations of
    untraced passes and left out of their timing.

    A setup sample is the seconds a fresh interpreter takes to import
    modscatter and build the CLI parser (what every CLI command pays once);
    a speed probe precedes each one and is kept in `setup_probes`."""

    def __init__(self) -> None:
        self.probes: list[float] = []        # probes taken during passes
        self.setup: list[float] = []
        self.setup_probes: list[float] = []
        self._code = SETUP_CODE.format(src=str(SRC))
        self._env = {**os.environ, **SETUP_ENV}

    def _setup_once(self) -> None:
        done = subprocess.run([sys.executable, "-c", self._code], capture_output=True,
                              text=True, timeout=60, cwd=ROOT, env=self._env)
        if done.returncode != 0:
            fail(f"setup sample failed: {done.stderr.strip()}")
        self.setup.append(float(done.stdout.strip().splitlines()[-1]))

    def setup_sample(self) -> None:
        self.setup_probes.append(calibrate())
        self._setup_once()

    def tick(self) -> None:
        self.probes.append(calibrate())
        if len(self.setup) < SETUP_SAMPLES:
            self.setup_probes.append(self.probes[-1])
            self._setup_once()


@dataclass
class Result:
    value: object = None
    error: str | None = None
    latency: float = 0.0


def calibrate() -> float:
    """Seconds for a fixed mix of benchmark-owned work: numpy array passes,
    an integer loop, and building and JSON-encoding many small objects (the
    last tracks the allocation-heavy emitters far better than arithmetic)."""
    t = time.perf_counter()
    a = np.arange(1 << 18, dtype=np.int64)
    for _ in range(8):
        a = np.cumsum(a % 1009) % 1000003
    acc = 0
    for i in range(1, 20000):
        acc += math.gcd(i, 720720) + pow(i, 3, 1000003)
    rows = [{"q": i, "p": i // 3, "class": "pair_min", "x": i * 0.5} for i in range(15000)]
    json.dumps(rows, indent=2)
    return time.perf_counter() - t


def run_pass(ops, stem_dir: Path, tag: str, rec=None,
             sampler: Sampler | None = None) -> tuple[list[Result], float]:
    """One pass over the operation list; returns results and its wall time.

    With `sampler`, ticks it every CAL_EVERY_S seconds; its time is left out
    of the wall time."""
    ctx: dict = {}
    results = []
    sampler_s = 0.0
    next_tick = start = time.perf_counter()
    if rec:
        rec.enter("bench.pass")
    for i, op in enumerate(ops):
        if sampler is not None and time.perf_counter() >= next_tick:
            t = time.perf_counter()
            sampler.tick()
            next_tick = time.perf_counter()
            sampler_s += next_tick - t
            next_tick += CAL_EVERY_S
        stem = str(stem_dir / f"{tag}-{i}")
        if rec:
            rec.enter("bench.op")
        t = time.perf_counter()
        try:
            value = op.run(ctx, stem)
            error = None
            code = getattr(value, "code", 0)
            if code != 0:
                error = f"exit code {code}"
        except Exception as exc:  # counted as a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        if rec:
            rec.exit(failed=error is not None)
        results.append(Result(value, error, latency))
    ctx.clear()
    if rec:
        rec.exit()
    return results, time.perf_counter() - start - sampler_s


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND operations beyond
    it, that percentile, and the operation count it was taken over."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Per-layer metrics from the traced passes ---------------------------------------

def _hooks(lib):
    seg = getattr(lib.counting, "_SEGMENT", 1 << 22)

    def sieved(rec, entries):
        rec.count("sieve_entries", entries)
        rec.count("segments", math.ceil(entries / seg))

    def checkpoint_sums(rec, args, kwargs, result):
        if result:
            sieved(rec, max(result) + 1)

    def sieve_tables(rec, args, kwargs, table):
        if table is not None:
            sieved(rec, table.limit + 1)
            rec.count("table_entries", table.limit + 1)
            rec.count("table_bytes", sum(v.nbytes for v in vars(table).values()
                                         if hasattr(v, "nbytes")))

    def scatter_set(rec, args, kwargs, result):
        if result is not None:
            rec.count("fractions", len(result.members))

    def reduce_points(rec, args, kwargs, result):
        rec.count("samples", np.asarray(args[0]).size)

    def cli_main(rec, args, kwargs, code):
        rec.count("exit_nonzero", code != 0)

    return {"counting.checkpoint_sums": checkpoint_sums,
            "counting.sieve_tables": sieve_tables,
            "scatterset.scatter_set": scatter_set,
            "hyperbolic.reduce_points": reduce_points,
            "cli.main": cli_main}


def layer_metrics(rec, passes: int, outcomes, traced_wall, untraced_wall) -> dict:
    from spans import LAYERS
    from workloads import LOOKUPS

    m: dict[str, tuple[float, str]] = {}

    def per(v):
        return v / passes

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def fn(name, *stats, unit_calls="count"):
        s = rec.by_name(name)
        if "calls" in stats:
            m[f"{name}.calls"] = (per(s.calls), unit_calls)
        if "self_s" in stats:
            m[f"{name}.self_s"] = (per(s.self_s), "s")
        if "failures" in stats:
            m[f"{name}.failures"] = (per(s.failures), "count")
        return s

    c = rec.counters
    cs = fn("counting.checkpoint_sums", "calls", "self_s")
    st = fn("counting.sieve_tables", "self_s")
    entries = c.get("sieve_entries", 0)
    m["counting.sieve_entries"] = (per(entries), "count")
    m["counting.segments"] = (per(c.get("segments", 0)), "count")
    m["counting.ns_per_entry"] = (ratio(cs.self_s + st.self_s, entries, 1e9), "ns")
    m["counting.table_bytes_per_entry"] = (
        ratio(c.get("table_bytes", 0), c.get("table_entries", 0)), "B")
    lk = rec.entry_calls({f"counting.{n}" for n in LOOKUPS}, "counting")
    m["counting.lookups"] = (per(lk.calls), "count")
    m["counting.ns_per_lookup"] = (ratio(lk.total_s, lk.calls, 1e9), "ns")

    for name in ("series_by_sum", "series_by_euler_product", "series_by_zeta_identity"):
        fn(f"lfunction.{name}", "self_s")
    gaps = [o.series_gap for o in outcomes if o.series_gap is not None]
    m["lfunction.max_pairwise_gap"] = (max(gaps, default=0.0), "1")

    for name in ("scatter_set", "fraction_record", "pairing_census", "canonical_fraction",
                 "equivalence_witness"):
        fn(f"scatterset.{name}", "calls", "self_s")
    m["scatterset.fractions"] = (per(c.get("fractions", 0)), "count")
    m["scatterset.us_per_fraction"] = (
        ratio(rec.layer_self("scatterset"), c.get("fractions", 0), 1e6), "us")

    fz = fn("arith.factorize", "calls", "self_s")
    fn("arith.sqrt_minus_one_crt", "calls", "self_s")
    m["arith.factorize.us_per_call"] = (ratio(fz.total_s, fz.calls, 1e6), "us")

    main = fn("cli.main", "calls")
    rows = sum(o.rows for o in outcomes)
    m["cli.rows_out"] = (per(rows), "count")
    m["cli.bytes_out"] = (per(sum(o.bytes for o in outcomes)), "B")
    m["cli.rows_per_s"] = (ratio(rows, main.total_s), "1/s")
    m["cli.exit_nonzero"] = (per(c.get("exit_nonzero", 0)), "count")

    for name in ("trace_sojourn", "reduce_points", "reduce_to_domain"):
        fn(f"hyperbolic.{name}", "calls", "self_s", "failures")
    tr = rec.by_name("hyperbolic.trace_sojourn")
    m["hyperbolic.samples"] = (per(c.get("samples", 0)), "count")
    m["hyperbolic.ns_per_sample"] = (ratio(tr.total_s, c.get("samples", 0), 1e9), "ns")
    trace_gaps = [o.gap for o in outcomes if o.gap is not None]
    m["hyperbolic.trace_gap_max"] = (max(trace_gaps, default=0.0), "1")

    selfs = {layer: rec.layer_self(layer) for layer in LAYERS + ("bench",)}
    for layer, v in selfs.items():
        m[f"{layer}.self_s"] = (per(v), "s")
    m["tracing.wall_s"] = (traced_wall, "s")
    m["tracing.untraced_wall_s"] = (untraced_wall, "s")
    m["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["tracing.unaccounted_s"] = (traced_wall - per(sum(selfs.values())), "s")
    return m


# One workload -------------------------------------------------------------------

def run_workload(args) -> int:
    lib = load_library()
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import checks
    import spans
    import workloads

    load_before = os.getloadavg()[0]
    prov = provenance(args.seed)
    sampler = Sampler()
    for _ in range(SETUP_FIRST):
        sampler.setup_sample()

    ops = workloads.BUILDERS[args.workload](
        random.Random(args.seed * len(WORKLOADS) + WORKLOADS.index(args.workload)))
    passes = max(1, int(args.seconds / NOMINAL_PASS_S[args.workload] + 0.5))
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    run_start = time.perf_counter()
    rec = None
    try:
        plan = [False] * passes
        if args.trace:
            # One untraced pass gives the overhead baseline; the traced passes
            # give the per-layer numbers.
            plan = [False] + [True] * max(1, passes - 1)
        all_results, walls, traced_walls = [], [], []
        for k, traced in enumerate(plan):
            if k and time.perf_counter() - run_start + max(walls + traced_walls) > MAX_RUN_S:
                break
            inst = None
            if traced:
                rec = rec or spans.Recorder()
                inst = spans.Instrumentation(
                    rec, lib.package,
                    [lib.arith, lib.scatterset, lib.counting, lib.hyperbolic,
                     lib.lfunction, lib.cli],
                    _hooks(lib))
            try:
                results, wall = run_pass(ops, tmp, f"p{k}", rec if traced else None,
                                         None if traced else sampler)
            finally:
                if inst:
                    inst.remove()
            all_results.append(results)
            (traced_walls if traced else walls).append(wall)
        peak = peak_rss_mb()   # before any verification
        while len(sampler.setup) < SETUP_SAMPLES:
            sampler.setup_sample()

        checker = checks.Checker(args.workload, ops, lib)
        outcomes = [checker.check_pass(r) for r in all_results]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reference = _load_reference()
    ref = reference.get(args.workload, {}).get(str(args.seed))
    first_digests = [o.digest for o in outcomes[0]]
    ref_mismatch = []
    if ref is not None and not args.record_reference:
        if len(ref) != len(ops):
            ref_mismatch.append("operation count differs from the reference")
        else:
            ref_mismatch = [f"op {i} ({ops[i].kind})" for i, (a, b) in
                            enumerate(zip(first_digests, ref)) if a != b]
    for per_pass in outcomes[1:]:
        for i, o in enumerate(per_pass):
            if o.digest != first_digests[i] and o.status == "ok":
                o.status, o.note = "wrong", "result differs from the first pass"

    flat = [o for per_pass in outcomes for o in per_pass]
    attempted = len(flat)
    failed = sum(o.status != "ok" for o in flat)
    wrong = [(ops[i % len(ops)].kind, o.note) for i, o in enumerate(flat)
             if o.status == "wrong"]
    correct = not wrong and not ref_mismatch
    if args.workload in EXACT:
        correct = correct and failed == 0

    untraced = [r.latency for rs, tr in zip(all_results, plan) if not tr for r in rs]
    tail_s, tail_pct, tail_n = tail(untraced)
    raw = {"setup_s": statistics.quantiles(sampler.setup, n=4)[0],
           "wall_s": statistics.median(walls),
           "op_p50_s": statistics.median(untraced), "op_tail_s": tail_s}
    # The mean, not the median: the host flips between fast and slow spells
    # of a few seconds, and the mean weighs them as the operations saw them.
    speed = CAL_REF_S / statistics.mean(sampler.probes)
    # Each setup sample is scaled by the probe taken just before it: import
    # time follows the host's speed from one second to the next.
    setup_scaled = [t * CAL_REF_S / p for t, p in zip(sampler.setup, sampler.setup_probes)]
    e2e = {
        "setup_s": (statistics.quantiles(setup_scaled, n=4)[0], "s"),
        **{k: (raw[k] * speed, "s") for k in ("wall_s", "op_p50_s", "op_tail_s")},
        "peak_rss_mb": (peak, "MB"),
        "ok_share": (1.0 - failed / attempted, "1"),
    }
    layers = {}
    if args.trace:
        traced_outcomes = [o for per_pass, tr in zip(outcomes, plan) if tr for o in per_pass]
        layers = layer_metrics(rec, len(traced_walls), traced_outcomes,
                               statistics.median(traced_walls), statistics.median(walls))

    if args.record_reference and args.workload in EXACT:
        reference.setdefault(args.workload, {})[str(args.seed)] = first_digests
        _save_reference(reference)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "load_avg_1m": {"before": load_before, "after": os.getloadavg()[0]},
        "ops_per_pass": len(ops), "passes": len(all_results),
        "ops_by_kind": _count_kinds(ops),
        "attempted": attempted, "failed": failed,
        "fail_share": failed / attempted,
        "failures_by_kind": _failures_by_kind(ops, outcomes),
        "correct": correct, "wrong": wrong[:20], "reference_mismatch": ref_mismatch[:20],
        "reference_checked": ref is not None,
        "raw_times_s": raw, "speed_scale": speed, "probes_s": sampler.probes,
        "setup_probes_s": sampler.setup_probes, "setup_samples_s": sampler.setup,
        "setup_scaled_s": setup_scaled, "pass_walls_s": walls, "traced_pass_walls_s": traced_walls,
        "op_tail": {"value_s": tail_s, "percentile": tail_pct, "ops": tail_n,
                    "beyond": TAIL_BEYOND},
        "latency_ops": sum(map(len, all_results)),
        "slowest_ops": sorted(((r.latency, ops[i].kind) for rs in all_results
                               for i, r in enumerate(rs)), reverse=True)[:24],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "computed": ["counting.sieve_entries", "counting.segments",
                     "counting.table_bytes_per_entry", "scatterset.fractions",
                     "cli.rows_out", "cli.bytes_out", "hyperbolic.samples"],
    }
    if rec is not None:
        record["spans"] = {
            "sites": [{"name": n, "parent": p, "calls": s.calls, "total_s": s.total_s,
                       "self_s": s.self_s, "failures": s.failures}
                      for (n, p), s in sorted(rec.sites.items())],
            "raw": [{"name": n, "start": a, "end": b, "parent": p}
                    for n, a, b, p in rec.raw],
        }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    metrics = layers if args.trace else e2e
    print(f"# workload={args.workload} seed={args.seed} passes={len(all_results)} "
          f"ops/pass={len(ops)} attempted={attempted} failed={failed} "
          f"fail_share={failed / attempted:.4g} correct={correct} record={path.name}")
    print(f"# op_tail_s is p{tail_pct:.4g} over {tail_n} operations "
          f"({TAIL_BEYOND} beyond it)")
    for w in wrong[:5] + [("reference", r) for r in ref_mismatch[:5]]:
        print(f"# WRONG {w[0]}: {w[1]}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload}.{k} {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def _count_kinds(ops) -> dict:
    out: dict[str, int] = {}
    for op in ops:
        out[op.kind] = out.get(op.kind, 0) + 1
    return out


def _failures_by_kind(ops, outcomes) -> dict:
    out: dict[str, dict[str, int]] = {}
    for per_pass in outcomes:
        for op, o in zip(ops, per_pass):
            if o.status != "ok":
                d = out.setdefault(op.kind, {})
                d[o.status] = d.get(o.status, 0) + 1
    return out


def _load_reference() -> dict:
    path = Path(__file__).resolve().parent / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _save_reference(ref: dict) -> None:
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


# All workloads ------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own); prints every
    metric per workload and fails if any workload has a wrong exact result."""
    require_sources()
    status, summary = 0, {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode not in (0, 1) or not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        summary[w] = json.loads(lines[-1])
        status = max(status, done.returncode)
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this seed's exact-result digests in reference.json")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
