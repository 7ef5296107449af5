"""Output checks for every benchmark operation.

Exact results are checked three ways: against identities that hold for any
seed, against an oracle evaluated once per run outside the timed passes,
and (for the seeds recorded in reference.json) against digests recorded at
the commit that introduced the benchmark.  The number theory used to state
expectations (factorization, phi, root counts, primality) is implemented
here independently of the library.

A check reports one of three outcomes per operation: ok; `wrong`, an exact
result that disagrees (the run is then incorrect); or `bad`, a numerical
result outside its stated tolerance (the trace workload's known defect),
which counts as a failed operation but does not make the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REDUCTION_EPS = 1e-9   # the library's boundary tolerance for the domain
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Independent number theory -----------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Trial division; meant for n up to about 1e12."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def root_count(n: int) -> int:
    """Solutions of x^2 == -1 (mod n) in [1, n); 1 for n = 1."""
    f = prime_factors(n)
    if f.get(2, 0) >= 2 or any(p % 4 == 3 for p in f):
        return 0
    return 1 << sum(1 for p in f if p != 2)


def family_size(q: int) -> int:
    return 1 if q == 1 else (phi(q) + root_count(q)) // 2


def partner(p: int, q: int) -> int:
    return (-pow(p, -1, q)) % q


# Outcomes ------------------------------------------------------------------

@dataclass
class Outcome:
    status: str = "ok"          # ok | wrong | bad | failed
    digest: str | None = None   # of the exact content, for reference.json
    note: str = ""
    rows: int = 0               # CLI rows written (computed)
    bytes: int = 0              # CLI bytes written (computed)
    gap: float | None = None    # |measured - predicted| sojourn, trace workload
    series_gap: float | None = None  # largest gap between the series routes


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Wrong(Exception):
    """An exact result disagrees with its expectation."""


class Bad(Exception):
    """A numerical result lies outside its tolerance."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


def read_rows(path: str, fmt: str) -> list[dict]:
    with open(path) as fh:
        if fmt == "json":
            return json.load(fh)
        return list(csv.DictReader(fh))


def ints(cell) -> list[int]:
    if isinstance(cell, list):
        return [int(v) for v in cell]
    return [int(v) for v in str(cell).split(";") if v != ""]


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def sojourn(q: int, t0: float) -> float:
    return 2.0 * math.log(q * t0)


# Per-workload checkers ------------------------------------------------------

class Checker:
    """Checks one pass of operations.  Oracles that cost real time (one
    streamed sieve over every point a workload asks about) are built once and
    reused for every pass."""

    def __init__(self, workload: str, ops, lib):
        self.workload = workload
        self.ops = ops
        self.lib = lib
        self._oracle = None

    # Oracle: the streamed sieve evaluated at every point in one call.
    def oracle(self) -> dict[int, tuple[int, int, int]]:
        if self._oracle is None:
            pts = set()
            for op in self.ops:
                x = op.info.get("x")
                if x is not None:
                    pts.update((x, x // 2))
            self._oracle = self.lib.counting.checkpoint_sums(sorted(pts))
        return self._oracle

    def check_pass(self, results) -> list[Outcome]:
        out = []
        for op, res in zip(self.ops, results):
            if res.error is not None:
                out.append(Outcome("failed", note=res.error))
                continue
            oc = Outcome()
            try:
                getattr(self, "_" + op.kind.replace(".", "_"))(op, res.value, oc)
            except Wrong as exc:
                oc.status, oc.note = "wrong", str(exc)
            except Bad as exc:
                oc.status, oc.note = "bad", str(exc)
            except Exception as exc:  # malformed output: report it, check the rest
                oc.status, oc.note = "wrong", f"unreadable output: {exc!r}"
            out.append(oc)
        self._cross_checks(results, out)
        return out

    # CLI plumbing ---------------------------------------------------------

    def _cli_rows(self, op, res, oc) -> list[dict]:
        if res.code != 0:
            raise Wrong(f"exit code {res.code}")
        oc.bytes = os.path.getsize(res.out)
        rows = read_rows(res.out, res.out.rsplit(".", 1)[-1])
        oc.rows = len(rows)
        return rows

    # counts / table: count --------------------------------------------------

    def _cli_count(self, op, res, oc):
        rows = self._cli_rows(op, res, oc)
        kind = op.info["kind"]
        idx = {"S": 0, "tau": 1, "psi": 2, "pi": 2}[kind]
        ora = self.oracle()
        pairs = []
        for r in rows:
            exact = int(r["exact"])
            x = op.info["x"] if kind == "pi" else int(float(r["x"]))
            if kind == "pi":
                expect(close(float(r["x"]), op.info["Y"], 1e-9), "pi row is not at Y")
                expect(exact == ora[x][2], f"pi(Y) = {exact} != psi(threshold) {ora[x][2]}")
            elif x in ora:
                expect(exact == ora[x][idx], f"{kind}({x}) = {exact}, sieve {ora[x][idx]}")
            pairs.append((x, exact))
            if kind == "S" and x >= 5:
                expect(2 * math.isqrt(x - 1) - 1 <= exact <= (2 / 3) * (x + 1) ** 1.5,
                       f"S({x}) outside its explicit bounds")
            pred = float(r["predicted"])
            if x >= 10**6:
                expect(abs(exact / pred - 1) < 0.01, f"{kind}({x}) far from its main term")
        if "sweep" in op.info:
            expect(pairs[-1][0] == op.info["x"], "sweep does not end at x")
        else:
            expect(len(pairs) == 1, "point query returned several rows")
        oc.digest = digest((kind, pairs))

    # table ------------------------------------------------------------------

    def _lib_sieve_tables(self, op, value, oc):
        expect(value == op.info["n"], "table has the wrong limit")
        oc.digest = digest(value)

    def _lookup(self, op, value, oc):
        ora = self.oracle()
        x = op.info["x"]
        role = op.info["role"]
        if role == "report":
            value = value[0]
        want = {"S": ora[x][0], "tau": ora[x][1], "tau_half": ora[x // 2][1],
                "psi": ora[x][2], "pi": ora[x][2]}
        if role == "sweep":
            want = ora[x][{"S": 0, "tau": 1, "psi": 2}[op.info["kind"]]]
        elif role == "report":
            want = want[op.info["kind"]]
        else:
            want = want[role]
        expect(value == want, f"{op.kind}({x}) = {value}, streamed sieve {want}")
        oc.digest = digest(value)

    _lib_total_roots = _lookup
    _lib_odd_modulus_roots = _lookup
    _lib_total_members = _lookup
    _lib_count_geodesics = _lookup
    _lib_asymptotic_report = _lookup

    def _cli_series(self, op, res, oc):
        rows = self._cli_rows(op, res, oc)
        expect([float(r["s"]) for r in rows] == op.info["s"], "series rows do not match s")
        n = op.info["terms"]
        for r in rows:
            s = float(r["s"])
            direct_tail = 2.0 * n ** (1.5 - s) / (s - 1.5)
            euler_tail = math.expm1(2.0 * n ** (1 - s) / (s - 1)) * float(r["F_euler"])
            gap = float(r["max_pairwise_gap"])
            expect(gap <= direct_tail + euler_tail + 1e-9, f"series routes disagree at s={s}")
            oc.series_gap = max(oc.series_gap or 0.0, gap)

    def _lib_series(self, op, value, oc):
        """Each route on its own; the routes are compared in _table_cross."""
        expect(math.isfinite(value[0]) and value[0] >= 1.0, "series value out of range")

    _lib_series_by_sum = _lib_series
    _lib_series_by_euler_product = _lib_series
    _lib_series_by_zeta_identity = _lib_series

    # family -----------------------------------------------------------------

    def _fraction_rows(self, rows, t0):
        out = []
        for r in rows:
            q, p, cls = int(r["q"]), int(r["p"]), r["class"]
            if q == 1:
                expect(p == 0 and cls == "self_paired", "bad row for q = 1")
            else:
                expect(0 < p < q and math.gcd(p, q) == 1, f"{p}/{q} is not a reduced label")
                y = partner(p, q)
                want = "self_paired" if y == p else "pair_min"
                expect(cls == want and y >= p, f"{p}/{q} has the wrong class or is no minimum")
            expect(close(float(r["sojourn"]), sojourn(q, t0), 1e-9), f"sojourn of {p}/{q}")
            out.append((q, p, cls))
        return out

    def _cli_G(self, op, res, oc):
        rows = self._fraction_rows(self._cli_rows(op, res, oc), op.info["t0"])
        expect(len(rows) == op.info["n"], "G returned the wrong number of rows")
        expect(rows[0][:2] == (1, 0), "G does not start at 0")
        expect(all(a[:2] < b[:2] for a, b in zip(rows, rows[1:])), "G is not in family order")
        per_q: dict[int, int] = {}
        for q, _, _ in rows:
            per_q[q] = per_q.get(q, 0) + 1
        last = rows[-1][0]
        for q in range(1, last):
            expect(per_q.get(q, 0) == family_size(q), f"G block q={q} is incomplete")
        expect(per_q[last] <= family_size(last), "G block overflows")
        oc.digest = digest(rows)

    def _cli_gq(self, op, res, oc):
        rows = self._fraction_rows(self._cli_rows(op, res, oc), op.info["t0"])
        q = op.info["q"]
        expect(all(r[0] == q for r in rows), "gq row with another denominator")
        expect(len(rows) == family_size(q), f"gq {q} has {len(rows)} rows")
        expect(all(a[1] < b[1] for a, b in zip(rows, rows[1:])), "gq rows not ascending")
        oc.digest = digest(rows)

    def _cli_histogram(self, op, res, oc):
        rows = self._cli_rows(op, res, oc)
        counts = [int(r["count"]) for r in rows]
        expect(len(counts) == op.info["bins"], "histogram has the wrong bin count")
        expect(sum(counts) == op.info["n"], "histogram counts do not sum to N")
        oc.digest = digest(counts)

    def _cli_sq(self, op, res, oc):
        rows = self._cli_rows(op, res, oc)
        q0, q1 = op.info["q"], op.info["to"]
        expect([int(r["q"]) for r in rows] == list(range(q0, q1 + 1)), "sq rows skip moduli")
        seen = []
        for r in rows:
            q, s, sols = int(r["q"]), int(r["s"]), ints(r["solutions"])
            want = op.info.get("expect_s")
            if want is None:
                want = root_count(q)
            expect(s == want, f"sq {q}: s = {s}, expected {want}")
            if q > 1:
                expect(len(sols) == s and sols == sorted(set(sols)), f"sq {q}: bad solution list")
                expect(all(0 < v < q and (v * v + 1) % q == 0 for v in sols),
                       f"sq {q}: a root does not square to -1")
            seen.append((q, s, tuple(sols)))
        oc.digest = digest(seen)

    def _cli_equiv(self, op, res, oc):
        (row,) = self._cli_rows(op, res, oc)
        q, p1, p2 = op.info["q"], op.info["p1"], op.info["p2"]
        related = p1 == p2 or (p1 * p2 + 1) % q == 0
        if not related:
            expect(row["result"] == "distinct", f"{p1}/{q} ~ {p2}/{q} claimed")
            oc.digest = digest("distinct")
            return
        expect(row["result"] == "equivalent", f"{p1}/{q} ~ {p2}/{q} missed")
        a, b, c, d = (int(row[k]) for k in "abcd")
        expect(a * d - b * c == 1, "witness determinant is not 1")
        if p1 == p2:
            expect((a, b, c, d) == (1, 0, 0, 1), "witness of equal labels is not the identity")
        else:
            expect(c != 0 and Fraction(a, c) == Fraction(p2, q), "witness does not map inf to w2")
            expect(c * Fraction(p1, q) + d == 0, "witness does not map w1 to inf")
        oc.digest = digest((a, b, c, d))

    def _lib_scatter_set(self, op, value, oc):
        q = op.info["q"]
        for p in value.self_paired:
            expect((p * p + 1) % q == 0, f"{p} is not self-paired mod {q}")
        for a, b in value.pairs:
            expect(a < b and partner(a, q) == b, f"({a}, {b}) is not a partner pair mod {q}")
        nums = [w.numerator for w in value.members]
        expect(all(w.denominator == q for w in value.members), "member with another denominator")
        expect(nums == sorted(list(value.self_paired) + [a for a, _ in value.pairs]),
               "members are not the self-paired residues and orbit minima")
        expect(len(nums) == family_size(q), f"scatter_set({q}) has {len(nums)} members")
        expect(len(value.self_paired) == root_count(q), "self-paired count is wrong")
        oc.digest = digest((value.self_paired, value.pairs))

    def _lib_pairing_census(self, op, value, oc):
        q = op.info["q"]
        want = (phi(q), root_count(q), family_size(q))
        expect(tuple(value) == want, f"pairing_census({q}) = {value}, expected {want}")
        oc.digest = digest(tuple(value))

    def _lib_canonical_fraction(self, op, value, oc):
        w = op.info["w"]
        p, q = w.numerator, w.denominator
        expect(value.denominator == q, "canonical label changed the denominator")
        r = value.numerator
        expect(r in (p, partner(p, q)), "canonical label is not equivalent to the input")
        expect(r <= partner(r, q), "canonical label is not an orbit minimum")
        oc.digest = digest((r, q))

    # trace ------------------------------------------------------------------

    def _gap(self, op, measured, predicted, oc):
        w, t0, step = op.info["w"], op.info["t0"], op.info["step"]
        expect(close(predicted, sojourn(w.denominator, t0), 1e-9),
               "predicted sojourn is not 2*log(q*t0)")
        oc.gap = abs(measured - predicted)
        if not oc.gap <= 2 * step + REDUCTION_EPS:
            raise Bad(f"{w}: sojourn gap {oc.gap:.3g} above 2*step")

    def _lib_trace_sojourn(self, op, value, oc):
        measured, predicted, n = value
        w, t0, step = op.info["w"], op.info["t0"], op.info["step"]
        expect(n * step >= sojourn(w.denominator, t0), "samples do not cover the sojourn")
        self._gap(op, measured, predicted, oc)

    def _lib_reduce_to_domain(self, op, value, oc):
        z = op.info["z"]
        w, (a, b, c, d) = value
        expect(a * d - b * c == 1, "reduction matrix determinant is not 1")
        image = (a * z + b) / (c * z + d)
        if abs(image - w) > 1e-6 * max(1.0, abs(w)):
            raise Bad(f"matrix maps {z} to {image}, not to {w}")
        x, y = w.real, w.imag
        lim = (1 - REDUCTION_EPS) ** 2
        if not (-REDUCTION_EPS <= x <= 1 + REDUCTION_EPS and x * x + y * y >= lim
                and (x - 1) ** 2 + y * y >= lim):
            raise Bad(f"{w} is outside the fundamental domain")

    def _cli_trace(self, op, res, oc):
        (row,) = self._cli_rows(op, res, oc)
        measured, predicted = float(row["measured"]), float(row["predicted"])
        with open(res.samples) as fh:
            dump = list(csv.DictReader(fh))
        t = np.array([float(r["t"]) for r in dump])
        core = np.array([int(r["in_core"]) for r in dump], dtype=bool)
        yr = np.array([float(r["y_reduced"]) for r in dump])
        expect(bool((np.diff(t) > 0).all()), "dumped samples are not ordered")
        expect(bool((core == (yr <= op.info["t0"] * (1 + 1e-9))).all()),
               "in_core flags disagree with the reduced ordinates")
        idx = np.nonzero(core)[0]
        dumped = float(t[idx[-1]] - t[idx[0]]) if idx.size else 0.0
        expect(close(dumped, measured, 1e-6), "dumped samples disagree with the measurement")
        self._gap(op, measured, predicted, oc)

    # Checks across operations of one pass ----------------------------------

    def _cross_checks(self, results, outcomes):
        if self.workload == "table":
            self._table_cross(results, outcomes)
        elif self.workload == "family":
            self._family_cross(results, outcomes)

    def _table_cross(self, results, outcomes):
        groups: dict[int, dict] = {}
        for i, op in enumerate(self.ops):
            if "group" in op.info and outcomes[i].status == "ok":
                v = results[i].value
                groups.setdefault(op.info["group"], {})[op.info["role"]] = (
                    v[0] if op.info["role"] == "report" else v)
        for i, op in enumerate(self.ops):
            g = op.info.get("group")
            if g is None or op.info["role"] != "S" or outcomes[i].status != "ok":
                continue
            vals = groups[g]
            if {"S", "tau", "tau_half"} <= vals.keys() and vals["S"] != vals["tau"] + vals["tau_half"]:
                outcomes[i].status, outcomes[i].note = "wrong", "S(x) != tau(x) + tau(x/2)"
            if {"pi", "psi"} <= vals.keys() and vals["pi"] != vals["psi"]:
                outcomes[i].status, outcomes[i].note = "wrong", "pi(Y) != psi(threshold)"
        # The three library series routes agree within their tail bounds.
        routes: dict[float, dict] = {}
        for i, op in enumerate(self.ops):
            if op.kind.startswith("lib.series_by_") and outcomes[i].status == "ok":
                routes.setdefault(op.info["s"], {})[i] = results[i].value
        for by_index in routes.values():
            items = list(by_index.items())
            for i, (v, tail) in items:
                for _, (u, tail_u) in items:
                    gap = abs(v - u)
                    outcomes[i].series_gap = max(outcomes[i].series_gap or 0.0, gap)
                    if gap > tail + tail_u + 1e-12 * abs(v):
                        outcomes[i].status = "wrong"
                        outcomes[i].note = "series routes disagree beyond their tails"
        # Table lookups agree with the streamed sweep at shared points.
        looked: dict[tuple, int] = {}
        for i, op in enumerate(self.ops):
            if op.info.get("role") == "sweep" and outcomes[i].status == "ok":
                looked[(op.info["sweep"], op.info["x"])] = results[i].value
        for i, op in enumerate(self.ops):
            if op.kind != "cli.count" or outcomes[i].status != "ok":
                continue
            rows = read_rows(results[i].value.out, "csv")
            shared = [(int(float(r["x"])), int(r["exact"])) for r in rows
                      if (op.info["sweep"], int(float(r["x"]))) in looked]
            if not shared or shared[-1][0] != op.info["x"]:
                outcomes[i].status, outcomes[i].note = "wrong", "sweep shares no endpoint"
            elif any(looked[(op.info["sweep"], x)] != v for x, v in shared):
                outcomes[i].status, outcomes[i].note = "wrong", "table and sweep disagree"

    def _family_cross(self, results, outcomes):
        """The histogram equals the histogram of G's leading labels."""
        ig = next(i for i, op in enumerate(self.ops) if op.kind == "cli.G")
        n_g = self.ops[ig].info["n"]
        if outcomes[ig].status != "ok":
            return
        vals = None
        for i, op in enumerate(self.ops):
            if op.kind != "cli.histogram" or op.info["n"] > n_g or outcomes[i].status != "ok":
                continue
            if vals is None:
                rows = read_rows(results[ig].value.out, self.ops[ig].info["fmt"])
                vals = np.array([int(r["p"]) / int(r["q"]) for r in rows])
            want, _ = np.histogram(vals[: op.info["n"]],
                                   bins=np.linspace(0.0, 1.0, op.info["bins"] + 1))
            got = [int(r["count"]) for r in read_rows(results[i].value.out, op.info["fmt"])]
            if got != want.tolist():
                outcomes[i].status, outcomes[i].note = "wrong", "histogram disagrees with G"
