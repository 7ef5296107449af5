import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from modscatter import cli, counting, hyperbolic, lfunction, scatterset
from modscatter.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sq_single(capsys):
    code, out, _ = run(capsys, "sq", "65")
    assert code == 0
    assert out == "q,s,solutions\n65,4,8;18;47;57\n"


def test_sq_vanishing_and_convention(capsys):
    code, out, _ = run(capsys, "sq", "7")
    assert code == 0
    assert out == "q,s,solutions\n7,0,\n"
    code, out, _ = run(capsys, "sq", "1")
    assert out == "q,s,solutions\n1,1,\n"


def test_sq_range_and_brute_agree(capsys):
    _, fast, _ = run(capsys, "sq", "2", "--to", "60")
    _, brute, _ = run(capsys, "sq", "2", "--to", "60", "--brute")
    assert fast == brute


def test_gq_listing(capsys):
    code, out, _ = run(capsys, "gq", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,p,class,sojourn"
    assert [l.split(",")[:3] for l in lines[1:]] == [
        ["5", "1", "pair_min"],
        ["5", "2", "self_paired"],
        ["5", "3", "self_paired"],
    ]


def test_gq_q1(capsys):
    _, out, _ = run(capsys, "gq", "1")
    assert out.strip().split("\n")[1].startswith("1,0,self_paired,")


def test_g_first(capsys):
    _, out, _ = run(capsys, "G", "--first", "3")
    rows = [l.split(",") for l in out.strip().split("\n")[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "0"), ("2", "1"), ("3", "1")]


def test_count_s(capsys):
    _, out, _ = run(capsys, "count", "S", "--x", "100")
    row = out.strip().split("\n")[1].split(",")
    assert row[1] == "48"
    assert float(row[2]) == pytest.approx(47.746, abs=5e-4)


def test_count_pi(capsys):
    _, out, _ = run(capsys, "count", "pi", "--Y", "100", "--t0", "2")
    row = out.strip().split("\n")[1].split(",")
    assert row[1] == "7"


def test_count_psi_trivial(capsys):
    _, out, _ = run(capsys, "count", "psi", "--x", "1")
    assert out.strip().split("\n")[1].split(",")[1] == "1"


def test_count_checkpoints(capsys):
    _, out, _ = run(capsys, "count", "S", "--x", "1000", "--points", "4")
    lines = out.strip().split("\n")
    assert len(lines) > 2
    assert lines[-1].split(",")[0] == "1000"


def test_histogram_small(capsys):
    _, out, _ = run(capsys, "histogram", "--first", "7", "--bins", "2")
    lines = out.strip().split("\n")
    assert lines[1].split(",")[2] == "5"  # 0, 1/3, 1/4, 1/5, 2/5
    assert lines[2].split(",")[2] == "2"  # 1/2, 3/5
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 7


def test_histogram_mass_conservation(capsys):
    _, out, _ = run(capsys, "histogram", "--first", "300", "--bins", "13")
    counts = [int(l.split(",")[2]) for l in out.strip().split("\n")[1:]]
    assert len(counts) == 13
    assert sum(counts) == 300


def test_trace_summary(capsys):
    code, out, _ = run(capsys, "trace", "1/2", "--t0", "2", "--step", "0.001")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["abs_gap"]) <= 0.003
    assert float(cells["predicted"]) == pytest.approx(2.772588722, abs=1e-8)


def test_trace_dump_samples(capsys, tmp_path):
    path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "trace", "1/3", "--dump-samples", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_lift,y_lift,x_reduced,y_reduced,in_core"
    assert len(lines) > 1000
    assert set(l.split(",")[5] for l in lines[1:]) == {"0", "1"}


def test_trace_precondition_exit(capsys):
    code, _, err = run(capsys, "trace", "2/5", "--t0", "1")
    assert code == 3
    assert "t0" in err
    code, _, err = run(capsys, "trace", "1/1" + "0" * 160)
    assert code == 3
    assert err.startswith("error:") and "underflows" in err


def test_equiv(capsys):
    _, out, _ = run(capsys, "equiv", "1/5", "4/5")
    assert out.strip().split("\n")[1] == "1/5,4/5,equivalent,4,-1,5,-1"
    _, out, _ = run(capsys, "equiv", "1/5", "2/5")
    assert out.strip().split("\n")[1].startswith("1/5,2/5,distinct")
    _, out, _ = run(capsys, "equiv", "1/3", "1/2")
    assert out.strip().split("\n")[1].startswith("1/3,1/2,distinct")


def test_bad_fraction_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "5/3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "x", "1/2"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["S", "tau", "psi", "pi"])
def test_count_single_point_matches_sweep(capsys, monkeypatch, kind):
    routes = []  # (route, number of points it was given)
    for name in ("sublinear_sums", "checkpoint_sums"):
        def spy(arg, fn=getattr(counting, name), name=name):
            routes.append((name, len(arg)))
            return fn(arg)
        monkeypatch.setattr(counting, name, spy)
    target = ["--Y", "4e10", "--t0", "2"] if kind == "pi" else ["--x", "123457"]
    _, single, _ = run(capsys, "count", kind, *target)
    assert routes == [("sublinear_sums", 1)]
    _, sparse, _ = run(capsys, "count", kind, *target, "--points", "4")
    _, dense, _ = run(capsys, "count", kind, *target, "--points", "200")
    single_rows = single.strip().split("\n")
    sparse_rows = sparse.strip().split("\n")
    dense_rows = dense.strip().split("\n")
    assert len(single_rows) == 2 and len(sparse_rows) > 2 and len(dense_rows) > 100
    # one shared table set for every sparse point; the dense sweep is sieved
    assert routes[1] == ("sublinear_sums", len(sparse_rows) - 1)
    assert [name for name, _ in routes[2:]] == ["checkpoint_sums"]
    assert single_rows[1] == sparse_rows[-1] == dense_rows[-1]
    # past the sieve's int64 bound the dense sweep takes the sublinear route
    monkeypatch.setattr(counting, "_INT64_ROOT", 50_000)
    code, past_bound, _ = run(capsys, "count", kind, *target, "--points", "200")
    assert code == 0 and past_bound == dense
    assert [name for name, _ in routes[3:]] == ["sublinear_sums"]


@pytest.mark.parametrize("argv", [
    ["count", "S", "--x", "inf"],
    ["count", "tau", "--x", "nan"],
    ["count", "pi", "--Y", "inf"],
    ["count", "pi", "--Y", "1e6", "--t0=-inf"],
    ["trace", "1/5", "--t0", "inf"],
    ["trace", "1/5", "--step", "nan"],
    ["trace", "1/5", "--tail-factor", "inf"],
    ["gq", "5", "--t0", "nan"],
    ["series", "2", "nan"],
])
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "finite" in out.err


@pytest.mark.parametrize("argv", [["sq", "65", "--out"], ["trace", "1/3", "--dump-samples"]])
def test_unwritable_output_is_precondition_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "out.csv"))
    assert code == 3
    assert err.startswith("error:") and "missing" in err


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_write_error_is_not_precondition_error(monkeypatch, tmp_path):
    # Only an output file that cannot be opened maps to exit 3; a failure
    # while writing (a full disk, a closed pipe) is not a precondition.
    monkeypatch.setattr(cli, "open", lambda *a, **k: _FullDisk(), raising=False)
    with pytest.raises(OSError, match="No space"):
        main(["sq", "65", "--out", str(tmp_path / "out.csv")])


def test_resource_cap_exit(capsys, monkeypatch):
    code, _, err = run(capsys, "count", "S", "--x", "50000", "--limit", "1000")
    assert code == 4
    assert "limit" in err

    def scan(*args):
        raise AssertionError("scanned before refusing")

    # above the int64 bound the scan refuses (exit 3) rather than loop over
    # every residue in Python; `range` is patched so a loop fails at once
    monkeypatch.setattr(cli.arith, "range", scan, raising=False)
    code, out, err = run(capsys, "sq", "3037000501", "--brute", "--limit", "4000000000")
    assert code == 3
    assert out == "" and "int64" in err
    monkeypatch.delattr(cli.arith, "range")

    # the exhaustive scan is linear in q, so --limit bounds the modulus
    monkeypatch.setattr(cli.arith, "sqrt_minus_one_brute", scan)
    code, out, err = run(capsys, "sq", "3037000501", "--brute")
    assert code == 4
    assert out == "" and "limit" in err

    # a --limit above the int64 bound does not let gq reach the pairing
    # arithmetic: q*q would wrap, so it is a precondition failure
    monkeypatch.setattr(cli.scatterset, "np", None)
    code, out, err = run(capsys, "gq", "3037000500", "--limit", "4000000000")
    assert code == 3
    assert out == "" and "int64" in err

    # within --limit, a q whose pairing working set passes the byte budget
    # is refused from its factorization alone
    code, out, err = run(capsys, "gq", "100000007")
    assert code == 4
    assert out == "" and "budget" in err


def test_json_format(capsys):
    _, out, _ = run(capsys, "sq", "65", "--format", "json")
    data = json.loads(out)
    assert data == [{"q": 65, "s": 4, "solutions": [8, 18, 47, 57]}]


def test_json_fraction_records(capsys):
    _, out, _ = run(capsys, "gq", "5", "--format", "json")
    data = json.loads(out)
    assert [d["p"] for d in data] == [1, 2, 3]
    assert data[0]["class"] == "pair_min"
    assert data[1]["sojourn"] == pytest.approx(4.605170186, abs=1e-8)


def test_histogram_single_element(capsys):
    _, out, _ = run(capsys, "histogram", "--first", "1", "--bins", "10")
    counts = [int(l.split(",")[2]) for l in out.strip().split("\n")[1:]]
    assert counts[0] == 1  # the family starts at 0
    assert sum(counts) == 1


def test_series_routes(capsys):
    code, out, _ = run(capsys, "series", "2", "3", "--terms", "20000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,F_direct,F_euler,F_closed,max_pairwise_gap"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[4]) < 1e-3


def test_out_file(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sq", "65", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == "q,s,solutions\n65,4,8;18;47;57\n"


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "G", "--first", "50")
    _, second, _ = run(capsys, "G", "--first", "50")
    assert first == second
    _, h1, _ = run(capsys, "histogram", "--first", "100", "--bins", "10")
    _, h2, _ = run(capsys, "histogram", "--first", "100", "--bins", "10")
    assert h1 == h2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "modscatter", "sq", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "q,s,solutions\n5,2,2;3\n"


# Byte-identity of the streamed family output ------------------------------

def oracle_cell(v):
    if isinstance(v, float):
        return format(v, ".10g")
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    return v


def oracle_text(columns, rows, fmt):
    """The whole-table emitter the streamed one replaced: every row a dict,
    through csv.writer and oracle_cell, or json.dumps(indent=2)."""
    if fmt == "json":
        return json.dumps([{c: r[c] for c in columns} for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([oracle_cell(r[c]) for c in columns])
    return buf.getvalue()


def oracle_members(first):
    out, q = [], 0
    while len(out) < first:
        q += 1
        out.extend(scatterset.scatter_set(q).members)
    return out[:first]


def oracle_family(ws, t0, fmt):
    rows = [scatterset.fraction_record(w, t0) for w in ws]
    return oracle_text(["q", "p", "class", "sojourn"], rows, fmt)


def oracle_histogram(first, bins, fmt):
    values = np.array([float(w) for w in oracle_members(first)])
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    rows = [{"bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
             "count": int(counts[i]), "density": counts[i] * bins / first}
            for i in range(bins)]
    return oracle_text(["bin_left", "bin_right", "count", "density"], rows, fmt)


FORMATS = ["csv", "json"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("first", [1, 2, 3, 7, 50, 1000, 5003])
def test_g_matches_oracle(capsys, fmt, first):
    _, out, _ = run(capsys, "G", "--first", str(first), "--format", fmt)
    assert out == oracle_family(oracle_members(first), 2.0, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("q", [1, 2, 4, 5, 25, 65, 30030])
def test_gq_matches_oracle(capsys, fmt, q):
    _, out, _ = run(capsys, "gq", str(q), "--format", fmt)
    assert out == oracle_family(scatterset.scatter_set(q).members, 2.0, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("t0", ["1.5", "2.0", "3.0", "1.0000001"])
def test_family_t0_matches_oracle(capsys, fmt, t0):
    _, out, _ = run(capsys, "G", "--first", "60", "--t0", t0, "--format", fmt)
    assert out == oracle_family(oracle_members(60), float(t0), fmt)
    _, out, _ = run(capsys, "gq", "65", "--t0", t0, "--format", fmt)
    assert out == oracle_family(scatterset.scatter_set(65).members, float(t0), fmt)


def test_tables_are_written_in_slices(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    for fmt in FORMATS:
        _, out, _ = run(capsys, "gq", "101", "--format", fmt)
        assert out == oracle_family(scatterset.scatter_set(101).members, 2.0, fmt)
        _, out, _ = run(capsys, "G", "--first", "50", "--format", fmt)
        assert out == oracle_family(oracle_members(50), 2.0, fmt)
        for bins in (6, 7, 8, 22):
            _, out, _ = run(capsys, "histogram", "--first", "100", "--bins", str(bins),
                            "--format", fmt)
            assert out == oracle_histogram(100, bins, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("first,bins", [
    (7, 2), (40, 2), (40, 4), (40, 10), (200, 10), (1000, 4), (1000, 10), (3000, 13),
])
def test_histogram_matches_oracle(capsys, fmt, first, bins):
    # 1/2, 1/4, 1/5 and 3/10 lie on edges of 2, 4 and 10 bins (3/4 is never
    # a family member: 1/4 is the orbit minimum mod 4)
    _, out, _ = run(capsys, "histogram", "--first", str(first), "--bins", str(bins),
                    "--format", fmt)
    assert out == oracle_histogram(first, bins, fmt)


def oracle_histogram_by_q(first, bins, fmt):
    """The histogram summed one denominator at a time, np.histogram(p / q)
    over members found by a scan with Python's modular inverse."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, left, q = np.zeros(bins, dtype=np.int64), first, 0
    while left:
        q += 1
        nums = [0] if q == 1 else [p for p in range(1, q) if math.gcd(p, q) == 1
                                   and p <= (-pow(p, -1, q)) % q]
        nums = nums[:left]
        left -= len(nums)
        counts += np.histogram(np.array(nums) / q, bins=edges)[0]
    rows = [{"bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
             "count": int(counts[i]), "density": counts[i] * bins / first}
            for i in range(bins)]
    return oracle_text(["bin_left", "bin_right", "count", "density"], rows, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("first,bins", [(3700, 7), (15_000, 100), (50_001, 33)])
def test_histogram_cut_inside_a_run_matches_oracle(capsys, fmt, first, bins):
    # each N ends inside the block of one q, a q in the middle of its run
    before = 0
    for _, ends, p, _ in scatterset._member_runs():
        if before + p.size > first:
            break
        before += p.size
    i = int(np.searchsorted(ends, first - before))
    assert 0 < i < ends.size - 1 and ends[i] != first - before
    _, out, _ = run(capsys, "histogram", "--first", str(first), "--bins", str(bins),
                    "--format", fmt)
    assert out == oracle_histogram_by_q(first, bins, fmt)


@pytest.mark.parametrize("argv", [
    ["count", "S", "--x", "5", "--points", "0"],
    ["count", "S", "--x", "5", "--points", "-3"],
    ["G", "--first", "5", "--limit", "-5"],
    ["G", "--first", "5", "--limit", "0"],
    ["gq", "5", "--threads", "0"],
])
def test_non_positive_sizes_are_usage_errors(capsys, tmp_path, argv):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"earlier output\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(path)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "positive integer" in out.err
    assert path.read_bytes() == b"earlier output\n"


def test_trace_near_the_t0_edge_warns_nothing():
    # heights near 1e154 square past the float range inside the reduction;
    # the comparison that does it must not leak a RuntimeWarning
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "modscatter",
         "trace", "0/1", "--t0", "2.9e153", "--step", "0.01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("w,q,t0,step,measured,predicted,abs_gap\n0,1,")


@pytest.mark.parametrize("argv", [
    ["G", "--first", "1001", "--limit", "1000"],
    ["G", "--first", "5", "--t0", "1"],
    ["gq", "1001", "--limit", "1000"],
    ["gq", "5", "--t0", "0.5"],
    ["gq", "100000007"],  # over the pairing's byte budget
    ["histogram", "--first", "1001", "--bins", "4", "--limit", "1000"],
    ["histogram", "--first", "10", "--bins", "1001", "--limit", "1000"],
    ["count", "S", "--x", "1000", "--points", "1001", "--limit", "1000"],
    ["sq", "1", "--to", "3000000"],  # rows over the byte budget
    ["histogram", "--first", "10", "--bins", "30000000"],  # bins over the byte budget
])
def test_refusal_leaves_out_file_unchanged(capsys, tmp_path, argv):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code in (3, 4) and out == "" and err.startswith("error:")
    assert path.read_bytes() == b"earlier output\n"


def test_size_options_refused_before_allocation(capsys, monkeypatch):
    def alloc(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "linspace", alloc)
    monkeypatch.setattr(np, "geomspace", alloc)
    for argv in (["histogram", "--first", "10", "--bins", "1000000000"],
                 ["count", "S", "--x", "1e7", "--points", "1000000000"],
                 ["count", "pi", "--Y", "1e9", "--points", "1000000000"]):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == "" and "limit" in err


def test_held_rows_refused_before_work(capsys, monkeypatch):
    # sq holds every row of a range and histogram every bin until it writes:
    # past the byte budget both refuse before the first factorization or edge
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(cli.arith, "factorize", work)
    monkeypatch.setattr(np, "linspace", work)
    rows = cli.arith._BYTE_BUDGET // cli._SQ_ROW_BYTES
    bins = cli.arith._BYTE_BUDGET // cli._BIN_BYTES
    for argv in (["sq", "1", "--to", str(rows + 1)],
                 ["sq", "1", "--to", "200000000"],
                 ["histogram", "--first", "10", "--bins", str(bins + 1)],
                 ["histogram", "--first", "10", "--bins", "200000000"]):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == "" and "budget" in err
    # one item fewer is within the budget and reaches the work
    for argv in (["sq", "1", "--to", str(rows)],
                 ["histogram", "--first", "10", "--bins", str(bins)]):
        with pytest.raises(AssertionError, match="worked before refusing"):
            main(argv)


# Byte-identity of the columnar tables ---------------------------------------

def oracle_sq(first, last):
    rows = []
    for q in range(first, last + 1):
        sols = cli.arith.sqrt_minus_one_brute(q)
        rows.append({"q": q, "s": 1 if q == 1 else len(sols), "solutions": sols})
    return ["q", "s", "solutions"], rows


def oracle_count(kind, x, points):
    xs = cli._log_spaced(x, points)
    sums = counting.checkpoint_sums(xs)
    rows = []
    for v in xs:
        exact = getattr(sums[v], kind)
        predicted = counting.main_term(kind, float(v))
        rows.append({"x": float(v), "exact": exact, "predicted": predicted,
                     "ratio": exact / predicted, "abs_error": abs(exact - predicted)})
    return ["x", "exact", "predicted", "ratio", "abs_error"], rows


def oracle_series(ss, terms):
    rows = []
    for s in ss:
        a = lfunction.series_by_sum(s, terms).value
        b = lfunction.series_by_euler_product(s, terms).value
        c = lfunction.series_by_zeta_identity(s).value
        rows.append({"s": s, "F_direct": a, "F_euler": b, "F_closed": c,
                     "max_pairwise_gap": max(abs(a - b), abs(b - c), abs(a - c))})
    return ["s", "F_direct", "F_euler", "F_closed", "max_pairwise_gap"], rows


def oracle_equiv(w1, w2):
    w1, w2 = Fraction(w1), Fraction(w2)
    witness = scatterset.equivalence_witness(w1, w2)
    a, b, c, d = witness.astuple() if witness else ("",) * 4
    row = {"w1": str(w1), "w2": str(w2), "result": "equivalent" if witness else "distinct",
           "a": a, "b": b, "c": c, "d": d}
    return ["w1", "w2", "result", "a", "b", "c", "d"], [row]


def oracle_trace(w, t0, step):
    tr = hyperbolic.trace_sojourn(Fraction(w), t0, step=step)
    m, p = tr.measured_sojourn, tr.predicted_sojourn
    row = {"w": str(Fraction(w)), "q": Fraction(w).denominator, "t0": t0, "step": step,
           "measured": m, "predicted": p, "abs_gap": abs(m - p)}
    return ["w", "q", "t0", "step", "measured", "predicted", "abs_gap"], [row]


TABLES = [
    # q = 1 (no solutions listed), 2 (one), 3 (none), 5, 10, 25 (several)
    (["sq", "1", "--to", "30"], lambda: oracle_sq(1, 30)),
    (["sq", "65"], lambda: oracle_sq(65, 65)),
    (["count", "S", "--x", "5000", "--points", "40"], lambda: oracle_count("S", 5000, 40)),
    (["count", "tau", "--x", "777"], lambda: oracle_count("tau", 777, 1)),
    (["count", "psi", "--x", "3000", "--points", "12"], lambda: oracle_count("psi", 3000, 12)),
    (["series", "1.6", "2", "2.5", "3", "4", "6", "9", "12.5", "--terms", "5000"],
     lambda: oracle_series([1.6, 2.0, 2.5, 3.0, 4.0, 6.0, 9.0, 12.5], 5000)),
    (["equiv", "1/5", "4/5"], lambda: oracle_equiv("1/5", "4/5")),
    (["equiv", "1/5", "2/5"], lambda: oracle_equiv("1/5", "2/5")),
    (["trace", "2/5", "--t0", "3"], lambda: oracle_trace("2/5", 3.0, 1e-3)),
    (["trace", "253/254", "--t0", "1.5", "--step", "0.01"],
     lambda: oracle_trace("253/254", 1.5, 0.01)),
]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv,oracle", TABLES, ids=[" ".join(a) for a, _ in TABLES])
def test_columnar_tables_match_oracle(capsys, monkeypatch, argv, oracle, fmt, chunk):
    if chunk:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    columns, rows = oracle()
    assert out == oracle_text(columns, rows, fmt)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("w,t0,step", [("12345/99991", "3", "0.01"), ("1/3", "2", "0.01")])
def test_dump_samples_match_csv_writer(capsys, monkeypatch, tmp_path, chunk, w, t0, step):
    if chunk:
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "trace", w, "--t0", t0, "--step", step,
                     "--dump-samples", str(path))
    assert code == 0
    tr = hyperbolic.trace_sojourn(Fraction(w), float(t0), step=float(step))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x_lift", "y_lift", "x_reduced", "y_reduced", "in_core"])
    for k in range(len(tr.t)):
        writer.writerow([format(float(v), ".10g") for v in
                         (tr.t[k], Fraction(w), tr.lift_y[k], tr.reduced[k].real,
                          tr.reduced[k].imag)] + [int(tr.in_core[k])])
    assert path.read_text() == buf.getvalue()


def test_wide_tables_are_sliced_by_cells(capsys, monkeypatch, tmp_path):
    # the six columns of a sample dump share one slice of _CHUNK_ROWS cells
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 60)
    sizes = []
    cells = cli._cells

    def spy(values, as_json):
        sizes.append(len(values))
        return cells(values, as_json)

    monkeypatch.setattr(cli, "_cells", spy)
    path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, "trace", "1/3", "--t0", "2", "--step", "0.01",
                     "--dump-samples", str(path))
    assert code == 0
    dump = sizes[:-7]  # then the seven cells of the one-row result table
    assert sizes[-7:] == [1] * 7
    assert sum(dump) == 6 * (len(path.read_text().splitlines()) - 1) and len(dump) > 6
    slices = [sum(dump[i:i + 6]) for i in range(0, len(dump), 6)]
    assert max(slices) <= cli._CHUNK_ROWS


# Refusals of inputs a count, a series or a trace cannot answer -------------

def _refused_before_work(capsys, tmp_path, argv, code, word):
    path = tmp_path / "kept.csv"
    path.write_bytes(b"earlier output\n")
    got, out, err = run(capsys, *argv, "--out", str(path))
    assert got == code and out == "" and err.startswith("error:") and word in err
    assert path.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("kind", ["S", "tau", "psi"])
@pytest.mark.parametrize("x", ["0", "0.5", "0.999"])
def test_count_x_below_one_refused(capsys, monkeypatch, tmp_path, kind, x):
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(counting, "sums_at", work)
    _refused_before_work(capsys, tmp_path, ["count", kind, "--x", x], 3, "--x")


@pytest.mark.parametrize("argv", [
    ["--Y", "0"],
    ["--Y", "-3"],
    ["--Y", "5e-324"],  # the law 3Y/(2 (pi t0)^2) underflows to 0
])
def test_count_pi_without_a_positive_law_refused(capsys, monkeypatch, tmp_path, argv):
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(counting, "sums_at", work)
    _refused_before_work(capsys, tmp_path, ["count", "pi", *argv], 3, "not positive")


# t0 = 1.3407807929942596e154 is the largest float whose square is finite;
# the law 2*(0.75*Y/(pi*t0)^2) leaves the float range with (pi*t0)^2, from t0
# near 4.27e153.  It cannot overflow: t0 > 1 keeps it below Y/6.
@pytest.mark.parametrize("argv", [
    ["--Y", "4", "--t0", "4.3e153"],
    ["--Y", "4", "--t0", "1.3407807929942596e154"],
    ["--Y", "4", "--t0", "1.3407807929942597e154"],
    ["--Y", "4", "--t0", "1e200"],
    ["--Y", "1e8", "--t0", "1e200", "--points", "5"],
])
def test_count_pi_at_huge_t0_or_Y_refused(capsys, monkeypatch, tmp_path, argv):
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(counting, "sums_at", work)
    _refused_before_work(capsys, tmp_path, ["count", "pi", *argv], 3, "not positive")


def test_count_pi_answers_below_the_t0_edge(capsys):
    code, out, _ = run(capsys, "count", "pi", "--Y", "4", "--t0", "3e153")
    assert code == 0
    assert out.splitlines()[1].startswith("4,0,6.7547")
    # past the float range of ((k + 1)*t0)**2 the threshold still answers
    assert counting.sojourn_threshold(1.7e308, 3e153) == 4
    assert counting.main_term("pi", 4.0, 1e200) == 0.0


# The law's old form, 3.0*Y/(2.0*(pi*t0)**2), overflowed in 3*Y or in the
# doubled square before its division, and these inputs were refused.
@pytest.mark.parametrize("argv,exact", [
    (["--Y", "4", "--t0", "3.1e153"], 0),
    (["--Y", "1.7e308", "--t0", "3e153"], 4),
    (["--Y", "1.7e308", "--t0", "1e150"], 25_840_019),
    (["--Y", "1.7e308", "--t0", "1e150", "--points", "3"], 25_840_019),
])
def test_count_pi_answers_where_the_old_law_overflowed(capsys, argv, exact):
    code, out, _ = run(capsys, "count", "pi", *argv)
    assert code == 0
    cells = out.splitlines()[-1].split(",")
    assert int(cells[1]) == exact
    assert 0 < float(cells[2]) < math.inf
    if exact == 25_840_019:
        assert counting.sojourn_threshold(1.7e308, 1e150) == 13_038
        assert float(cells[2]) == pytest.approx(1.5 * 1.7e8 / math.pi**2, rel=1e-9)


# The threshold walk once hung near 1e50 and took minutes near 1e20, and
# --Y 1e308 --t0 2 was refused only because the old law overflowed.
@pytest.mark.parametrize("argv", [
    ["--Y", "1e308", "--t0", "2"],
    ["--Y", "1e308", "--t0", "2", "--limit", str(10**20)],
    ["--Y", "1e300", "--t0", "1e100"],
    ["--Y", "1e300", "--t0", "1e130"],
    ["--Y", "1e300", "--t0", "1e100", "--points", "5"],
    ["--Y", "484", "--t0", "2", "--limit", "10"],  # threshold 11
])
def test_count_pi_threshold_past_limit_refused_before_the_walk(capsys, monkeypatch,
                                                               tmp_path, argv):
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(counting, "sums_at", work)
    if argv[1] != "484":  # at 484 the guess is one above the limit, the threshold too
        monkeypatch.setattr(counting, "sojourn_threshold", work)
    _refused_before_work(capsys, tmp_path, ["count", "pi", *argv], 4, "--limit")


def test_count_pi_threshold_at_limit_or_past_2_52_kept(capsys, monkeypatch, tmp_path):
    # sqrt(450)/2 = 10.6: the threshold 10 is within --limit 10 and answered
    code, out, _ = run(capsys, "count", "pi", "--Y", "450", "--t0", "2", "--limit", "10")
    assert code == 0 and out.splitlines()[1].startswith("450,19,")
    # with a --limit past 2^52 the walk itself refuses the threshold 5e19
    monkeypatch.setattr(counting, "sums_at", lambda *a: pytest.fail("summed"))
    argv = ["count", "pi", "--Y", "1e40", "--t0", "2", "--limit", str(10**30)]
    _refused_before_work(capsys, tmp_path, argv, 3, "past 2^52")


@pytest.mark.parametrize("t0", ["1.1e153", "1.3407807929942597e154", "1e160", "1e308"])
def test_trace_at_huge_t0_refused(capsys, monkeypatch, tmp_path, t0):
    def alloc(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "arange", alloc)
    dump = tmp_path / "samples.csv"
    dump.write_bytes(b"earlier samples\n")
    argv = ["trace", "1/3", "--t0", t0, "--step", "0.01", "--dump-samples", str(dump)]
    _refused_before_work(capsys, tmp_path, argv, 3, "too large")
    assert dump.read_bytes() == b"earlier samples\n"


def test_trace_answers_below_the_t0_edge(capsys):
    # for 1/3 the ratio 2*t0 / y_end = 180*t0**2 overflows from t0 near 1e153
    code, out, _ = run(capsys, "trace", "1/3", "--t0", "9e152", "--step", "0.01")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[6]) <= 2 * 0.01
    for cmd in (["G", "--first", "3"], ["gq", "5"]):
        code, out, _ = run(capsys, *cmd, "--t0", "1e300")
        assert code == 0 and len(out.splitlines()) == 4


def test_count_work_past_the_sieve_bound_is_capped(capsys, monkeypatch, tmp_path):
    # 73,963 points up to 5e9, past the sieve's int64 bound: the sublinear
    # route's model puts them at 6.64e9 sieve entries
    def work(*args, **kwargs):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(counting, "sublinear_sums", work)
    argv = ["count", "S", "--x", "5e9", "--points", "100000"]
    _refused_before_work(capsys, tmp_path, [*argv, "--limit", "6000000000"], 4, "work")
    with pytest.raises(AssertionError, match="worked before refusing"):
        main([*argv, "--limit", "10000000000"])


@pytest.mark.parametrize("s", ["1e103", "8.98e307", "1e308"])
def test_series_at_huge_s_is_finite_or_refused(capsys, s):
    code, out, err = run(capsys, "series", s, "--terms", "1000")
    if code == 0:
        cells = out.strip().split("\n")[1].split(",")
        assert all(np.isfinite(float(c)) for c in cells)
    else:
        assert code == 3 and out == "" and "finite" in err
    value = float(s)
    if math.isfinite(2 * value):
        closed = lfunction.series_by_zeta_identity(value)
        assert closed.value == 1.0 and math.isfinite(closed.tail_bound)
    else:
        with pytest.raises(ValueError, match="finite"):
            lfunction.series_by_zeta_identity(value)


def test_trace_over_the_sample_budget_refused(capsys, monkeypatch, tmp_path):
    def alloc(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "arange", alloc)
    monkeypatch.setattr(np, "exp", alloc)
    # about 2.8e7 samples, 3 GB
    argv = ["trace", "12345/99991", "--t0", "3", "--step", "1e-6"]
    dump = tmp_path / "samples.csv"
    dump.write_bytes(b"earlier samples\n")
    _refused_before_work(capsys, tmp_path, [*argv, "--dump-samples", str(dump)], 4, "budget")
    assert dump.read_bytes() == b"earlier samples\n"
    # the largest sample count within the budget reaches the allocation
    span = math.log(2 * 3.0 * 10 * 3.0 * 99991**2)  # log(y_start / y_end)
    most = cli.arith._BYTE_BUDGET // hyperbolic._SAMPLE_BYTES
    with pytest.raises(AssertionError, match="allocated before refusing"):
        hyperbolic.trace_sojourn(Fraction(12345, 99991), 3.0, step=span / (most - 1.5))
    with pytest.raises(cli.arith.MemoryBudgetExceeded):
        hyperbolic.trace_sojourn(Fraction(12345, 99991), 3.0, step=span / (most + 0.5))
