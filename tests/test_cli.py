"""Command-line behavior: exit codes, event streams, determinism."""

import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formula_texts
from ctstl import horizon, parse, validate
from ctstl.cli import main
from ctstl.generators import overvoltage_formulas

ROOT = Path(__file__).resolve().parents[1]

FIG4_CSV = "t,x\n0,2\n1,-1\n2,7\n3,10\n4,-5\n5,15\n6,8\n7,-2\n"
FIG4_FORMULA = "G[0,2] C[1,5]^3 (x > 0)"


@pytest.fixture
def fig4_file(tmp_path):
    p = tmp_path / "fig4.csv"
    p.write_text(FIG4_CSV)
    return str(p)


@pytest.fixture
def ex_pair_files(tmp_path):
    p1 = tmp_path / "x1.csv"
    p1.write_text("x\n" + "\n".join("0 0 2 3 4 7 10 0 5 5 15".split()) + "\n")
    p2 = tmp_path / "x2.csv"
    p2.write_text("x\n" + "\n".join("0 0 2 -3 -4 7 -5 -1 0 5 15".split())
                  + "\n")
    return str(p1), str(p2)


def run_cli(argv, stdin_text=None):
    """Invoke main() in-process, capturing stdout/stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    try:
        sys.stdout, sys.stderr = out, err
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


class TestEval:
    def test_satisfied_exit_zero(self, ex_pair_files):
        p1, _ = ex_pair_files
        code, out, _ = run_cli(
            ["eval", "--formula", "C[2,8]^4 (x > 1)", p1])
        assert (code, out.strip()) == (0, "true")

    def test_violated_exit_one(self, ex_pair_files):
        _, p2 = ex_pair_files
        code, out, _ = run_cli(
            ["eval", "--formula", "C[2,8]^4 (x > 1)", p2])
        assert (code, out.strip()) == (1, "false")

    def test_truncated_trace_exit_two(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("x\n1\n2\n")
        code, _, err = run_cli(
            ["eval", "--formula", "C[2,8]^4 (x > 1)", str(p)])
        assert code == 2
        assert "error" in err

    def test_parse_error_exit_two(self, fig4_file):
        code, _, err = run_cli(["eval", "--formula", "x >", fig4_file])
        assert code == 2 and "error" in err

    def test_at_must_align_with_step(self, fig4_file):
        code, _, err = run_cli(
            ["eval", "--formula", "x > 0", "--at", "0.25", fig4_file])
        assert code == 2

    def test_dash_reads_stdin(self):
        code, out, _ = run_cli(["eval", "--formula", "x > 0", "-"],
                               stdin_text="x\n1\n2\n")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run_cli(["rob", "--formula", "x > 0", "--sweep", "-"],
                               stdin_text="x\n1\n2\n")
        assert (code, out.splitlines()) == (0, ["t,rho", "0,1", "1,2"])

    def test_paper_scale_w10k_returns_the_generator_truth(self, tmp_path):
        # the benchmark's eval input: 2W+1 samples, W = 10,000, at the
        # phi5 budget; then one sample over the 1.7 limit, with every
        # excursion inside the first window
        phi5 = overvoltage_formulas(window=10_000)["phi5"]
        budget = ["--over14", "14", "--over13", "130"]
        for extra, want in ((["--over17", "17"], 0),
                            (["--over17", "18", "--spread", "10001"], 1)):
            out = tmp_path / f"ov{want}.csv"
            code, _, _ = run_cli(["gen", "overvoltage", "--length", "20001",
                                  "--seed", "2", *budget, *extra,
                                  "--out", str(out)])
            assert code == 0
            code, text, _ = run_cli(["eval", "--formula", phi5, str(out)])
            assert (code, text) == (want, ["true\n", "false\n"][want])


class TestRob:
    def test_point_values(self, ex_pair_files):
        p1, p2 = ex_pair_files
        code, out, _ = run_cli(["rob", "--formula", "C[2,8]^4 (x > 1)", p1])
        assert code == 0 and out.strip() == "3"
        code, out, _ = run_cli(["rob", "--formula", "C[2,8]^4 (x > 1)", p2])
        assert code == 0 and out.strip() == "-2"

    def test_sweep_rows(self, fig4_file):
        code, out, _ = run_cli(
            ["rob", "--formula", "C[1,5]^3 (x > 0)", "--sweep", fig4_file])
        assert code == 0
        assert out.splitlines() == ["t,rho", "0,7", "1,8", "2,8"]

    def test_until_zero_width_with_a_longer_left_operand(self):
        # U[0,0] never reads its left operand, which needs 3 samples here
        f = ["--formula", "(F[0,2] (x > 0)) U[0,0] (x > 0)", "-"]
        assert run_cli(["rob", "--sweep", *f], stdin_text="x\n1\n") == \
            (0, "t,rho\n0,1\n", "")
        assert run_cli(["rob", *f], stdin_text="x\n1\n") == (0, "1\n", "")
        assert run_cli(["eval", *f], stdin_text="x\n1\n") == \
            (0, "true\n", "")

    def test_formula_file_flag(self, fig4_file, tmp_path):
        ff = tmp_path / "f.txt"
        ff.write_text("C[1,5]^3 (x > 0)\n")
        code, out, _ = run_cli(
            ["rob", "--formula-file", str(ff), fig4_file])
        assert code == 0 and out.strip() == "7"


class TestMonitor:
    def test_stops_at_decision(self, fig4_file):
        code, out, _ = run_cli(
            ["monitor", "--formula", FIG4_FORMULA, fig4_file])
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(events) == 7  # decided at sample 6, stream stops
        assert events[-1]["i"] == 6
        assert events[-1]["verdict"] is True
        assert events[-1]["decided"] is True
        assert events[-2]["decided"] is False

    def test_run_to_end_repeats_verdict(self, fig4_file):
        code, out, _ = run_cli(
            ["monitor", "--formula", FIG4_FORMULA, "--run-to-end",
             fig4_file])
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(events) == 8
        assert [e["verdict"] for e in events[-2:]] == [True, True]
        assert events[-1]["lb"] == events[-1]["ub"] == 7.0

    def test_file_and_stdin_streams_are_identical(self, fig4_file):
        code_f, out_f, _ = run_cli(
            ["monitor", "--formula", FIG4_FORMULA, fig4_file])
        code_s, out_s, _ = run_cli(
            ["monitor", "--formula", FIG4_FORMULA, "-"],
            stdin_text=FIG4_CSV)
        assert (code_f, out_f) == (code_s, out_s)

    def test_early_false_before_eof(self, tmp_path):
        p = tmp_path / "viol.csv"
        p.write_text("x\n" + "0\n" * 12)
        code, out, _ = run_cli(
            ["monitor", "--formula", "C[2,8]^4 (x > 1)", str(p)])
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert events[-1]["verdict"] is False
        assert len(events) < 12

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x\n1\n2\noops\n")
        code, _, err = run_cli(
            ["monitor", "--formula", "G[0,10] (x > 0)", str(p)])
        assert code == 2
        assert "line 4" in err

    def test_empty_stream_is_unknown(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x\n")
        code, out, _ = run_cli(
            ["monitor", "--formula", "G[0,2] (x > 0)", str(p)])
        assert code == 3
        assert out == ""

    def test_undecided_at_eof(self, tmp_path):
        p = tmp_path / "part.csv"
        p.write_text("x\n1\n1\n")
        code, out, _ = run_cli(
            ["monitor", "--formula", "G[0,5] (x > 0)", str(p)])
        assert code == 3
        events = [json.loads(line) for line in out.splitlines()]
        assert all(e["verdict"] is None for e in events)

    def test_trace_export(self, fig4_file, tmp_path):
        target = tmp_path / "nodes.csv"
        code, _, _ = run_cli(
            ["monitor", "--formula", FIG4_FORMULA, "--trace", str(target),
             fig4_file])
        assert code == 0
        rows = [line.split(",") for line in
                target.read_text().splitlines()]
        assert all(len(r) == 5 for r in rows)
        # final C-node snapshot carries the known worklist values
        last_i = rows[-1][2]
        cnode = [r for r in rows if r[0] == "1" and r[2] == last_i]
        assert [(r[1], r[3], r[4]) for r in cnode] == [
            ("0", "7", "7"), ("1", "8", "8"), ("2", "8", "10")]

    def test_fractional_step_inferred_before_first_event(self, tmp_path):
        # G[0,1] spans three samples at step 0.5; the monitor must not
        # lock in a unit step from the first timestamped row
        p = tmp_path / "half.csv"
        p.write_text("t,x\n0,1\n0.5,1\n1,1\n")
        code, out, _ = run_cli(
            ["monitor", "--formula", "G[0,1] (x > 0)", str(p)])
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(events) == 3
        assert events[-1]["decided"] is True

    def test_bounds_flag(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x\n1\n")
        code, out, _ = run_cli(
            ["monitor", "--formula", "G[0,3] (x > 0)",
             "--bounds", "x=0.5:2", str(p)])
        events = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert events[0]["verdict"] is True


class TestBadInput:
    CASES = [
        (["monitor", "--formula", "G[0,2] (x > 0)", "-"], "t,x\n1,0\n0,1\n",
         "line 3"),
        (["monitor", "--formula", "G[0,3] (x > 0)", "-"],
         "x\n1\nnan\n2\n3\n", "line 3"),
        (["eval", "--formula", "x > 0", "-"], "t,x\n0,1\n1,nan\n2,1\n",
         "line 3"),
        (["rob", "--formula", "x > 0", "--step", "0", "-"], "x\n1\n",
         "step"),
        (["monitor", "--formula", "x > 0", "--bounds", "x=3:1", "-"],
         "x\n1\n", "bounds"),
        (["monitor", "--formula", "x > 0", "--bounds", "x=nan:1", "-"],
         "x\n1\n", "bounds"),
        (["eval", "--formula", "x > 0", "--at", "nan", "-"], "x\n1\n", "--at"),
        (["rob", "--formula", "x > 0", "--at", "inf", "-"], "x\n1\n", "--at"),
        (["monitor", "--formula", "G[0,3] (x > 0)", "--bounds", "z=0.5:2",
          "-"], "x\n1\n", "unknown variable 'z'"),
        (["monitor", "--formula", "G[0,1] (x > 0)", "--bounds", "x=0.5:2",
          "-"], "x\n-3\n-3\n", "outside its bounds"),
        (["bench", "--w", "0", "--cases", "0"], "", "w must be >= 1"),
        (["bench", "--w", "-5", "--cases", "0"], "", "w must be >= 1"),
        (["bench", "--n", "-3", "--cases", "0"], "", "n must be >= 1"),
    ]

    @pytest.mark.parametrize("argv,text,says", CASES)
    def test_rejected_with_exit_two_and_no_verdict(self, argv, text, says):
        code, out, err = run_cli(argv, stdin_text=text)
        assert code == 2
        assert err.startswith("error: ") and says in err
        assert '"decided": true' not in out
        if argv[0] != "monitor":
            assert out == ""

    def test_inexact_step_product_does_not_flip_the_verdict(self):
        # 3 * 0.3 is 0.8999999999999999 < 0.9; all three paths must count
        # against the bound rank 3 and agree
        text = "t,x\n0,1\n0.3,1\n0.6,1\n0.9,-1\n"
        f = ["--formula", "C[0,0.9]^0.9 (x > 0)", "-"]
        assert run_cli(["eval", *f], stdin_text=text)[:2] == (0, "true\n")
        assert run_cli(["rob", *f], stdin_text=text)[:2] == (0, "1\n")
        code, out, _ = run_cli(["monitor", *f], stdin_text=text)
        last = json.loads(out.splitlines()[-1])
        assert code == 0 and last["verdict"] is True


_VALUE = st.integers(-2, 3).map(str)
_BAD_CELL = st.sampled_from(["oops", " ", "1e", "nan", "inf", "-inf"])
_BAD_STEPS = ["0", "-1", "nan", "inf"]
_BAD_BOUNDS = ["x=3:1", "x=nan:1", "x=inf:inf", "x=1"]


@st.composite
def _cli_runs(draw):
    """A CLI call on generated CSV, and the index of its first bad sample.

    Samples before that index are valid under every flag; a bad header or
    flag makes it 0.  None means the whole input is valid.
    """
    cmd = draw(st.sampled_from(["monitor", "monitor", "eval", "rob"]))
    has_time = draw(st.booleans())
    arity = draw(st.integers(1, 2))
    grid = draw(st.sampled_from([0.5, 1.0]))
    n = draw(st.integers(0, 8))
    names = ["x", "y"][:arity]
    rows = [[str(j * grid)] * has_time + draw(st.lists(_VALUE, min_size=arity,
                                                       max_size=arity))
            for j in range(n)]
    first_bad = None
    bad_at = draw(st.none() | st.integers(0, n))
    if bad_at is not None:
        row = [str(bad_at * grid)] * has_time + ["1"] * arity
        kind = draw(st.sampled_from(["arity", "cell", "time"]))
        if kind == "arity":
            row.append("1")
        elif kind == "time" and has_time and bad_at >= 1:
            row[0] = str((bad_at - draw(st.sampled_from([1, 2]))) * grid)
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELL)
        rows.insert(bad_at, row)
        first_bad = bad_at
    header = ["t"] * has_time + names
    header_kind = draw(st.sampled_from(["ok"] * 12 + ["empty", "blank",
                                                      "dup", "t"]))
    if header_kind == "empty":
        header, rows = [], []
    elif header_kind != "ok":
        header = {"blank": header + [""], "dup": header + ["x"],
                  "t": ["t"]}[header_kind]
    if header_kind != "ok":
        first_bad = 0
    text = "".join(",".join(r) + "\n" for r in [header] * bool(header)
                   + rows)

    argv = [cmd, "--formula", "G[0,2] (x > 0)"]
    step = draw(st.sampled_from([None] * 4 + _BAD_STEPS + ["grid", "double"]))
    if step is not None:
        value = {"grid": grid, "double": 2 * grid}.get(step, step)
        argv.append(f"--step={value}")
        if step in _BAD_STEPS:
            first_bad = 0
        elif step == "double" and has_time and len(rows) >= 2:
            # the second timestamp already breaks the flag's spacing
            first_bad = 1 if first_bad is None else min(first_bad, 1)
    if cmd == "monitor":
        bounds = draw(st.sampled_from([None] * 4 + _BAD_BOUNDS
                                      + ["x=-5:5", "x=-inf:inf"]))
        if bounds is not None:
            argv += ["--bounds", bounds]
            if bounds in _BAD_BOUNDS:
                first_bad = 0
    return argv + ["-"], text, first_bad


class TestFuzz:
    @given(_cli_runs())
    @settings(max_examples=300, deadline=None)
    def test_exit_contract_holds_and_bad_rows_get_no_event(self, run):
        argv, text, first_bad = run
        # an exception escaping main() fails the test by itself
        code, out, err = run_cli(argv, stdin_text=text)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if argv[0] != "monitor":
            if first_bad is not None:
                assert (code, out) == (2, "")
            return
        events = [json.loads(line) for line in out.splitlines()]
        assert [e["i"] for e in events] == list(range(len(events)))
        if first_bad is None:
            assert code in (0, 1, 3)
            return
        # no event for the bad sample or any after it; a verdict is only
        # given when it was decided before the bad sample was read
        assert len(events) <= first_bad
        if code != 2:
            assert events and events[-1]["decided"] is True


@st.composite
def _differential_runs(draw):
    """Formula text, CSV text, step, extra flags and the admissible anchors.

    The trace covers the formula's horizon plus 0-3 samples; a t column
    of two or more rows carries the step, else --step does when it is not
    1 (one row has no step to read, and the reader then assumes 1).
    """
    delta = draw(st.sampled_from([1.0, 0.5, 0.25]))
    text = draw(formula_texts(delta, depth=2))
    h = horizon(validate(parse(text), ("x", "y"), delta))
    anchors = 1 + draw(st.integers(0, 3))
    rows = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                         min_size=h + anchors, max_size=h + anchors))
    has_time = draw(st.booleans())
    lines = [["t"] * has_time + ["x", "y"]]
    lines += [[f"{j * delta:g}"] * has_time + [str(x), str(y)]
              for j, (x, y) in enumerate(rows)]
    carried = has_time and len(rows) > 1
    flags = [] if carried or delta == 1.0 else [f"--step={delta:g}"]
    csv = "".join(",".join(r) + "\n" for r in lines)
    return text, csv, delta, flags, anchors


class TestDifferential:
    @given(_differential_runs())
    @settings(max_examples=150, deadline=None)
    def test_eval_rob_sweep_and_monitor_agree(self, run):
        text, csv, delta, flags, anchors = run
        f = ["--formula", text, *flags, "-"]
        code, out, err = run_cli(["rob", "--sweep", *f], stdin_text=csv)
        assert code == 0, err
        sweep = out.splitlines()[1:]
        assert len(sweep) == anchors
        for t, row in enumerate(sweep):
            at = ["--at", f"{t * delta:g}"]
            ecode, eout, _ = run_cli(["eval", *at, *f], stdin_text=csv)
            rcode, rout, _ = run_cli(["rob", *at, *f], stdin_text=csv)
            assert (ecode, eout) in ((0, "true\n"), (1, "false\n"))
            assert rcode == 0
            rho = row.split(",")[1]
            assert rout == rho + "\n", (t, row)
            if float(rho) != 0:
                assert ecode == (0 if float(rho) > 0 else 1), (t, rho)
            if t == 0:
                mcode, _, _ = run_cli(["monitor", "--run-to-end", *f],
                                      stdin_text=csv)
                assert mcode == ecode


def test_benchmark_traced_child_runs(tmp_path):
    # the benchmark's traced child rebinds names in ctstl.cli; a renamed
    # or bypassed binding shows up here, not only in a benchmark run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text("x\n1\n-1\n2\n3\n")
    calls = [
        (["monitor", "--formula", "G[0,1] (x > 0)", "-"], "x\n1\n2\n3\n", 0,
         {"sigfile.stream_row", "monitor.init", "monitor.push",
          "sigfile.event_json", "syntax.parse"}),
        (["rob", "--sweep", "--formula", "C[0,2]^2 (x > 0)", str(sweep_csv)],
         "", 0, {"sigfile.read", "semantics.sweep", "windows.kth.w3",
                 "syntax.parse"}),
        (["eval", "--formula", "C[0,2]^2 (x > 0)", str(sweep_csv)], "", 0,
         {"sigfile.read", "signals.margin", "windows.kth.w3",
          "syntax.parse"}),
    ]
    for j, (argv, text, want_code, want_spans) in enumerate(calls):
        spans = tmp_path / f"spans{j}.json"
        env["PERFBENCH_SPANS"] = str(spans)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
             *argv], input=text, capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == want_code, proc.stderr
        names = {s[0] for s in json.loads(spans.read_text())["spans"]}
        assert want_spans <= names


class TestGen:
    def test_deterministic_output_and_honest_report(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["gen", "overvoltage", "--length", "500", "--seed", "11",
                "--over17", "4"]
        code1, rep1, _ = run_cli(args + ["--out", str(out1)])
        code2, rep2, _ = run_cli(args + ["--out", str(out2)])
        assert code1 == code2 == 0
        assert out1.read_text() == out2.read_text()
        r1 = json.loads(rep1)
        vals = [float(line) for line in
                out1.read_text().splitlines()[1:]]
        assert r1["v_ge_1.7"] == sum(1 for v in vals if v >= 1.7) == 4

    def test_gen_then_eval_round_trip(self, tmp_path):
        out = tmp_path / "ov.csv"
        code, rep, _ = run_cli(
            ["gen", "overvoltage", "--length", "60001", "--seed", "3",
             "--over17", "10", "--out", str(out)])
        assert code == 0
        assert json.loads(rep)["v_ge_1.7"] == 10
        # 10 excursions stay well under the 17-sample budget
        code, out_text, _ = run_cli(
            ["eval", "--formula", "C[0,60000]^59984 (v < 1.7)", str(out)])
        assert (code, out_text.strip()) == (0, "true")

    def test_infeasible_budget_exit_two(self, tmp_path):
        code, _, err = run_cli(
            ["gen", "overvoltage", "--length", "10", "--over17", "40",
             "--out", str(tmp_path / "x.csv")])
        assert code == 2 and "error" in err


class TestBench:
    def test_reports_ratio_and_agreement(self):
        code, out, _ = run_cli(
            ["bench", "--n", "4000", "--w", "64", "--cases", "3",
             "--backend", "python"])
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        kth = next(r for r in reports if r["engine"] == "sliding_kth")
        assert kth["agree"] is True
        assert kth["speedup"] > 0
        mon = next(r for r in reports if r["engine"] == "monitor")
        assert mon["mismatches"] == 0

    def test_tiny_trace_no_assertion(self):
        code, out, _ = run_cli(
            ["bench", "--n", "32", "--w", "32", "--cases", "0",
             "--backend", "python"])
        assert code == 0
        assert json.loads(out.splitlines()[0])["agree"] is True

    def test_smallest_sizes_run(self):
        # the default rank w // 2 would be 0 at w = 1
        code, out, _ = run_cli(["bench", "--n", "1", "--w", "1",
                                "--cases", "0", "--backend", "python"])
        assert code == 0
        kth = json.loads(out.splitlines()[0])
        assert (kth["k"], kth["agree"]) == (1, True)


def test_console_script_is_installed():
    # the console script exists only once the distribution is installed;
    # running from a source tree on PYTHONPATH leaves no metadata behind
    try:
        dist = importlib.metadata.distribution("ctstl")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("PackageNotFoundError: the ctstl distribution is not "
                    "installed, so there is no console script to run")
    scripts = {ep.name: ep.value for ep in dist.entry_points
               if ep.group == "console_scripts"}
    assert scripts.get("ctstl") == "ctstl.cli:main"
    exe = (shutil.which("ctstl")
           or shutil.which("ctstl", path=sysconfig.get_path("scripts")))
    assert exe is not None, "ctstl is installed but its script is not found"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "monitor" in proc.stdout
