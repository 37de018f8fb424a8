"""Command-line behavior: exit codes, event streams, determinism."""

import contextlib
import csv
import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formula_texts
from ctstl import Signal, horizon, parse, validate, write_signal_csv
from ctstl import cli, logic, monitor, sigfile
from ctstl.cli import main
from ctstl.generators import overvoltage_formulas, overvoltage_trace
from ctstl.logic import _fmt_num

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

    def test_at_snaps_as_formula_endpoints_do(self):
        # 999984.7 / 0.1 is 9999846.999999998, which F[0,999984.7] takes
        # as sample 9999847 at this step; so does --at
        code, _, err = run_cli(["rob", "--formula", "x > 0", "--at",
                                "999984.7", "--step", "0.1", "-"],
                               stdin_text="x\n1\n2\n")
        assert code == 2
        assert "anchor 9999847" in err and "--at" not in err

    def test_formula_file_flag(self, fig4_file, tmp_path):
        ff = tmp_path / "f.txt"
        ff.write_text("C[1,5]^3 (x > 0)\n")
        code, out, _ = run_cli(
            ["rob", "--formula-file", str(ff), fig4_file])
        assert code == 0 and out.strip() == "7"

    def test_time_counts_from_the_first_row(self):
        # --at and the sweep's t are offsets from the first row, not values
        # of the t column, which sets only the step
        text = "t,x\n100,1\n101,-2\n102,3\n"
        f = ["--formula", "x > 0", "-"]
        assert run_cli(["rob", "--sweep", *f], stdin_text=text) == \
            (0, "t,rho\n0,1\n1,-2\n2,3\n", "")
        assert run_cli(["eval", "--at", "2", *f], stdin_text=text) == \
            (0, "true\n", "")
        assert run_cli(["eval", "--at", "100", *f], stdin_text=text) == \
            (2, "", "error: anchor 100 outside trace of length 3\n")

    @pytest.mark.parametrize("cmd", [["eval"], ["eval", "--at", "1"],
                                     ["rob"], ["rob", "--sweep"]])
    def test_formula_is_validated_once(self, cmd):
        # the command binds its formula to the signal's names and step, and
        # the sweep takes it bound; every module's name for validate counts
        calls, real = [], logic.validate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        with contextlib.ExitStack() as stack:
            for mod in list(sys.modules.values()):
                if mod.__name__.startswith("ctstl") and \
                        getattr(mod, "validate", None) is real:
                    stack.enter_context(
                        mock.patch.object(mod, "validate", counted))
            code, _, err = run_cli(
                [*cmd, "--formula", "G[0,1] C[0,1]^1 (x > 0)", "-"],
                stdin_text="x\n1\n2\n3\n4\n")
        assert (code, err) == (0, "")
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [["--sweep", "--at", "5"],
                                       ["--at", "0", "--sweep"]])
    def test_at_with_sweep_is_a_usage_error(self, flags, fig4_file):
        # a sweep covers every time, so --at has no meaning there
        with pytest.raises(SystemExit) as exc:
            run_cli(["rob", "--formula", "x > 0", *flags, fig4_file])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("formula, stdin, message", [
        ("y > 0", "x\n1\n", "unknown variable 'y'"),
        ("x > 0", "", "line 1: empty signal stream, header expected"),
        ("C[0,2]^4 (x > 0)", "x\n1\n", "cumulative threshold 4.0 exceeds"),
    ], ids=["unknown-variable", "empty-stream", "threshold-past-window"])
    def test_refused_call_leaves_the_trace_file_alone(self, formula, stdin,
                                                      message, tmp_path):
        target = tmp_path / "tr.csv"
        target.write_bytes(b"0,0,0,1,1\n")
        code, out, err = run_cli(
            ["monitor", "--formula", formula, "--trace", str(target), "-"],
            stdin_text=stdin)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")
        assert target.read_bytes() == b"0,0,0,1,1\n"

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

    def test_each_event_line_is_one_write(self, fig4_file, monkeypatch):
        # stdout as python -u (PYTHONUNBUFFERED=1) makes it: every text
        # write goes straight to the raw stream, one system call each
        class Raw(io.RawIOBase):
            def __init__(self):
                self.calls = []

            def writable(self):
                return True

            def write(self, b):
                self.calls.append(bytes(b))
                return len(b)

        raw = Raw()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["monitor", "--formula", FIG4_FORMULA, fig4_file]) == 0
        out.flush()
        lines = b"".join(raw.calls).splitlines(keepends=True)
        assert len(lines) == 7
        assert raw.calls == lines


# gen lengths past numpy's largest array, where numpy would raise a
# ValueError: the generator must refuse them as out of memory first
_HUGE_LENGTHS = (2**62, 10**20)


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
        # numpy's generators refuse a negative seed with a ValueError
        pytest.param(["gen", "overvoltage", "--seed", "-1", "--out",
                      os.devnull], "", "seed must be >= 0, got -1",
                     id="gen-negative-seed"),
        pytest.param(["gen", "glucose", "--spread", "-5", "--out",
                      os.devnull], "", "spread must be >= 0, got -5",
                     id="gen-negative-spread"),
        *(pytest.param(["gen", "glucose", "--length", str(length), "--out",
                        os.devnull], "", "out of memory",
                       id=f"gen-length-{length}")
          for length in _HUGE_LENGTHS),
        # a field over the CSV reader's size limit; explicit ids keep the
        # long input out of the test names
        *(pytest.param([cmd, "--formula", "G[0,3] (x > 0)", "-"],
                       "x\n1\n" + "1" * 200_000 + "\n",
                       "line 3: field larger than field limit",
                       id=f"{cmd}-field-over-limit")
          for cmd in ("eval", "rob", "monitor")),
        # finite samples whose margin overflows: inf - inf is NaN
        *(pytest.param([*cmd, "--formula", "10*x - 10*y > 0", "-"],
                       "x,y\n1e308,1e308\n",
                       "atom 10*x - 10*y > 0 has the non-finite margin nan "
                       "at sample 0", id=f"{'-'.join(cmd)}-nan-margin")
          for cmd in (["monitor"], ["eval"], ["rob"], ["rob", "--sweep"])),
        # the same overflow after the verdict: the verdict's event stands,
        # the refused row gets none
        pytest.param(["monitor", "--formula", "10*x - 10*y > 0",
                      "--run-to-end", "-"], "x,y\n1,0\n1e308,1e308\n",
                     "non-finite margin nan at sample 1",
                     id="monitor-run-to-end-nan-margin-after-verdict"),
        pytest.param(["monitor", "--formula", "x > 0", "--bounds", "x=0:5",
                      "--bounds", "x=0:1", "-"], "x\n1\n",
                     "--bounds given twice for 'x'",
                     id="monitor-repeated-bounds"),
        # numpy refuses 8e18 bytes of node state before touching memory
        pytest.param(["monitor", "--formula", "F[0,1e18] (x > 0)", "-"],
                     "x\n1\n", "out of memory", id="monitor-state-too-large"),
        # sizes past numpy's largest array, which it refuses as a ValueError
        *(pytest.param(["monitor", "--formula", f"F[0,{b}] (x > 0)", "-"],
                       "x\n1\n", "out of memory",
                       id=f"monitor-state-beyond-numpy-{b}")
          for b in ("2e18", "1e300")),
        # bounds under which every sample overflows the atom's margin: the
        # range [nan, inf] ended in a traceback, [inf, inf] in a verdict.
        # 1e308 is integral, and printed digit by digit it took 309
        # characters
        pytest.param(["monitor", "--formula",
                      "G[0,2] (1e308*x - 1e308*y > 0)", "--bounds",
                      "x=10:20", "-"], "x,y\n",
                     "atom 1e+308*x - 1e+308*y > 0 has no finite margin "
                     "within the bounds", id="monitor-bounds-overflow-nan"),
        pytest.param(["monitor", "--formula", "F[0,2] (1e308*x > 0)",
                      "--bounds", "x=10:20", "-"], "x\n",
                     "atom 1e+308*x > 0 has no finite margin within the "
                     "bounds", id="monitor-bounds-overflow-inf"),
        # a state too large to count in floats
        pytest.param(["monitor", "--formula", "F[0,1e308] F[0,1e308] (x > 0)",
                      "-"], "x\n1\n", "out of memory",
                     id="monitor-state-beyond-float"),
        # non-finite numbers in a formula; eval already refused an
        # infinite constant, through each sample's margin
        *(pytest.param([cmd, "--formula", formula, "-"], "x\n1\n2\n", says,
                       id=f"{cmd}-{name}")
          for name, formula, says, cmds in (
              ("infinite-endpoint", "F[0,1e400] (x > 0)", "interval [0,inf]",
               ("eval", "monitor")),
              ("infinite-tau", "C[0,5]^1e400 (x > 0)", "threshold inf",
               ("eval", "monitor")),
              ("overflowing-constant", "x > 1e308 + 1e308",
               "atom x > inf has a non-finite", ("monitor",)),
              ("infinite-constant", "G[0,1] (x > 1e400)",
               "atom x > inf has a non-finite", ("monitor",)))
          for cmd in cmds),
        # nesting past the interpreter's recursion limit
        *(pytest.param([*cmd, "--formula", " && ".join(["x > 0"] * 2000),
                        "-"], "x\n1\n", "formula nested too deeply",
                       id=f"{'-'.join(cmd)}-2000-conjuncts")
          for cmd in (["eval"], ["rob", "--sweep"], ["monitor"])),
        pytest.param(["eval", "--formula", "(" * 1000 + "x > 0" + ")" * 1000,
                      "-"], "x\n1\n", "formula nested too deeply",
                     id="eval-1000-parentheses"),
    ]

    @pytest.mark.parametrize("argv,text,says", CASES)
    def test_rejected_with_exit_two_and_no_verdict(self, argv, text, says):
        code, out, err = run_cli(argv, stdin_text=text)
        assert code == 2
        assert err.startswith("error: ") and says in err
        assert err.count("\n") == 1 and len(err) < 200  # one short line
        if "--run-to-end" in argv:
            # the verdict came before the refused last row, which gets no
            # event
            rows = text.count("\n") - 1
            assert [json.loads(line)["i"] for line in out.splitlines()] == \
                list(range(rows - 1))
        else:
            assert '"decided": true' not in out
        if argv[0] != "monitor":
            assert out == ""

    @pytest.mark.parametrize("source", ["path", "formula-file", "stdin"])
    @pytest.mark.parametrize("cmd", ["eval", "rob", "monitor"])
    def test_undecodable_input_exits_two(self, cmd, source, tmp_path):
        # a byte that is not UTF-8 is bad input, not a violation; stdin
        # decodes strictly, as on a UTF-8 locale
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x\n1\n\xff\n")
        good = tmp_path / "good.csv"
        good.write_text("x\n1\n")
        formula = tmp_path / "formula.txt"
        formula.write_bytes(b"x > 0 \xff\n")
        argv = {"path": ["--formula", "x > 0", str(bad)],
                "formula-file": ["--formula-file", str(formula), str(good)],
                "stdin": ["--formula", "x > 0", "-"]}[source]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "PYTHONIOENCODING": "utf-8:strict"}
        proc = subprocess.run(
            [sys.executable, "-m", "ctstl.cli", cmd, *argv],
            input=bad.read_bytes(), capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: input is not UTF-8 text")
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd", ["monitor", "eval", "rob"])
    def test_late_undecodable_byte_names_its_line_after_the_good_rows(
            self, cmd, tmp_path):
        # the stream reads and decodes line by line, so monitor emits an
        # event for each of the 20,000 good rows first; the whole-file
        # reader decodes at once and finds the line only on failure
        path = tmp_path / "late.csv"
        path.write_bytes(b"x\n" + b"1\n" * 20_000 + b"\xff\n")
        argv = [cmd, "--formula", "x > 0", str(path)]
        code, out, err = run_cli(argv + ["--run-to-end"] * (cmd == "monitor"))
        assert code == 2
        assert err == ("error: input is not UTF-8 text at line 20,002 "
                       "(invalid start byte: b'\\xff')\n")
        assert len(out.splitlines()) == (20_000 if cmd == "monitor" else 0)
        # a bad row before it is still the error reported
        path.write_bytes(b"x\n1\nnan\n" + b"1\n" * 10 + b"\xff\n")
        code, out, err = run_cli(
            [cmd, "--formula", "G[0,3] (x > 0)", str(path)])
        assert code == 2 and err.startswith("error: line 3: ")

    def test_state_past_physical_memory_exits_two(self, monkeypatch):
        # the limit is the machine's physical memory; 1 MB stands in for
        # it, below the 1.6 MB that F[0,1e5]'s atom needs
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES", 2**20)
        code, out, err = run_cli(
            ["monitor", "--formula", "F[0,1e5] (x > 0)", "-"], "x\n1\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: out of memory: monitor state of ")

    @pytest.mark.parametrize("argv, usage, says", [
        (["gen", "glucose", "--over17", "5", "--out", "x.csv"],
         "usage: ctstl gen glucose ",
         re.escape("unrecognized arguments: --over17 5")),
        (["eval", "--formula", "x > 0", "f.csv", "--sweep"],
         "usage: ctstl eval ", re.escape("unrecognized arguments: --sweep")),
        # no sub-command of that name: the root refuses it; only the list
        # of choices that follows is worded by the Python version
        (["bench"], "usage: ctstl ",
         r"argument command: invalid choice: 'bench' \(choose from .*\)")],
        ids=["gen", "eval", "bench"])
    def test_refused_flag_shows_the_sub_commands_usage(self, argv, usage,
                                                       says, capsys):
        # argparse hands a sub-parser's unknown flags up to the root, whose
        # usage names no flag of the sub-command
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        prog = usage.removeprefix("usage: ").rstrip()
        assert err.startswith(usage) and err.endswith("\n")
        assert re.fullmatch(f"{re.escape(prog)}: error: {says}",
                            err.splitlines()[-1])

    @pytest.mark.parametrize("header, rows", [
        ("t,x", ["0,-1", "0.5,-1", "1,3", "1.5,-1"]),
        ("x", ["-1", "-1", "3", "-1"])])
    @pytest.mark.parametrize("cmd", [["eval"], ["rob", "--sweep"],
                                     ["monitor"]])
    def test_byte_order_mark_changes_nothing(self, cmd, header, rows,
                                             tmp_path):
        # Excel and many Windows tools start UTF-8 CSV with EF BB BF; read
        # as part of the first name, it hides a t column or renames x
        text = "\n".join([header, *rows]) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        f = [*cmd, "--formula", "F[0,1] (x > 0)"]
        want = run_cli([*f, str(plain)])
        assert want[0] in (0, 1) and want[2] == ""
        assert run_cli([*f, str(marked)]) == want

    @pytest.mark.parametrize("cmd", [["eval"], ["rob", "--sweep"],
                                     ["monitor"]])
    def test_byte_order_mark_in_a_formula_file_changes_nothing(self, cmd,
                                                              tmp_path):
        # the same tools start a formula file with the same mark
        plain, marked = tmp_path / "plain.stl", tmp_path / "marked.stl"
        plain.write_bytes(b"F[0,1] (x > 0)\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        text = "x\n-1\n-1\n3\n-1\n"
        want = run_cli([*cmd, "--formula-file", str(plain), "-"],
                       stdin_text=text)
        assert want[0] in (0, 1) and want[2] == ""
        assert run_cli([*cmd, "--formula-file", str(marked), "-"],
                       stdin_text=text) == want

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


@st.composite
def _gen_runs(draw):
    """A gen call with small, possibly negative, integer flags, or a length
    past any array, and whether it gives a negative seed or spread or
    such a length."""
    scenario, budgets = draw(st.sampled_from([
        ("overvoltage", ["over17", "over14", "over13", "overcap"]),
        ("glucose", ["hypo", "hyper"])]))
    argv = ["gen", scenario]
    refused = False
    for flag in ["length", "seed", "spread", *budgets]:
        # the length is always given: its default makes slow runs
        v = draw(st.integers(-3, 40) | st.sampled_from(_HUGE_LENGTHS)
                 if flag == "length" else st.none() | st.integers(-3, 40))
        if v is not None:
            argv.append(f"--{flag}={v}")
            refused |= (flag in ("seed", "spread") and v < 0
                        or v in _HUGE_LENGTHS)
    return argv, refused


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

    @given(_gen_runs())
    @settings(max_examples=150, deadline=None)
    def test_gen_keeps_the_exit_contract(self, run):
        argv, refused = run
        with tempfile.TemporaryDirectory() as tmp:
            # an exception escaping main() fails the test by itself
            code, _, err = run_cli(
                [*argv, "--out", os.path.join(tmp, "out.csv")])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if refused:
            assert code == 2 and err.startswith("error: ")


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


_CHUNK = sigfile._CHUNK_ROWS
_ROB_VALUES = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, 2.0 ** 53 + 2, -(2.0 ** 60), 1e300,
    5e-324, -2.2250738585072014e-308 / 3, 0.1, -7.0,
]) | st.floats()


class TestSweepOutput:
    @given(st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
           st.sampled_from([1.0, 0.5, 0.25, 0.1]),
           st.lists(_ROB_VALUES, min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_per_row_format(self, n, delta, pool, seed):
        # the chunked writer prints what one print per row printed, and
        # write_signal_csv what csv.writer wrote
        rho = np.random.default_rng(seed).choice(np.array(pool), n)
        want = ["t,rho"] + [f"{_fmt_num(i * delta)},{_fmt_num(float(r))}"
                            for i, r in enumerate(rho)]
        with mock.patch.object(cli, "robustness_trace",
                               lambda _f, _sig: rho):
            code, out, err = run_cli(
                ["rob", "--sweep", "--formula", "x > 0", f"--step={delta}",
                 "-"], stdin_text="x\n1\n")
        assert (code, err) == (0, "")
        got = out.split("\n")
        first_bad = next((i for i, (a, b) in enumerate(zip(got, want))
                          if a != b), None)
        assert first_bad is None, (got[first_bad], want[first_bad])
        assert got == [*want, ""]
        if np.isfinite(rho).all():
            sig = Signal(("x",), rho.reshape(-1, 1), delta)
            old = io.StringIO()
            wr = csv.writer(old)
            wr.writerow(("t", "x"))
            for i, r in enumerate(rho):
                wr.writerow([_fmt_num(i * delta), _fmt_num(r)])
            new = io.StringIO()
            write_signal_csv(new, sig, time_column=True)
            assert new.getvalue().split("\r\n") == \
                old.getvalue().split("\r\n")


@st.composite
def _runs(draw, pool, n: int) -> list[float]:
    """n values as runs of equal values from pool, each 1 to 4 long."""
    out: list[float] = []
    while len(out) < n:
        out += [draw(pool)] * draw(st.integers(1, 4))
    return out[:n]


class TestRunWriter:
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_runs_across_chunk_boundaries_print_as_each_row(self, chunk,
                                                            data):
        # the writer formats each run of equal values once per chunk; with
        # chunks of a few rows, runs cross every boundary.  Held to one
        # _fmt_num per cell, with and without a time column
        finite = data.draw(st.booleans())
        pool = _ROB_VALUES.filter(math.isfinite) if finite else _ROB_VALUES
        width = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(0, 4 * chunk + 2))
        values = np.array([data.draw(_runs(pool, n)) for _ in range(width)],
                          dtype=np.float64).T
        step = data.draw(st.sampled_from([1.0, 0.1, 300.0, 1e15]))
        timed = data.draw(st.booleans())
        want = [",".join([_fmt_num(i * step)] * timed
                         + [_fmt_num(v) for v in row])
                for i, row in enumerate(values.tolist())]
        with mock.patch.object(sigfile, "_CHUNK_ROWS", chunk):
            out = io.StringIO()
            sigfile.write_rows(out, values, step if timed else None)
            assert out.getvalue() == "".join(f"{row}\n" for row in want)
            if finite:
                names = ("a", "b", "c")[:width]
                out = io.StringIO()
                write_signal_csv(out, Signal(names, values, step), timed)
                head = ",".join(("t",) * timed + names)
                assert out.getvalue() == \
                    "".join(f"{row}\r\n" for row in [head, *want])


@pytest.mark.parametrize("cmd", [["rob", "--sweep"], ["rob", "--at", "0"],
                                 ["eval", "--at", "0"]],
                         ids=["rob-sweep", "rob-at", "eval-at"])
@pytest.mark.parametrize("formula, rows, says", [
    # the two C layers over x share one rank matrix in the rob sweeps; the
    # atom over y between them overflows at sample 1
    ("C[0,2]^1 (x > 0) && (1e308 * y > 0) && C[0,2]^2 (x < 1)",
     "1,1\n0,10\n2,1\n-1,1\n",
     "atom 1e+308*y > 0 has the non-finite margin inf at sample 1"),
    # the second member of a group overflows after the group's ranks
    ("C[0,2]^1 (x > 0) && C[0,2]^2 (1e308 * x < 1)",
     "1,1\n10,1\n2,1\n-1,1\n",
     "atom 1e+308*x < 1 has the non-finite margin -inf at sample 1"),
], ids=["between-layers", "in-a-layer"])
def test_an_overflowing_margin_is_named_as_without_shared_ranks(
        cmd, formula, rows, says):
    code, out, err = run_cli([*cmd, "--formula", formula, "-"],
                             stdin_text="x,y\n" + rows)
    assert (code, out, err) == (2, "", f"error: {says}\n")


def _output_digest(cmd: str, formula: str, work: Path) -> str:
    """sha256 of the exit code, stdout and ``--trace`` file of one run on
    a 400-row integer signal that passes through zero in both columns."""
    sig = work / "pinned.csv"
    sig.write_text("x,y\n" + "".join(
        f"{37 * t % 101 - 50},{53 * t % 97 - 48}\n" for t in range(400)),
        encoding="utf-8")
    trace = work / "pinned-trace.csv"
    argv = (["monitor", "--run-to-end", "--trace", str(trace)]
            if cmd == "monitor" else ["rob", "--sweep"])
    code, out, _ = run_cli([*argv, "--formula", formula, str(sig)])
    digest = hashlib.sha256(f"{code}\n{out}".encode())
    if cmd == "monitor":
        digest.update(trace.read_bytes())
    return digest.hexdigest()


# Monitor formulas stay open for 200 samples or more, so the suffix push
# runs past each window; together they cover both rank orientations, the
# rescan mode, Until, negation and zero margins of every comparator (each
# gives 0.0 at x = 0).
_PINNED = [
    ("monitor", "G[0,300] !C[0,10]^9 (F[0,3] (x > 45))",
     "be28e8e2f1e12b36755b6684f1a220c9ab66c4343f94c1dd31d7794e181dee09"),
    ("monitor", "G[0,300] C[0,20]^3 (x > 20)",
     "5c935668e9429fb2a38ac8d07ed6dfd104fe2f3ad27b58e2cd9ed2c7b7233758"),
    ("monitor", "G[0,300] C[0,40]^35 (y > -44)",
     "b166d886de3a35db8cf69fcec9d73af76c2594d98416e529f746174bec5b8a05"),
    ("monitor", "F[0,300] C[0,40]^36 (x > 0)",
     "2dea892c360413823c4a2883bc5f9b968d49fa37fc109c9c68b48b8230bb47cd"),
    ("monitor", "F[0,300] !C[0,25]^5 (x < 0)",
     "4af68ec59b98fafe18bb2bb54fe08d5e0f4837aa647f32b0a697caad9aff4658"),
    ("monitor", "G[0,250] C[0,50]^5 ((x > 0) || (y < 0))",
     "82bffa6d10bf5e27a1ebd4180d2d5e8fe3a281aea0c48bc294e2f7dcf789089e"),
    ("monitor", "G[0,250] (C[0,10]^2 (F[0,4] (y > 40)) || x > -50)",
     "0a2458acb4c887a8a65441408fbb02f503c5ce7e8faf5839ae4c778bda6033d1"),
    ("monitor", "G[0,200] ((x > -49) U[0,20] C[0,30]^28 (y < 45))",
     "1ca5bd3a21d08a37e6c70fec9ca0635301f5a3bd797f9869cfab69d9368b0306"),
    ("monitor", "F[0,250] (C[0,60]^50.5 (x >= 0) && C[0,60]^12 (y <= 0))",
     "c0a1a1e3da533aadb54ab3907a2fc34e2bd124131120b05825c4d738617363c6"),
    ("monitor", "G[0,300] (C[0,30]^26 (y < 46) || C[0,12]^12 (x >= 0))",
     "a28ae963dcb5c43043de9376e1ba6bf1bec67771adb8331685fd2b3db9858728"),
    ("monitor", "F[0,300] (C[0,30]^29 (x <= 48) && !C[0,30]^3 (y >= 0))",
     "29f9fe43941113780de3192fec69b440d2f3eaa22b14423cdf3997c847be9f7b"),
    ("rob", "C[0,20]^15 (x > 0)",
     "ca33dc8099d978054b7e6911f0bac668f395c4aa19d281e445ba76a60a06c871"),
    ("rob", "C[0,20]^4.5 (x > 0)",
     "dbd582ff6be7a761eec220bcbb70b747d7a7aaa082726ee911cb310027f8f458"),
    ("rob", "G[0,10] C[0,30]^25 (x >= -10)",
     "99eca65ca3146108943eeba349a4b55325caefb9872a85f316ea0abbec18c844"),
    ("rob", "F[0,5] G[0,8] (x > 0)",
     "66f6914e891eb37e5d3deb53d08c068cab9d0cca9908ecbb9d3941c0e545cf0e"),
    ("rob", "C[0,10]^6 (F[0,3] (x > 0))",
     "0c12ed5a0b520b72ed35f6585141c0829bff17c514e9c99d1ca0e4946ec9f5f9"),
    ("rob", "(x > 0) U[1,7] (y < 10)",
     "d78b0be62a9922c3867603ff6a25c8efe4f3bca100a6f383624d30933375be4e"),
    ("rob", "!C[0,15]^8 (x < 0)",
     "25328ea573c47baf4e060296028858371620711fb3af426b90fae39cebd245eb"),
    ("rob", "C[0,12]^7 ((x > 0) || (y < 0))",
     "cc971b856e7b21e41b4cba1c23dda12fd588dbf72f75280ab61624cfceacec8d"),
    ("rob", "G[0,20] (!(x > 0) && C[2,9]^3 (y <= 5))",
     "4e2d19956f19ac7b82e6514666a22fa3fff5213778b7501177cee47487d77c65"),
    ("rob", "C[0,40]^30 (x >= 0) && C[0,40]^10 (y <= 0)",
     "82cdcbc64ce9d070c7af232e79623283054168547c8bfce2f5f554ea821cf281"),
]


@pytest.mark.parametrize("cmd,formula,digest", _PINNED)
def test_output_bytes_are_pinned(cmd, formula, digest, tmp_path):
    # recorded from the hull-walking suffix push and the text-mode signal
    # readers: a faster walk or another reader must print the same bytes
    assert _output_digest(cmd, formula, tmp_path) == digest


@pytest.mark.parametrize("formula,digest", [
    ("G[0,1100] (F[0,1] (x < 0))",
     "903d363d04aa58ddc1913f1ad7565e12e77ccb7c8b52feb9d4ffdf410c3b9d5c"),
    ("F[0,1100] (G[0,1] (x > 0))",
     "723f77c4b26783cc40a5300f22a055ff9f4bcbf4d4e2e0de588e9bddebac21da"),
])
def test_output_past_the_first_capacity_is_pinned(formula, digest, tmp_path):
    # the outer window reads past its child's arrays until they grow at
    # sample 1,024; under x=0:2 a zero sample's margin, 0.0, ties with the
    # 0.0 end of the child's initial entry.  Recorded from the monitor that
    # allocated every node's whole range before sample 0.
    assert monitor._FIRST_CAPACITY == 1024
    sig = tmp_path / "zeros.csv"
    sig.write_text("x\n" + "0\n" * 1030, encoding="utf-8")
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(["monitor", "--run-to-end", "--trace", str(trace),
                            "--bounds", "x=0:2", "--formula", formula,
                            str(sig)])
    got = hashlib.sha256(f"{code}\n{out}".encode())
    got.update(trace.read_bytes())
    assert got.hexdigest() == digest


@pytest.mark.parametrize("bounds,digest", [
    ([], "00664eeb51456d9c32c1e2d5beb678873c203f38f6fcd26f1416eb61ac5c74ba"),
    (["--bounds", "v=0:2"], "7149c0d66c7bf200107a483f0f99035b388a6faa367787a0117b04a52b94a28c"),
], ids=["unbounded", "bounded"])
def test_paper_scale_stream_bytes_are_pinned(bounds, digest, tmp_path):
    # TestWalkBudget's W=10,000 phi5 stream, to its verdict at sample 100;
    # every sample lies in 0..2.  Recorded from the monitor that built a
    # new verdict and event dataclass on every push.
    window, s = 10_000, 100
    head, _ = overvoltage_trace(s, 0, over17=17, spread=s)
    tail, _ = overvoltage_trace(2 * window + 1 - s, 1, over17=1, spread=1)
    rows = np.vstack([head.values, tail.values[:1]])
    assert 0 <= rows.min() and rows.max() <= 2
    sig = tmp_path / "paper.csv"
    with open(sig, "w", encoding="utf-8", newline="") as fh:
        write_signal_csv(fh, Signal(("v",), rows))
    code, out, _ = run_cli(["monitor", *bounds, "--formula",
                            overvoltage_formulas(window=window)["phi5"],
                            str(sig)])
    assert (code, len(out.splitlines())) == (1, s + 1)
    got = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == digest


# x >= 0 and x <= 0 both give 0.0 at x = 0, so under x=0:1 a root bound
# stays at zero across pushes; it prints as 0.0
ZERO_SIGN_FORMULA = \
    "(x <= 0) || G[0,8] (x >= 0.5) || F[0,8] ((x >= 0) && (x <= 0))"
ZERO_SIGN_ROWS = [1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("formula,rows,digest", [
    (ZERO_SIGN_FORMULA, ZERO_SIGN_ROWS, "17a2b8b0e34565c8678e4ffd5ce87b11d39ae71523a71fef708279bae2e148ff"),
    ("F[0,6] ((x >= 0) && (x <= 0)) || G[0,6] ((x >= 0) && (x <= 0))",
     [0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0], "7d9dc6c75f51392958f6d907eac2a62e2bfd7d6a9bc4c974bb02fd96fdc54b9f"),
])
def test_zero_sign_of_the_root_is_pinned(formula, rows, digest):
    # every zero bound prints as 0.0, the one zero the monitor holds:
    # recorded from the monitor that built a new verdict on every push,
    # with each -0.0 of its lines read as 0.0
    code, out, _ = run_cli(
        ["monitor", "--run-to-end", "--bounds", "x=0:1", "--formula",
         formula, "-"], stdin_text="x\n" + "".join(f"{x}\n" for x in rows))
    zeros = {line.split(", ")[2] for line in out.splitlines()}
    assert '"ub": 0.0' in zeros and "-0.0" not in out
    got = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("formula,bounds,rows,kinds", [
    (ZERO_SIGN_FORMULA, {"x": (0, 1)}, ZERO_SIGN_ROWS, {"kept", "kept zero"}),
    ("G[0,30] (x > -5)", {}, [1] * 40 + [-9] * 5, {"kept", "decided"}),
], ids=["zero sign", "kept and decided"])
def test_reused_event_lines_print_the_pushed_verdict(formula, bounds, rows,
                                                     kinds):
    # the CLI renders a line only for a new verdict and reuses it, under
    # the row's own index, while push_sample returns the same verdict:
    # while the root stays open and equal, a zero one included, and after
    # the decision.  No bound prints as -0.0.
    argv = [f"--bounds={n}={lo}:{hi}" for n, (lo, hi) in bounds.items()]
    _, out, _ = run_cli(["monitor", "--run-to-end", *argv, "--formula",
                         formula, "-"],
                        stdin_text="x\n" + "".join(f"{x}\n" for x in rows))
    mon = monitor.MonitorState(parse(formula), ("x",), bounds=bounds)
    want, seen, last = [], set(), None
    for i, x in enumerate(rows):
        v = mon.push_sample([x])
        want.append(sigfile.MonitorEvent(i, v.rosi.lb, v.rosi.ub, v.outcome,
                                         v.decided).to_json())
        if v is last:
            seen.add("decided" if v.decided else "kept zero"
                     if 0 in (v.rosi.lb, v.rosi.ub) else "kept")
        else:
            assert last is None or v.rosi != last.rosi
        last = v
    assert seen == kinds
    assert out.splitlines() == want
    assert "-0.0" not in out


# a row's margin of (x > 0) || (y < 0): 0,1 and -1,0 both give 0.0, so
# the rank walks' seeds tie zeros
_ZERO_WALK_CELLS = ["0,1", "-1,0", "0,1", "-1,0", "1,1", "-1,0", "0,1",
                    "-1,1"]
_ZERO_WALK_ROWS = [_ZERO_WALK_CELLS[(t * t + 3 * t) % 11 % 8]
                   for t in range(60)]


@pytest.mark.parametrize("formula,path,digest", [
    ("C[0,23]^17 ((x > 0) || (y < 0))", "B alone",
     "78be4ab4d67ac938227b4459f309c9b8c1de416fdcf9c355e9c785c0fbf2611a"),
    ("C[0,28]^6 ((x > 0) || (y < 0))", "flipped",
     "101a822ded57b3cdca9853a22f5ace011e86ce397ef42fccf4ecb207ee5c465a"),
    ("F[0,6] C[0,33]^11 ((x > 0) || (y < 0))", "seed past cap",
     "176fee8ff7fc45225972becbea12a67b9a18898839a7e2504e1d288cd9a7bbf0"),
])
def test_zero_signs_through_the_suffix_walk_are_pinned(
        formula, path, digest, tmp_path, monkeypatch):
    # recorded from the suffix push that walked numpy slices and found its
    # runs in a helper of its own, with each -0.0 of its event lines read
    # as 0.0 (its trace rows print both zeros as 0); every zero the walk
    # holds is 0.0 now.  Each case takes the path it names: a
    # walk with no anchor at rank k, a rank below (w+1)/2, and a seed of
    # more than cap values, which goes through np.partition
    seen = set()
    push = monitor._suffix_push

    def spy(node, c, lo, hi):
        w, k = node.b - node.a + 1, node.k
        if 2 * k < w + 1:
            seen.add("flipped")
        k = max(k, w - k + 1)
        if c - node.a - hi > w - k + 1:
            seen.add("seed past cap")
        if c - node.a - lo + 1 < k:
            seen.add("B alone")
        push(node, c, lo, hi)

    monkeypatch.setattr(monitor, "_suffix_push", spy)
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        ["monitor", "--run-to-end", "--trace", str(trace), "--bounds",
         "x=-1:1", "--formula", formula, "-"],
        stdin_text="x,y\n" + "".join(f"{r}\n" for r in _ZERO_WALK_ROWS))
    assert path in seen
    bounds = {f.split(": ")[1] for line in out.splitlines()
              for f in line.split(", ")[1:3]}
    assert "0.0" in bounds and "-0.0" not in bounds
    got = hashlib.sha256(f"{code}\n{out}".encode())
    got.update(trace.read_bytes())
    assert got.hexdigest() == digest


def _exit_on_stdin(argv, stdin=subprocess.PIPE):
    """Exit code and stderr of a CLI child reading the signal from stdin,
    which is an open pipe that sends no byte, or ``subprocess.DEVNULL``;
    the child must exit within 30 s."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctstl.cli", *argv, "-"], stdin=stdin,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        code = proc.wait(timeout=30)
        err = proc.stderr.read()
    finally:
        proc.kill()
        for fh in (proc.stdin, proc.stdout, proc.stderr):
            if fh is not None:
                fh.close()
    return code, err


@pytest.mark.parametrize("cmd", ["eval", "rob", "monitor"])
def test_bad_formula_fails_before_the_signal_is_read(cmd):
    # stdin stays open and no byte arrives: the parse error must not wait
    # for the signal
    code, err = _exit_on_stdin([cmd, "--formula", "F[0,"])
    assert code == 2
    assert err.startswith("error: unexpected end of input at offset 4")


@pytest.mark.parametrize("stdin", [subprocess.PIPE, subprocess.DEVNULL],
                         ids=["silent", "empty"])
@pytest.mark.parametrize("argv, message", [
    (["monitor", "--bounds", "garbage"],
     "bad --bounds 'garbage', expected name=lo:hi"),
    (["monitor", "--bounds", "x=2:1"],
     "bounds x=2.0:1.0 need lo <= hi and a finite value between them"),
    (["monitor", "--step", "0"], "step must be positive and finite, got 0.0"),
    (["eval", "--step", "0"], "step must be positive and finite, got 0.0"),
    (["rob", "--step", "-1"], "step must be positive and finite, got -1.0"),
])
def test_bad_flags_fail_before_the_signal_is_read(argv, message, stdin):
    # a silent stdin must not hold the flag's error back, nor an empty one
    # put a signal error in its place
    code, err = _exit_on_stdin([*argv, "--formula", "x > 0"], stdin)
    assert (code, err) == (2, f"error: {message}\n")


def test_entry_point_freezes_import_time_objects():
    # `python -m ctstl.cli` keeps what its imports left out of later
    # garbage collections; main(), which tests call in process, does not
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['ctstl', 'eval', '--formula', 'x > 0', '-']\n"
            "try:\n"
            "    runpy.run_module('ctstl.cli', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(gc.get_freeze_count())\n")
    proc = subprocess.run([sys.executable, "-c", code], input="x\n1\n",
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "true"
    assert int(proc.stdout.splitlines()[1]) > 0
    before = gc.get_freeze_count()
    assert run_cli(["eval", "--formula", "x > 0", "-"],
                   stdin_text="x\n1\n")[:2] == (0, "true\n")
    assert gc.get_freeze_count() == before


def test_entry_point_imports_with_the_collector_off():
    # `python -m ctstl.cli` runs no collection between its first import and
    # main()'s definition, and turns the collector back on before main()
    # runs; a plain import leaves the collector alone
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import gc, json, runpy, sys\n"
            "during = []\n"
            "def note(phase, info):\n"
            "    if (phase == 'start' and 'ctstl.errors' in sys.modules\n"
            "            and not hasattr(sys.modules['__main__'], 'main')):\n"
            "        during.append(info['generation'])\n"
            "sys.argv = ['ctstl', 'eval', '--formula', 'x > 0', '-']\n"
            "gc.callbacks.append(note)\n"
            "try:\n"
            "    runpy.run_module('ctstl.cli', run_name='__main__',\n"
            "                     alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(json.dumps([code, during, gc.isenabled(),\n"
            "                  gc.get_freeze_count() > 0]))\n")
    proc = subprocess.run([sys.executable, "-c", code], input="x\n1\n",
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "true"
    assert json.loads(proc.stdout.splitlines()[1]) == [0, [], True, True]
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, ctstl.cli\n"
         "print(gc.isenabled(), gc.get_freeze_count())\n"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "True 0\n"), proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the child's VmHWM from /proc")
def test_monitor_memory_follows_the_stream_not_the_horizon():
    # both decide at sample 0; F[0,1e7]'s atom has 10,000,001 anchors, of
    # which the arrays hold the first capacity until samples arrive
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys\n"
            "from ctstl.cli import main\n"
            "code = main(['monitor', '--formula', sys.argv[1], '-'])\n"
            "with open('/proc/self/status', encoding='ascii') as fh:\n"
            "    peak = [ln for ln in fh if ln.startswith('VmHWM:')]\n"
            "print(code, peak[0].split()[1])\n")
    peaks = []
    for formula in ("F[0,10] (x > 0)", "F[0,1e7] (x > 0)"):
        proc = subprocess.run([sys.executable, "-c", code, formula],
                              input="x\n1\n", capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code_, kib = proc.stdout.splitlines()[-1].split()
        assert code_ == "0"
        peaks.append(int(kib))
    assert peaks[1] - peaks[0] <= 5 * 1024, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the child's VmHWM from /proc")
def test_decided_monitor_keeps_no_rows():
    # G[0,1e6] is decided at sample 0; --run-to-end checks and prints the
    # other 299,999 rows, but nothing reads them, so none is kept
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import os, sys\n"
            "from ctstl.cli import main\n"
            "sys.stdout = open(os.devnull, 'w', encoding='utf-8')\n"
            "code = main(['monitor', '--run-to-end', '--formula',\n"
            "             'G[0,1000000] (x > 0)', '-'])\n"
            "sys.stdout.close()\n"
            "with open('/proc/self/status', encoding='ascii') as fh:\n"
            "    peak = [ln for ln in fh if ln.startswith('VmHWM:')]\n"
            "print(code, peak[0].split()[1], file=sys.__stdout__)\n")
    peaks = []
    for rows in (10, 300_000):
        proc = subprocess.run([sys.executable, "-c", code],
                              input="x\n" + "-1\n" * rows,
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        code_, kib = proc.stdout.split()
        assert code_ == "1"
        peaks.append(int(kib))
    assert peaks[1] - peaks[0] <= 5 * 1024, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the child's VmHWM from /proc")
def test_monitor_state_is_what_the_build_check_counts():
    # G[0,N] over N+1 rows decides True at the last one.  Every sample
    # reaches anchor 0, and the state check counts 16 bytes for each of
    # the atom's N+1 anchors, whose arrays a growth step may size and hold
    # at up to twice that; a kept copy of the rows would add some 76 bytes
    # a sample
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys\n"
            "from ctstl.cli import main\n"
            "code = main(['monitor', '--formula', sys.argv[1], '-'])\n"
            "with open('/proc/self/status', encoding='ascii') as fh:\n"
            "    peak = [ln for ln in fh if ln.startswith('VmHWM:')]\n"
            "print(code, peak[0].split()[1])\n")
    rng = np.random.default_rng(34)
    peaks = []
    for n in (20_000, 300_000):
        rows = "".join(f"{v!r}\n" for v in rng.uniform(1, 2, n + 1).tolist())
        proc = subprocess.run(
            [sys.executable, "-c", code, f"G[0,{n}] (x > 0)"],
            input="x\n" + rows, capture_output=True, text=True, env=env,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        last = json.loads(lines[-2])
        assert (last["i"], last["verdict"]) == (n, True), lines[-2]
        code_, kib = lines[-1].split()
        assert code_ == "0"
        peaks.append(int(kib))
    assert (peaks[1] - peaks[0]) * 1024 <= 2 * 16 * (n + 2) + 5 * 2**20, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the child's VmHWM from /proc")
def test_whole_file_reader_holds_no_text_of_every_row(tmp_path):
    # a read-only rob child over 300,001 generated rows against one over
    # their first row: the file's bytes and its float64 values may each be
    # held, and briefly copied, but not a Python string per cell
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": "0"}
    code = ("import sys\n"
            "from ctstl.cli import main\n"
            "code = main(['rob', '--formula', 'x > 0', sys.argv[1]])\n"
            "with open('/proc/self/status', encoding='ascii') as fh:\n"
            "    peak = [ln for ln in fh if ln.startswith('VmHWM:')]\n"
            "print(code, peak[0].split()[1])\n")
    big, one = tmp_path / "big.csv", tmp_path / "one.csv"
    assert main(["gen", "glucose", "--length", "300001", "--out",
                 str(big)]) == 0
    one.write_text("".join(big.read_text().splitlines(True)[:2]))
    peaks = []
    for path in (one, big):
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        code_, kib = proc.stdout.splitlines()[-1].split()
        assert code_ == "0"
        peaks.append(int(kib))
    limit = 2 * big.stat().st_size + 5 * 2**20
    assert (peaks[1] - peaks[0]) * 1024 <= limit, peaks


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


@pytest.mark.parametrize("cmd", ["eval", "rob", "monitor"])
@pytest.mark.parametrize("text,verdict", [("x\n-1\n-1\n-1\n", (1, "false\n")),
                                          ("x\n-1\n2\n-1\n", (0, "true\n"))],
                         ids=["false", "true"])
def test_tiny_tau_counts_as_one_sample(cmd, text, verdict):
    # a positive tau within the snap slack of 0 is rank 1, so C is F
    assert validate(parse("C[0,2]^1e-12 (x > 0)"), ("x",)).order == 1
    got = run_cli([cmd, "--formula", "C[0,2]^1e-12 (x > 0)", "-"], text)
    want = run_cli([cmd, "--formula", "F[0,2] (x > 0)", "-"], text)
    assert got == want
    assert "Traceback" not in got[2]
    if cmd == "eval":
        assert got[:2] == verdict


def test_cli_opens_no_file_without_an_encoding(fig4_file, tmp_path):
    # an open() without encoding= reads or writes in the locale's codec;
    # under warn_default_encoding it warns, and here the warning is fatal
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ff = tmp_path / "f.txt"
    ff.write_text("C[1,5]^3 (x > 0)\n", encoding="utf-8")
    calls = [
        (["gen", "overvoltage", "--length", "50", "--out",
          str(tmp_path / "gen.csv")], None),
        (["eval", "--formula", FIG4_FORMULA, fig4_file], None),
        (["rob", "--sweep", "--formula", FIG4_FORMULA, fig4_file], None),
        (["monitor", "--formula", FIG4_FORMULA, "--trace",
          str(tmp_path / "nodes.csv"), fig4_file], None),
        (["rob", "--formula-file", str(ff), fig4_file], None),
        (["monitor", "--formula", FIG4_FORMULA, "-"], FIG4_CSV),
    ]
    for argv, text in calls:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "ctstl.cli", *argv],
            input=text, capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


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

    @pytest.mark.parametrize("argv", [
        ["gen", "glucose", "--over17", "5"],
        ["gen", "overvoltage", "--hypo", "3"],
        ["gen", "glucose", "--overcap", "1"]])
    def test_another_scenarios_budget_is_refused(self, argv, tmp_path):
        # another scenario's budget would embed nothing
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_infeasible_budget_exit_two(self, tmp_path):
        code, _, err = run_cli(
            ["gen", "overvoltage", "--length", "10", "--over17", "40",
             "--out", str(tmp_path / "x.csv")])
        assert code == 2 and "error" in err


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


# a quoted field may hold a line break: the record "2\n" spans lines 3 and 4,
# so each later row is on the line after its record's count
@pytest.mark.parametrize("text, says", [
    ('x\n1\n"2\n"\n3\na\n', "line 6: bad number 'a'\n"),
    ('x\n1\n"2\n"\n3\n4,5\n', "line 6: expected 1 columns, got 2\n"),
    ('t,x\n0,1\n1,"2\n"\n2,3\n4,5\n',
     "line 6: time column not uniformly spaced: 2.0 apart, the step is "
     "1.0\n")], ids=["bad-number", "arity", "spacing"])
@pytest.mark.parametrize("cmd", [["monitor"], ["eval"], ["rob"],
                                 ["rob", "--sweep"]])
def test_a_row_error_after_a_multi_line_record_names_its_physical_line(
        cmd, text, says, tmp_path):
    path = tmp_path / "signal.csv"
    path.write_bytes(text.encode())
    for source, stdin in ((str(path), None), ("-", text)):
        code, out, err = run_cli(
            [*cmd, "--formula", "G[0,10] (x > 0)", source], stdin)
        assert (code, err) == (2, f"error: {says}")
        # monitor emits the three good rows' events first
        assert len(out.splitlines()) == (3 if cmd == ["monitor"] else 0)


@pytest.mark.parametrize("cmd", [["monitor"], ["eval"], ["rob"],
                                 ["rob", "--sweep"]])
def test_a_bad_byte_in_a_formula_file_names_its_line(cmd, tmp_path):
    path = tmp_path / "formula.stl"
    path.write_bytes(b"G[0,1]\n(x > \xff0)\n")
    code, out, err = run_cli([*cmd, "--formula-file", str(path), "-"],
                             "x\n1\n2\n")
    assert (code, out) == (2, "")
    assert err == ("error: input is not UTF-8 text at line 2 "
                   "(invalid start byte: b'\\xff')\n")


def test_formula_file_line_ends_count_as_one_character(tmp_path):
    # a parse error's offset counts each line end as text mode reads it,
    # one character, whether the file ends its lines in \n, \r\n or \r
    path = tmp_path / "formula.stl"
    got = []
    for end in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(b"x > 0" + end + b"&& @" + end)
        got.append(run_cli(["eval", "--formula-file", str(path), "-"],
                           "x\n1\n"))
    assert got[0] == (2, "", "error: unexpected character '@' at offset 9\n")
    assert got[1] == got[0] and got[2] == got[0]
