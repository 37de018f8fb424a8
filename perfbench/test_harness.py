"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload once per mode, in process, with the input sizes
patched down to ``TINY``, and checks that every metric named in
BENCHMARK.json and README.md is emitted, that no check failed, and that
the checker counts a deliberately wrong expectation as a failure.  The
``ctstl`` children are real subprocesses, as in a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, GlucoseCohort, Scale  # noqa: E402

# the same formulas and window widths as a full run, on small inputs
TINY = Scale(ov_decide=20, ov_sweep_len=20_001, gl_sweep_len=400,
             eval_window=200, probes=1, oracle_anchors=2)

NAMED_EXTRAS = {
    "glucose-cohort": {"push_p50_ms", "push_p99_ms", "error_rate"},
    "overvoltage-w10k": {"push_p50_ms", "error_rate"},
    "offline-sweep": {"sweep_anchors_per_s", "eval_s", "error_rate"},
}


def _run_all(trace: int, monkeypatch, capsys) -> list[str]:
    monkeypatch.setattr(workloads, "SCALE", TINY)
    assert run.main(["--workload", "all", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return capsys.readouterr().out.splitlines()


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # glucose-cohort runs by hand and under --workload all, not in the
    # benchmark's own list (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [
        "overvoltage-w10k", "offline-sweep"]
    assert set(WORKLOADS) == {"glucose-cohort", "overvoltage-w10k",
                              "offline-sweep"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_without_errors(trace, monkeypatch,
                                                capsys):
    lines = _run_all(trace, monkeypatch, capsys)
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == {
        f"{w}/{m}" for w in WORKLOADS for m in names}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    extras = [json.loads(line[len("extra "):]) for line in lines
              if line.startswith("extra ")]
    assert [e["workload"] for e in extras] == list(WORKLOADS)
    for e in extras:
        assert e["error_rate"] == 0
        assert set(e["env"]) == {"nproc", "python", "numpy", "numba",
                                 "backend"}
        if not trace:
            assert NAMED_EXTRAS[e["workload"]] <= set(e)
            assert {"reference_ms", "wall.setup_s",
                    "wall.time_to_verdict_s", "wall.samples_per_s"} <= set(e)
    if trace:
        m = result["metrics"]
        assert m["glucose-cohort/monitor.pushes"]["value"] > 0
        assert m["overvoltage-w10k/monitor.open_entries"]["value"] > 0
        assert m["offline-sweep/windows.kth.w10001_anchors"]["value"] > 0
        assert m["offline-sweep/windows.until.b36_anchors"]["value"] > 0
        assert m["offline-sweep/semantics.satisfies_calls"]["value"] == 1


def test_checker_counts_a_flipped_expectation(tmp_path):
    wl = GlucoseCohort(0, TINY, tmp_path)
    wl.prepare()
    good = wl.run(0, None)
    flipped = wl.run(0, None)
    flipped.expect = not flipped.expect
    assert run.tally(wl, [good])[:2] == (1, 0)
    attempted, failed, failures = run.tally(wl, [good, flipped])
    assert (attempted, failed) == (2, 1)
    assert "expected" in failures[0][0]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
