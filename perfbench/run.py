"""ctstl benchmark: the paper's case studies through the real CLI.

    python3 perfbench/run.py --workload glucose-cohort --seed 0 \\
        --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Every operation is one ``ctstl`` CLI child (``src`` on the path), run one
at a time.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs rounds of the same operations untraced and traced in
turn, and reports per-layer self times from spans taken around each
module's public functions (see ``traced_cli.py``).  The timed end-to-end
metrics are scaled to reference speed (see ``REFERENCE_S``).
Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from children import ROOT, clock, reference_s, run_call

# Seed 0 is the default.  Seed 977 is held out: never run it while a
# change is being written, only to confirm a claimed gain afterwards.
DEFAULT_SEED = 0
HELD_OUT_SEED = 977

END_TO_END = {
    "setup_s": "s",
    "time_to_verdict_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# The timed metrics are reported at reference speed: each run scales its
# wall times by REFERENCE_S / (median time of the reference loop in that
# run), so that the host's changing speed cancels out.  0.0125 s is the
# loop's time in the fast state of the 2-vCPU Xeon VM the benchmark was
# tuned on.
REFERENCE_S = 0.0125
# Workload-specific metrics, printed but not gated, because the
# result line must carry the same metrics for every workload.
EXTRA_UNITS = {
    "push_p50_ms": "ms", "push_p99_ms": "ms", "pushes": "count",
    "rounds": "count", "sweep_anchors_per_s": "1/s", "eval_s": "s",
    "error_rate": "share", "reference_ms": "ms", **END_TO_END,
}

KTH_WIDTHS = (10_001, 289)
EXTREMUM_WIDTHS = (10_001, 289, 37)
UNTIL_BOUNDS = (36,)
# span name -> metric of its self time
SPAN_TIMES = {
    "syntax.parse": "syntax.parse_s",
    "logic.validate": "logic.validate_s",
    "monitor.init": "monitor.init_s",
    "monitor.push": "monitor.push_s",
    "monitor.finalize": "monitor.finalize_s",
    "sigfile.stream_row": "sigfile.stream_row_s",
    "sigfile.event_json": "sigfile.event_json_s",
    "cli.main": "cli.self_s",
    "sigfile.read": "sigfile.read_s",
    "signals.margin": "signals.margin_s",
    **{f"windows.kth.w{w}": f"windows.kth.w{w}_s" for w in KTH_WIDTHS},
    **{f"windows.extremum.w{w}": f"windows.extremum.w{w}_s"
       for w in EXTREMUM_WIDTHS},
    **{f"windows.until.b{b}": f"windows.until.b{b}_s" for b in UNTIL_BOUNDS},
    "semantics.sweep": "semantics.sweep_self_s",
    "semantics.satisfies": "semantics.satisfies_s",
}
PER_LAYER = {
    **{m: "s" for m in SPAN_TIMES.values()},
    "monitor.pushes": "count",
    "monitor.open_entries": "count",
    "monitor.unbounded_share": "share",
    "sigfile.read_rows": "count",
    **{f"windows.kth.w{w}_{c}": "count" for w in KTH_WIDTHS
       for c in ("anchors", "cells")},
    **{f"windows.extremum.w{w}_anchors": "count" for w in EXTREMUM_WIDTHS},
    **{f"windows.until.b{b}_anchors": "count" for b in UNTIL_BOUNDS},
    "semantics.satisfies_calls": "count",
    "tracing.overhead_s": "s",
    "tracing.coverage_share": "share",
}


def environment() -> dict:
    """Stamp for every result; never compare results across backends."""
    import numpy
    from ctstl._accel import HAVE_NUMBA, resolve_backend
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": HAVE_NUMBA,
            "backend": resolve_backend()}


def measure(wl, seconds: float, before_round) -> tuple[list, list]:
    """Run whole untraced rounds until `seconds` have passed, with a
    reference-loop sample before every operation; returns (ops, samples)."""
    ops, refs, t0 = [], [], clock()
    while True:
        before_round()
        for _ in range(wl.round_size):
            refs.append(reference_s())
            ops.append(wl.run(len(ops), None))
        if clock() - t0 >= seconds:
            refs.append(reference_s())
            return ops, refs


def paired_rounds(wl, seconds: float) -> tuple[list, list]:
    """Untraced and traced rounds of the same operations, one of each in
    turn until `seconds` have passed, so that both halves see the same
    machine state; returns (untraced ops, traced ops)."""
    spans_dir = wl.work / "spans"
    spans_dir.mkdir()
    plain, traced, t0 = [], [], clock()
    while True:
        for _ in range(wl.round_size):
            plain.append(wl.run(len(plain), None))
        for _ in range(wl.round_size):
            i = len(traced)
            traced.append(wl.run(i, spans_dir / f"{i}.json"))
        if clock() - t0 >= seconds:
            return plain, traced


def setup_probe(wl) -> tuple[float, list[str]]:
    """Fresh monitor children on header-only streams (exit 3 expected),
    one per formula of the workload; returns their summed wall time."""
    total, bad = 0.0, []
    for formula, var in wl.setup_formulas:
        call = run_call(["monitor", "--formula", formula, "-"],
                        stdin=var + "\n")
        total += call.wall_s
        if call.code != 3 or call.err.strip():
            bad.append(f"set-up probe: exit code {call.code}, "
                       f"stderr {call.err.strip()[-200:]!r}")
    return total, bad


def layer_metrics(spans_files: list[Path]) -> tuple[dict, float]:
    """Self time per layer and work counts; also the time covered by the
    ``cli.main`` spans, less the tracer's own spans inside them."""
    out = {m: 0.0 if u == "s" else 0 for m, u in PER_LAYER.items()}
    opened, unbounded, covered = [], 0, 0.0
    for path in spans_files:
        with open(path, encoding="utf-8") as fh:
            dump = json.load(fh)
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, work), inner in zip(spans, child_time):
            if name in SPAN_TIMES:
                out[SPAN_TIMES[name]] += end - start - inner
            if name == "cli.main":
                covered += end - start
            elif name == "tracing.count_open":
                covered -= end - start
            elif name == "monitor.push":
                out["monitor.pushes"] += 1
            elif name == "sigfile.read":
                out["sigfile.read_rows"] += work
            elif name == "semantics.satisfies":
                out["semantics.satisfies_calls"] += 1
            elif name.startswith("windows.") and f"{name}_anchors" in out:
                out[f"{name}_anchors"] += work
                if name.startswith("windows.kth."):
                    out[f"{name}_cells"] += work * int(name.rsplit("w", 1)[1])
        for o, u in dump["verdict_entries"]:
            opened.append(o)
            unbounded += u
    if opened:
        out["monitor.open_entries"] = statistics.median(opened)
        out["monitor.unbounded_share"] = unbounded / max(sum(opened), 1)
    return out, covered


def tally(wl, ops, probe_failures=()) -> tuple[int, int, list[list[str]]]:
    """Check every operation after the timed loop: (attempted, failed,
    the failure messages of each failed operation)."""
    failures = [*probe_failures, *(wl.check(op) for op in ops)]
    bad = [f for f in failures if f]
    return len(failures), len(bad), bad


def run_workload(wl, seconds: float, trace: bool) -> dict:
    wl.prepare()
    failures: list[list[str]] = []
    extra: dict = {}
    if trace:
        plain, traced = paired_rounds(wl, seconds)
        ops = plain + traced
        metrics, covered = layer_metrics(
            [op.result.spans_path for op in traced])
        traced_s = sum(op.result.wall_s for op in traced)
        metrics["tracing.overhead_s"] = traced_s - sum(
            op.result.wall_s for op in plain)
        metrics["tracing.coverage_share"] = covered / traced_s
    else:
        rss_log = wl.work / "rss.log"
        os.environ["PERFBENCH_RSS"] = str(rss_log)
        # probes go between rounds, so set-up is timed under the same
        # machine conditions as the rest of the run
        probes = []

        def probe():
            if len(probes) < wl.scale.probes:
                probes.append(setup_probe(wl))

        try:
            ops, refs = measure(wl, seconds, before_round=probe)
            while len(probes) < wl.scale.probes:
                probe()
        finally:
            del os.environ["PERFBENCH_RSS"]
        metrics, extra = wl.metrics(ops)
        metrics["setup_s"] = statistics.median(t for t, _ in probes)
        ref_s = statistics.median(refs)
        extra["reference_ms"] = ref_s * 1e3
        for m in ("setup_s", "time_to_verdict_s", "samples_per_s"):
            extra[f"wall.{m}"] = metrics[m]
        metrics["setup_s"] *= REFERENCE_S / ref_s
        metrics["time_to_verdict_s"] *= REFERENCE_S / ref_s
        metrics["samples_per_s"] *= ref_s / REFERENCE_S
        failures = [bad for _, bad in probes]
        metrics["peak_rss_mb"] = max(
            int(kb) for kb in rss_log.read_text().split()) / 1024
    attempted, failed, failures = tally(wl, ops, failures)
    extra["error_rate"] = failed / attempted
    return {"workload": wl.name, "seed": wl.seed, "trace": int(trace),
            "attempted": attempted, "failed": failed,
            "failures": failures[:5],
            "metrics": metrics, "extra": extra}


def print_block(res: dict, env: dict) -> None:
    units = PER_LAYER if res["trace"] else END_TO_END
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"backend={env['backend']}")
    for name in units:
        print(f"  {name:32s} {res['metrics'][name]:.6g} {units[name]}")
    for name, value in res["extra"].items():
        unit = EXTRA_UNITS[name.rsplit(".", 1)[-1]]
        print(f"  {name:32s} {value:.6g} {unit}")
    for fails in res["failures"]:
        print(f"  FAILED: {'; '.join(fails)}", file=sys.stderr)


def main(argv=None) -> int:
    if not (ROOT / "src" / "ctstl" / "cli.py").is_file():
        print(f"perfbench: no ctstl source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    env = environment()
    # One CPU for the harness and every child (they never run at the same
    # time), so the reference loop samples the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("env " + json.dumps(env), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    results = []
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = WORKLOADS[name](args.seed, workloads.SCALE, work)
            res = run_workload(wl, args.seconds, bool(args.trace))
            print_block(res, env)
            # the result line's keys are fixed, so the environment stamp
            # rides on each workload's extra line
            print("extra " + json.dumps({"workload": name, "env": env,
                                         **res["extra"]}), flush=True)
            results.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}/{m}" if prefix else m):
               {"value": r["metrics"][m], "unit": units[m]}
               for r in results for m in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
