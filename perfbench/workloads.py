"""The benchmark's three workloads: inputs, operations, checks, metrics.

Every input comes from ``ctstl.generators`` and is made from the run's
seed before any timing starts.  An operation is one ``ctstl`` child; the
harness runs whole rounds of operations so that each run sees the same
mix.  Checks run after the timed loop and compare every output with the
truth the generators embed by construction and with the recursive oracles
(``satisfies``, ``robustness``) where those are cheap.
"""

from __future__ import annotations

import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ctstl.generators import (glucose_formulas, glucose_trace,
                              overvoltage_formulas, overvoltage_trace)
from ctstl.semantics import robustness, satisfies
from ctstl.signals import Signal
from ctstl.sigfile import write_signal_csv
from ctstl.syntax import parse

from children import Call, Stream, run_call, run_stream

GLUCOSE_PHI5 = glucose_formulas()["phi5"]
# Recovery spec: every sample is in range or returns to range within 36
# samples while staying above 40.  Holds on every generated day, because a
# day has fewer than 36 hypo samples and hypo values lie in (48, 62).
PSI_REC = "G[0,288] ((x >= 70) || ((x > 40) U[1,36] (x >= 70)))"
DAY = 325  # horizon + 1 of both glucose formulas
OV_WINDOW = 10_000
OV_PHI5 = overvoltage_formulas(window=OV_WINDOW)["phi5"]
OV_LEN = 2 * OV_WINDOW + 1
# Threshold counts at the budget of every overvoltage limit (16, 30, 160
# samples above 1.7, 1.4, 1.3; the formulas allow limit + 1): any window
# satisfies, with positive robustness at every anchor.
AT_BUDGET = dict(over17=17, over14=14, over13=130)


@dataclass(frozen=True)
class Scale:
    ov_decide: int       # sample index at which each W=10,000 stream decides
    ov_sweep_len: int    # samples in the overvoltage sweep CSV
    gl_sweep_len: int    # samples in the glucose sweep CSV
    eval_window: int     # W of the overvoltage formula given to eval
    probes: int          # set-up probes per run
    oracle_anchors: int  # glucose sweep anchors checked against robustness


SCALE = Scale(100, 30_001, 20_000, 1_000, 5, 6)


def csv_lines(sig: Signal) -> tuple[bytes, list[bytes]]:
    buf = io.StringIO()
    write_signal_csv(buf, sig)
    lines = buf.getvalue().encode().splitlines(keepends=True)
    return lines[0], lines[1:]


def write_csv(path: Path, sig: Signal) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_signal_csv(fh, sig)
    return str(path)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Op:
    """One finished operation and what its output must be."""

    kind: str
    label: str
    key: object
    expect: object
    result: Call | Stream


class Workload:
    name = ""
    round_size = 1
    # (formula, header) pairs: one monitor child each per set-up probe
    setup_formulas: list[tuple[str, str]] = []

    def __init__(self, seed: int, scale: Scale, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work

    def prepare(self) -> None:
        """Make every input; runs before any timing."""

    def run(self, i: int, spans_path: Path | None) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        """Failures of one operation; empty when its output is right."""
        raise NotImplementedError

    def metrics(self, ops: list[Op]) -> tuple[dict, dict]:
        """(gated end-to-end metrics, workload-specific extras)."""
        raise NotImplementedError


def _stderr_failures(err: str) -> list[str]:
    return [f"stderr: {err.strip()[-200:]}"] if err.strip() else []


def _last_event(st: Stream) -> dict | None:
    return json.loads(st.events[-1]) if st.events else None


def _check_stream(st: Stream, expect: bool, decide_at: int | None = None
                  ) -> list[str]:
    fails = _stderr_failures(st.err)
    want = 0 if expect else 1
    if st.code != want:
        fails.append(f"exit code {st.code}, expected {want}")
    ev = _last_event(st)
    if ev is None or not ev["decided"] or ev["verdict"] is not expect:
        fails.append(f"last event {ev}, expected a decided {expect}")
    elif decide_at is not None and ev["i"] != decide_at:
        fails.append(f"decided at sample {ev['i']}, expected {decide_at}")
    return fails


def _online_metrics(ops: list[Op], round_size: int) -> tuple[dict, dict]:
    """Row 0 carries interpreter start-up and the monitor build (the CLI
    builds its monitor on the first row), so timing starts at row 1.

    A round mixes streams whose costs differ about ninefold (phi5 against
    psi_rec, early against late verdicts), so time to verdict is the mean
    over a round's streams and throughput is the round's pushes over their
    wall time, each then the median over rounds; push latency percentiles
    are taken per formula."""
    lat_ms: dict[str, list[float]] = {}
    round_s, round_rate = [], []
    total = 0
    for j in range(0, len(ops), round_size):
        verdict_s = []
        pushes, wall = 0, 0.0
        for op in ops[j:j + round_size]:
            st = op.result
            if len(st.got) < 2:
                continue  # a broken stream; its check counts the failure
            lat_ms.setdefault(op.label, []).extend(
                (g - s) * 1e3 for s, g in zip(st.sent[1:], st.got[1:]))
            pushes += len(st.got) - 1
            wall += st.got[-1] - st.got[0]
            ev = _last_event(st)
            end = st.got[-1] if ev and ev["decided"] else st.exit
            verdict_s.append(end - st.sent[1])
        if verdict_s:
            round_s.append(statistics.mean(verdict_s))
            round_rate.append(pushes / wall)
            total += pushes
    gated = {
        "time_to_verdict_s": statistics.median(round_s),
        "samples_per_s": statistics.median(round_rate),
    }
    extra = {"rounds": len(round_s), "pushes": total}
    for label, lat in lat_ms.items():
        prefix = "" if label == "phi5" else f"{label}."
        extra[f"{prefix}push_p50_ms"] = quantile(lat, 0.50)
        extra[f"{prefix}push_p99_ms"] = quantile(lat, 0.99)
    return gated, extra


class GlucoseCohort(Workload):
    """Patient-days streamed through ``ctstl monitor -``, twice each."""

    name = "glucose-cohort"
    # one round: one day of each kind, each through phi5 then psi_rec
    MIX = (("clean", {}),
           ("at-budget", dict(hypo=11, hyper=71)),
           ("over-hypo", dict(hypo=12, spread=289)),
           ("over-hyper", dict(hyper=72, spread=289)))
    FORMULAS = (("phi5", GLUCOSE_PHI5), ("psi_rec", PSI_REC))
    round_size = 2 * len(MIX)
    setup_formulas = [(GLUCOSE_PHI5, "x"), (PSI_REC, "x")]
    N_DAYS = 64  # a run cycles through these if it needs more

    def prepare(self) -> None:
        self.days = []
        for j in range(self.N_DAYS):
            _, params = self.MIX[j % len(self.MIX)]
            sig, report = glucose_trace(DAY, self.seed * 1_000 + j, **params)
            self.days.append((sig, report, *csv_lines(sig)))
        self.parsed = {k: parse(f) for k, f in self.FORMULAS}
        self.oracle: dict[tuple[int, str], bool] = {}

    @staticmethod
    def truth(key: str, report: dict) -> bool:
        """Verdict by construction: every excursion of an over-budget day
        lies in the first window, and no day leaves fewer than 202
        in-band samples in a window."""
        if key == "phi5":
            return report["x_lt_70"] <= 11 and report["x_gt_180"] <= 71
        return report["x_lt_70"] < 36

    def run(self, i: int, spans_path: Path | None) -> Op:
        day = (i // 2) % self.N_DAYS
        key, formula = self.FORMULAS[i % 2]
        _, report, header, rows = self.days[day]
        st = run_stream(["monitor", "--formula", formula, "-"], header, rows,
                        spans_path)
        return Op("stream", key, (day, key), self.truth(key, report), st)

    def check(self, op: Op) -> list[str]:
        day, key = op.key
        fails = _check_stream(op.result, op.expect)
        if (day, key) not in self.oracle:
            self.oracle[day, key] = satisfies(self.parsed[key],
                                              self.days[day][0], 0)
        if self.oracle[day, key] is not op.expect:
            fails.append(f"satisfies oracle gives {self.oracle[day, key]}, "
                         f"expected {op.expect}")
        return fails

    def metrics(self, ops):
        return _online_metrics(ops, self.round_size)


class OvervoltageW10k(Workload):
    """Paper-scale staircase, W=10,000, one stream per operation."""

    name = "overvoltage-w10k"
    setup_formulas = [(OV_PHI5, "v")]
    N_STREAMS = 8

    def prepare(self) -> None:
        # 17 samples >= 1.7 in the first S samples, the 18th at sample S:
        # the verdict is false, and final exactly at sample S.
        s = self.scale.ov_decide
        self.streams = []
        for j in range(self.N_STREAMS):
            seed = self.seed * 1_000 + 2 * j
            head, r1 = overvoltage_trace(s, seed, over17=17, spread=s)
            tail, r2 = overvoltage_trace(OV_LEN - s, seed + 1, over17=1,
                                         spread=1)
            sig = Signal(("v",), np.vstack([head.values, tail.values]))
            report = {k: r1[k] + r2[k] for k in r1 if k.startswith("v_")}
            self.streams.append((report, *csv_lines(sig)))

    def run(self, i: int, spans_path: Path | None) -> Op:
        report, header, rows = self.streams[i % self.N_STREAMS]
        st = run_stream(["monitor", "--formula", OV_PHI5, "-"], header, rows,
                        spans_path)
        return Op("stream", "phi5", i % self.N_STREAMS,
                  report["v_ge_1.7"] <= 17, st)

    def check(self, op: Op) -> list[str]:
        return _check_stream(op.result, op.expect, self.scale.ov_decide)

    def metrics(self, ops):
        return _online_metrics(ops, self.round_size)


class OfflineSweep(Workload):
    """Batch children: three ``rob --sweep`` calls and one ``eval``."""

    name = "offline-sweep"
    round_size = 4

    def __init__(self, seed: int, scale: Scale, work: Path):
        super().__init__(seed, scale, work)
        self.eval_formula = overvoltage_formulas(
            window=scale.eval_window)["phi5"]
        self.setup_formulas = [(OV_PHI5, "v"), (GLUCOSE_PHI5, "x"),
                               (PSI_REC, "x"), (self.eval_formula, "v")]

    def prepare(self) -> None:
        sc, seed = self.scale, self.seed
        ov, ov_rep = overvoltage_trace(sc.ov_sweep_len, seed, **AT_BUDGET)
        n = sc.gl_sweep_len
        gl, _ = glucose_trace(n, seed + 1, hypo=n // 40, hyper=n // 6)
        ev, ev_rep = overvoltage_trace(2 * sc.eval_window + 1, seed + 2,
                                       **AT_BUDGET)
        ov_csv = write_csv(self.work / "ov_sweep.csv", ov)
        gl_csv = write_csv(self.work / "gl_sweep.csv", gl)
        ev_csv = write_csv(self.work / "ov_eval.csv", ev)
        self.gl_sig = gl
        self.oracle: dict[tuple[str, int], float] = {}
        self.ops = [
            ("sweep", "ov-phi5", OV_PHI5, ov_csv, len(ov) - 2 * OV_WINDOW,
             self.at_budget(ov_rep)),
            ("sweep", "gl-phi5", GLUCOSE_PHI5, gl_csv, n - (DAY - 1),
             self.oracle_anchors(n - (DAY - 1))),
            ("sweep", "gl-psi_rec", PSI_REC, gl_csv, n - (DAY - 1),
             self.oracle_anchors(n - (DAY - 1))),
            ("eval", "ov-phi5-eval", self.eval_formula, ev_csv, 1,
             self.at_budget(ev_rep)),
        ]

    @staticmethod
    def at_budget(report: dict) -> bool:
        """True when no threshold count exceeds its allowance."""
        return (report["v_gt_2"] == 0 and report["v_ge_1.7"] <= 17
                and report["v_ge_1.4"] <= 31 and report["v_ge_1.3"] <= 161)

    def oracle_anchors(self, anchors: int) -> tuple[int, ...]:
        """Fixed anchors, spread evenly, checked against ``robustness``."""
        picks = np.linspace(0, anchors - 1, self.scale.oracle_anchors)
        return tuple(int(t) for t in picks.round())

    def run(self, i: int, spans_path: Path | None) -> Op:
        kind, key, formula, path, anchors, expect = \
            self.ops[i % self.round_size]
        if kind == "sweep":
            argv = ["rob", "--sweep", "--formula", formula, path]
        else:
            argv = ["eval", "--formula", formula, path]
        return Op(kind, key, (formula, anchors), expect,
                  run_call(argv, spans_path))

    def check(self, op: Op) -> list[str]:
        call = op.result
        formula, anchors = op.key
        fails = _stderr_failures(call.err)
        if op.kind == "eval":
            want = 0 if op.expect else 1
            got = call.out.strip()
            if call.code != want or got != ("true" if op.expect else "false"):
                fails.append(f"eval printed {got!r} with exit code "
                             f"{call.code}, expected {op.expect}")
            return fails
        lines = call.out.splitlines()
        if call.code != 0 or not lines or lines[0] != "t,rho":
            return fails + [f"sweep exit code {call.code}, header "
                            f"{lines[:1]}"]
        rho = [float(line.partition(",")[2]) for line in lines[1:]]
        if len(rho) != anchors:
            fails.append(f"{len(rho)} anchors, expected {anchors}")
        elif isinstance(op.expect, bool):
            # overvoltage at budget: positive robustness at every anchor
            if (min(rho) > 0) is not op.expect:
                fails.append(f"min robustness {min(rho)}, expected sign "
                             f"{'+' if op.expect else '-'}")
        else:
            for t in op.expect:
                if (formula, t) not in self.oracle:
                    self.oracle[formula, t] = robustness(
                        parse(formula), self.gl_sig, t)
                if rho[t] != self.oracle[formula, t]:
                    fails.append(f"anchor {t}: swept {rho[t]}, oracle "
                                 f"{self.oracle[formula, t]}")
        return fails

    def metrics(self, ops):
        """Sweep anchors per second of sweep wall time, per round, and
        eval wall time, each the median over rounds."""
        rates, evals = [], []
        for j in range(0, len(ops), self.round_size):
            sweeps = [op for op in ops[j:j + self.round_size]
                      if op.kind == "sweep"]
            rates.append(sum(op.key[1] for op in sweeps)
                         / sum(op.result.wall_s for op in sweeps))
            evals.extend(op.result.wall_s for op in ops[j:j + self.round_size]
                         if op.kind == "eval")
        rate, eval_s = statistics.median(rates), statistics.median(evals)
        gated = {"time_to_verdict_s": eval_s, "samples_per_s": rate}
        extra = {"sweep_anchors_per_s": rate, "eval_s": eval_s,
                 "rounds": len(rates)}
        return gated, extra


WORKLOADS = {w.name: w for w in (GlucoseCohort, OvervoltageW10k,
                                  OfflineSweep)}
