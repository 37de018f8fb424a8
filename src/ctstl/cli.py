"""Command-line front end: eval, rob, monitor, gen, bench.

Exit codes form a scriptable contract: 0 satisfied, 1 violated, 2 error,
3 undecided at end of input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import bench as benchmod
from .errors import CTSTLError, ParamOutOfRange
from .generators import glucose_trace, overvoltage_trace
from .logic import _fmt_num, validate
from .monitor import MonitorState
from .semantics import _sweep_at, robustness_trace
from .sigfile import (MonitorEvent, open_signal_stream, read_signal_csv,
                      samples_at_step, write_signal_csv)
from .syntax import parse


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_bounds(items) -> dict[str, tuple[float, float]] | None:
    if not items:
        return None
    out = {}
    for item in items:
        try:
            name, _, rng = item.partition("=")
            lo_s, _, hi_s = rng.partition(":")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise ParamOutOfRange(
                f"bad --bounds {item!r}, expected name=lo:hi") from None
        out[name.strip()] = (lo, hi)
    return out


def _sample_index(at: float, delta: float) -> int:
    q = at / delta
    if not (math.isfinite(q) and q > -0.5 and abs(q - round(q)) <= 1e-9):
        raise ParamOutOfRange(
            f"--at {at} is not a nonnegative multiple of the step {delta}")
    return round(q)


@contextlib.contextmanager
def _open_source(path: str):
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh


def _read_signal(args):
    with _open_source(args.signal) as fh:
        return read_signal_csv(fh, delta=args.step)


def cmd_eval(args) -> int:
    sig = _read_signal(args)
    f = validate(parse(_formula_text(args)), sig.names, sig.delta)
    ok = _sweep_at(f, sig, _sample_index(args.at, sig.delta),
                   boolean=True) > 0
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_rob(args) -> int:
    sig = _read_signal(args)
    f = validate(parse(_formula_text(args)), sig.names, sig.delta)
    if args.sweep:
        rho = robustness_trace(f, sig)
        print("t,rho")
        for i, r in enumerate(rho):
            print(f"{_fmt_num(i * sig.delta)},{_fmt_num(float(r))}")
        return 0
    r = _sweep_at(f, sig, _sample_index(args.at, sig.delta), boolean=False)
    print(_fmt_num(r))
    return 0


def _trace_rows(mon: MonitorState, i: int, out) -> None:
    delta = mon.delta
    for nid, _ in mon.node_ids():
        for t, rosi in sorted(mon.node_entries(nid).items()):
            out.write(f"{nid},{_fmt_num(t * delta)},{i},"
                      f"{_fmt_num(rosi.lb)},{_fmt_num(rosi.ub)}\n")


def cmd_monitor(args) -> int:
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(_open_source(args.signal))
        trace_fh = stack.enter_context(
            open(args.trace, "w", encoding="utf-8")) if args.trace else None
        names, has_time, rows = open_signal_stream(fh)
        delta, samples = samples_at_step(has_time, rows, args.step)
        mon = MonitorState(parse(_formula_text(args)), names, delta=delta,
                           bounds=_parse_bounds(args.bounds))
        for i, vals in enumerate(samples):
            v = mon.push_sample(vals)
            root = mon.root_rosi()
            print(MonitorEvent(i, root.lb, root.ub, v.outcome,
                               v.decided).to_json(), flush=True)
            if trace_fh is not None:
                _trace_rows(mon, i, trace_fh)
            if v.decided and not args.run_to_end:
                break
        verdict = mon.finalize()
    if verdict.outcome is None:
        return 3
    return 0 if verdict.outcome else 1


def cmd_gen(args) -> int:
    if args.scenario == "overvoltage":
        sig, report = overvoltage_trace(
            args.length, args.seed, over17=args.over17, over14=args.over14,
            over13=args.over13, overcap=args.overcap, spread=args.spread)
    else:
        sig, report = glucose_trace(
            args.length, args.seed, hypo=args.hypo, hyper=args.hyper,
            spread=args.spread)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_signal_csv(fh, sig, time_column=args.time_column)
    report["out"] = args.out
    report["seed"] = args.seed
    print(json.dumps(report))
    return 0


def cmd_bench(args) -> int:
    print(json.dumps(benchmod.bench_kth(
        n=args.n, w=args.w, k=args.k, seed=args.seed,
        backend=args.backend)))
    print(json.dumps(benchmod.bench_scaling(
        n=args.n, w=args.w, seed=args.seed, backend=args.backend)))
    if args.cases > 0:
        print(json.dumps(benchmod.bench_monitor(
            cases=args.cases, seed=args.seed)))
    return 0


def _add_formula_flags(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", help="formula text")
    g.add_argument("--formula-file", help="file containing the formula")


def _add_common(p, with_at: bool) -> None:
    _add_formula_flags(p)
    p.add_argument("signal", help="signal CSV file, or - for stdin")
    p.add_argument("--step", type=float, default=None,
                   help="sample period (default: from t column, else 1)")
    if with_at:
        p.add_argument("--at", type=float, default=0.0,
                       help="evaluation time (a multiple of the step)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctstl",
        description="Monitor cumulative-time STL formulas over sampled "
                    "signals.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="boolean satisfaction at a time point")
    _add_common(p, with_at=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rob", help="robustness at a time point or sweep")
    _add_common(p, with_at=True)
    p.add_argument("--sweep", action="store_true",
                   help="CSV of robustness at every admissible time")
    p.set_defaults(fn=cmd_rob)

    p = sub.add_parser("monitor", help="stream samples, emit verdicts")
    _add_common(p, with_at=False)
    p.add_argument("--bounds", action="append", metavar="VAR=LO:HI",
                   help="range of an unsampled variable (repeatable)")
    p.add_argument("--trace", metavar="FILE",
                   help="write per-node interval snapshots as CSV")
    p.add_argument("--run-to-end", action="store_true",
                   help="keep emitting events after the verdict is final")
    p.set_defaults(fn=cmd_monitor)

    p = sub.add_parser("gen", help="write a synthetic scenario trace")
    p.add_argument("scenario", choices=("overvoltage", "glucose"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--length", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", type=int, default=None,
                   help="confine excursions to the first N samples")
    p.add_argument("--time-column", action="store_true",
                   help="include a t column in the output")
    p.add_argument("--over17", type=int, default=0,
                   help="samples in (1.7, 2)")
    p.add_argument("--over14", type=int, default=0,
                   help="samples in (1.4, 1.7)")
    p.add_argument("--over13", type=int, default=0,
                   help="samples in (1.3, 1.4)")
    p.add_argument("--overcap", type=int, default=0, help="samples above 2")
    p.add_argument("--hypo", type=int, default=0, help="samples below 70")
    p.add_argument("--hyper", type=int, default=0, help="samples above 180")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="time the sliding-rank engines")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--w", type=int, default=1_000)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20,
                   help="random streams for the monitor cross-check")
    p.add_argument("--backend", default=None)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CTSTLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
