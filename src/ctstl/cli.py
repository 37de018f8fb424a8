"""Command-line front end: eval, rob, monitor, gen.

Exit codes form a scriptable contract: 0 satisfied, 1 violated, 2 error,
3 undecided at end of input.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # what the imports below leave lives as long as the process, so a
    # collection among them would scan it for nothing; the block at the
    # end freezes it and turns the collector back on
    gc.disable()

import argparse
import contextlib
import sys
from typing import TYPE_CHECKING

from .errors import CTSTLError, ParamOutOfRange
from .logic import _fmt_num, _fmt_nums, _snap_int, validate
from .semantics import _sweep_at, robustness_trace
from .signals import check_range
from .sigfile import (MonitorEvent, Utf8Lines, check_step, event_reindexer,
                      open_signal_stream, read_signal_csv, samples_at_step,
                      write_rows, write_signal_csv)
from .syntax import parse

# The monitor, the generators and json are imported by the commands that
# use them, so that no other command pays for them.
if TYPE_CHECKING:
    from .monitor import MonitorState


def _formula_text(args) -> str:
    if args.formula is not None:
        return args.formula
    # decoded as a signal is, so a bad byte names its line; line ends read
    # as text mode reads them
    with open(args.formula_file, "rb") as fh:
        text = "".join(Utf8Lines(fh)).removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
        name = name.strip()
        if name in out:
            raise ParamOutOfRange(f"--bounds given twice for {name!r}")
        out[name] = (lo, hi)
    return {name: check_range(name, *rng) for name, rng in out.items()}


def _sample_index(at: float, delta: float) -> int:
    i = _snap_int(at / delta)
    if i is None or i < 0:
        raise ParamOutOfRange(
            f"--at {at} is not a nonnegative multiple of the step {delta}")
    return i


@contextlib.contextmanager
def _open_source(path: str):
    """The signal's bytes, which the signal reader decodes."""
    if path == "-":
        yield getattr(sys.stdin, "buffer", sys.stdin)
    else:
        with open(path, "rb") as fh:
            yield fh


def _offline_input(args):
    """The parsed formula of ``eval`` or ``rob``, and its signal: a bad
    formula or ``--step`` fails before the read, validation after it."""
    f = parse(_formula_text(args))
    check_step(args.step)
    with _open_source(args.signal) as fh:
        return f, read_signal_csv(fh, delta=args.step)


def cmd_eval(args) -> int:
    f, sig = _offline_input(args)
    f = validate(f, sig.names, sig.delta)
    ok = _sweep_at(f, sig, _sample_index(args.at, sig.delta),
                   boolean=True) > 0
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_rob(args) -> int:
    f, sig = _offline_input(args)
    if args.sweep:
        rho = robustness_trace(f, sig)  # validates f
        print("t,rho")
        write_rows(sys.stdout, rho.reshape(-1, 1), sig.delta)
        return 0
    f = validate(f, sig.names, sig.delta)
    r = _sweep_at(f, sig, _sample_index(args.at, sig.delta), boolean=False)
    print(_fmt_num(r))
    return 0


def _trace_rows(mon: MonitorState, i: int, out) -> None:
    """Each node's entries after sample i, a row per anchor: the node's
    id, the anchor's time, i and both bounds."""
    delta = mon.delta
    for nid, _ in mon.node_ids():
        lo, hi, pairs, init = mon.node_bounds(nid)
        times = _fmt_nums([t * delta for t in range(lo, hi + 1)])
        nums = _fmt_nums([x for pair in pairs for x in pair])
        out.write("".join([f"{nid},{t},{i},{lb},{ub}\n" for t, lb, ub
                           in zip(times, nums[::2], nums[1::2])]))
        # the anchors past the node's arrays hold init
        tail = ",{},{},{}\n".format(i, *_fmt_nums(init))
        out.write("".join([f"{nid},{t}{tail}" for t in times[len(pairs):]]))


def cmd_monitor(args) -> int:
    from .monitor import MonitorState

    f = parse(_formula_text(args))
    check_step(args.step)  # the flags fail before the signal is read
    bounds = _parse_bounds(args.bounds)
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(_open_source(args.signal))
        lines = Utf8Lines(fh)
        names, has_time, rows = open_signal_stream(lines)
        delta, samples = samples_at_step(has_time, rows, args.step)
        mon = MonitorState(f, names, delta=delta, bounds=bounds)
        # opened only now, so a refused call leaves the file as it was
        trace_fh = stack.enter_context(
            open(args.trace, "w", encoding="utf-8")) if args.trace else None
        out, last = sys.stdout, None
        for i, vals in enumerate(samples):
            v = mon.push_sample(vals)
            if v is last:  # a kept verdict keeps its line but the index
                line = same(i)
            else:
                last, line = v, MonitorEvent(i, v.rosi.lb, v.rosi.ub,
                                             v.outcome, v.decided).to_json()
                same = event_reindexer(line)
            # one write call per line; print() writes the newline apart
            out.write(line + "\n")
            out.flush()
            if trace_fh is not None:
                _trace_rows(mon, i, trace_fh)
            if v.decided and not args.run_to_end:
                # what was read is input too, though the verdict is final
                lines.check_read()
                break
        verdict = mon.finalize()
    if verdict.outcome is None:
        return 3
    return 0 if verdict.outcome else 1


# each scenario's excursion budgets, the flags of its gen sub-command
_BUDGETS = {
    "overvoltage": (("over17", "samples in (1.7, 2)"),
                    ("over14", "samples in (1.4, 1.7)"),
                    ("over13", "samples in (1.3, 1.4)"),
                    ("overcap", "samples above 2")),
    "glucose": (("hypo", "samples below 70"), ("hyper", "samples above 180")),
}


def cmd_gen(args) -> int:
    import json

    from . import generators

    trace = getattr(generators, f"{args.scenario}_trace")
    sig, report = trace(args.length, args.seed, spread=args.spread,
                        **{b: getattr(args, b)
                           for b, _ in _BUDGETS[args.scenario]})
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_signal_csv(fh, sig, time_column=args.time_column)
    report["out"] = args.out
    report["seed"] = args.seed
    print(json.dumps(report))
    return 0


def _add_formula_flags(p) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula", help="formula text")
    g.add_argument("--formula-file", help="file containing the formula")


def _add_common(p) -> None:
    _add_formula_flags(p)
    p.add_argument("signal", help="signal CSV file, or - for stdin")
    p.add_argument("--step", type=float, default=None,
                   help="sample period (default: from t column, else 1)")


def _add_at(p) -> None:
    p.add_argument("--at", type=float, default=0.0,
                   help="evaluation time (a multiple of the step)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctstl",
        description="Monitor cumulative-time STL formulas over sampled "
                    "signals.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="boolean satisfaction at a time point")
    _add_common(p)
    _add_at(p)
    p.set_defaults(fn=cmd_eval, parser=p)

    p = sub.add_parser("rob", help="robustness at a time point or sweep")
    _add_common(p)
    g = p.add_mutually_exclusive_group()
    _add_at(g)
    g.add_argument("--sweep", action="store_true",
                   help="CSV of robustness at every admissible time")
    p.set_defaults(fn=cmd_rob, parser=p)

    p = sub.add_parser("monitor", help="stream samples, emit verdicts")
    _add_common(p)
    p.add_argument("--bounds", action="append", metavar="VAR=LO:HI",
                   help="range of an unsampled variable (repeatable)")
    p.add_argument("--trace", metavar="FILE",
                   help="write per-node interval snapshots as CSV")
    p.add_argument("--run-to-end", action="store_true",
                   help="keep emitting events after the verdict is final")
    p.set_defaults(fn=cmd_monitor, parser=p)

    p = sub.add_parser("gen", help="write a synthetic scenario trace")
    scenarios = p.add_subparsers(dest="scenario", required=True)
    for scenario, budgets in _BUDGETS.items():
        q = scenarios.add_parser(scenario, help=f"the {scenario} scenario")
        q.add_argument("--out", required=True, help="output CSV path")
        q.add_argument("--length", type=int, default=20_000)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--spread", type=int, default=None,
                       help="confine excursions to the first N samples")
        q.add_argument("--time-column", action="store_true",
                       help="include a t column in the output")
        for budget, text in budgets:
            q.add_argument(f"--{budget}", type=int, default=0, help=text)
        q.set_defaults(parser=q)
    p.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None) -> int:
    # argparse hands a sub-command's unknown flags up to the root; the
    # sub-command's own parser reports them, with its own usage
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (CTSTLError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. monitor state for a window too wide to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # parsing, validation and evaluation recurse once per nesting level
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Everything imported so far lives as long as the process: keep it out
    # of every later garbage collection, so that a collection's cost does
    # not depend on how many objects the imports left.
    gc.freeze()
    gc.enable()
    sys.exit(main())
