"""``ctstl`` CLI with timing shims around each layer's public functions.

Run as ``python traced_cli.py <ctstl arguments>`` with ``src`` on the path.
The shims sit at the names callers actually bind (``ctstl.cli.parse``,
``ctstl.semantics.sliding_kth_batch``, ``MonitorState.push_sample``, ...),
so ``ctstl.cli.main()`` runs unchanged.  Spans are kept in memory as
``[name, start, end, parent, work]`` and written as JSON to the file named
by ``PERFBENCH_SPANS`` when ``main()`` returns; ``work`` is the layer's work
count (rows read, anchors computed).  At the monitor's verdict the open
entries of every node are counted once, in a span of the tracer's own.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import ctstl.cli as cli
from ctstl import monitor, semantics, sigfile


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict_entries: list[tuple[int, int]] = []

    def wrap(self, name, fn, work=None):
        """Time every call of fn as a span; name may depend on the args."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def shim(*args, **kwargs):
            rec = [name(*args) if callable(name) else name, clock(), 0.0,
                   stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(out)
            return out

        return shim

    def rows(self, it):
        """Time each step of a row iterator, blocking reads included."""
        nxt = self.wrap("sigfile.stream_row", lambda: next(it, None))
        while (item := nxt()) is not None:
            yield item

    def count_open(self, mon) -> None:
        """Record (open entries, open entries with an infinite bound).

        Timed as its own span, so no layer's self time includes it."""
        self.wrap("tracing.count_open", self._count_open)(mon)

    def _count_open(self, mon) -> None:
        opened = unbounded = 0
        for nid, _ in mon.node_ids():
            for rosi in mon.node_entries(nid).values():
                if rosi.lb != rosi.ub:
                    opened += 1
                    unbounded += math.isinf(rosi.lb) or math.isinf(rosi.ub)
        self.verdict_entries.append((opened, unbounded))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "verdict_entries": self.verdict_entries}, fh)


def _width(_trace, span, *_rest) -> int:
    a, b = span
    return b - a + 1


def install(tr: Tracer) -> None:
    wrap = tr.wrap
    cli.parse = wrap("syntax.parse", cli.parse)
    for mod in (cli, semantics, monitor):
        mod.validate = wrap("logic.validate", mod.validate)
    cli.read_signal_csv = wrap("sigfile.read", cli.read_signal_csv, len)

    real_open = cli.open_signal_stream

    def open_stream(fh):
        names, has_time, rows = real_open(fh)
        return names, has_time, tr.rows(rows)

    cli.open_signal_stream = wrap("sigfile.stream_row", open_stream)
    sigfile.MonitorEvent.to_json = wrap(
        "sigfile.event_json", sigfile.MonitorEvent.to_json)

    cls = monitor.MonitorState
    cls.__init__ = wrap("monitor.init", cls.__init__)
    push = wrap("monitor.push", cls.push_sample)
    finalize = wrap("monitor.finalize", cls.finalize)

    def push_sample(self, x):
        was = self.verdict.decided
        v = push(self, x)
        if v.decided and not was:
            tr.count_open(self)
        return v

    def finalize_(self):
        was = self.verdict.decided
        v = finalize(self)
        if not was:
            tr.count_open(self)
        return v

    cls.push_sample = push_sample
    cls.finalize = finalize_

    semantics.secondary_signal = wrap(
        "signals.margin", semantics.secondary_signal)
    semantics.sliding_kth_batch = wrap(
        lambda *a: f"windows.kth.w{_width(*a)}",
        semantics.sliding_kth_batch, len)
    semantics.sliding_extremum_batch = wrap(
        lambda *a: f"windows.extremum.w{_width(*a)}",
        semantics.sliding_extremum_batch, len)
    semantics.until_batch = wrap(
        lambda _l, _r, _a, b, *rest: f"windows.until.b{b}",
        semantics.until_batch, len)
    cli.robustness_trace = wrap("semantics.sweep", cli.robustness_trace)
    cli.satisfies = monitor.satisfies = wrap(
        "semantics.satisfies", semantics.satisfies)


def main() -> int:
    tr = Tracer()
    install(tr)
    try:
        return tr.wrap("cli.main", cli.main)(sys.argv[1:])
    finally:
        tr.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
