"""Signal files and monitor event records.

Signals travel as CSV: a header row naming the variables, one row of finite
numbers per sample.  An optional leading column named ``t`` carries
timestamps; it must be uniformly spaced (relative tolerance 1e-9) and sets
the step unless one is given, then it is dropped.  This module is the only
place that knows the format: the whole-file reader and the monitor's stream
share one header parser, one row parser and one step policy
(:func:`samples_at_step`).  Monitor runs emit one JSON object per line;
infinities appear as the JSON-style Infinity tokens.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

from .errors import SignalFormatError
from .logic import _fmt_num
from .signals import Signal

_REL_TOL = 1e-9

Rows = Iterator[tuple[int, list[float]]]


def _parse_row(cells: Sequence[str], arity: int, line: int) -> list[float]:
    if len(cells) != arity:
        raise SignalFormatError(
            f"expected {arity} columns, got {len(cells)}", line)
    out = []
    for cell in cells:
        try:
            v = float(cell)
        except ValueError:
            raise SignalFormatError(f"bad number {cell!r}", line) from None
        if not math.isfinite(v):
            raise SignalFormatError(f"non-finite value {cell!r}", line)
        out.append(v)
    return out


def _close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def open_signal_stream(fh: IO[str]) -> tuple[tuple[str, ...], bool, Rows]:
    """Header plus a lazy row iterator, for monitoring as data arrives.

    Returns (variable names, had-time-column, iterator of (line, values)).
    Timestamps stay in the rows; :func:`samples_at_step` checks and drops
    them.
    """
    rd = csv.reader(fh)
    try:
        header = next(rd)
    except StopIteration:
        raise SignalFormatError("empty signal stream, header expected", 1) \
            from None
    names = tuple(h.strip() for h in header)
    if not names or any(not n for n in names):
        raise SignalFormatError("blank column name in header", 1)
    if len(set(names)) != len(names):
        raise SignalFormatError("duplicate column name in header", 1)
    has_time = names[0] == "t"
    if has_time and len(names) == 1:
        raise SignalFormatError("no variable columns besides t", 1)

    def gen() -> Rows:
        for line, cells in enumerate(rd, start=2):
            if not cells:
                continue
            yield line, _parse_row(cells, len(names), line)

    return (names[1:] if has_time else names), has_time, gen()


def samples_at_step(has_time: bool, rows: Rows, step: float | None
                    ) -> tuple[float, Iterator[list[float]]]:
    """The step of a row stream, and its samples without the ``t`` column.

    An explicit step must be positive and finite.  Without one, a ``t``
    column's first two rows set it (both are read before this returns),
    else it is 1.  Every later timestamp must keep that spacing; a row that
    breaks it raises when the iterator reaches it, so the samples before it
    are yielded first.
    """
    head: list[tuple[int, list[float]]] = []
    if has_time and step is None:
        head = list(itertools.islice(rows, 2))
        if len(head) == 2:
            step = head[1][1][0] - head[0][1][0]
            if not step > 0:
                raise SignalFormatError("time column not increasing",
                                        head[1][0])
    if step is None:
        step = 1.0
    if not (step > 0 and math.isfinite(step)):
        raise SignalFormatError(f"step must be positive and finite, "
                                f"got {step}")
    if not has_time:
        return step, (vals for _, vals in rows)

    def gen() -> Iterator[list[float]]:
        prev = None
        for line, vals in itertools.chain(head, rows):
            t = vals[0]
            if prev is not None and not _close_enough(t - prev, step):
                raise SignalFormatError(
                    f"time column not uniformly spaced: {t - prev!r} apart, "
                    f"the step is {step!r}", line)
            prev = t
            yield vals[1:]

    return step, gen()


def read_signal_csv(source: str | IO[str],
                    delta: float | None = None) -> Signal:
    """Load a whole CSV signal under the step policy of the stream."""
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return read_signal_csv(fh, delta)
    names, has_time, rows = open_signal_stream(source)
    delta, samples = samples_at_step(has_time, rows, delta)
    return Signal(names, list(samples), delta)


def write_signal_csv(dest: str | IO[str], signal: Signal,
                     time_column: bool = False) -> None:
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            write_signal_csv(fh, signal, time_column)
            return
    wr = csv.writer(dest)
    if time_column:
        wr.writerow(("t",) + signal.names)
        for j in range(len(signal)):
            wr.writerow([_fmt_num(j * signal.delta)]
                        + [_fmt_num(v) for v in signal.values[j]])
    else:
        wr.writerow(signal.names)
        for j in range(len(signal)):
            wr.writerow([_fmt_num(v) for v in signal.values[j]])


@dataclass(frozen=True)
class MonitorEvent:
    """One line of monitor output: sample index, root interval, verdict."""

    i: int
    lb: float
    ub: float
    verdict: bool | None
    decided: bool

    def to_json(self) -> str:
        return json.dumps({
            "i": self.i,
            "lb": self.lb,
            "ub": self.ub,
            "verdict": self.verdict,
            "decided": self.decided,
        })

    @classmethod
    def from_json(cls, line: str) -> "MonitorEvent":
        obj = json.loads(line)
        verdict = obj["verdict"]
        if verdict is not None:
            verdict = bool(verdict)
        return cls(int(obj["i"]), float(obj["lb"]), float(obj["ub"]),
                   verdict, bool(obj["decided"]))
