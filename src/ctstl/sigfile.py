"""Signal files and monitor event records.

Signals travel as CSV: a header row naming the variables, one row of finite
numbers per sample.  An optional leading column named ``t`` carries
timestamps; it must be uniformly spaced (relative tolerance 1e-9) and sets
the step unless one is given, then it is dropped.  Files are UTF-8 bytes;
a leading byte-order mark is dropped too.
The monitor's stream (:func:`open_signal_stream` and
:func:`samples_at_step`) is the one definition of a valid file: it decodes
line by line (:class:`Utf8Lines`) and raises the first error at its line.
The whole-file reader is a fast path that only accepts: it converts and
checks all cells at once in numpy, and on any failure hands the same input
to the stream, so both give the same signal or the same error.  Both CSV
writers print numbers as :func:`ctstl.logic._fmt_nums` does, a few thousand
rows per call.  Monitor runs emit one JSON object per line; infinities
appear as the JSON-style Infinity tokens.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import re
from typing import IO, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import SignalFormatError, UndecodableLine
from .logic import _fmt_nums
from .signals import Signal

_REL_TOL = 1e-9
# rows per write call of the CSV writers and per conversion of the reader
_CHUNK_ROWS = 4096
# a line ends as text mode ends it: at \r\n, \n, or a \r that no \n
# follows (a \r last in what has arrived waits for the next byte)
_EOL = re.compile(rb"\r\n|\r(?=[^\n])|\n")
# bytes asked of a binary source per read; it may return fewer
_READ_BYTES = 1 << 16

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


def _malformed(exc: csv.Error, rd) -> SignalFormatError:
    """A record the CSV reader refused (say, a field over its size
    limit), at the line the reader had reached."""
    return SignalFormatError(str(exc), rd.line_num)


def _is_binary(fh: IO) -> bool:
    return isinstance(fh, io.BufferedIOBase)


def _decode(raw: bytes, line: int, final: bool = True) -> str:
    try:
        return codecs.utf_8_decode(raw, "strict", final)[0]
    except UnicodeDecodeError as exc:
        raise UndecodableLine(line, exc) from None


class Utf8Lines:
    """The lines of a signal source or a formula file.

    Iterating a binary source reads its bytes as they arrive and decodes
    them as UTF-8 one line at a time, so a byte that is not UTF-8 raises
    :class:`UndecodableLine` at its line, after every line before it.  A
    text source passes through.
    """

    def __init__(self, fh: IO):
        self.fh, self.buf, self.pos, self.line = fh, b"", 0, 0

    def __iter__(self):
        return self if _is_binary(self.fh) else iter(self.fh)

    def __next__(self) -> str:
        m = _EOL.search(self.buf, self.pos)
        while m is None:
            chunk = self.fh.read1(_READ_BYTES)
            if not chunk:
                break
            self.buf, self.pos = self.buf[self.pos:] + chunk, 0
            m = _EOL.search(self.buf)
        end = m.end() if m else len(self.buf)
        if end == self.pos:
            raise StopIteration
        raw, self.pos = self.buf[self.pos:end], end
        self.line += 1
        return _decode(raw, self.line)

    def check_read(self) -> None:
        """Raise for a bad byte read ahead of the lines taken so far, which
        a reader that stops early would otherwise never reach."""
        parts = _EOL.split(self.buf[self.pos:])
        for j, raw in enumerate(parts, 1):
            # the last line may end in a character not fully read yet
            _decode(raw, self.line + j, final=j < len(parts))


def _read_header(fh: IO) -> tuple[Iterator[list[str]], tuple[str, ...]]:
    """A CSV reader past the checked header, and the header's names."""
    rd = csv.reader(Utf8Lines(fh))
    try:
        header = next(rd)
    except StopIteration:
        raise SignalFormatError("empty signal stream, header expected", 1) \
            from None
    except csv.Error as exc:
        raise _malformed(exc, rd) from None
    if header:  # a byte-order mark, as Excel writes, names no column
        header[0] = header[0].removeprefix("\ufeff")
    names = tuple(h.strip() for h in header)
    if not names or any(not n for n in names):
        raise SignalFormatError("blank column name in header", 1)
    if len(set(names)) != len(names):
        raise SignalFormatError("duplicate column name in header", 1)
    if names == ("t",):
        raise SignalFormatError("no variable columns besides t", 1)
    return rd, names


def open_signal_stream(fh: IO) -> tuple[tuple[str, ...], bool, Rows]:
    """Header plus a lazy row iterator, for monitoring as data arrives.

    Returns (variable names, had-time-column, iterator of (line, values)).
    A row's line is the CSV reader's line count, its record's last line.
    Timestamps stay in the rows; :func:`samples_at_step` checks and drops
    them.  A binary source is decoded line by line (:class:`Utf8Lines`).
    """
    rd, names = _read_header(fh)
    has_time = names[0] == "t"

    def gen() -> Rows:
        try:
            for cells in rd:
                if cells:
                    line = rd.line_num
                    yield line, _parse_row(cells, len(names), line)
        except csv.Error as exc:
            raise _malformed(exc, rd) from None

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
    check_step(step)
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


def read_signal_csv(source: IO, delta: float | None = None) -> Signal:
    """Load a whole CSV signal under the step policy of the stream.

    The source is read once: a binary one as bytes, decoded as UTF-8 while
    its rows are read, a text one as its own lines.  Every ``_CHUNK_ROWS``
    rows become one float64 array in one conversion, which accepts exactly
    what ``float()`` accepts.  This path only accepts: on any doubt (a byte
    not UTF-8, a malformed record, a row of the wrong arity, a cell that
    ``float()`` refuses, or a check of :func:`_convert` that fails) the
    stream reads the same input, and its signal or its first error, at its
    line, is the answer.
    """
    binary = _is_binary(source)
    if binary:
        data = source.read()
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                 newline="")
    else:
        data = lines = list(source)
    try:
        rd, names = _read_header(lines)
        width = len(names)
        parts = []  # the rows converted so far
        cells: list[str] = []  # the cells of the rows since, end to end
        for row in rd:
            if len(row) == width:
                cells.extend(row)
                if len(cells) == _CHUNK_ROWS * width:
                    parts.append(np.array(cells, dtype=np.float64))
                    cells = []
            elif row:
                break
        else:
            parts.append(np.array(cells, dtype=np.float64))
            sig = _convert(names, np.concatenate(parts), delta)
            if sig is not None:
                return sig
    except (SignalFormatError, csv.Error, ValueError):
        pass
    names, has_time, rows = open_signal_stream(
        io.BytesIO(data) if binary else data)
    step, samples = samples_at_step(has_time, rows, delta)
    return Signal(names, list(samples), step)


def _convert(names: tuple[str, ...], cells: Sequence,
             delta: float | None) -> Signal | None:
    """The signal of every row's cells, end to end, or None if a check
    fails."""
    arr = np.asarray(cells, dtype=np.float64).reshape(-1, len(names))
    if not np.isfinite(arr).all():
        return None
    has_time = names[0] == "t"
    step = delta
    if step is None:
        step = float(arr[1, 0] - arr[0, 0]) if has_time and len(arr) >= 2 \
            else 1.0
    if not _step_ok(step):
        return None
    if has_time:
        gap = np.diff(arr[:, 0])
        tol = _REL_TOL * np.maximum(np.maximum(np.abs(gap), abs(step)), 1.0)
        if not (np.abs(gap - step) <= tol).all():
            return None
        names, arr = names[1:], arr[:, 1:]
    return Signal(names, arr, step)


def _step_ok(step: float) -> bool:
    return step > 0 and math.isfinite(step)


def check_step(step: float | None) -> None:
    """Refuse a step that is given but not positive and finite."""
    if step is not None and not _step_ok(step):
        raise SignalFormatError(f"step must be positive and finite, "
                                f"got {step}")


def _fmt_runs(col: np.ndarray) -> list[str]:
    """``_fmt_nums`` of a column, formatting each run of equal values once:
    0.0 and -0.0 share a run (both print 0); each NaN starts its own."""
    head = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    text = np.array(_fmt_nums(col[head].tolist()), dtype=object)
    return text.repeat(np.diff(head, append=col.size)).tolist()


def write_rows(out: IO[str], values: np.ndarray, step: float | None = None,
               end: str = "\n") -> None:
    """Write the rows of a 2-D float array as CSV, each line ended by `end`.

    Numbers are written as :func:`ctstl.logic._fmt_nums` writes them.
    With a step, each row starts with its time, the row index times the
    step.  A few thousand rows go to each ``write`` call, as one join.
    """
    n = values.shape[0]
    for a in range(0, n, _CHUNK_ROWS):
        b = min(n, a + _CHUNK_ROWS)
        cols = list(values[a:b].T)
        if step is not None:
            cols.insert(0, np.arange(a, b) * step)
        width = 2 * len(cols)  # each cell, then "," or `end`
        parts = [","] * (width * (b - a))
        for j, col in enumerate(cols):
            parts[2 * j::width] = _fmt_runs(col)
        parts[width - 1::width] = [end] * (b - a)
        out.write("".join(parts))


def write_signal_csv(dest: IO[str], signal: Signal,
                     time_column: bool = False) -> None:
    csv.writer(dest).writerow(("t",) * time_column + signal.names)
    write_rows(dest, signal.values, signal.delta if time_column else None,
               end="\r\n")


_JSON_CONST = {None: "null", True: "true", False: "false"}


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


class MonitorEvent(NamedTuple):
    """One line of monitor output: sample index, root interval, verdict.

    A named tuple, which builds several times faster than a frozen
    dataclass; ``ctstl monitor`` builds one per row."""

    i: int
    lb: float
    ub: float
    verdict: bool | None
    decided: bool

    def to_json(self) -> str:
        """The line ``json.dumps`` writes for the fields, built directly."""
        return (f'{{"i": {int.__repr__(self.i)}, '
                f'"lb": {_json_float(self.lb)}, "ub": {_json_float(self.ub)}, '
                f'"verdict": {_JSON_CONST[self.verdict]}, '
                f'"decided": {_JSON_CONST[self.decided]}}}')


def event_reindexer(line: str) -> Callable[[int], str]:
    """Row index i -> the event line of row i with the fields of ``line``
    after its index: the line of a row whose verdict is ``line``'s."""
    rest = line[line.index(","):]
    return lambda i: f'{{"i": {i}{rest}'
