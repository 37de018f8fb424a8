"""Child processes of the benchmark: one ``ctstl`` CLI call each.

Untraced children run ``cli_child.py``, which is ``python -m ctstl.cli``
plus a record of the child's peak memory; traced children run
``traced_cli.py``, which calls the same ``main()`` with timing shims and
writes its spans to the file named by ``PERFBENCH_SPANS``.  Every child is
single-threaded and the harness runs one at a time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A child that has not exited by then is killed and counted as failed,
# which keeps every run inside the 180 s limit of the benchmark contract.
CHILD_TIMEOUT_S = 90.0

clock = time.perf_counter

_SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")}


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that calls no ``ctstl`` code:
    a sample of how fast this machine runs Python right now."""
    t0 = clock()
    total = 0
    for i in range(300_000):
        total += i
    return clock() - t0


def child_env(spans_path: Path | None = None) -> dict[str, str]:
    env = dict(os.environ, **_SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PERFBENCH_SPANS", None)
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def cli_command(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "traced_cli.py"), *argv]
    return [sys.executable, str(HERE / "cli_child.py"), *argv]


@dataclass
class Call:
    """One finished batch child: output, exit code and wall time."""

    code: int
    out: str
    err: str
    wall_s: float
    spans_path: Path | None = None


def run_call(argv: list[str], spans_path: Path | None = None,
             stdin: str = "") -> Call:
    """Run one CLI call to completion; wall time is spawn to exit."""
    cmd = cli_command(argv, spans_path is not None)
    t0 = clock()
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, env=child_env(spans_path),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Call(-9, "", f"timeout: {exc}", clock() - t0, spans_path)
    return Call(proc.returncode, proc.stdout, proc.stderr, clock() - t0,
                spans_path)


@dataclass
class Stream:
    """One closed-loop monitor child.

    ``sent[i]`` and ``got[i]`` are the clock readings when row i was
    written and when its event line was read; ``events`` holds the raw
    event lines.  ``spawn`` and ``exit`` bracket the whole child.
    """

    spawn: float = 0.0
    exit: float = 0.0
    sent: list[float] = field(default_factory=list)
    got: list[float] = field(default_factory=list)
    events: list[bytes] = field(default_factory=list)
    code: int = 0
    err: str = ""
    spans_path: Path | None = None

    @property
    def wall_s(self) -> float:
        return self.exit - self.spawn


def run_stream(argv: list[str], header: bytes, rows: list[bytes],
               spans_path: Path | None = None) -> Stream:
    """Feed rows one at a time; row i+1 is written only after row i's
    event line has been read.  Stops feeding after the decided event,
    then closes stdin and waits for the exit code."""
    cmd = cli_command(argv, spans_path is not None)
    st = Stream(spans_path=spans_path)
    st.spawn = clock()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(spans_path), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    sent, got, events = st.sent, st.got, st.events
    write, flush, readline = proc.stdin.write, proc.stdin.flush, \
        proc.stdout.readline
    try:
        write(header)
        for row in rows:
            sent.append(clock())
            write(row)
            flush()
            line = readline()
            got.append(clock())
            if not line:
                break
            events.append(line)
            if b'"decided": true' in line:
                break
    except BrokenPipeError:
        pass
    finally:
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        rest = proc.stdout.read()
        st.err = proc.stderr.read().decode(errors="replace")
        st.code = proc.wait()
        timer.cancel()
        st.exit = clock()
        proc.stdout.close()
        proc.stderr.close()
    if rest:
        events.extend(rest.splitlines(keepends=True))
    if len(got) > len(events):
        # the last read hit end of output: that row never got an event
        del sent[len(events):], got[len(events):]
    return st
