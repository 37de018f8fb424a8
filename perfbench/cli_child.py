"""``python -m ctstl.cli``, plus a record of the child's own peak memory.

The benchmark starts every untraced child through this file. ``runpy`` runs
``ctstl.cli`` as ``__main__``, exactly as ``-m`` does. At exit, the child
appends its peak resident set, ``VmHWM`` from ``/proc/self/status`` in kB,
to the file named by ``PERFBENCH_RSS``.

``getrusage(RUSAGE_CHILDREN)`` on the harness cannot give this number. The
kernel folds the peak of the address space a child was spawned from, which
is the harness's, into the child's ``ru_maxrss``.
"""

import os
import runpy


def _append_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(line.split()[1] for line in fh
                    if line.startswith("VmHWM:"))
    with open(path, "a", encoding="ascii") as fh:
        fh.write(peak + "\n")


if __name__ == "__main__":
    try:
        runpy.run_module("ctstl.cli", run_name="__main__", alter_sys=True)
    finally:
        if os.environ.get("PERFBENCH_RSS"):
            _append_peak(os.environ["PERFBENCH_RSS"])
