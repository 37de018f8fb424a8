"""Timing harness for the sliding-rank engines and the online monitor."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ._accel import resolve_backend
from .errors import ParamOutOfRange
from .logic import validate
from .monitor import MonitorState, NaiveMonitor
from .randgen import random_formula, random_signal
from .windows import naive_kth_batch, sliding_kth_batch


def _time(fn, *args, **kw):
    t0 = perf_counter()
    out = fn(*args, **kw)
    return perf_counter() - t0, out


def _check_sizes(n: int, w: int) -> None:
    for name, v in (("n", n), ("w", w)):
        if v < 1:
            raise ParamOutOfRange(f"{name} must be >= 1, got {v}")


def bench_kth(n: int = 100_000, w: int = 1_000, k: int | None = None,
              seed: int = 0, backend: str | None = None) -> dict:
    """Sliding rank engine vs per-window re-partition on one random trace.

    The engine is the backend's own, the wavelet matrix on ``python`` and
    the heap kernel on ``jit``; the report calls it ``worklist``.  Warms
    the selected backend on a small prefix first so jit compile time never
    lands in the measured run.  Outputs must agree exactly or the report
    flags it.
    """
    _check_sizes(n, w)
    if k is None:
        k = max(1, w // 2)
    backend = resolve_backend(backend)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal(n)
    iv = (0, w - 1)
    warm = trace[:min(n, 4 * w)]
    sliding_kth_batch(warm, iv, k, backend=backend)
    t_work, out_work = _time(sliding_kth_batch, trace, iv, k,
                             backend=backend)
    t_naive, out_naive = _time(naive_kth_batch, trace, iv, k)
    return {
        "engine": "sliding_kth",
        "backend": backend,
        "n": n, "w": w, "k": k,
        "t_worklist": t_work,
        "t_naive": t_naive,
        "per_sample_worklist": t_work / n,
        "per_sample_naive": t_naive / n,
        "speedup": t_naive / t_work if t_work > 0 else float("inf"),
        "agree": bool(np.array_equal(out_work, out_naive)),
    }


def bench_scaling(n: int = 100_000, w: int = 1_000, seed: int = 0,
                  backend: str | None = None) -> dict:
    """Per-sample engine cost at window w vs 2w (k tracks w/2)."""
    _check_sizes(n, w)
    backend = resolve_backend(backend)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal(n)
    w2 = min(2 * w, n)  # degenerate traces: keep the probe window feasible
    costs = {}
    for wi in (w, w2):
        iv = (0, wi - 1)
        ki = max(1, wi // 2)
        sliding_kth_batch(trace[:min(n, 4 * wi)], iv, ki, backend=backend)
        t, _ = _time(sliding_kth_batch, trace, iv, ki, backend=backend)
        costs[wi] = t / n
    return {
        "engine": "sliding_kth_scaling",
        "backend": backend,
        "n": n, "w": w, "w2": w2,
        "per_sample_w": costs[w],
        "per_sample_2w": costs[w2],
        "growth": costs[w2] / costs[w] if costs[w] > 0 else float("inf"),
    }


def bench_monitor(cases: int = 100, seed: int = 0, depth: int = 3,
                  length: int = 30) -> dict:
    """Online monitor vs full-recompute reference on random streams.

    Half the cases carry variable bounds, with the stream drawn inside
    them.  A case counts as a mismatch when the two engines differ in any
    verdict, root interval included, after any sample or at the end; the
    report carries the count so a benchmark run doubles as a cross-check.
    """
    rng = np.random.default_rng(seed)
    names = ("x", "y")
    mismatch = 0
    t_inc = 0.0
    t_naive = 0.0
    done = 0
    while done < cases:
        f = random_formula(rng, names, depth)
        try:
            validate(f, names)
        except Exception:
            continue
        lo, hi = -8, 8
        bounds = None
        if done % 2:
            lo, hi = int(rng.integers(-8, 1)), int(rng.integers(0, 9))
            bounds = {name: (float(lo), float(hi)) for name in names}
        sig = random_signal(rng, names, length, lo=lo, hi=hi)
        mon = MonitorState(f, names, bounds=bounds)
        ref = NaiveMonitor(f, names, bounds=bounds)
        for i in range(len(sig)):
            row = sig.values[i]
            t0 = perf_counter()
            va = mon.push_sample(row)
            t_inc += perf_counter() - t0
            t0 = perf_counter()
            vb = ref.push_sample(row)
            t_naive += perf_counter() - t0
            if va != vb:
                mismatch += 1
                break
        else:
            if mon.finalize() != ref.finalize():
                mismatch += 1
        done += 1
    return {
        "engine": "monitor",
        "cases": cases,
        "t_incremental": t_inc,
        "t_recompute": t_naive,
        "mismatches": mismatch,
    }
