"""Timing harness for the sliding-rank engines and the online monitor."""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from .errors import check_at_least
from .monitor import MonitorState
from .oracle import NaiveMonitor
from .randgen import random_formula, random_signal
from .windows import naive_kth_batch, sliding_kth_batch


def _time(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def bench_kth(n: int = 100_000, w: int = 1_000, k: int | None = None,
              seed: int = 0) -> dict:
    """Sliding rank engine vs per-window re-partition on one random trace.

    The engine is the wavelet matrix of ``windows``; the report calls it
    ``worklist``.  Outputs must agree exactly or the report flags it.
    """
    check_at_least(0, seed=seed)  # numpy's generators refuse one below
    check_at_least(1, n=n, w=w)
    if k is None:
        k = max(1, w // 2)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal(n)
    iv = (0, w - 1)
    t_work, out_work = _time(sliding_kth_batch, trace, iv, k)
    t_naive, out_naive = _time(naive_kth_batch, trace, iv, k)
    return {
        "engine": "sliding_kth",
        "n": n, "w": w, "k": k,
        "t_worklist": t_work,
        "t_naive": t_naive,
        "per_sample_worklist": t_work / n,
        "per_sample_naive": t_naive / n,
        "speedup": t_naive / t_work if t_work > 0 else float("inf"),
        "agree": bool(np.array_equal(out_work, out_naive)),
    }


def bench_scaling(n: int = 100_000, w: int = 1_000, seed: int = 0) -> dict:
    """Per-sample engine cost at window w vs 2w (k tracks w/2), each the
    median of three calls."""
    check_at_least(0, seed=seed)
    check_at_least(1, n=n, w=w)
    rng = np.random.default_rng(seed)
    trace = rng.standard_normal(n)
    w2 = min(2 * w, n)  # degenerate traces: keep the probe window feasible
    costs = {}
    for wi in (w, w2):
        # the median of a few calls, so that one slow call on a busy host
        # does not read as growth
        t = median(_time(sliding_kth_batch, trace, (0, wi - 1),
                         max(1, wi // 2))[0] for _ in range(3))
        costs[wi] = t / n
    return {
        "engine": "sliding_kth_scaling",
        "n": n, "w": w, "w2": w2,
        "per_sample_w": costs[w],
        "per_sample_2w": costs[w2],
        "growth": costs[w2] / costs[w] if costs[w] > 0 else float("inf"),
    }


def bench_monitor(cases: int = 100, seed: int = 0) -> dict:
    """Online monitor vs full-recompute reference on random streams.

    Each case is a depth-3 random formula over x and y and a 30-sample
    stream.  Half the cases carry variable bounds, with the stream drawn
    inside them.  A case counts as a mismatch when the two engines differ
    in any verdict, root interval included, after any sample or at the
    end; the report carries the count so a benchmark run doubles as a
    cross-check.
    """
    check_at_least(0, seed=seed, cases=cases)
    rng = np.random.default_rng(seed)
    names = ("x", "y")
    mismatch = 0
    t_inc = 0.0
    t_naive = 0.0
    for case in range(cases):
        f = random_formula(rng, names, 3)
        lo, hi = -8, 8
        bounds = None
        if case % 2:
            lo, hi = int(rng.integers(-8, 1)), int(rng.integers(0, 9))
            bounds = {name: (float(lo), float(hi)) for name in names}
        sig = random_signal(rng, names, 30, lo=lo, hi=hi)
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
    return {
        "engine": "monitor",
        "cases": cases,
        "t_incremental": t_inc,
        "t_recompute": t_naive,
        "mismatches": mismatch,
    }
