"""Sliding-window aggregation engines.

Each sliding algorithm has one implementation per backend.  Sliding rank
on the ``python`` backend is the bucketed sorted window
(:class:`_SortedWindow`) behind both :class:`SlidingKth` and
:func:`sliding_kth_batch`; the ``jit`` backend runs
``_kernels.kth_batch_kernel`` instead.  Sliding min and max
(:func:`sliding_extremum_batch`, van Herk / Gil-Werman) and the bounded
Until combine (:func:`until_batch`, one numpy pass per offset) are plain
numpy and run unchanged on either backend.  The naive_* functions
recompute every window from scratch; they are the re-evaluation baseline
the incremental engines are benchmarked and tested against.  NaN has no
rank, so every entry point rejects it; +-inf is legal.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque

import numpy as np

from . import _kernels
from ._accel import kernel, resolve_backend
from .errors import RankOutOfRange, WindowExceedsTrace
from .logic import TimeInterval, _snap_int

# Target bucket size of the sorted window.
_LOAD = 1000


def _no_nan(v: float) -> float:
    if math.isnan(v):
        raise ValueError("window values must not be NaN")
    return v


class _SortedWindow:
    """Multiset of floats as a sorted list cut into buckets.

    The load-factor design of the *sortedcontainers* package on ``bisect``:
    each update is a ``bisect`` over the bucket maxima plus an ``insort`` or
    ``del`` inside one bucket, O(log w + _LOAD) C-level work.  Buckets split
    above 2*_LOAD and merge into a neighbour below _LOAD/2, so there are at
    most 2w/_LOAD + 1 of them and a rank lookup scans their lengths in
    O(w/_LOAD).  Callers add before they discard, so no bucket empties.
    """

    __slots__ = ("lists", "maxes", "size")

    def __init__(self, values=()):
        first = sorted(values)
        self.lists = [first[j:j + _LOAD] for j in range(0, len(first), _LOAD)]
        self.maxes = [b[-1] for b in self.lists]
        self.size = len(first)

    def add(self, v: float) -> None:
        lists, maxes = self.lists, self.maxes
        self.size += 1
        p = bisect_right(maxes, v)
        if p == len(maxes):
            if not p:
                lists.append([v])
                maxes.append(v)
                return
            p -= 1
            lists[p].append(v)
            maxes[p] = v
        else:
            insort(lists[p], v)
        if len(lists[p]) > 2 * _LOAD:
            self._split(p)

    def discard(self, v: float) -> None:
        """Remove one entry equal to v, which must be present."""
        lists, maxes = self.lists, self.maxes
        self.size -= 1
        # the first bucket whose max is >= v holds an entry equal to v
        p = bisect_left(maxes, v)
        b = lists[p]
        del b[bisect_left(b, v)]
        if len(b) > _LOAD >> 1 or len(lists) == 1:
            maxes[p] = b[-1]
            return
        if p == 0:
            p = 1
        prev = lists[p - 1]
        prev.extend(lists[p])
        maxes[p - 1] = prev[-1]
        del lists[p]
        del maxes[p]
        if len(prev) > 2 * _LOAD:
            self._split(p - 1)

    def kth(self, k: int) -> float:
        """k-th largest entry, 1 <= k <= size."""
        j = self.size - k  # 0-based position in ascending order
        for b in self.lists:
            if j < len(b):
                return b[j]
            j -= len(b)

    def _split(self, p: int) -> None:
        """Move the part of bucket p past its first _LOAD entries to p+1."""
        b = self.lists[p]
        tail = b[_LOAD:]
        del b[_LOAD:]
        self.maxes[p] = b[-1]
        self.lists.insert(p + 1, tail)
        self.maxes.insert(p + 1, tail[-1])


class SlidingKth:
    """k-th largest over a sliding window, one push at a time.

    A ring of the last ``window`` values says which entry leaves; the
    window itself is a :class:`_SortedWindow`.
    """

    def __init__(self, k: int, window: int):
        k = int(k)
        window = int(window)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 1 <= k <= window:
            raise RankOutOfRange(k, window)
        self.k = k
        self.window = window
        self._ring: deque[float] = deque()
        self._sorted = _SortedWindow()
        self._count = 0

    @property
    def live_top(self) -> int:
        """Entries at or above the k-th largest: min(k, entries held)."""
        return min(self.k, self._sorted.size)

    @property
    def live_rest(self) -> int:
        return self._sorted.size - self.live_top

    def push(self, value: float) -> tuple[int, float] | None:
        """Insert a value; once the window is full, return (start, k-th).

        Nothing is returned during warm-up.
        """
        v = _no_nan(float(value))
        i = self._count
        self._count += 1
        self._ring.append(v)
        self._sorted.add(v)
        if i >= self.window:
            self._sorted.discard(self._ring.popleft())
        if i >= self.window - 1:
            return i - self.window + 1, self._sorted.kth(self.k)
        return None


def _as_span(interval) -> tuple[int, int]:
    if isinstance(interval, TimeInterval):
        lo, hi = interval.lo, interval.hi
    else:
        lo, hi = interval
    ilo, ihi = _snap_int(float(lo)), _snap_int(float(hi))
    if ilo is None or ihi is None:
        raise ValueError(
            f"window [{lo},{hi}] must have integer sample offsets")
    if ilo < 0 or ilo > ihi:
        raise ValueError(f"bad window [{lo},{hi}]")
    return ilo, ihi


def _as_trace(trace) -> np.ndarray:
    arr = np.asarray(trace, dtype=np.float64).ravel()
    if np.isnan(arr).any():
        raise ValueError("window values must not be NaN")
    return arr


def _prep(trace, interval) -> tuple[np.ndarray, int, int]:
    arr = _as_trace(trace)
    lo, hi = _as_span(interval)
    w = hi - lo + 1
    if hi > arr.size - 1:
        raise WindowExceedsTrace(w, arr.size)
    return arr, lo, w


def _kth_batch_py(values, w, k, out) -> None:
    """k-th largest of every complete width-w window, interpreted engine.

    Slides one :class:`_SortedWindow` over the trace; a slide that swaps
    equal values leaves the window as it was and is skipped.
    """
    vals = values.tolist()
    win = _SortedWindow(vals[:w])
    add, discard, kth = win.add, win.discard, win.kth
    res = [kth(k)]
    for new, old in zip(vals[w:], vals):
        if new != old:
            # insert first, so the window is never empty when w == 1
            add(new)
            discard(old)
        res.append(kth(k))
    out[:] = res


def sliding_kth_batch(trace, interval, k: int,
                      backend: str | None = None) -> np.ndarray:
    """k-th largest of trace[t+lo .. t+hi] for every admissible t.

    Output index t runs from 0; entry t covers the window anchored at t.
    """
    arr, lo, w = _prep(trace, interval)
    k = int(k)
    if not 1 <= k <= w:
        raise RankOutOfRange(k, w)
    out = np.empty(arr.size - lo - w + 1, dtype=np.float64)
    if resolve_backend(backend) == "python":
        _kth_batch_py(arr[lo:], w, k, out)
    else:
        kernel(_kernels.kth_batch_kernel, "jit")(arr[lo:], w, k, out)
    return out


def sliding_extremum_batch(trace, interval, mode: str) -> np.ndarray:
    """Per-window min or max, same indexing as sliding_kth_batch.

    van Herk / Gil-Werman: cut the trace into blocks of width w, padded
    with +inf, and take the running min forward and backward inside each
    block.  A window starting at t spans the tail of t's block and the head
    of the next, so its min is the backward min at t against the forward
    min at t+w-1.  Max is the negated min of the negated trace.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    arr, lo, w = _prep(trace, interval)
    x = arr[lo:] if mode == "min" else -arr[lo:]
    m = x.size - w + 1
    blocks = np.concatenate((x, np.full(-x.size % w, np.inf))).reshape(-1, w)
    fwd = np.minimum.accumulate(blocks, axis=1).ravel()
    bwd = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    out = np.minimum(bwd[:m], fwd[w - 1:w - 1 + m])
    return out if mode == "min" else -out


def until_batch(lvals, rvals, a: int, b: int) -> np.ndarray:
    """Bounded-until combine of two robustness traces.

    out[t] = max_{d in [a,b]} min(rvals[t+d], min of lvals[t .. t+d-1]).
    Output covers every t for which both argument traces reach far enough.
    One pass over all anchors per offset d: a running min of lvals[t+d-1],
    and from d = a on, the max with min(rvals[t+d], running min).
    """
    larr = _as_trace(lvals)
    rarr = _as_trace(rvals)
    if not 0 <= a <= b:
        raise ValueError(f"bad window [{a},{b}]")
    m = rarr.size - b
    if b >= 1:
        m = min(m, larr.size - b + 1)
    if m <= 0:
        raise WindowExceedsTrace(b + 1, min(larr.size, rarr.size))
    out = np.full(m, -np.inf)
    run = np.full(m, np.inf)
    for d in range(b + 1):
        if d >= 1:
            np.minimum(run, larr[d - 1:d - 1 + m], out=run)
        if d >= a:
            np.maximum(out, np.minimum(rarr[d:d + m], run), out=out)
    return out


def _chunk_rows(w: int) -> int:
    # keep each partitioned block near 64 MB
    return max(1, int(8_000_000 // max(w, 1)))


def naive_kth_batch(trace, interval, k: int) -> np.ndarray:
    """Per-window rank by re-partitioning every window from scratch.

    O(n * w) total work; the baseline the incremental engine is measured
    against.  Chunked so the materialized window matrix stays bounded.
    """
    arr, lo, w = _prep(trace, interval)
    k = int(k)
    if not 1 <= k <= w:
        raise RankOutOfRange(k, w)
    shifted = arr[lo:]
    view = np.lib.stride_tricks.sliding_window_view(shifted, w)
    out = np.empty(view.shape[0], dtype=np.float64)
    step = _chunk_rows(w)
    for s in range(0, out.size, step):
        e = min(s + step, out.size)
        out[s:e] = np.partition(view[s:e], w - k, axis=1)[:, w - k]
    return out


def naive_extremum_batch(trace, interval, mode: str) -> np.ndarray:
    """Per-window scan min/max; oracle for sliding_extremum_batch."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    arr, lo, w = _prep(trace, interval)
    view = np.lib.stride_tricks.sliding_window_view(arr[lo:], w)
    out = np.empty(view.shape[0], dtype=np.float64)
    step = _chunk_rows(w)
    agg = np.min if mode == "min" else np.max
    for s in range(0, out.size, step):
        e = min(s + step, out.size)
        out[s:e] = agg(view[s:e], axis=1)
    return out
