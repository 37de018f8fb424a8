"""Sliding-window aggregation engines.

Each sliding algorithm has one implementation per backend.  Sliding rank
(:func:`sliding_kth_batch`) on the ``python`` backend is a numpy wavelet
matrix that answers every window's rank query at once, in O((n + m) log d)
array work for n samples, m windows and d distinct values, whatever the
width or the rank; the ``jit`` backend runs ``_kernels.kth_batch_kernel``
instead.  Sliding min and max (:func:`sliding_extremum_batch`, van Herk /
Gil-Werman) and the bounded Until combine (:func:`until_batch`, one numpy
pass per offset) are plain numpy and run unchanged on either backend.  The
naive_* functions recompute every window from scratch; they are the
re-evaluation baseline the sliding engines are benchmarked and tested
against.  NaN has no rank, so every entry point rejects it; +-inf is legal.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._accel import kernel, resolve_backend
from .errors import RankOutOfRange, WindowExceedsTrace
from .logic import TimeInterval, _snap_int


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
    """k-th largest of every complete width-w window, as a wavelet matrix.

    The trace becomes ranks into ``uniq``, its distinct values in order, and
    each window [t, t+w) asks for its (w-k)-th smallest rank.  All windows
    descend the bit levels together, highest bit first (Claude, Navarro and
    Ordonez, "The wavelet matrix", SPIRE 2012).  At each level a prefix
    count of zero bits moves every window's range onto the zero part or the
    one part of the next level's sequence, whichever holds the rank it
    seeks, and a stable partition by the bit builds that sequence.  A level
    is dropped once used, so memory is O(n + m).  After the last level a
    window's range holds only entries of the answer's rank.  Positions are
    int32, which holds traces of fewer than 2**31 samples.  0.0 and -0.0
    share a rank, so which of them answers is unspecified, as in
    :func:`naive_kth_batch`.
    """
    uniq, seq = np.unique(values, return_inverse=True)
    seq = seq.astype(np.int32)
    lo = np.arange(out.size, dtype=np.int32)
    hi = lo + np.int32(w)
    q = np.full(out.size, w - k, dtype=np.int32)
    zeros = np.zeros(values.size + 1, dtype=np.int32)
    for s in reversed(range((uniq.size - 1).bit_length())):
        one = (seq & (1 << s)) > 0
        np.cumsum(~one, out=zeros[1:])
        zl, zh = zeros[lo], zeros[hi]
        z = zh - zl  # entries of each window with bit s clear
        up = q >= z  # the rank sought has bit s set
        q -= z * up
        lo = np.where(up, lo - zl + zeros[-1], zl)
        hi = np.where(up, hi - zh + zeros[-1], zh)
        seq = seq[np.argsort(one, kind="stable")]
    out[:] = uniq[seq[lo]]


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
