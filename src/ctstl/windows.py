"""Sliding-window aggregation engines.

Each sliding algorithm has one implementation, in numpy.  Sliding rank
(:func:`sliding_kth_batch`) is a wavelet matrix that answers every window's
rank query at once, in O((n + m) log d) array work for n samples, m windows
and d distinct values, whatever the width or the rank.  Sliding min and max
(:func:`sliding_extremum_batch`) is van Herk / Gil-Werman, and the bounded
Until combine (:func:`until_batch`) is one numpy pass per offset.  The
naive_* functions recompute every window from scratch; they are the
re-evaluation baseline the sliding engines are tested against.  NaN has
no rank, so every entry point rejects it; +-inf is legal.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import RankOutOfRange, WindowExceedsTrace


def _as_trace(trace) -> np.ndarray:
    arr = np.asarray(trace, dtype=np.float64).ravel()
    if np.isnan(arr).any():
        raise ValueError("window values must not be NaN")
    return arr


def _window(interval) -> tuple[int, int]:
    """A window (lo, hi) of integer sample offsets, 0 <= lo <= hi."""
    lo, hi = map(operator.index, interval)
    if not 0 <= lo <= hi:
        raise ValueError(f"bad window [{lo},{hi}]")
    return lo, hi


def _prep(trace, interval, k=1, mode="min") -> tuple[np.ndarray, int, list]:
    """The trace from the start of a window (lo, hi) on, the window's
    width, and the ranks within it, k or each of a sequence k, as ints;
    an extremum's ``mode`` is checked first."""
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    arr = _as_trace(trace)
    lo, hi = _window(interval)
    w = hi - lo + 1
    if hi > arr.size - 1:
        raise WindowExceedsTrace(w, arr.size)
    ks = [int(j) for j in k] if np.ndim(k) else [int(k)]
    for j in ks:
        if not 1 <= j <= w:
            raise RankOutOfRange(j, w)
    return arr[lo:], w, ks


def _wavelet_kth(values, w, ks) -> np.ndarray:
    """Row j: the ks[j]-th largest of every complete width-w window.

    The trace becomes ranks into ``uniq``, its distinct values in order, and
    each window [t, t+w) asks for its (w-k)-th smallest rank.  All windows
    descend the bit levels together, highest bit first (Claude, Navarro and
    Ordonez, "The wavelet matrix", SPIRE 2012).  At each level a prefix
    count of zero bits moves every window's range onto the zero part or the
    one part of the next level's sequence, whichever holds the rank it
    seeks (:func:`_descend`, one rank at a time, so each temporary is m
    long), and a stable partition by the bit builds that sequence once for
    all ranks.  A level is dropped once used, so memory is O(n + m * r)
    for r ranks.  After the last level a window's range holds only entries
    of the answer's rank.  Positions are int32, which holds traces of
    fewer than 2**31 samples.  0.0 and -0.0 share a rank, so which of them
    answers is unspecified, as in :func:`naive_kth_batch`.
    """
    uniq, seq = np.unique(values, return_inverse=True)
    seq = seq.astype(np.int32)
    m = values.size - w + 1
    lo = np.tile(np.arange(m, dtype=np.int32), (len(ks), 1))
    hi = lo + np.int32(w)
    q = (w - np.array(ks, dtype=np.int32))[:, None].repeat(m, axis=1)
    zeros = np.zeros(values.size + 1, dtype=np.int32)
    for s in reversed(range((uniq.size - 1).bit_length())):
        one = (seq & (1 << s)) > 0
        np.cumsum(~one, out=zeros[1:])
        for j in range(len(ks)):
            _descend(zeros, lo[j], hi[j], q[j])
        seq = seq[np.argsort(one, kind="stable")]
    del hi, q, zeros  # freed before the answers are gathered
    return uniq[np.take(seq, lo, out=lo)]


def _descend(zeros, lo, hi, q) -> None:
    """Move each window's range [lo, hi) in place onto the part of the next
    level holding its q-th smallest entry; ``zeros`` counts zero bits."""
    zl, zh = zeros[lo], zeros[hi]
    z = zh - zl  # entries of each window with the bit clear
    up = q >= z  # the rank sought has the bit set
    q -= z * up
    lo[:] = np.where(up, lo - zl + zeros[-1], zl)
    hi[:] = np.where(up, hi - zh + zeros[-1], zh)


def sliding_kth_batch(trace, interval, k) -> np.ndarray:
    """k-th largest of trace[t+lo .. t+hi] for every admissible t.

    Output index t runs from 0; entry t covers the window anchored at t.
    With a sequence of ranks k, column j of an (anchors, len(k)) array
    answers k[j], all over one wavelet matrix.
    """
    x, w, ks = _prep(trace, interval, k)
    out = _wavelet_kth(x, w, ks)
    return out.T if np.ndim(k) else out[0]


def sliding_extremum_batch(trace, interval, mode: str) -> np.ndarray:
    """Per-window min or max, same indexing as sliding_kth_batch.

    van Herk / Gil-Werman: cut the trace into blocks of width w, padded
    with +inf, and take the running min forward and backward inside each
    block.  A window starting at t spans the tail of t's block and the head
    of the next, so its min is the backward min at t against the forward
    min at t+w-1.  Max is the negated min of the negated trace.
    """
    x, w, _ = _prep(trace, interval, mode=mode)
    x = x if mode == "min" else -x
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
    a, b = _window((a, b))
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


def _per_window(x: np.ndarray, w: int, agg) -> np.ndarray:
    """agg of every complete width-w window of x, agg taking a block of
    windows, one per row.  Chunked so each block stays near 64 MB."""
    view = np.lib.stride_tricks.sliding_window_view(x, w)
    out = np.empty(view.shape[0], dtype=np.float64)
    step = max(1, 8_000_000 // w)
    for s in range(0, out.size, step):
        out[s:s + step] = agg(view[s:s + step])
    return out


def naive_kth_batch(trace, interval, k) -> np.ndarray:
    """Per-window rank by re-partitioning every window from scratch.

    O(n * w) total work per rank, k as in :func:`sliding_kth_batch`; the
    baseline the incremental engine is measured against.
    """
    x, w, ks = _prep(trace, interval, k)
    out = np.array([_per_window(
        x, w, lambda v: np.partition(v, w - j, axis=1)[:, w - j])
        for j in ks]).reshape(len(ks), x.size - w + 1)
    return out.T if np.ndim(k) else out[0]


def naive_extremum_batch(trace, interval, mode: str) -> np.ndarray:
    """Per-window scan min/max; oracle for sliding_extremum_batch."""
    x, w, _ = _prep(trace, interval, mode=mode)
    agg = np.min if mode == "min" else np.max
    return _per_window(x, w, lambda v: agg(v, axis=1))
