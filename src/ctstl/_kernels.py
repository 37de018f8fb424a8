"""The jit backend's sliding-rank kernel.

Plain Python over preallocated numpy arrays, written so numba can compile
every function unchanged; ``_accel.kernel`` picks the compiled or interpreted
version.  The ``python`` backend runs its own rank engine (the wavelet
matrix in ``windows``), and only tests run this kernel uncompiled.  The
other sliding layers are plain numpy and need no kernel.  Helpers are
registered jitable so the compiled kernel can call them; under the
interpreted backend they are ordinary functions.

Heap convention: arrays are binary min-heaps ordered by value only.  A
max-heap is a min-heap of negated values, which keeps one set of helpers.
Expired entries are tombstoned lazily: an entry with arrival index <= i - w
is dead and is dropped when it surfaces at a root or during compaction.
"""

from __future__ import annotations

import numpy as np

try:
    from numba.extending import register_jitable
except ImportError:  # pragma: no cover - numba is a declared dependency
    def register_jitable(fn=None, **kwargs):
        if fn is None:
            return lambda f: f
        return fn


@register_jitable
def _kv_push(hv, hx, n, v, idx):
    hv[n] = v
    hx[n] = idx
    j = n
    while j > 0:
        p = (j - 1) >> 1
        if hv[p] <= hv[j]:
            break
        hv[p], hv[j] = hv[j], hv[p]
        hx[p], hx[j] = hx[j], hx[p]
        j = p


@register_jitable
def _kv_pop(hv, hx, n):
    n -= 1
    hv[0] = hv[n]
    hx[0] = hx[n]
    j = 0
    while True:
        left = 2 * j + 1
        if left >= n:
            break
        s = left
        right = left + 1
        if right < n and hv[right] < hv[left]:
            s = right
        if hv[j] <= hv[s]:
            break
        hv[j], hv[s] = hv[s], hv[j]
        hx[j], hx[s] = hx[s], hx[j]
        j = s
    return n


@register_jitable
def _kv_heapify(hv, hx, n):
    for j0 in range(n // 2 - 1, -1, -1):
        j = j0
        while True:
            left = 2 * j + 1
            if left >= n:
                break
            s = left
            right = left + 1
            if right < n and hv[right] < hv[left]:
                s = right
            if hv[j] <= hv[s]:
                break
            hv[j], hv[s] = hv[s], hv[j]
            hx[j], hx[s] = hx[s], hx[j]
            j = s


@register_jitable
def _kv_compact(hv, hx, n, thr):
    """Drop every entry with arrival index <= thr, restore heap order."""
    m = 0
    for j in range(n):
        if hx[j] > thr:
            hv[m] = hv[j]
            hx[m] = hx[j]
            m += 1
    _kv_heapify(hv, hx, m)
    return m


def kth_batch_kernel(values, w, k, out):
    """k-th largest of every complete width-w window, one pass.

    Two heaps: top holds the k largest live values (min-heap, root is the
    answer), bottom holds the rest (negated).  Physical heap sizes stay
    within fixed caps via periodic compaction, so memory is O(w) and each
    push costs O(log w) amortized.
    """
    n = values.shape[0]
    cap_t = 2 * k + 64
    cap_b = 2 * (w - k + 1) + 64
    tv = np.empty(cap_t, np.float64)
    tx = np.empty(cap_t, np.int64)
    bv = np.empty(cap_b, np.float64)
    bx = np.empty(cap_b, np.int64)
    nt = 0
    nb = 0
    live_t = 0
    live_b = 0
    ring = w + 1
    loc = np.zeros(ring, np.uint8)
    for i in range(n):
        v = values[i]
        thr = i - w
        while nt > 0 and tx[0] <= thr:
            nt = _kv_pop(tv, tx, nt)
        if live_t > 0 and v >= tv[0]:
            if nt == cap_t:
                nt = _kv_compact(tv, tx, nt, thr)
            _kv_push(tv, tx, nt, v, i)
            nt += 1
            loc[i % ring] = 0
            live_t += 1
        else:
            if nb == cap_b:
                nb = _kv_compact(bv, bx, nb, thr)
            _kv_push(bv, bx, nb, -v, i)
            nb += 1
            loc[i % ring] = 1
            live_b += 1
        if thr >= 0:
            if loc[thr % ring] == 0:
                live_t -= 1
            else:
                live_b -= 1
        while live_t > k:
            while tx[0] <= thr:
                nt = _kv_pop(tv, tx, nt)
            mv = tv[0]
            mi = tx[0]
            nt = _kv_pop(tv, tx, nt)
            if nb == cap_b:
                nb = _kv_compact(bv, bx, nb, thr)
            _kv_push(bv, bx, nb, -mv, mi)
            nb += 1
            loc[mi % ring] = 1
            live_t -= 1
            live_b += 1
        while live_t < k and live_b > 0:
            while bx[0] <= thr:
                nb = _kv_pop(bv, bx, nb)
            mv = -bv[0]
            mi = bx[0]
            nb = _kv_pop(bv, bx, nb)
            if nt == cap_t:
                nt = _kv_compact(tv, tx, nt, thr)
            _kv_push(tv, tx, nt, mv, mi)
            nt += 1
            loc[mi % ring] = 0
            live_b -= 1
            live_t += 1
        if i >= w - 1:
            while tx[0] <= thr:
                nt = _kv_pop(tv, tx, nt)
            out[i - w + 1] = tv[0]
