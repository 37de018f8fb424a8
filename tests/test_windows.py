"""Sliding rank and extremum engines against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctstl import (SlidingKth, max_tau_oracle, naive_extremum_batch,
                   naive_kth_batch, sliding_extremum_batch, sliding_kth_batch,
                   until_batch)
from ctstl import _kernels
from ctstl.errors import WindowExceedsTrace
from ctstl.windows import _LOAD

FIG4 = [2, -1, 7, 10, -5, 15, 8, -2]


class TestSlidingKth:
    def test_warm_up_then_emission(self):
        eng = SlidingKth(3, 5)
        outs = [eng.push(v) for v in FIG4[:6]]
        # nothing while fewer than w entries are buffered; the first
        # full window reports at start index 0
        assert outs[:4] == [None] * 4
        assert outs[4] == (0, 2)
        assert outs[5] == (1, 7)
        eng.push(8)
        assert eng.push(-2) == (3, 8)

    def test_window_start_indexing(self):
        eng = SlidingKth(3, 5)
        results = [r for v in FIG4 for r in [eng.push(v)] if r is not None]
        assert results == [(0, 2), (1, 7), (2, 8), (3, 8)]

    def test_identity_window(self):
        eng = SlidingKth(1, 1)
        assert eng.push(42.0) == (0, 42.0)
        assert eng.push(-1.0) == (1, -1.0)

    def test_streaming_matches_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(5, 60))
            w = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, w + 1))
            vals = rng.integers(-9, 10, size=n).astype(float)
            eng = SlidingKth(k, w)
            for i, v in enumerate(vals):
                got = eng.push(v)
                if i < w - 1:
                    assert got is None
                else:
                    start = i - w + 1
                    want = max_tau_oracle(vals[start:i + 1], k)
                    assert got == (start, want)

    def test_duplicates_keep_live_counts_honest(self):
        eng = SlidingKth(2, 4)
        outs = [eng.push(v) for v in [5, 5, 5, 5, 5, 5, 5]]
        assert outs[3:] == [(0, 5), (1, 5), (2, 5), (3, 5)]
        assert eng.live_top == 2
        assert eng.live_rest == 2

    def test_infinities_are_legal(self):
        inf = float("inf")
        eng = SlidingKth(2, 3)
        eng.push(-inf)
        eng.push(inf)
        assert eng.push(0.0) == (0, 0.0)
        assert eng.push(inf) == (1, inf)

    def test_sorted_window_invariants(self, rng):
        # Widths around 3 * _LOAD keep the window in several buckets that
        # fill, split, drain and merge as the random walk drifts.  A falling
        # ramp followed by a plateau low in it drains the top bucket into
        # an overfull neighbour, so the merge has to split again.
        traces = []
        for w in (3 * _LOAD - 1, 3 * _LOAD + 7):
            traces.append((w, np.cumsum(rng.integers(-3, 4, size=4 * w))))
            traces.append((w, np.r_[np.arange(w, 0, -1),
                                    np.full(2 * w, w / 10 + 0.5)]))
        for w, vals in traces:
            eng = SlidingKth(w // 2, w)
            for i, v in enumerate(vals):
                eng.push(v)
                win = eng._sorted
                assert win.size == min(i + 1, w)
                assert len(win.lists) == len(win.maxes)
                for b, m in zip(win.lists, win.maxes):
                    assert b and b == sorted(b) and len(b) <= 2 * _LOAD
                    assert m == b[-1]
                assert win.maxes == sorted(win.maxes)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sliding_kth_property(data):
    vals = data.draw(st.lists(st.integers(-20, 20), min_size=1,
                              max_size=50))
    w = data.draw(st.integers(1, len(vals)))
    k = data.draw(st.integers(1, w))
    eng = SlidingKth(k, w)
    for i, v in enumerate(vals):
        got = eng.push(float(v))
        if i >= w - 1:
            window = sorted(vals[i - w + 1:i + 1], reverse=True)
            assert got == (i - w + 1, float(window[k - 1]))
        else:
            assert got is None
        if i >= w - 1:
            assert eng.live_top == k
            assert eng.live_rest == w - k


class TestSlidingExtremum:
    def test_small(self):
        tr = [2, -1, 7]
        assert sliding_extremum_batch(tr, (0, 1), "max").tolist() == [2, 7]
        assert sliding_extremum_batch(tr, (0, 1), "min").tolist() == [-1, -1]
        assert sliding_extremum_batch(tr, (0, 0), "min").tolist() == tr
        assert sliding_extremum_batch(tr, (1, 2), "max").tolist() == [7]

    def test_batch_matches_scan(self, rng):
        # widths that divide the trace and widths that leave a padded
        # last block, windows starting on and off a block boundary
        for mode, red in (("min", min), ("max", max)):
            for _ in range(40):
                n = int(rng.integers(3, 50))
                a = int(rng.integers(0, 3))
                b = int(rng.integers(a, n))
                vals = rng.integers(-9, 10, size=n).astype(float)
                got = sliding_extremum_batch(vals, (a, b), mode)
                assert got.tolist() == [red(vals[t + a:t + b + 1])
                                        for t in range(n - b)]


class TestBatchDrivers:
    def test_fig4_row(self):
        out = sliding_kth_batch(FIG4, (1, 5), 3)
        assert out.tolist() == [7.0, 8.0, 8.0]

    def test_width_one_windows(self):
        assert sliding_kth_batch([1, 2, 3], (0, 0), 1).tolist() == [1, 2, 3]

    def test_extremum_example_and_duality(self, rng):
        assert sliding_extremum_batch([2, -1, 7], (0, 1),
                                      "max").tolist() == [2.0, 7.0]
        tr = rng.integers(-9, 10, size=40).astype(float)
        lo = sliding_extremum_batch(tr, (2, 6), "min")
        hi = sliding_extremum_batch(-tr, (2, 6), "max")
        assert np.array_equal(lo, -hi)

    def test_window_exceeds_trace(self):
        with pytest.raises(WindowExceedsTrace):
            sliding_kth_batch([1, 2], (0, 4), 2)
        with pytest.raises(WindowExceedsTrace):
            sliding_extremum_batch([1, 2], (0, 2), "min")

    def test_batch_matches_oracles(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 80))
            a = int(rng.integers(0, 3))
            b = a + int(rng.integers(0, min(8, n - a)))
            if b >= n:
                continue
            tr = rng.integers(-50, 51, size=n).astype(float)
            w = b - a + 1
            k = int(rng.integers(1, w + 1))
            got = sliding_kth_batch(tr, (a, b), k)
            want = [max_tau_oracle(tr[t + a:t + b + 1], k)
                    for t in range(n - b)]
            assert got.tolist() == want
            gmin = sliding_extremum_batch(tr, (a, b), "min")
            assert gmin.tolist() == [min(tr[t + a:t + b + 1])
                                     for t in range(n - b)]

    def test_batch_matches_naive_batch(self, rng):
        tr = rng.standard_normal(500)
        for (a, b), k in (((0, 9), 3), ((2, 2), 1), ((1, 31), 17)):
            assert np.array_equal(sliding_kth_batch(tr, (a, b), k),
                                  naive_kth_batch(tr, (a, b), k))
            for mode in ("min", "max"):
                want = naive_extremum_batch(tr, (a, b), mode)
                assert np.array_equal(
                    sliding_extremum_batch(tr, (a, b), mode), want)

    def test_backends_agree(self, rng):
        tr = rng.standard_normal(300)
        for backend in ("python", "jit"):
            try:
                out = sliding_kth_batch(tr, (0, 24), 7, backend=backend)
            except Exception:
                pytest.skip("jit backend unavailable")
            assert np.array_equal(out, naive_kth_batch(tr, (0, 24), 7))


def test_rank_engines_match_naive_across_bucket_sizes(rng):
    # The interpreted engine keeps its window in sorted buckets of about
    # _LOAD entries.  Widths below and at the load stay in one bucket;
    # above it the window spans several, and the drifting traces (a
    # zigzag of plateaus, an integer random walk) fill buckets at one end
    # until they split and drain them at the other until they merge.  The
    # flat trace puts equal values, and equal bucket maxima, everywhere.
    # The heap kernel, run uncompiled, is held to the same oracle so the
    # jit source stays checked where numba is absent, and so is the
    # streaming class, which shares the batch driver's sorted window.
    for w in (_LOAD - 1, _LOAD, _LOAD + 1, 2 * _LOAD + 1, 4 * _LOAD + 3):
        n = 3 * w
        ramp = np.arange(n) // 4
        traces = {
            "flat": rng.integers(-3, 4, size=n).astype(float),
            "zigzag": np.minimum(ramp, ramp[::-1]).astype(float),
            "walk": np.cumsum(rng.integers(-1, 2, size=n)).astype(float),
        }
        for name, tr in traces.items():
            for k in (1, w // 3 + 1, w):
                want = naive_kth_batch(tr, (0, w - 1), k)
                got = sliding_kth_batch(tr, (0, w - 1), k, backend="python")
                assert np.array_equal(got, want), (name, w, k)
                heap = np.empty_like(want)
                _kernels.kth_batch_kernel(tr, w, k, heap)
                assert np.array_equal(heap, want), (name, w, k)
                push = SlidingKth(k, w).push
                stream = [r[1] for r in map(push, tr) if r]
                assert np.array_equal(stream, want), (name, w, k)


def test_nan_is_rejected_by_every_entry_point():
    # NaN has no rank, so no two rank engines need agree on a trace with it
    tr = [1, float("nan"), 3, 2, 0, 5, 4]
    calls = [
        lambda: sliding_kth_batch(tr, (0, 2), 2),
        lambda: naive_kth_batch(tr, (0, 2), 2),
        lambda: sliding_extremum_batch(tr, (0, 2), "min"),
        lambda: naive_extremum_batch(tr, (0, 2), "min"),
        lambda: until_batch(tr, [0.0] * 7, 0, 2),
        lambda: until_batch([0.0] * 7, tr, 0, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="NaN"):
            call()
    # the streaming engine refuses the sample and keeps its window as it was
    eng = SlidingKth(2, 3)
    eng.push(tr[0])
    with pytest.raises(ValueError, match="NaN"):
        eng.push(tr[1])
    assert [eng.push(v) for v in tr[2:4]] == [None, (0, 2.0)]


@pytest.mark.slow
def test_amortized_cost_is_log_like_in_window_width(rng):
    # a thousandfold window growth may cost at most the log factor;
    # 20x is the generous empirical bound
    try:
        sliding_kth_batch(np.zeros(32), (0, 7), 3, backend="jit")
    except Exception:
        pytest.skip("jit backend unavailable")
    import time
    n = 300_000
    tr = rng.standard_normal(n)
    costs = {}
    for w in (10, 10_000):
        k = max(1, w // 2)
        sliding_kth_batch(tr[:4 * w], (0, w - 1), k, backend="jit")
        t0 = time.perf_counter()
        sliding_kth_batch(tr, (0, w - 1), k, backend="jit")
        costs[w] = time.perf_counter() - t0
    assert costs[10_000] < 20 * costs[10]


def _until_oracle(lv, rv, a, b):
    """The bounded-until definition, anchor by anchor."""
    out = []
    for t in range(min(len(rv) - b, len(lv) - b + 1 if b else len(rv))):
        best = -np.inf
        for t1 in range(t + a, t + b + 1):
            best = max(best, min(rv[t1], min(lv[t:t1], default=np.inf)))
        out.append(best)
    return out


class TestUntilBatch:
    def test_matches_reference_recursion(self, rng):
        for _ in range(80):
            n = int(rng.integers(4, 40))
            a = int(rng.integers(0, 3))
            b = a + int(rng.integers(0, 4))
            if b >= n:
                continue
            lv = rng.integers(-9, 10, size=n).astype(float)
            rv = rng.integers(-9, 10, size=n).astype(float)
            assert until_batch(lv, rv, a, b).tolist() == \
                _until_oracle(lv, rv, a, b)


# ties of 0.0 with -0.0 and of the infinities with each other
_TIES = st.sampled_from([2.0, -2.0, 1.0, -1.0, 0.0, -0.0,
                         np.inf, -np.inf])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_numpy_layers_match_their_oracles(data):
    vals = data.draw(st.lists(_TIES, min_size=1, max_size=40))
    n = len(vals)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(a, n - 1))
    for mode in ("min", "max"):
        want = naive_extremum_batch(vals, (a, b), mode)
        assert sliding_extremum_batch(vals, (a, b), mode).tolist() == \
            want.tolist()
    other = data.draw(st.lists(_TIES, min_size=n, max_size=n))
    got = until_batch(vals, other, a, b)
    assert got.tolist() == _until_oracle(vals, other, a, b)
