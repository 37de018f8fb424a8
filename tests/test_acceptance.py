"""Acceptance gate: eight headline checks, one pass/fail line each.

Run with -s to see the checklist.  Every check states its tolerance
(exact equality unless noted) and asserts its own runtime budget.

Check 1 pins the worked example at two anchors.  At anchor 0 the rank
definition gives 3 for the first trace (the 4th largest of the window
margins {1,2,3,6,9,-1,4}).  The example's recorded pair (4 for the first
trace, -2 for the second) is the robustness at anchor 1, where the window
margins are {2,3,6,9,-1,4,4} and {-4,-5,6,-6,-2,-1,4}; it is pinned
there.  The README's "Tests and acceptance" section has the analysis.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import push_held_to_rosi_naive, random_formula, random_signal
from ctstl import (MonitorState, Signal, horizon, max_tau_oracle,
                   naive_kth_batch, parse, robustness, satisfies,
                   sliding_extremum_batch, sliding_kth_batch, validate)
from ctstl.errors import ValidationError
from ctstl.generators import (glucose_formulas, glucose_trace,
                              overvoltage_formulas, overvoltage_trace)
from ctstl.logic import Atom, iter_nodes

INF = math.inf
X = ("x",)
XY = ("x", "y")


@contextmanager
def criterion(num: int, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget_s:
        print(f"\nCRITERION {num}: FAIL "
              f"({dt:.2f}s exceeds budget {budget_s:.0f}s)")
        raise AssertionError(f"runtime {dt:.2f}s over budget {budget_s}s")
    print(f"\nCRITERION {num}: PASS ({dt:.2f}s, budget {budget_s:.0f}s)")


def _signal(vals, names=X, delta=1.0):
    return Signal(names, np.asarray(vals, dtype=float).reshape(
        -1, len(names)), delta)


def _random_instance(rng, depth, max_len, names=XY):
    """Validated formula plus an integer signal covering its horizon."""
    while True:
        f = random_formula(rng, names, int(rng.integers(1, depth + 1)))
        try:
            f = validate(f, names)
        except ValidationError:
            continue
        h = horizon(f)
        if h + 1 > max_len:
            continue
        n = int(rng.integers(h + 1, max_len + 1))
        return f, random_signal(rng, names, n)


def test_criterion_1_worked_example_golden_values():
    with criterion(1, 1.0):
        f = validate(parse("C[2,8]^4 (x > 1)"), X)
        x1 = _signal([0, 0, 2, 3, 4, 7, 10, 0, 5, 5, 15])
        x2 = _signal([0, 0, 2, -3, -4, 7, -5, -1, 0, 5, 15])
        assert satisfies(f, x1, 0) is True
        assert satisfies(f, x2, 0) is False
        # anchor 0 covers samples 2..8.  Margins x - 1 of x1 there:
        # {1,2,3,6,9,-1,4}, descending 9,6,4,3,2,1,-1, 4th largest 3.
        # Of x2: {1,-4,-5,6,-6,-2,-1}, descending 6,1,-1,-2,..., 4th -2.
        assert robustness(f, x2, 0) == -2.0
        r1 = robustness(f, x1, 0)
        assert r1 == 3.0, (
            f"anchor 0: computed {r1}, but the window margins are "
            "{1,2,3,6,9,-1,4} and their 4th largest is 3")
        # the example's recorded pair (4, -2) is the robustness at anchor
        # 1, samples 3..9.  Margins of x1: {2,3,6,9,-1,4,4}, descending
        # 9,6,4,4,3,2,-1, 4th largest 4.  Of x2: {-4,-5,6,-6,-2,-1,4},
        # descending 6,4,-1,-2,..., 4th largest -2.
        got = (robustness(f, x1, 1), robustness(f, x2, 1))
        assert got == (4.0, -2.0), (
            f"anchor 1: computed {got}, but the 4th largest window margins "
            "are 4 of {2,3,6,9,-1,4,4} and -2 of {-4,-5,6,-6,-2,-1,4}")


def test_criterion_2_streaming_replay_exact_worklists():
    with criterion(2, 1.0):
        stream = [2.0, -1.0, 7.0, 10.0, -5.0, 15.0, 8.0, -2.0]
        mon = MonitorState(parse("G[0,2] C[1,5]^3 (x > 0)"), X)
        ids = {type(n).__name__: i for i, n in mon.node_ids()}
        root, cnode, atom = ids["Always"], ids["Cumulative"], ids["Atom"]

        def table(nid):
            return {t: (r.lb, r.ub)
                    for t, r in mon.node_entries(nid).items()}

        verdicts = []
        for v in stream[:5]:
            verdicts.append(mon.push_sample([v]))
        assert table(atom) == {
            1: (-1, -1), 2: (7, 7), 3: (10, 10), 4: (-5, -5),
            5: (-INF, INF), 6: (-INF, INF), 7: (-INF, INF)}
        assert table(cnode) == {0: (-1, 7), 1: (-5, 10), 2: (-INF, INF)}
        assert table(root) == {0: (-INF, 7)}

        verdicts.append(mon.push_sample([stream[5]]))
        assert table(atom)[5] == (15, 15)
        assert table(cnode) == {0: (7, 7), 1: (7, 10), 2: (-5, 15)}
        assert table(root) == {0: (-5, 7)}

        verdicts.append(mon.push_sample([stream[6]]))
        assert table(cnode) == {0: (7, 7), 1: (8, 8), 2: (8, 10)}
        assert table(root) == {0: (7, 7)}

        assert [v.outcome for v in verdicts] == [None] * 6 + [True]
        assert verdicts[-1].decided_at == 6 == horizon(mon.formula) - 1


def test_criterion_3_sign_agreement_suite():
    with criterion(3, 60.0):
        rng = np.random.default_rng(3001)
        checked = 0
        while checked < 2000:
            f, sig = _random_instance(rng, depth=4, max_len=40)
            theta = robustness(f, sig, 0)
            if theta == 0:
                continue
            sat = satisfies(f, sig, 0)
            assert (theta > 0) == sat and (theta < 0) == (not sat), \
                f"{f} on {sig.values[:, 0]!r}: theta={theta}, sat={sat}"
            checked += 1


def test_criterion_4_perturbation_suite():
    with criterion(4, 60.0):
        rng = np.random.default_rng(4001)
        checked = 0
        while checked < 500:
            f, sig = _random_instance(rng, depth=3, max_len=30)
            theta = robustness(f, sig, 0)
            if theta == 0:
                continue
            truth = satisfies(f, sig, 0)
            # atom margins move by at most the coefficient L1 norm times
            # the signal perturbation, so scale noise to keep every
            # secondary-signal deviation under 0.99 |theta|
            lip = max(sum(abs(c) for _, c in n.coeffs)
                      for _, n in iter_nodes(f) if isinstance(n, Atom))
            for _ in range(10):
                eps = rng.uniform(-0.98, 0.98, size=sig.values.shape)
                bumped = Signal(sig.names,
                                sig.values + eps * abs(theta) / lip,
                                sig.delta)
                assert satisfies(f, bumped, 0) == truth, \
                    f"{f}: characteristic flipped inside the margin"
            checked += 1


def test_criterion_5_sliding_engine_oracle_equivalence():
    with criterion(5, 30.0):
        rng = np.random.default_rng(5001)
        for _ in range(500):
            n = int(rng.integers(2, 90))
            a = int(rng.integers(0, 4))
            b = a + int(rng.integers(0, min(12, max(1, n - a))))
            if b >= n:
                b = n - 1
            if b < a:
                continue
            trace = rng.integers(-100, 101, size=n).astype(float)
            w = b - a + 1
            k = int(rng.integers(1, w + 1))
            got = sliding_kth_batch(trace, (a, b), k)
            want = np.array([max_tau_oracle(trace[t + a:t + b + 1], k)
                             for t in range(n - b)])
            assert np.array_equal(got, want)
            gmax = sliding_extremum_batch(trace, (a, b), "max")
            smax = np.array([max(trace[t + a:t + b + 1])
                             for t in range(n - b)])
            assert np.array_equal(gmax, smax)
            gmin = sliding_extremum_batch(trace, (a, b), "min")
            smin = np.array([min(trace[t + a:t + b + 1])
                             for t in range(n - b)])
            assert np.array_equal(gmin, smin)


def test_criterion_6_online_naive_agreement():
    with criterion(6, 120.0):
        rng = np.random.default_rng(6001)
        for _ in range(200):
            f, sig = _random_instance(rng, depth=3, max_len=24)
            push_held_to_rosi_naive(MonitorState(f, XY), sig.values)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


@pytest.mark.slow
def test_criterion_7_worklist_vs_naive_scaling():
    with criterion(7, 600.0):
        trace = np.random.default_rng(7001).standard_normal(1_000_000)
        w = 10_000
        t_fast, fast = _timed(sliding_kth_batch, trace, (0, w - 1), 5_000)
        t_naive, naive = _timed(naive_kth_batch, trace, (0, w - 1), 5_000)
        assert np.array_equal(fast, naive), \
            "engines disagree on the criterion's trace"
        assert t_naive >= 5.0 * t_fast, (
            f"sliding rank only {t_naive / t_fast:.1f}x faster than naive "
            f"re-evaluation (needs 5x)")
        # the median of three calls per width, so that one slow call on a
        # busy host does not read as growth
        t_w, t_2w = (statistics.median(
            _timed(sliding_kth_batch, trace, (0, v - 1), v // 2)[0]
            for _ in range(3)) for v in (w, 2 * w))
        assert t_2w < 2.0 * t_w, (
            f"per-sample cost grew {t_2w / t_w:.2f}x when the window "
            "doubled (needs < 2x, log-like)")


def test_criterion_8_case_study_verdicts_and_early_termination():
    with criterion(8, 60.0):
        # voltage staircase, window scaled to 2000 samples; budgets are
        # limit+1 samples at or above each threshold per window
        W = 2000
        fam = overvoltage_formulas(window=W)
        phi5 = validate(parse(fam["phi5"]), ("v",))
        n = horizon(phi5) + 1
        sat_sig, sat_rep = overvoltage_trace(
            n, seed=8001, over17=17, over14=14, over13=130, spread=W + 1)
        assert (sat_rep["v_ge_1.7"], sat_rep["v_ge_1.4"],
                sat_rep["v_ge_1.3"]) == (17, 31, 161)
        assert satisfies(phi5, sat_sig, 0) is True

        viol_sig, viol_rep = overvoltage_trace(
            n, seed=8002, over17=18, spread=W + 1)
        assert viol_rep["v_ge_1.7"] == 18
        assert satisfies(phi5, viol_sig, 0) is False
        mon = MonitorState(phi5, ("v",))
        decided = None
        for i in range(n):
            v = mon.push_sample(viol_sig.values[i])
            if v.decided:
                decided = i
                break
        assert decided is not None and decided < n - 1, \
            "violating voltage stream must terminate before end-of-stream"
        assert v.outcome is False

        # glucose day: at most 11 hypo and 71 hyper samples stay legal
        t1, t2 = 288, 36
        gfam = glucose_formulas(t1=t1, t2=t2)
        gphi5 = validate(parse(gfam["phi5"]), X)
        gn = horizon(gphi5) + 1
        ok_sig, ok_rep = glucose_trace(gn, seed=8003, hypo=11, hyper=71)
        assert (ok_rep["x_lt_70"], ok_rep["x_gt_180"]) == (11, 71)
        assert satisfies(gphi5, ok_sig, 0) is True

        for kw in ({"hypo": 12}, {"hyper": 72}):
            bad_sig, _ = glucose_trace(gn, seed=8004, spread=t1 + 1, **kw)
            assert satisfies(gphi5, bad_sig, 0) is False
            mon = MonitorState(gphi5, X)
            decided = None
            for i in range(gn):
                v = mon.push_sample(bad_sig.values[i])
                if v.decided:
                    decided = i
                    break
            assert decided is not None and decided < gn - 1, \
                f"glucose stream {kw} must terminate early"
            assert v.outcome is False
