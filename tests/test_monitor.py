"""Online monitor: interval refinement, decisions, naive agreement.

The streamed G[0,2] C[1,5]^3 (x > 0) example is the golden path: every
per-node interval it produces along the stream is known by hand, and the
verdict must land one sample before the formula horizon.
"""

import math

import numpy as np
import pytest

from conftest import make_case
from ctstl import (MonitorState, NaiveMonitor, RoSI, Signal, Verdict,
                   horizon, parse, robustness, rosi_naive, satisfies,
                   validate)
from ctstl import monitor
from ctstl.errors import ArityMismatch
from ctstl.randgen import random_signal

X = ("x",)
XY = ("x", "y")
FIG4 = [2.0, -1.0, 7.0, 10.0, -5.0, 15.0, 8.0, -2.0]
INF = math.inf


def entries(mon, nid):
    return {t: (r.lb, r.ub) for t, r in mon.node_entries(nid).items()}


class TestFigureReplay:
    def test_worklists_along_the_stream(self, fig4_formula):
        mon = MonitorState(fig4_formula, X)
        ids = {type(n).__name__: i for i, n in mon.node_ids()}
        root, cnode, atom = ids["Always"], ids["Cumulative"], ids["Atom"]

        for v in FIG4[:5]:
            mon.push_sample([v])
        assert entries(mon, atom) == {
            1: (-1, -1), 2: (7, 7), 3: (10, 10), 4: (-5, -5),
            5: (-INF, INF), 6: (-INF, INF), 7: (-INF, INF)}
        assert entries(mon, cnode) == {
            0: (-1, 7), 1: (-5, 10), 2: (-INF, INF)}
        assert entries(mon, root) == {0: (-INF, 7)}
        assert not mon.verdict.decided

        mon.push_sample([FIG4[5]])
        assert entries(mon, cnode) == {0: (7, 7), 1: (7, 10), 2: (-5, 15)}
        assert entries(mon, root) == {0: (-5, 7)}
        assert not mon.verdict.decided

        v = mon.push_sample([FIG4[6]])
        assert entries(mon, cnode) == {0: (7, 7), 1: (8, 8), 2: (8, 10)}
        assert entries(mon, root) == {0: (7, 7)}
        assert v.outcome is True
        assert v.decided_at == 6
        assert v.decided_at == horizon(mon.formula) - 1

    def test_verdict_frozen_after_decision(self, fig4_formula):
        mon = MonitorState(fig4_formula, X)
        for v in FIG4[:7]:
            out = mon.push_sample([v])
        assert out.decided
        later = mon.push_sample([FIG4[7]])
        assert later == out
        assert mon.root_rosi() == RoSI(7.0, 7.0)

    def test_naive_monitor_gives_identical_stream(self, fig4_formula):
        mon = MonitorState(fig4_formula, X)
        ref = NaiveMonitor(fig4_formula, X)
        for v in FIG4:
            va = mon.push_sample([v])
            vb = ref.push_sample([v])
            assert (va.outcome, va.decided_at) == (vb.outcome, vb.decided_at)
            assert mon.root_rosi() == vb.rosi


class TestRoSIAlgebra:
    def test_verdict_str(self):
        assert str(Verdict(None, RoSI(-1, 1), None)) == "Unknown"
        assert str(Verdict(True, RoSI(2, 2), 5)) == "True"


class TestAgainstNaiveRecursion:
    MODES = [
        ("!(x > 0) && (y < 1) || x + y > 0", XY),
        ("G[0,4] (x > 2)", X),
        ("F[1,3] (x > 0 || x < -5)", X),
        ("G[0,2] (F[0,2] (x > 0))", X),
        ("C[0,4]^2 (x > 0)", X),
        ("C[0,4]^2.5 (G[0,2] (x > 0))", X),
        ("C[0,3]^2 ((x > 0) U[0,2] (y > 0))", XY),
        ("(x > 0) U[0,3] (y > 1)", XY),
        ("(G[0,2] (x > 0)) U[1,3] (y > 1)", XY),
        ("(x > 0) U[0,0] (y > 1)", XY),
    ]

    @pytest.mark.parametrize("text,names", MODES)
    def test_each_operator_shape(self, text, names, rng):
        f = validate(parse(text), names)
        for trial in range(12):
            n = horizon(f) + int(rng.integers(1, 5))
            sig = random_signal(rng, names, n)
            mon = MonitorState(f, names)
            for i in range(n):
                mon.push_sample(sig.values[i])
                if mon.verdict.decided:
                    break
                prefix = Signal(names, sig.values[:i + 1], 1.0)
                want = rosi_naive(f, prefix)
                assert mon.root_rosi() == want

    def test_random_streams_agree_with_naive(self, rng):
        for _ in range(80):
            f, sig = make_case(rng, depth=3, length=1)
            n = horizon(f) + int(rng.integers(1, 6))
            sig = random_signal(rng, XY, n)
            mon = MonitorState(f, XY)
            ref = NaiveMonitor(f, XY)
            for i in range(n):
                va = mon.push_sample(sig.values[i])
                vb = ref.push_sample(sig.values[i])
                assert mon.root_rosi() == vb.rosi
                assert (va.outcome, va.decided_at) == \
                    (vb.outcome, vb.decided_at)
                if va.decided:
                    break


class TestRefinement:
    def test_entries_only_shrink(self, rng):
        for _ in range(25):
            f, _ = make_case(rng, depth=3, length=1)
            n = horizon(f) + 3
            sig = random_signal(rng, XY, n)
            mon = MonitorState(f, XY)
            prev = None
            for i in range(n):
                mon.push_sample(sig.values[i])
                if mon.verdict.decided:
                    break
                cur = {nid: mon.node_entries(nid)
                       for nid, _ in mon.node_ids()}
                if prev is not None:
                    for nid, table in cur.items():
                        for t, r in table.items():
                            old = prev[nid][t]
                            assert old.lb <= r.lb <= r.ub <= old.ub
                prev = cur

    def test_point_entries_never_move(self, fig4_formula):
        mon = MonitorState(fig4_formula, X)
        seen = {}
        for v in FIG4[:6]:
            mon.push_sample([v])
            for nid, _ in mon.node_ids():
                for t, r in mon.node_entries(nid).items():
                    if (nid, t) in seen:
                        assert r == seen[(nid, t)]
                    elif r.is_point:
                        seen[(nid, t)] = r

    def test_prefix_interval_brackets_final_robustness(self, rng):
        for _ in range(40):
            f, _ = make_case(rng, depth=3, length=1)
            n = horizon(f) + 1
            sig = random_signal(rng, XY, n)
            final = robustness(f, sig, 0)
            mon = MonitorState(f, XY)
            for i in range(n):
                mon.push_sample(sig.values[i])
                r = mon.root_rosi()
                assert r.lb <= final <= r.ub


class TestDecisions:
    def test_early_false(self):
        # eight leading nonpositive values leave at most 3 of the 7
        # window instants satisfiable, short of the required 4
        f = validate(parse("C[2,8]^4 (x > 1)"), X)
        mon = MonitorState(f, X)
        verdicts = [mon.push_sample([0.0]) for _ in range(8)]
        assert verdicts[-1].outcome is False
        assert verdicts[-1].decided_at < horizon(f)

    def test_decides_at_construction_with_tight_bounds(self):
        f = parse("G[0,5] (x > 0)")
        mon = MonitorState(f, X, bounds={"x": (0.5, 2.0)})
        assert mon.verdict.outcome is True
        assert mon.verdict.decided_at == -1

    def test_bounds_narrow_the_root_interval(self):
        f = parse("G[0,5] (x > 0)")
        mon = MonitorState(f, X, bounds={"x": (-3.0, 2.0)})
        assert mon.root_rosi() == RoSI(-3.0, 2.0)
        mon.push_sample([1.0])
        assert mon.root_rosi() == RoSI(-3.0, 1.0)
        naive = rosi_naive(validate(f, X),
                           Signal(X, np.array([[1.0]]), 1.0),
                           bounds={"x": (-3.0, 2.0)})
        assert mon.root_rosi() == naive

    def test_finalize_point_and_zero(self):
        f = parse("F[0,3] (x > 1)")
        mon = MonitorState(f, X)
        for v in (0.0, 1.0, 0.5, 0.0):
            mon.push_sample([v])
        v = mon.finalize()
        # robustness exactly 0 on a complete trace: fall back to the
        # qualitative answer (x > 1 strict, so not satisfied)
        assert mon.root_rosi() == RoSI(0.0, 0.0)
        assert v.outcome is False

    def test_finalize_incomplete_stays_unknown(self):
        f = parse("G[0,5] (x > 0)")
        mon = MonitorState(f, X)
        mon.push_sample([3.0])
        v = mon.finalize()
        assert v.outcome is None
        assert v.rosi.ub == 3.0

    def test_arity_checked(self):
        mon = MonitorState(parse("x > 0"), X)
        with pytest.raises(ArityMismatch):
            mon.push_sample([1.0, 2.0])

    @pytest.mark.parametrize("cls", [MonitorState, NaiveMonitor])
    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_sample_is_refused(self, cls, bad):
        f = parse("G[0,3] (x > 0)")
        mon, clean = cls(f, X), cls(f, X)
        mon.push_sample([1.0])
        with pytest.raises(ValueError, match="finite"):
            mon.push_sample([bad])
        # refused before any state changed: the stream goes on as if the
        # sample never came
        for v in (1.0, 2.0, 3.0):
            if v != 1.0:
                mon.push_sample([v])
            clean.push_sample([v])
        assert mon.i == clean.i == 3
        assert mon.verdict == clean.verdict
        assert mon.verdict.outcome is None
        assert mon.finalize() == clean.finalize()

    @pytest.mark.parametrize("text,value", [
        ("F[0,3] (x > 1)", 1.0),   # root stays at exactly 0: undecided
        ("G[0,2] (x > 0)", 1.0),   # decided at the horizon
        ("x > 0", 2.0),            # horizon 0, decided at once
    ])
    def test_prefix_is_bounded_by_the_horizon(self, text, value):
        f = validate(parse(text), X)
        h = horizon(f)
        mon, ref = MonitorState(f, X), NaiveMonitor(f, X)
        n = 10 * (h + 1)
        for _ in range(n):
            va = mon.push_sample([value])
            vb = ref.push_sample([value])
            assert va == vb
        assert len(mon._rows) == len(ref._rows) == h + 1
        whole = Signal(X, np.full((n, 1), value), 1.0)
        assert mon.finalize() == ref.finalize()
        assert mon.verdict.outcome is satisfies(f, whole, 0)


class TestFallbackPaths:
    def test_budgeted_rank_state_matches_direct_rescan(self, rng,
                                                       monkeypatch):
        f = validate(parse("G[0,3] C[0,6]^4 (x > 0)"), X)
        n = horizon(f) + 2
        for trial in range(15):
            sig = random_signal(rng, X, n)
            a = MonitorState(f, X)
            with monkeypatch.context() as m:
                m.setattr(monitor, "DEFAULT_MAX_CELLS", 0)
                b = MonitorState(f, X)
            assert [node.mode for node in b._post].count("c_direct") == 1
            for i in range(n):
                va = a.push_sample(sig.values[i])
                vb = b.push_sample(sig.values[i])
                assert a.root_rosi() == b.root_rosi()
                assert (va.outcome, va.decided_at) == \
                    (vb.outcome, vb.decided_at)

    def test_python_backend_matches_jit(self, rng):
        f = validate(parse("G[0,2] C[1,5]^3 (x > 0)"), X)
        a = MonitorState(f, X, backend="python")
        try:
            b = MonitorState(f, X, backend="jit")
        except Exception:
            pytest.skip("jit backend unavailable")
        for v in FIG4:
            a.push_sample([v])
            b.push_sample([v])
            assert a.root_rosi() == b.root_rosi()
