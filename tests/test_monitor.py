"""Online monitor: interval refinement, decisions, naive agreement.

The streamed G[0,2] C[1,5]^3 (x > 0) example is the golden path: every
per-node interval it produces along the stream is known by hand, and the
verdict must land one sample before the formula horizon.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_case
from ctstl import (MonitorState, NaiveMonitor, RoSI, Signal, Verdict,
                   horizon, parse, robustness, rosi_naive, satisfies,
                   validate)
from ctstl.errors import ArityMismatch, ParamOutOfRange, UnknownVariable
from ctstl.generators import overvoltage_formulas, overvoltage_trace
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

    @pytest.mark.parametrize("bounds,error", [
        ({"z": (0.5, 2.0)}, UnknownVariable),
        ({"x": (3.0, 1.0)}, ParamOutOfRange),
        ({"x": (math.nan, 1.0)}, ParamOutOfRange),
        ({"x": (INF, INF)}, ParamOutOfRange),
    ])
    def test_bad_bounds_are_refused(self, bounds, error):
        f = validate(parse("G[0,3] (x > 0)"), X)
        prefix = Signal(X, np.array([[1.0]]), 1.0)
        with pytest.raises(error):
            MonitorState(f, X, bounds=bounds)
        with pytest.raises(error):
            NaiveMonitor(f, X, bounds=bounds)
        with pytest.raises(error):
            rosi_naive(f, prefix, bounds=bounds)

    @pytest.mark.parametrize("cls", [MonitorState, NaiveMonitor])
    def test_sample_outside_its_bounds_is_refused(self, cls):
        # the bounds alone decide G[0,1] (x > 0) before any sample; a
        # sample outside them is refused all the same, before any state
        # changes, so the stream goes on as if it had never come
        mon = cls(parse("G[0,1] (x > 0)"), X, bounds={"x": (0.5, 2.0)})
        assert mon.verdict.outcome is True
        for bad in (-3.0, 2.5):
            with pytest.raises(ParamOutOfRange, match="outside its bounds"):
                mon.push_sample([bad])
        assert mon.i == 0 and mon._rows == []
        mon.push_sample([1.0])
        with pytest.raises(ParamOutOfRange):
            mon.push_sample([-3.0])
        assert mon.i == 1 and mon.verdict.outcome is True
        # the monitors disagreed here when the sample was taken
        mon = cls(parse("F[0,0] ((x > 0) U[0,1] (x > 0))"), X,
                  bounds={"x": (0.0, 0.0)})
        with pytest.raises(ParamOutOfRange):
            mon.push_sample([1.0])

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


_ATOMS = ("x > 0", "x <= 1", "y >= -1", "x + y < 1", "2*y - x > 0")


@st.composite
def _windowed_cases(draw):
    """A formula with F, G or C over a point or a refining child, bounds
    half the time, and a stream of tied small integers."""
    def atom():
        return draw(st.sampled_from(_ATOMS))

    def span(least_b=0):
        a = draw(st.integers(0, 3))
        return a, a + draw(st.integers(least_b, 5))

    def windowed(child):
        a, b = span()
        kind = draw(st.sampled_from("FGCC"))
        if kind != "C":
            return f"{kind}[{a},{b}] ({child})"
        # every rank, so k falls on both sides of (w+1)/2; tau inside a
        # ceiling step half the time
        k = draw(st.integers(1, (b - a + 2) // 2))
        k = draw(st.sampled_from([k, b - a + 2 - k]))
        tau = k - draw(st.sampled_from([0, 0.5]))
        return f"C[{a},{b}]^{tau} ({child})"

    point = draw(st.sampled_from([
        "{}", "!({})", "({}) && ({})", "({}) || ({})", "({}) U[0,0] ({})"]))
    point = point.format(*(atom() for _ in range(point.count("{}"))))
    a, b = span(least_b=1)
    child = draw(st.sampled_from([
        point, windowed(atom()), f"({atom()}) U[{a},{b}] ({atom()})"]))
    text = windowed(child)
    text = draw(st.sampled_from(
        [text, f"({text}) && ({atom()})", f"G[0,2] ({text})"]))
    bounds = draw(st.none() | st.fixed_dictionaries(
        {"x": st.tuples(st.integers(-3, 0), st.integers(0, 3))},
        optional={"y": st.tuples(st.integers(-3, 0), st.integers(0, 3))}))
    values = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=10, max_size=30))
    # bounds promise the range of every sample, so keep the stream inside
    lims = [(bounds or {}).get(name, (-INF, INF)) for name in XY]
    values = [tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(row, lims))
              for row in values]
    return text, bounds, values


class TestPerNodeOracle:
    @given(_windowed_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_entry_matches_rosi_naive_until_the_verdict(self, case):
        text, bounds, values = case
        f = validate(parse(text), XY)
        mon = MonitorState(f, XY, bounds=bounds)
        for i, row in enumerate(values):
            if mon.verdict.decided:
                break
            mon.push_sample(row)
            prefix = Signal(XY, np.array(values[:i + 1], dtype=float), 1.0)
            for nid, node in mon.node_ids():
                for t, got in mon.node_entries(nid).items():
                    assert got == rosi_naive(node, prefix, t, bounds), \
                        (text, bounds, i, nid, t)


class TestPaperScale:
    def test_overvoltage_w10k_decides_false_at_sample_100(self):
        # the benchmark's stream: 17 samples >= 1.7 in the first 100, the
        # 18th at sample 100, so the budget of 17 breaks exactly there
        window, s = 10_000, 100
        head, r1 = overvoltage_trace(s, 0, over17=17, spread=s)
        tail, r2 = overvoltage_trace(2 * window + 1 - s, 1, over17=1,
                                     spread=1)
        assert r1["v_ge_1.7"] == 17 and tail.values[0, 0] >= 1.7
        f = parse(overvoltage_formulas(window=window)["phi5"])
        mon = MonitorState(f, ("v",))
        for row in np.vstack([head.values, tail.values]):
            v = mon.push_sample(row)
            if v.decided:
                break
        assert (v.outcome, v.decided_at) == (False, s)
