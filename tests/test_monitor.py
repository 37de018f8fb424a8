"""Online monitor: interval refinement, decisions, oracle agreement.

The streamed G[0,2] C[1,5]^3 (x > 0) example is the golden path: every
per-node interval it produces along the stream is known by hand, and the
verdict must land one sample before the formula horizon.
"""

import contextlib
import math
import tracemalloc
from bisect import insort
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (finalize_held_to_satisfies, make_case,
                      push_held_to_rosi_naive, random_formula, random_signal,
                      signed_zero_cases)
from ctstl import (Always, And, Atom, Eventually, MonitorState, Or, RoSI,
                   Signal, TimeInterval, Until, Verdict, horizon, iter_nodes,
                   node_horizons, parse, robustness, rosi_naive, satisfies,
                   secondary_signal, validate)
from ctstl import monitor
from ctstl.errors import (ArityMismatch, NonFiniteMargin, ParamOutOfRange,
                          UnknownVariable)
from ctstl.generators import overvoltage_formulas, overvoltage_trace

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
        v = push_held_to_rosi_naive(MonitorState(fig4_formula, X), FIG4)
        assert (v.outcome, v.decided_at) == (True, 6)


class TestRoSIAlgebra:
    def test_verdict_str(self):
        assert str(Verdict(None, RoSI(-1, 1), None)) == "Unknown"
        assert str(Verdict(True, RoSI(2, 2), 5)) == "True"

    def test_rosi_str(self):
        assert str(RoSI(-INF, 1.5)) == "[-inf, 1.5]"


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
            push_held_to_rosi_naive(MonitorState(f, names), sig.values)

    def test_random_streams_agree_with_naive(self, rng):
        for _ in range(80):
            f, sig = make_case(rng, depth=3, length=1)
            n = horizon(f) + int(rng.integers(1, 6))
            sig = random_signal(rng, XY, n)
            push_held_to_rosi_naive(MonitorState(f, XY), sig.values)


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


class TestStateSize:
    def test_state_past_the_limit_is_refused_before_any_array(
            self, monkeypatch):
        # 16 bytes per entry, 16 more per anchor of a suffix node: the
        # rescan G's one entry, the inner G's 101 anchors and the atom's
        # 50,101 entries
        need = 16 + 32 * 101 + 16 * 50_101
        f = parse("G[0,100] G[0,50000] (x > 0)")
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES", need)
        MonitorState(f, X)
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES", need - 1)
        with mock.patch.object(monitor.np, "full",
                               side_effect=AssertionError("allocated")):
            with pytest.raises(MemoryError, match="physical memory"):
                MonitorState(f, X)


    def test_state_is_checked_before_any_node_array_is_sized(
            self, monkeypatch):
        # the build walk allocates only empty arrays, and the state is
        # checked before _grow sizes them
        f = parse("G[0,100] G[0,50000] (x > 0)")
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES",
                            16 + 32 * 101 + 16 * 50_101 - 1)
        with mock.patch.object(monitor, "_extended",
                               side_effect=AssertionError("sized")):
            with pytest.raises(MemoryError, match="physical memory"):
                MonitorState(f, X)

    def test_a_wide_until_reads_no_window_at_build(self, monkeypatch):
        # the first Until entry reads two columns of its children's init,
        # so neither a build nor a refusal copies the b+1 of its window.
        # 16 bytes per entry: the Until's one, its left child's b and its
        # right child's b+1
        b = 1_000_000
        f = parse(f"(x > 0) U[0,{b}] (x > 0)")
        need = 16 + 16 * b + 16 * (b + 1)
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES", need)
        with _peak_bytes() as peak:
            mon = MonitorState(f, X)
        assert max(_held_bytes(mon)) <= 32 * monitor._FIRST_CAPACITY
        assert peak[0] < 2**20
        monkeypatch.setattr(monitor, "_MAX_STATE_BYTES", need - 1)
        with _peak_bytes() as peak, mock.patch.object(
                monitor, "_extended", side_effect=AssertionError("sized")):
            with pytest.raises(MemoryError, match="physical memory"):
                MonitorState(f, X)
        assert peak[0] < 2**20

    def test_arrays_hold_the_first_capacity_not_the_horizon(self):
        # F[0,1e7] decides at sample 0 and the benchmark's W=10,000 stream
        # at sample 100, long before either outgrows the first capacity
        cap = monitor._FIRST_CAPACITY
        mon = MonitorState(parse("F[0,10000000] (x > 0)"), X)
        assert max(_held_bytes(mon)) <= 32 * cap
        assert mon.push_sample([1.0]).decided_at == 0
        assert max(_held_bytes(mon)) <= 32 * cap

        window, s = 10_000, 100
        head, _ = overvoltage_trace(s, 0, over17=17, spread=s)
        tail, _ = overvoltage_trace(2 * window + 1 - s, 1, over17=1,
                                    spread=1)
        mon = MonitorState(
            parse(overvoltage_formulas(window=window)["phi5"]), ("v",))
        held = _held_bytes(mon)
        assert max(held) <= 32 * cap
        for row in np.vstack([head.values, tail.values]):
            if mon.push_sample(row).decided:
                break
        assert mon.verdict.decided_at == s
        assert _held_bytes(mon) == held
        # the entries past the arrays are reported all the same
        assert len(mon.node_entries(len(held) - 1)) == 2 * window + 1


@contextlib.contextmanager
def _peak_bytes():
    """The peak of the bytes allocated inside the block, numpy's included,
    left as the one item of the yielded list."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def _held_bytes(mon):
    """Bytes in each node's arrays: its entries and a suffix node's -A and
    B frontiers."""
    return [node.iv.nbytes + sum(x.nbytes for x in (node.neg_above,
                                                    node.below)
                                 if x is not None)
            for node in mon._pre]


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

    def test_unchanged_root_keeps_its_verdict(self):
        # a push that leaves both root bounds as they were, a zero bound
        # included, returns the same verdict; one that moves a bound
        # returns a new one.  A zero bound is always 0.0.
        f = parse("(x <= 0) || G[0,8] (x >= 0.5) "
                  "|| F[0,8] ((x >= 0) && (x <= 0))")
        mon = MonitorState(f, X, bounds={"x": (0.0, 1.0)})
        seen = set()
        for x in [1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0]:
            prev = mon.verdict
            v = mon.push_sample([x])
            was, now = prev.rosi, v.rosi
            # root_rosi keeps its object on the same terms
            assert mon.root_rosi() is now
            assert all(b or math.copysign(1.0, b) > 0
                       for b in (now.lb, now.ub))
            if (was.lb, was.ub) != (now.lb, now.ub):
                kind = "moved"
            elif 0 in (now.lb, now.ub):
                kind = "zero"
            else:
                kind = "kept"
            assert (v is prev) == (kind != "moved"), (x, kind)
            seen.add(kind)
        assert seen == {"moved", "zero", "kept"}

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
            rosi_naive(f, prefix, bounds=bounds)

    @pytest.mark.parametrize("text,bounds", [
        ("G[0,2] (1e308*x - 1e308*y > 0)", {"x": (10.0, 20.0)}),  # [nan, inf]
        ("F[0,2] (1e308*x > 0)", {"x": (10.0, 20.0)}),  # [inf, inf]
        ("F[0,2] (-1e308*x > 0)", {"x": (10.0, 20.0)}),  # [-inf, -inf]
    ])
    def test_atom_range_with_no_finite_value_is_refused(self, text, bounds):
        # every sample inside these bounds overflows the atom's margin, so
        # no verdict may rest on the overflowed range
        f = validate(parse(text), XY)
        prefix = Signal(XY, np.empty((0, 2)), 1.0)
        with pytest.raises(ParamOutOfRange, match="no finite margin"):
            MonitorState(f, XY, bounds=bounds)
        with pytest.raises(ParamOutOfRange, match="no finite margin"):
            rosi_naive(f, prefix, bounds=bounds)

    @pytest.mark.parametrize("cls", [MonitorState])
    def test_sample_outside_its_bounds_is_refused(self, cls):
        # the bounds alone decide G[0,1] (x > 0) before any sample; a
        # sample outside them is refused all the same, before any state
        # changes, so the stream goes on as if it had never come
        f, bounds = parse("G[0,1] (x > 0)"), {"x": (0.5, 2.0)}
        mon, clean = cls(f, X, bounds=bounds), cls(f, X, bounds=bounds)
        assert mon.verdict.outcome is True
        for bad in (-3.0, 2.5):
            with pytest.raises(ParamOutOfRange, match="outside its bounds"):
                mon.push_sample([bad])
        assert mon.i == 0
        for nid, _ in mon.node_ids():
            assert entries(mon, nid) == entries(clean, nid)
        mon.push_sample([1.0])
        with pytest.raises(ParamOutOfRange):
            mon.push_sample([-3.0])
        assert mon.i == 1 and mon.verdict.outcome is True
        # under a range of one point any other sample is refused too
        mon = cls(parse("F[0,0] ((x > 0) U[0,1] (x > 0))"), X,
                  bounds={"x": (0.0, 0.0)})
        with pytest.raises(ParamOutOfRange):
            mon.push_sample([1.0])

    def test_arity_checked(self):
        mon = MonitorState(parse("x > 0"), X)
        with pytest.raises(ArityMismatch):
            mon.push_sample([1.0, 2.0])

    @pytest.mark.parametrize("cls", [MonitorState])
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

    @pytest.mark.parametrize("cls", [MonitorState])
    def test_overflowing_margin_is_refused_before_any_state_change(self, cls):
        # 10*1e308 overflows, so the first atom's margin is inf - inf; the
        # stream must go on as if the row had never come
        f = parse("G[0,3] ((10*x - 10*y > 0) && (y < 5))")
        mon, clean = cls(f, XY), cls(f, XY)
        mon.push_sample([1.0, 0.0])
        with pytest.raises(NonFiniteMargin, match="at sample 1"):
            mon.push_sample([1e308, 1e308])
        assert mon.i == 1
        for _ in range(4):
            clean.push_sample([1.0, 0.0])
        for _ in range(3):
            mon.push_sample([1.0, 0.0])
        want = Verdict(True, RoSI(5.0, 5.0), 3)
        assert mon.verdict == clean.verdict == want
        assert mon.i == clean.i == 4
        for nid, _ in mon.node_ids():
            assert entries(mon, nid) == entries(clean, nid)
        # after the verdict the margins are still checked, and still
        # leave the count alone
        with pytest.raises(NonFiniteMargin, match="at sample 4"):
            mon.push_sample([1e308, 1e308])
        assert mon.i == 4 and mon.verdict == clean.verdict

    @pytest.mark.parametrize("row", [[1e308, 1e308], [1e308, -1e308]])
    def test_oracle_refuses_an_overflowing_margin(self, row):
        # nan (inf - inf) and -inf, alone and under && with a finite atom
        prefix = Signal(XY, np.array([row]), 1.0)
        for text in ("10*x - 10*y > 0", "(10*x - 10*y > 0) && (y < 5)"):
            with pytest.raises(NonFiniteMargin, match="at sample 0"):
                rosi_naive(validate(parse(text), XY), prefix)

    @pytest.mark.parametrize("text,value", [
        ("F[0,3] (x > 1)", 1.0),   # root stays at exactly 0: undecided
        ("G[0,2] (x > 0)", 1.0),   # decided at the horizon
        ("x > 0", 2.0),            # horizon 0, decided at once
    ])
    def test_prefix_is_bounded_by_the_horizon(self, text, value):
        f = validate(parse(text), X)
        h = horizon(f)
        mon = MonitorState(f, X)
        n = 10 * (h + 1)
        v = push_held_to_rosi_naive(mon, [value] * n)
        whole = Signal(X, np.full((n, 1), value), 1.0)
        ok = satisfies(f, whole, 0)
        # an open root is exactly zero here, and finalize settles it
        assert mon.finalize() == (v if v.decided else
                                  Verdict(ok, v.rosi, n - 1))
        assert mon.verdict.outcome is ok


_ATOMS = ("x > 0", "x <= 1", "y >= -1", "x + y < 1", "2*y - x > 0")


def _clamped(values, bounds):
    """The rows of ``values`` clamped into ``bounds``, which promise the
    range of every sample."""
    lims = [(bounds or {}).get(name, (-INF, INF)) for name in XY]
    return [tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(row, lims))
            for row in values]


def _entries_held_to_rosi_naive(mon, rows, bounds, context, nodes=None):
    """Every entry of ``nodes`` (every node by default) equals
    ``rosi_naive``'s over the prefix ``rows``; a failure names ``context``,
    the node and the anchor."""
    prefix = Signal(XY, np.array(rows, dtype=float), 1.0)
    for nid, node in nodes or mon.node_ids():
        for t, got in mon.node_entries(nid).items():
            assert got == rosi_naive(node, prefix, t, bounds), \
                (*context, nid, t)


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
    return text, bounds, _clamped(values, bounds)


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
            root = mon.root_rosi()
            assert all(b or math.copysign(1.0, b) > 0
                       for b in (root.lb, root.ub)), (text, bounds, i)
            _entries_held_to_rosi_naive(mon, values[:i + 1], bounds,
                                        (text, bounds, i))
        finalize_held_to_satisfies(mon, values)


@st.composite
def _growth_cases(draw):
    """Parents that read past a child's arrays while the arrays grow from
    one sample: F, G and every rank of C over a refining child, Until with
    b > 0 on either side of one, and && over children of different
    horizons; half the time under bounds whose 0.0 end equals the margin
    of x < 0 at x = 0, 0.0 as every zero margin is."""
    def atom():
        return draw(st.sampled_from(("x > 0", "x < 0", "y >= 0",
                                     "x + y < 1")))

    def span():
        a = draw(st.integers(0, 3))
        return a, a + draw(st.integers(1, 6))

    def ranked(child):
        a, b = span()
        kind = draw(st.sampled_from("FGCC"))
        if kind != "C":
            return f"{kind}[{a},{b}] ({child})"
        return f"C[{a},{b}]^{draw(st.integers(1, b - a + 1))} ({child})"

    a, b = span()
    refining = draw(st.sampled_from(
        [ranked(atom()), f"({atom()}) U[{a},{b}] ({atom()})"]))
    a, b = span()
    text = draw(st.sampled_from([
        ranked(refining),
        f"({atom()}) U[{a},{b}] ({refining})",
        f"({refining}) U[{a},{b}] ({atom()})",
        f"G[0,{b}] (({refining}) && ({atom()}))",
    ]))
    bounds = draw(st.sampled_from(
        [None, {"x": (0, 2), "y": (-2, 0)}, {"x": (-1, 3)}]))
    values = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=10, max_size=30))
    return text, bounds, _clamped(values, bounds)


class TestGrowth:
    @given(_growth_cases())
    @example(("G[0,3] (F[0,1] (x < 0))", {"x": (0, 2)}, [(0, 0)] * 6))
    @example(("C[0,4]^3 (F[0,1] (x < 0))", {"x": (0, 2)}, [(0, 0)] * 6))
    @settings(max_examples=200, deadline=None)
    def test_every_entry_matches_rosi_naive_as_the_arrays_grow(self, case):
        # from a capacity of one sample every push past a power of two
        # grows the arrays, and every parent window reaches past them.
        # (text || A) && A, with A the atom x > 0 at sample 40, keeps the
        # root open through the stream, so every push runs every step
        text, bounds, values = case
        f = validate(parse(f"(({text}) || G[40,40] (x > 0)) && "
                           "G[40,40] (x > 0)"), XY)
        with mock.patch.object(monitor, "_FIRST_CAPACITY", 1):
            mon = MonitorState(f, XY, bounds=bounds)
        for i, row in enumerate(values):
            if mon.verdict.decided:
                break
            mon.push_sample(row)
            _entries_held_to_rosi_naive(mon, values[:i + 1], bounds,
                                        (text, bounds, i))

    @pytest.mark.parametrize("text", ["G[0,3000] F[0,1] (x > -9)",
                                      "F[0,3000] G[0,1] (x > 9)"])
    def test_entries_match_rosi_naive_where_the_first_capacities_end(
            self, text):
        # the root's scan reads its child up to the anchor after the last
        # sample, which the arrays hold because sample cap - 1 grows them:
        # every entry is held around pushes 1023 and 2047 of a stream that
        # keeps the root open
        rows = [(x, 0) for x in
                np.random.default_rng(35).integers(-8, 9, 2051).tolist()]
        mon = MonitorState(parse(text), XY)
        for i, row in enumerate(rows):
            mon.push_sample(row)
            if 1021 <= i <= 1026 or 2045 <= i <= 2050:
                _entries_held_to_rosi_naive(mon, rows[:i + 1], None,
                                            (text, i))
        assert not mon.verdict.decided


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


@st.composite
def _frontier_cases(draw):
    """Rank nodes over point children at windows up to 40 wide, under an
    optional F or G that gives them several anchors, with bounds half the
    time and up to 120 tied small integers."""
    def atom():
        return draw(st.sampled_from(_ATOMS))

    def ranked():
        a = draw(st.integers(0, 3))
        w = draw(st.integers(1, 40))
        point = draw(st.sampled_from(["{}", "!({})", "({}) && ({})",
                                      "({}) || ({})"]))
        point = point.format(*(atom() for _ in range(point.count("{}"))))
        kind = draw(st.sampled_from("FGCC"))
        if kind != "C":
            return f"{kind}[{a},{a + w - 1}] ({point})"
        # k on both sides of (w+1)/2
        k = draw(st.integers(1, (w + 1) // 2))
        k = draw(st.sampled_from([k, w + 1 - k]))
        tau = k - draw(st.sampled_from([0, 0.5]))
        return f"C[{a},{a + w - 1}]^{tau} ({point})"

    text = ranked()
    if draw(st.booleans()):
        text = f"({text}) && ({ranked()})"
    g = draw(st.integers(0, 8))
    text = draw(st.sampled_from([text, f"G[0,{g}] ({text})",
                                 f"F[0,{g}] ({text})"]))
    bounds = draw(st.none() | st.fixed_dictionaries(
        {"x": st.tuples(st.integers(-3, 0), st.integers(0, 3))},
        optional={"y": st.tuples(st.integers(-3, 0), st.integers(0, 3))}))
    n = draw(st.integers(1, 120))
    values = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=n, max_size=n))
    return text, bounds, _clamped(values, bounds)


class TestChangedAnchorFrontier:
    @given(_frontier_cases())
    @settings(max_examples=100, deadline=None)
    def test_every_entry_matches_rosi_naive_after_every_push(self, case):
        # the suffix push rewrites only the anchors whose order statistics
        # move; every entry it leaves alone must still be exact
        text, bounds, values = case
        f = validate(parse(text), XY)
        mon = MonitorState(f, XY, bounds=bounds)
        for i, row in enumerate(values):
            if mon.verdict.decided:
                break
            mon.push_sample(row)
            _entries_held_to_rosi_naive(mon, values[:i + 1], bounds,
                                        (text, bounds, i))


@st.composite
def _long_window_cases(draw):
    """A rank node over a point child at a window of 40 to 80 samples, its
    rank within 4 of either end, under a G that gives it up to 4 anchors;
    the stream fills every anchor's window, with bounds half the time.
    Past cap values above a run's last anchor, the walk's seed is chosen
    by np.partition, among small integers that tie."""
    w = draw(st.integers(40, 80))
    d = draw(st.integers(0, 4))
    k = draw(st.sampled_from([1 + d, w - d]))
    a, g = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    child = draw(st.sampled_from(_ATOMS + ("(x > 0) || (y < 0)",)))
    text = f"G[0,{g}] C[{a},{a + w - 1}]^{k} ({child})"
    bounds = draw(st.none() | st.fixed_dictionaries(
        {"x": st.tuples(st.integers(-3, 0), st.integers(0, 3))},
        optional={"y": st.tuples(st.integers(-3, 0), st.integers(0, 3))}))
    n = g + a + w + draw(st.integers(0, 10))
    values = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=n, max_size=n))
    return text, bounds, _clamped(values, bounds)


class TestPartitionSeed:
    @given(_long_window_cases())
    @settings(max_examples=100, deadline=None)
    def test_rank_entries_match_rosi_naive_through_long_seeds(self, case):
        # (text || A) && A, with A the atom x > 0 at sample 200, keeps the
        # root open through the stream; the rank node's entries, and the
        # G's above them, are checked after every push
        text, bounds, values = case
        f = validate(parse(f"(({text}) || G[200,200] (x > 0)) && "
                           "G[200,200] (x > 0)"), XY)
        mon = MonitorState(f, XY, bounds=bounds)
        nodes = mon.node_ids()[2:4]  # G[0,g] and the rank node
        push, seeds = monitor._suffix_push, []

        def counted(node, c, lo, hi):
            w, k = node.b - node.a + 1, node.k
            seeds.append(c - node.a - hi - min(k, w - k + 1))
            push(node, c, lo, hi)

        with mock.patch.object(monitor, "_suffix_push", counted):
            for i, row in enumerate(values):
                mon.push_sample(row)
                _entries_held_to_rosi_naive(mon, values[:i + 1], bounds,
                                            (text, bounds, i), nodes)
        assert max(seeds) > 0  # some walk's seed went through np.partition


class TestWalkBudget:
    def test_paper_scale_push_walks_only_the_changed_run(self, monkeypatch):
        # TestPaperScale's stream to its verdict at sample 100: a full
        # walk reads c+1 values per C node and push, 15,453 in all
        window, s = 10_000, 100
        head, _ = overvoltage_trace(s, 0, over17=17, spread=s)
        tail, _ = overvoltage_trace(2 * window + 1 - s, 1, over17=1,
                                    spread=1)
        f = parse(overvoltage_formulas(window=window)["phi5"])
        mon = MonitorState(f, ("v",))
        walked: dict[int, int] = {}
        push = monitor._suffix_push

        def counted(node, c, lo, hi):
            walked[node.k] = walked.get(node.k, 0) + c - lo - node.a + 1
            push(node, c, lo, hi)

        monkeypatch.setattr(monitor, "_suffix_push", counted)
        pushes = 0
        for row in np.vstack([head.values, tail.values]):
            pushes += 1
            if mon.push_sample(row).decided:
                break
        assert pushes == s + 1
        full = 3 * sum(c + 1 for c in range(pushes))
        assert full == 15_453
        assert sum(walked.values()) <= 0.6 * full
        # w - k + 1 = 162 samples before any anchor's B can move
        assert walked.get(9840, 0) == 0

    def test_walk_past_sample_w_reads_the_changed_runs_not_their_hull(
            self, monkeypatch):
        # past sample W every anchor knows most of its window, and a push
        # moves A on one run of anchors and B on another; walking each run
        # alone reads about half of the hull that spans both
        window = 2_000
        sig, _ = overvoltage_trace(2 * window + 1, 0, over17=16, over14=14,
                                   over13=130)
        f = parse(overvoltage_formulas(window=window)["phi5"])
        mon = MonitorState(f, ("v",))
        runs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        push = monitor._suffix_push

        def counted(node, c, lo, hi):
            if c > window:
                runs.setdefault((node.k, c), []).append((lo, hi))
            push(node, c, lo, hi)

        monkeypatch.setattr(monitor, "_suffix_push", counted)
        for row in sig.values:
            v = mon.push_sample(row)
            if v.decided:
                break
        assert (v.outcome, v.decided_at) == (True, 3_987)
        walked = sum(hi - lo + 1 for got in runs.values() for lo, hi in got)
        hull = sum(max(hi for _, hi in got) - min(lo for lo, _ in got) + 1
                   for got in runs.values())
        assert walked <= 0.6 * hull

    def test_paper_scale_extremum_rescan_pads_no_window(self, monkeypatch):
        # the root G reads past its child's arrays from the first push: it
        # folds the child's init into its min once, and never builds a
        # padded copy of a 10,001-entry window
        window, s = 10_000, 100
        head, _ = overvoltage_trace(s, 0, over17=17, spread=s)
        tail, _ = overvoltage_trace(2 * window + 1 - s, 1, over17=1,
                                    spread=1)
        mon = MonitorState(
            parse(overvoltage_formulas(window=window)["phi5"]), ("v",))
        padded = []
        entries = monitor._entries

        def counted(node, r, n):
            padded.append(n)
            return entries(node, r, n)

        monkeypatch.setattr(monitor, "_entries", counted)
        for row in np.vstack([head.values, tail.values]):
            if mon.push_sample(row).decided:
                break
        assert mon.verdict.decided_at == s
        assert padded == []

    @pytest.mark.parametrize("text,sign", [("F[0,499] (x > 0)", -1.0),
                                           ("G[0,499] (x > 0)", 1.0)])
    def test_extremum_walks_only_at_a_new_record(self, monkeypatch, text,
                                                 sign):
        # x keeps one sign, so the root stays open for all 500 samples;
        # a push moves the max (F) or the min (G) of every open anchor at
        # a new record and of none otherwise, about H_500 ~ 6.8 walks of
        # c+1 values each; the last push also fills anchor 0's window,
        # which gives the other order statistic its first value
        xs = sign * np.random.default_rng(7).uniform(1.0, 2.0, 500)
        mon = MonitorState(parse(text), X)
        walked = []
        push = monitor._suffix_push

        def counted(node, c, lo, hi):
            walked.append(c - lo - node.a + 1)
            push(node, c, lo, hi)

        monkeypatch.setattr(monitor, "_suffix_push", counted)
        for x in xs:
            mon.push_sample([x])
        assert mon.verdict.decided_at == 499
        records = np.flatnonzero(
            sign * xs == np.minimum.accumulate(sign * xs))
        records = [*records[records < 499], 499]
        assert walked == [c + 1 for c in records]
        assert sum(walked) < 0.02 * sum(range(1, 501))


def _insort_walk(node, c, lo, hi):
    """The suffix push walking value by value from c: each value above
    anchor hi goes through insort too.  Reference for the seeded walk."""
    child = node.children[0]
    w = node.b - node.a + 1
    k = node.k
    sgn = 1.0
    if 2 * k < w + 1:
        k, sgn = w - k + 1, -1.0
    cap = w - k + 1
    known = child.lb[lo + node.a - child.lo:c - child.lo + 1]
    skip = c - node.a - hi
    kept, kth, cth = [], [], []
    for m, v in enumerate((sgn * known[::-1]).tolist(), 1):
        if m <= cap:
            insort(kept, v)
        elif v < kept[-1]:
            insort(kept, v)
            kept.pop()
        if m > skip:
            kth.append(kept[m - k] if m >= k else -INF)
            cth.append(kept[-1] if m >= cap else INF)
    above, below = np.array(kth[::-1]), np.array(cth[::-1])
    if sgn < 0:
        above, below = -below, -above
    r = slice(lo - node.lo, hi - node.lo + 1)
    node.neg_above[r] = -above
    node.below[r] = below
    node.lb[r] = np.maximum(above, np.minimum(child.init[0], below))
    node.ub[r] = np.maximum(above, np.minimum(child.init[1], below))


_WALKED = ("lb", "ub", "neg_above", "below")


@st.composite
def _walk_cases(draw, paper=None):
    """A rank node over a point child with zero margins from cells of 0.0
    and -0.0 (x < 0 at x = 0 gives 0.0, the one zero a margin takes), k on
    both sides of (w+1)/2, under an optional G that gives it anchors the
    walk passes without writing.
    Optional bounds on x and y, some with a zero end, give the child a
    finite or half-finite initial entry, which the store combines in
    numpy; an unbounded child takes the one-row store while no anchor
    knows k values.

    Half the cases, or all when ``paper`` is true, are a C at a rank like
    the overvoltage budgets', k = w - r for r up to 3, over a stream longer
    than a + w - k + 1: anchor 0's B turns finite while it knows fewer than
    k values, so the walk keeps B alone.  Under a G[0,g] that the window
    outlasts, the parent's span cuts such a run short, and its seed of more
    than w - k + 1 values goes through np.partition."""
    if paper is None:
        paper = draw(st.booleans())
    child = draw(st.sampled_from(["(x > 0) && (y < 0)", "(x > 0) || (y < 0)",
                                  "x < 0", "!(x > 0)"]))
    a = draw(st.integers(0, 2))
    if paper:
        r, g = draw(st.integers(0, 3)), draw(st.integers(0, 6))
        w = draw(st.integers(2 * r + g + 4, 40))
        head = f"C[{a},{a + w - 1}]^{w - r}"
        n = draw(st.integers(a + r + 2, 80))
    else:
        w = draw(st.integers(1, 30))
        k = draw(st.integers(1, (w + 1) // 2))
        k = draw(st.sampled_from([k, w + 1 - k]))
        kind = draw(st.sampled_from("FGC"))
        head = (f"C[{a},{a + w - 1}]^{k}" if kind == "C"
                else f"{kind}[{a},{a + w - 1}]")
        g = draw(st.integers(0, 6))
        n = draw(st.integers(1, 80))
    text = f"{head} ({child})"
    if g:
        text = f"G[0,{g}] ({text})"
    bound = st.none() | st.tuples(st.sampled_from([-INF, -2.0, 0.0]),
                                  st.sampled_from([0.0, 2.0, INF]))
    bounds = {name: b for name, b in zip(XY, draw(st.tuples(bound, bound)))
              if b is not None}
    cell = st.sampled_from([0.0, -0.0]) | st.integers(-2, 2).map(float)
    cells = [cell.filter(lambda v, lo=lo, hi=hi: lo <= v <= hi)
             for lo, hi in (bounds.get(name, (-INF, INF)) for name in XY)]
    values = draw(st.lists(st.tuples(*cells), min_size=n, max_size=n))
    return text, values, bounds


class TestSeededWalk:
    @given(_walk_cases())
    @settings(max_examples=150, deadline=None)
    def test_seeded_walk_writes_the_bits_of_the_insort_walk(self, case):
        # bit for bit: == cannot tell -0.0 from 0.0, and the walk must
        # hold the one zero, 0.0, as the insort walk does
        text, values, bounds = case
        mon = MonitorState(parse(text), XY, bounds=bounds)
        with mock.patch.object(monitor, "_suffix_push",
                               _walks_held_to_insort_walk([])):
            for row in values:
                if mon.push_sample(row).decided:
                    break

    def test_seed_selection_through_a_zero_tie_keeps_the_one_zero(self):
        # C[0,9]^8 keeps its 3 smallest knowns.  At sample 7 the run is
        # anchor 0, and its seed is 5, 1, -1, 0.0, -1, 0.0, 0.0 in walk
        # order: more than 3 values, so the seed selects by partition.
        # After -1, -1 the 3rd smallest is a zero tied three times; the
        # "-0" row's margin is 0.0 too, as every zero margin is, so the
        # tie holds one zero, 0.0, which becomes anchor 0's B and upper
        # bound.  Each row's margin of (x > 0) || (y < 0) is its key
        row = {"+0": (0, 1), "-0": (-1, 0), "-1": (-1, 1), "1": (1, 1),
               "5": (5, 1)}
        margins = ["1", "+0", "-0", "-1", "+0", "-1", "1", "5"]
        held = _walks_held_to_insort_walk([])
        seeds = []

        def both(node, c, lo, hi):
            child = node.children[0]
            seeds.append((c, lo, hi, child.lb[
                hi + node.a + 1 - child.lo:c - child.lo + 1][::-1].tobytes()))
            held(node, c, lo, hi)

        mon = MonitorState(parse("G[0,3] C[0,9]^8 ((x > 0) || (y < 0))"),
                           XY)
        with mock.patch.object(monitor, "_suffix_push", both):
            for m in margins:
                mon.push_sample(row[m])
        seed = np.array([5.0, 1.0, -1.0, 0.0, -1.0, 0.0, 0.0])
        assert seeds[-1] == (7, 0, 0, seed.tobytes())
        assert math.copysign(1.0, mon.node_entries(1)[0].ub) == 1.0


def _walks_held_to_insort_walk(walks):
    """A stand-in for ``_suffix_push`` that checks each call against
    ``_insort_walk`` bit for bit, and appends to ``walks`` its call's
    (B alone, seed past cap): whether anchor lo knows fewer than k values,
    and whether more than w - k + 1 values lie above anchor hi."""
    push = monitor._suffix_push

    def both(node, c, lo, hi):
        w, k = node.b - node.a + 1, node.k
        walks.append((c - node.a - lo + 1 < k,
                      c - node.a - hi > min(k, w - k + 1)))
        before = [getattr(node, f).copy() for f in _WALKED]
        _insort_walk(node, c, lo, hi)
        want = [getattr(node, f).tobytes() for f in _WALKED]
        for f, arr in zip(_WALKED, before):
            getattr(node, f)[:] = arr
        push(node, c, lo, hi)
        assert [getattr(node, f).tobytes() for f in _WALKED] == want

    return both


class TestBAloneWalk:
    @given(_walk_cases(paper=True))
    @settings(max_examples=100, deadline=None)
    def test_paper_rank_walks_keep_b_alone_first(self, case):
        # the first walk comes when anchor 0 knows w - k + 1 values, fewer
        # than k, and every entry holds 0 until then, so no verdict comes
        # before it
        text, values, bounds = case
        walks = []
        mon = MonitorState(parse(text), XY, bounds=bounds)
        with mock.patch.object(monitor, "_suffix_push",
                               _walks_held_to_insort_walk(walks)):
            for row in values:
                if mon.push_sample(row).decided:
                    break
        assert walks and walks[0][0]

    @pytest.mark.parametrize("bounds", [None, {"x": (-2, 2), "y": (-2, 2)}])
    def test_b_alone_seed_through_partition_keeps_the_one_zero(self,
                                                               bounds):
        # C[0,19]^18 keeps its 3 smallest knowns, and G[0,2] gives it
        # anchors 0..2.  At sample 8 the margin -1 moves B on anchors 0..2,
        # which know 9, 8 and 7 values: fewer than 18, so A is -inf there.
        # The 6 values above anchor 2 seed the walk through np.partition:
        # in walk order -1 and five zeros, whose 3rd smallest is a zero.
        # The "-0" rows' margins are 0.0 too, as every zero margin is, so
        # it is 0.0, which no later zero replaces.  Each row's margin of
        # (x > 0) || (y < 0) is its key
        row = {"+0": (0, 1), "-0": (-1, 0), "-1": (-1, 1)}
        margins = ["+0", "-0", "-0", "-0", "-0", "-0", "+0", "+0", "-1"]
        walks = []
        mon = MonitorState(parse("G[0,2] C[0,19]^18 ((x > 0) || (y < 0))"),
                           XY, bounds=bounds)
        with mock.patch.object(monitor, "_suffix_push",
                               _walks_held_to_insort_walk(walks)):
            for m in margins:
                assert not mon.push_sample(row[m]).decided
        assert walks[-1] == (True, True)
        below = mon._pre[1].below[:3]
        assert below.tobytes() == np.zeros(3).tobytes()

    def test_b_alone_store_under_a_bounded_child_holds_the_one_zero(self):
        # under x = -2:0 the child x < 0 starts at [0.0, 2], and its margin
        # at x = 0 is 0.0, as every zero margin is: two such samples give
        # anchor 0 of C[0,5]^5 its B, 0.0, while it knows 2 values, fewer
        # than 5.  Both bounds are min(init, B), and both are 0.0
        walks = []
        mon = MonitorState(parse("C[0,5]^5 (x < 0)"), ("x",),
                           bounds={"x": (-2.0, 0.0)})
        with mock.patch.object(monitor, "_suffix_push",
                               _walks_held_to_insort_walk(walks)):
            for _ in range(2):
                assert not mon.push_sample([0.0]).decided
        assert walks == [(True, False)]
        assert mon._pre[0].iv[:, 0].tobytes() == np.zeros(2).tobytes()


def _other_zeros(mon):
    """(node id, array) of every node array that breaks the one-zero rule:
    a -0.0 in ``iv``, ``init`` or ``below``, or a +0.0 in ``neg_above``,
    which holds -A."""
    bad = []
    for nid, node in enumerate(mon._pre):
        for name in ("iv", "init", "below", "neg_above"):
            arr = getattr(node, name)
            if arr is not None and np.any(
                    (arr == 0) & (np.signbit(arr) != (name == "neg_above"))):
                bad.append((nid, name))
    return bad


_HUGE = [1e300, -1e300, 2.0 ** 53 + 2, 1e-300]


class TestOneZero:
    @given(signed_zero_cases())
    @settings(max_examples=300, deadline=None)
    def test_no_node_holds_the_other_zero_after_any_push(self, case):
        # margins and negation make +0.0 the only zero; every other
        # operator returns one of its inputs
        f, rows, bounds = case
        mon = MonitorState(f, XY, bounds=bounds)
        assert not _other_zeros(mon), (f, bounds)
        for i, row in enumerate(rows):
            if mon.push_sample(row).decided:
                break
            assert not _other_zeros(mon), (f, bounds, i)

    @given(st.lists(st.sampled_from([-3.0, -1.0, -0.5, 1.0, 2.0, 1e-3]),
                    min_size=1, max_size=2),
           st.sampled_from(["<", "<=", ">", ">="]),
           st.sampled_from([0.0, -0.0, 1.0, -2.5, *_HUGE]),
           st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0,
                                                 0.1, *_HUGE])] * 2),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_atom_entries_are_the_offline_margins_bit_for_bit(
            self, coeffs, op, rhs, rows):
        # push_sample and secondary_signal each compute a margin; both
        # add 0.0, and their sums run in one order, so they agree in every
        # bit.  G[n,n] (x > 0) keeps the root open, so every push runs
        atom = Atom(tuple(zip(XY, coeffs)), op, rhs)
        n = len(rows)
        keep = parse(f"G[{n},{n}] (x > 0)")
        f = And(Or(Always(TimeInterval(0.0, float(n)), atom), keep), keep)
        mon = MonitorState(f, XY)
        for i, row in enumerate(rows):
            assert not mon.push_sample(row).decided
            sig = Signal(XY, np.array(rows[:i + 1]))
            for node, _ in mon._atom_nodes:
                end = min(i, node.hi) + 1
                if end <= node.lo:
                    continue
                y = secondary_signal(node.form, sig)[node.lo:end]
                for bound in (node.lb, node.ub):
                    assert bound[:end - node.lo].tobytes() == y.tobytes()


def test_monitor_nodes_follow_iter_nodes_and_node_horizons():
    # the monitor numbers its nodes as iter_nodes does and sizes each from
    # node_horizons; under U[0,0] a left subtree's range is empty.  Before
    # the first push every node's entries are the oracle's on the empty
    # prefix: Until's first entry at a = 0, a = 1, a > 1 and U[0,0], with
    # and without bounds
    rng = np.random.default_rng(26)
    no_rows = Signal(XY, np.zeros((0, 2)))
    empty = 0
    for case in range(60):
        span = TimeInterval(*((0.0, 0.0), (0.0, 2.0), (1.0, 3.0),
                              (2.0, 5.0))[case // 2 % 4])
        f = Until(span, random_formula(rng, XY, 2),
                  random_formula(rng, XY, 2))
        if rng.integers(0, 2):
            f = random_formula(rng, XY, 1)
            f = Eventually(TimeInterval(0.0, 2.0), And(f, Until(span, f, f)))
        lo, hi, bounds = -8, 8, None
        if case % 2:
            lo, hi = int(rng.integers(-8, 1)), int(rng.integers(0, 9))
            bounds = {name: (float(lo), float(hi)) for name in XY}
        mon = MonitorState(f, XY, bounds=bounds)
        for nid, node in mon.node_ids():
            for t, rosi in mon.node_entries(nid).items():
                assert rosi == rosi_naive(node, no_rows, t, bounds)
        ranges = node_horizons(mon.formula)
        want = list(iter_nodes(mon.formula))
        for row in random_signal(rng, XY, 4, lo=lo, hi=hi).values:
            got = mon.node_ids()
            assert [nid for nid, _ in got] == [nid for nid, _ in want]
            assert all(a is b for (_, a), (_, b) in zip(got, want))
            for nid, _ in got:
                lo, hi = ranges[nid]
                assert list(mon.node_entries(nid)) == list(range(lo, hi + 1))
                empty += lo > hi
            if mon.push_sample(row).decided:
                break
    assert empty > 0


def test_an_atom_with_a_zero_coefficient_starts_unbounded():
    # 0 * inf is NaN: the atom's range skips a zero coefficient, so it is
    # y's range, not a NaN range that refuses the atom
    f = Atom((("x", 0.0), ("y", 1.0)), ">", 0.0)
    assert MonitorState(f, XY).root_rosi() == RoSI(-INF, INF)
    mon = MonitorState(Always(TimeInterval(0.0, 2.0), f), XY)
    assert mon.root_rosi() == RoSI(-INF, INF)
    values = [[5.0, 1.0], [-3.0, 2.0], [7.0, -1.0]]
    for i, row in enumerate(values):
        mon.push_sample(row)
        prefix = Signal(XY, np.array(values[:i + 1]), 1.0)
        assert mon.root_rosi() == rosi_naive(mon.formula, prefix)


@st.composite
def _wide_rescan_cases(draw):
    """The rescan and Until writers at realistic widths: C at a middle rank
    over a refining child (F[0,m] or a short Until) with a window of 10 to
    40 samples, or U[a,b] with b up to 40 over point or refining children;
    under an optional G, with bounds half the time, and a stream that
    fills every window."""
    def atom():
        return draw(st.sampled_from(_ATOMS))

    def point():
        text = draw(st.sampled_from(["{}", "!({})", "({}) && ({})",
                                     "({}) || ({})"]))
        return text.format(*(atom() for _ in range(text.count("{}"))))

    def refining():
        if draw(st.booleans()):
            return f"F[0,{draw(st.integers(1, 4))}] ({point()})"
        a = draw(st.integers(0, 2))
        return f"({atom()}) U[{a},{a + draw(st.integers(1, 3))}] ({atom()})"

    def operand():
        return draw(st.sampled_from([point, refining]))()

    if draw(st.booleans()):
        a, w = draw(st.integers(0, 3)), draw(st.integers(10, 40))
        k = draw(st.integers(2, w - 1))  # neither a min nor a max
        tau = k - draw(st.sampled_from([0, 0.5]))
        text = f"C[{a},{a + w - 1}]^{tau} ({refining()})"
    else:
        b = draw(st.integers(1, 40))
        a = draw(st.integers(0, b))
        text = f"({operand()}) U[{a},{b}] ({operand()})"
    if draw(st.booleans()):
        text = f"G[0,{draw(st.integers(1, 6))}] ({text})"
    bounds = draw(st.none() | st.fixed_dictionaries(
        {"x": st.tuples(st.integers(-3, 0), st.integers(0, 3))},
        optional={"y": st.tuples(st.integers(-3, 0), st.integers(0, 3))}))
    n = horizon(validate(parse(text), XY)) + draw(st.integers(1, 8))
    values = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=n, max_size=n))
    return text, bounds, _clamped(values, bounds)


class TestWideRescan:
    @given(_wide_rescan_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_entry_matches_rosi_naive_at_wide_windows(self, case):
        # (text || A) && A, with A the atom x > 0 at sample 200, keeps the
        # root open through the stream; every node's entries are checked
        # after every 7th push and after the last
        text, bounds, values = case
        f = validate(parse(f"(({text}) || G[200,200] (x > 0)) && "
                           "G[200,200] (x > 0)"), XY)
        mon = MonitorState(f, XY, bounds=bounds)
        for i, row in enumerate(values):
            mon.push_sample(row)
            if i % 7 != 6 and i != len(values) - 1:
                continue
            _entries_held_to_rosi_naive(mon, values[:i + 1], bounds,
                                        (text, bounds, i))
