"""Offline satisfaction and robustness.

The worked C[2,8]^4 (x>1) example pair and the preservation/soundness
theorems double as oracles: for integer-valued signals every min/max/rank
is exact in floating point, so equality assertions are safe.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (formula_texts, make_case, random_signal,
                      signed_zero_cases)
from ctstl import (Signal, format_formula, horizon, max_tau_oracle, parse,
                   robustness, robustness_trace, satisfies,
                   secondary_signal, validate)
from ctstl import windows
from ctstl.errors import EmptyAdmissibleRange, RankOutOfRange, TraceTooShort
from ctstl.generators import (glucose_formulas, glucose_trace,
                              overvoltage_formulas, overvoltage_trace)
from ctstl.logic import (COMPARATORS, And, Atom, Cumulative, Not, Or,
                         TimeInterval)
from ctstl.semantics import _shared_ranks, _sweep, _sweep_at

X = ("x",)
XY = ("x", "y")


def sig(*vals, delta=1.0):
    return Signal(X, np.array(vals, dtype=float).reshape(-1, 1), delta)


class TestWorkedExample:
    def test_satisfying_trace(self, example_pair):
        f, x1, _ = example_pair
        assert satisfies(f, x1, 0) is True
        # child robustness over the window is {1,2,3,6,9,-1,4}; the 4th
        # largest is 3
        assert robustness(f, x1, 0) == 3.0

    def test_violating_trace(self, example_pair):
        f, _, x2 = example_pair
        assert satisfies(f, x2, 0) is False
        assert robustness(f, x2, 0) == -2.0

    def test_child_margin_rows(self, example_pair):
        f, x1, x2 = example_pair
        atom = validate(parse("x > 1"), X)
        got1 = [robustness(atom, x1, t) for t in range(11)]
        assert got1 == [-1, -1, 1, 2, 3, 6, 9, -1, 4, 4, 14]
        got2 = [robustness(atom, x2, t) for t in range(11)]
        assert got2 == [-1, -1, 1, -4, -5, 6, -6, -2, -1, 4, 14]

    def test_characteristic_rows(self, example_pair):
        f, x1, _ = example_pair
        atom = validate(parse("x > 1"), X)
        got = [satisfies(atom, x1, t) for t in range(11)]
        assert got == [False, False, True, True, True, True, True, False,
                       True, True, True]


class TestAtoms:
    def test_margin_and_sign(self):
        s = Signal(XY, np.array([[3.0, 1.0]]), 1.0)
        assert robustness(validate(parse("x > 1"), XY), s, 0) == 2.0
        assert robustness(validate(parse("x < 1"), XY), s, 0) == -2.0
        assert robustness(validate(parse("2*x - y >= 2"), XY), s, 0) == 3.0
        assert robustness(validate(parse("x + y <= 10"), XY), s, 0) == 6.0

    def test_zero_margin_nonstrict_vs_strict(self):
        s = sig(1.0)
        assert satisfies(validate(parse("x >= 1"), X), s, 0) is True
        assert satisfies(validate(parse("x > 1"), X), s, 0) is False
        assert satisfies(validate(parse("x <= 1"), X), s, 0) is True
        assert satisfies(validate(parse("x < 1"), X), s, 0) is False
        # robustness is the margin either way
        assert robustness(validate(parse("x > 1"), X), s, 0) == 0.0


def test_signal_repr():
    assert repr(sig(1, 2, 3, delta=0.5)) == "Signal(['x'], n=3, delta=0.5)"


class TestBooleanAndTemporal:
    def test_not_negates(self, rng):
        for _ in range(40):
            f, s = make_case(rng, depth=2)
            g = validate(parse(f"!({format_formula(f)})"), XY)
            assert robustness(g, s, 0) == -robustness(f, s, 0)

    def test_and_or_min_max(self):
        s = Signal(XY, np.array([[3.0, 1.0]]), 1.0)
        f = validate(parse("x > 0 && y > 0"), XY)
        assert robustness(f, s, 0) == 1.0
        f = validate(parse("x > 0 || y > 0"), XY)
        assert robustness(f, s, 0) == 3.0

    def test_eventually_always(self):
        s = sig(0, 1, 4, -2, 3)
        assert robustness(validate(parse("F[0,4] (x > 0)"), X), s, 0) == 4.0
        assert robustness(validate(parse("G[0,4] (x > 0)"), X), s, 0) == -2.0
        assert robustness(validate(parse("G[1,2] (x > 0)"), X), s, 0) == 1.0

    def test_until_certifies_by_scan(self, rng):
        f = validate(parse("(x > 0) U[1,3] (y > 0)"), XY)
        for _ in range(200):
            s = random_signal(rng, XY, 5)
            got = robustness(f, s, 0)
            best = -np.inf
            for t1 in range(1, 4):
                cand = min(s.values[t1, 1],
                           min((s.values[u, 0] for u in range(t1)),
                               default=np.inf))
                best = max(best, cand)
            assert got == best

    def test_until_zero_width_is_right_operand(self):
        f = validate(parse("(x > 5) U[0,0] (x > 0)"), X)
        s = sig(2)
        assert robustness(f, s, 0) == 2.0


class TestCumulative:
    def test_counts_need_not_be_contiguous(self):
        s = sig(1, -1, 1, -1, 1)
        f = validate(parse("C[0,4]^3 (x > 0)"), X)
        assert satisfies(f, s, 0) is True
        f = validate(parse("C[0,4]^4 (x > 0)"), X)
        assert satisfies(f, s, 0) is False

    def test_qualitative_matches_duration_sum(self, rng):
        f = validate(parse("C[1,6]^2.5 (x > 0)"), X)  # needs 3 instants
        for _ in range(100):
            s = random_signal(rng, X, 10)
            count = sum(1 for t in range(1, 7) if s.values[t, 0] > 0)
            assert satisfies(f, s, 0) == (count >= 3)

    def test_robustness_is_kth_largest(self, rng):
        f = validate(parse("C[0,5]^4 (x > 0)"), X)
        for _ in range(100):
            s = random_signal(rng, X, 6)
            margins = sorted(s.values[:, 0], reverse=True)
            assert robustness(f, s, 0) == margins[3]

    def test_fractional_step_scales_the_rank(self):
        # (formula, step, rank, exactly `rank` satisfying samples, one fewer)
        cases = [
            # tau = 1.0 over delta = 0.25 needs 4 satisfying samples
            ("C[0,1]^1 (x > 0)", 0.25, 4,
             [1, 1, 1, -1, 1], [1, 1, 1, -1, -1]),
            # 3 * 0.3 is 0.8999999999999999 < 0.9 in floating point; the
            # bound rank is still 3, and satisfies must count against it
            ("C[0,0.9]^0.9 (x > 0)", 0.3, 3, [1, 1, 1, -1], [1, 1, -1, -1]),
            # tau within the snap tolerance of 3 samples binds rank 3
            ("C[0,3]^3.0000000001 (x > 0)", 1.0, 3,
             [1, 1, 1, -1], [1, -1, 1, -1]),
        ]
        for text, delta, order, enough, short in cases:
            f = validate(parse(text), X, delta=delta)
            assert f.order == order
            assert satisfies(f, sig(*enough, delta=delta), 0) is True
            assert robustness(f, sig(*enough, delta=delta), 0) == 1.0
            assert satisfies(f, sig(*short, delta=delta), 0) is False
            assert robustness(f, sig(*short, delta=delta), 0) == -1.0


class TestTraceBounds:
    def test_too_short_raises(self):
        f = validate(parse("C[2,8]^4 (x > 1)"), X)
        with pytest.raises(TraceTooShort):
            satisfies(f, sig(*range(8)), 0)
        with pytest.raises(TraceTooShort):
            robustness(f, sig(*range(9)), 1)

    def test_negative_time_rejected(self):
        f = validate(parse("x > 0"), X)
        with pytest.raises(TraceTooShort):
            satisfies(f, sig(1.0), -1)


class TestRobustnessTrace:
    def test_matches_pointwise(self, rng):
        for _ in range(60):
            f, s = make_case(rng, depth=3, length=25)
            m = len(s) - horizon(f)
            if m <= 0:
                continue
            sweep = robustness_trace(f, s)
            assert sweep.shape == (m,)
            for t in range(m):
                assert sweep[t] == robustness(f, s, t)

    def test_fig4_sweep(self, fig4_signal):
        f = validate(parse("C[1,5]^3 (x > 0)"), X)
        assert robustness_trace(f, fig4_signal).tolist() == [7.0, 8.0, 8.0]

    def test_empty_admissible_range(self):
        f = validate(parse("G[0,6] (x > 0)"), X)
        with pytest.raises(EmptyAdmissibleRange):
            robustness_trace(f, sig(1, 2, 3))

    def test_binds_its_formula_to_the_signal_step(self):
        # a formula bound at another step is bound again, not trusted
        s = sig(-1, -1, -1, 5, delta=0.5)
        stale = validate(parse("F[0,1] (x > 0)"), X, 1.0)
        assert robustness_trace(stale, s).tolist() == [-1.0, 5.0]
        assert robustness_trace(parse("F[0,1] (x > 0)"), s).tolist() == \
            [-1.0, 5.0]

    @given(signed_zero_cases(bounded=False))
    @settings(max_examples=200, deadline=None)
    def test_the_sweep_holds_one_zero(self, case):
        # margins and negation give +0.0, and every engine returns one of
        # its inputs, so no anchor's robustness is -0.0
        f, rows, _ = case
        out = robustness_trace(f, Signal(XY, rows))
        assert not np.any((out == 0) & np.signbit(out)), f


@st.composite
def _sweep_cases(draw):
    """A validated formula and a trace of horizon+1 to horizon+4 samples."""
    delta = draw(st.sampled_from([1.0, 0.5, 0.25]))
    f = validate(parse(draw(formula_texts(delta))), XY, delta)
    n = horizon(f) + 1 + draw(st.integers(0, 3))
    vals = draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n))
    return f, Signal(XY, np.array(vals, dtype=float).reshape(n, 2), delta)


class TestSweepAgainstOracles:
    @given(_sweep_cases())
    @settings(max_examples=300, deadline=None)
    def test_both_atom_maps_match_the_recursions_at_every_anchor(self, case):
        # the +-1 atom map gives the boolean semantics over the whole trace
        # and over the rows [t, t+h] of one anchor; the real margins over
        # those rows give the robustness
        f, s = case
        signs = _sweep(f, len(s), lambda atom: secondary_signal(atom, s), True)
        assert signs.size == len(s) - horizon(f)
        for t in range(signs.size):
            truth = satisfies(f, s, t)
            assert signs[t] == (1.0 if truth else -1.0), (f, t)
            assert (_sweep_at(f, s, t, boolean=True) > 0) is truth, (f, t)
            assert _sweep_at(f, s, t, boolean=False) == robustness(f, s, t)


@st.composite
def _shared_rank_cases(draw):
    """2 to 4 C layers of one span over one-variable atoms of one
    variable, which share a rank matrix, beside a C over a two-variable
    atom and a C over a negation, joined in a random order, over a trace
    with ties and signed zeros."""
    a, w = draw(st.integers(0, 2)), draw(st.integers(1, 5))
    var = draw(st.sampled_from(XY))
    coeff = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -0.3, -7.25])

    def atom(*names):
        return Atom(tuple((v, draw(coeff)) for v in names),
                    draw(st.sampled_from(COMPARATORS)),
                    draw(st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.5])))

    def cum(child):
        tau = draw(st.integers(1, w)) - draw(st.sampled_from([0, 0.5]))
        return Cumulative(TimeInterval(a, a + w - 1), tau, child)

    layers = [cum(atom(var)) for _ in range(draw(st.integers(2, 4)))]
    layers += [cum(atom(*XY)), cum(Not(atom(var)))]
    f, *rest = draw(st.permutations(layers))
    for g in rest:
        f = draw(st.sampled_from([And, Or]))(f, g)
    f = validate(f, XY)
    n = horizon(f) + 1 + draw(st.integers(0, 6))
    cell = st.sampled_from([0.0, -0.0, 0.5, -1.5]) | \
        st.integers(-2, 2).map(float)
    rows = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    return f, Signal(XY, rows)


class TestSharedRanks:
    @given(_shared_rank_cases())
    @settings(max_examples=200, deadline=None)
    def test_shared_ranks_match_the_recursion_at_every_anchor(self, case):
        f, s = case
        assert len(_shared_ranks(f)) >= 2
        sweep = robustness_trace(f, s)
        assert not np.any((sweep == 0) & np.signbit(sweep)), f
        for t in range(sweep.size):
            want = robustness(f, s, t)
            assert sweep[t] == want, (f, t)
            assert _sweep_at(f, s, t, boolean=False) == want, (f, t)

    @staticmethod
    def _matrices(monkeypatch, text, sig, boolean=False):
        """The rank matrices one sweep of text over sig builds."""
        built = []
        kth = windows._wavelet_kth

        def counted(values, w, ks):
            built.append(list(ks))
            return kth(values, w, ks)

        monkeypatch.setattr(windows, "_wavelet_kth", counted)
        f = validate(parse(text), sig.names)
        if boolean:
            _sweep(f, len(sig), lambda atom: secondary_signal(atom, sig), True)
        else:
            robustness_trace(f, sig)
        return built

    def test_overvoltage_layers_share_one_matrix(self, monkeypatch):
        # phi5's three C[0,W] layers are over atoms of v alone; each v < c
        # falls as v rises, so rank k of its window is rank w - k + 1 of v
        window = 200
        sig, _ = overvoltage_trace(2 * window + 11, 0, over17=17,
                                   over14=14, over13=130)
        phi5 = overvoltage_formulas(window=window)["phi5"]
        assert self._matrices(monkeypatch, phi5, sig) == \
            [[202 - 184, 202 - 170, 202 - 40]]
        # a boolean sweep keeps one matrix of one level per layer
        assert len(self._matrices(monkeypatch, phi5, sig, True)) == 3

    def test_glucose_builds_one_matrix_per_child(self, monkeypatch):
        # x < 70 (rank 12 of 289, falling with x) and x > 180 (rank 72)
        # share one; the in-range conjunction is not an atom and keeps its
        # own
        sig, _ = glucose_trace(400, 0, hypo=10, hyper=60)
        built = self._matrices(monkeypatch, glucose_formulas()["phi5"], sig)
        assert built == [[290 - 12, 72], [202]]


class TestRankOracle:
    def test_small_cases(self):
        assert max_tau_oracle([5, 1, 9], 1) == 9
        assert max_tau_oracle([5, 1, 9], 2) == 5
        assert max_tau_oracle([5, 1, 9], 3) == 1

    def test_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            max_tau_oracle([1, 2], 3)
        with pytest.raises(RankOutOfRange):
            max_tau_oracle([1, 2], 0)


class TestDerivedForms:
    def test_eventually_is_until_with_tall_left(self, rng):
        # a practically-true left operand makes U collapse to F
        f = validate(parse("F[1,4] (x > 0)"), X)
        g = validate(parse("(x > -1000000) U[1,4] (x > 0)"), X)
        for _ in range(100):
            s = random_signal(rng, X, 8)
            assert robustness(f, s, 0) == robustness(g, s, 0)

    def test_always_is_negated_eventually(self, rng):
        f = validate(parse("G[0,3] (x > 1)"), X)
        g = validate(parse("!F[0,3] !(x > 1)"), X)
        for _ in range(100):
            s = random_signal(rng, X, 6)
            assert robustness(f, s, 0) == robustness(g, s, 0)

    def test_cumulative_complement_encodes_upper_bound(self, rng):
        # at most 2 satisfying instants in a 6-wide window, said as: at
        # least width - 2 violating instants
        f = validate(parse("C[0,5]^4 !(x > 0)"), X)
        for _ in range(100):
            s = random_signal(rng, X, 6)
            count = int(np.sum(s.values[:6, 0] > 0))
            assert satisfies(f, s, 0) == (count <= 2)


class TestTheorems:
    def test_positive_robustness_implies_satisfaction(self, rng):
        """Nonzero robustness always agrees in sign with satisfaction."""
        checked = 0
        while checked < 300:
            f, s = make_case(rng, depth=3)
            try:
                r = robustness(f, s, 0)
            except TraceTooShort:
                continue
            if r == 0:
                continue
            assert (r > 0) == satisfies(f, s, 0)
            checked += 1

    def test_perturbations_below_robustness_preserve_truth(self, rng):
        # scale signal noise so every atom margin moves by < 0.95 |r|
        from ctstl import Atom, iter_nodes
        checked = 0
        while checked < 120:
            f, s = make_case(rng, depth=3)
            try:
                r = robustness(f, s, 0)
            except TraceTooShort:
                continue
            if r == 0:
                continue
            lip = max(sum(abs(c) for _, c in n.coeffs)
                      for _, n in iter_nodes(f) if isinstance(n, Atom))
            truth = satisfies(f, s, 0)
            for _ in range(5):
                noise = rng.uniform(-0.95, 0.95, size=s.values.shape)
                bumped = Signal(s.names, s.values + noise * abs(r) / lip,
                                s.delta)
                assert satisfies(f, bumped, 0) == truth
            checked += 1
