"""Scenario generators: honesty, determinism, budget arithmetic."""

import numpy as np
import pytest

from ctstl import parse, satisfies, validate
from ctstl.errors import ParamOutOfRange
from ctstl.generators import (glucose_formulas, glucose_trace,
                              overvoltage_formulas, overvoltage_trace)


class TestOvervoltage:
    def test_reported_counts_match_the_data(self):
        sig, rep = overvoltage_trace(5000, seed=42, over17=7, over14=3,
                                     over13=2, overcap=1)
        v = sig.values[:, 0]
        assert rep["v_gt_2"] == int(np.sum(v > 2.0)) == 1
        assert rep["v_ge_1.7"] == int(np.sum(v >= 1.7)) == 8
        assert rep["v_ge_1.4"] == int(np.sum(v >= 1.4)) == 11
        assert rep["v_ge_1.3"] == int(np.sum(v >= 1.3)) == 13

    def test_deterministic_per_seed(self):
        a, _ = overvoltage_trace(1000, seed=5, over17=4)
        b, _ = overvoltage_trace(1000, seed=5, over17=4)
        c, _ = overvoltage_trace(1000, seed=6, over17=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_nominal_band_is_quiet(self):
        sig, rep = overvoltage_trace(2000, seed=0)
        v = sig.values[:, 0]
        assert rep["v_ge_1.3"] == 0
        assert np.all((v > 0.9) & (v < 1.1))

    def test_budget_that_does_not_fit(self):
        with pytest.raises(ParamOutOfRange):
            overvoltage_trace(100, seed=0, over17=90, spread=50)
        with pytest.raises(ParamOutOfRange):
            overvoltage_trace(0, seed=0)
        with pytest.raises(ParamOutOfRange):
            overvoltage_trace(10, seed=0, over17=-1)

    def test_spread_confines_excursions(self):
        sig, _ = overvoltage_trace(5000, seed=1, over17=20, spread=300)
        hot = np.nonzero(sig.values[:, 0] >= 1.7)[0]
        assert hot.size == 20
        assert hot.max() < 300


class TestGlucose:
    def test_reported_counts_match_the_data(self):
        sig, rep = glucose_trace(800, seed=9, hypo=5, hyper=11)
        x = sig.values[:, 0]
        assert rep["x_lt_70"] == int(np.sum(x < 70)) == 5
        assert rep["x_gt_180"] == int(np.sum(x > 180)) == 11
        assert rep["x_in_band"] == 800 - 16

    def test_zero_excursions_satisfy_the_whole_family(self):
        t1, t2 = 96, 12
        sig, rep = glucose_trace(t1 + t2 + 1, seed=2)
        assert rep["x_lt_70"] == 0 and rep["x_gt_180"] == 0
        for text in glucose_formulas(t1=t1, t2=t2).values():
            f = validate(parse(text), ("x",))
            assert satisfies(f, sig, 0) is True


class TestBadArguments:
    @pytest.mark.parametrize("trace", [overvoltage_trace, glucose_trace])
    @pytest.mark.parametrize("kw,says", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"spread": -5}, "spread must be >= 0, got -5")])
    def test_negative_seed_or_spread_is_refused(self, trace, kw, says):
        # numpy's generators refuse a negative seed with a ValueError, and
        # no region has a negative size
        with pytest.raises(ParamOutOfRange, match=says):
            trace(100, **{"seed": 0, **kw})


class TestFormulaFamilies:
    def test_overvoltage_budgets(self):
        fam = overvoltage_formulas(window=2000)
        f2 = validate(parse(fam["phi2"]), ("v",))
        # tau = 2000 - 16 over a 2001-sample window: at most 17 samples
        # may sit at or above 1.7
        assert f2.order == 1984
        assert fam["phi5"].startswith("G[0,2000]")

    def test_window_too_small_for_limit(self):
        with pytest.raises(ParamOutOfRange):
            overvoltage_formulas(window=100)

    def test_glucose_orders(self):
        fam = glucose_formulas(t1=288)
        f1 = validate(parse(fam["phi1"]), ("x",))
        f2 = validate(parse(fam["phi2"]), ("x",))
        f3 = validate(parse(fam["phi3"]), ("x",))
        assert f1.child.order == 12
        assert f2.child.order == 72
        assert f3.order == 202

    def test_phi5_repeats_over_the_window(self):
        fam = overvoltage_formulas(window=2000)
        assert fam["phi5"].startswith("G[0,2000]")
