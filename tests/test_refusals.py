"""Every public refusal that no other test reaches: each call raises its
exception with its whole message."""

import re

import numpy as np
import pytest

from ctstl import MonitorState, RoSI, Signal, parse, validate
from ctstl.errors import (NonFiniteMargin, ParamOutOfRange, RankOutOfRange,
                          UnknownVariable, WindowExceedsTrace)
from ctstl.generators import glucose_formulas
from ctstl.logic import Atom
from ctstl.oracle import rosi_naive
from ctstl.semantics import robustness
from ctstl.windows import (naive_extremum_batch, naive_kth_batch,
                           sliding_extremum_batch, sliding_kth_batch,
                           until_batch)

TRACE = [3.0, 1.0, 2.0]


def _node_entries(nid):
    return MonitorState(parse("x > 0"), ("x",)).node_entries(nid)


@pytest.mark.parametrize("call, exc, message", [
    # the sliding engines and their naive oracles share one window check
    (lambda: sliding_kth_batch(TRACE, (2, 1), 1), ValueError,
     "bad window [2,1]"),
    (lambda: naive_kth_batch(TRACE, (-1, 1), 1), ValueError,
     "bad window [-1,1]"),
    (lambda: sliding_extremum_batch(TRACE, (1, 0), "min"), ValueError,
     "bad window [1,0]"),
    (lambda: naive_extremum_batch(TRACE, (1, 0), "max"), ValueError,
     "bad window [1,0]"),
    (lambda: until_batch(TRACE, TRACE, 2, 1), ValueError, "bad window [2,1]"),
    # an offset that is not an integer
    *((call, TypeError, "'float' object cannot be interpreted as an integer")
      for call in (lambda: sliding_kth_batch(TRACE, (0, 1.5), 1),
                   lambda: until_batch(TRACE, TRACE, 0.5, 2),
                   lambda: until_batch(TRACE, TRACE, 0, 2.5))),
    (lambda: sliding_extremum_batch(TRACE, (0, 1), "median"), ValueError,
     "mode must be 'min' or 'max', got 'median'"),
    (lambda: naive_extremum_batch(TRACE, (0, 1), "mean"), ValueError,
     "mode must be 'min' or 'max', got 'mean'"),
    (lambda: sliding_kth_batch(TRACE, (1, 3), 1), WindowExceedsTrace,
     "window of 3 samples exceeds trace length 3"),
    (lambda: naive_extremum_batch(TRACE, (0, 3), "min"), WindowExceedsTrace,
     "window of 4 samples exceeds trace length 3"),
    (lambda: until_batch(TRACE, TRACE, 0, 3), WindowExceedsTrace,
     "window of 4 samples exceeds trace length 3"),
    (lambda: sliding_kth_batch(TRACE, (0, 1), 3), RankOutOfRange,
     "rank 3 outside 1..2"),
    (lambda: naive_kth_batch(TRACE, (0, 1), 3), RankOutOfRange,
     "rank 3 outside 1..2"),
    (lambda: naive_kth_batch(TRACE, (1, 2), 0), RankOutOfRange,
     "rank 0 outside 1..2"),
    # a bad rank inside a sequence, the first one in order
    *((call, RankOutOfRange, "rank 3 outside 1..2")
      for call in (lambda: sliding_kth_batch(TRACE, (0, 1), [2, 3, 0]),
                   lambda: naive_kth_batch(TRACE, (0, 1), [2, 3, 0]))),
    (lambda: naive_kth_batch([1.0, np.nan], (0, 0), 1), ValueError,
     "window values must not be NaN"),
    # formula families and validation
    (lambda: glucose_formulas(t1=1), ParamOutOfRange,
     "bad windows t1=1, t2=36"),
    (lambda: glucose_formulas(t2=-1), ParamOutOfRange,
     "bad windows t1=288, t2=-1"),
    (lambda: validate(parse("x > 0"), ("x",), 0.0), ValueError,
     "step must be positive and finite, got 0.0"),
    (lambda: validate(parse("x > 0"), ("x",), np.inf), ValueError,
     "step must be positive and finite, got inf"),
    (lambda: Atom((("x", 1.0),), "==", 0.0), ValueError,
     "bad comparator '=='"),
    (lambda: Atom((), ">", 0.0), ValueError, "atom references no variable"),
    # signals
    (lambda: Signal(("x", "x"), [[1.0, 2.0]]), ValueError,
     "duplicate variable names in ('x', 'x')"),
    (lambda: Signal((), []), ValueError,
     "signal needs at least one variable"),
    (lambda: Signal(("x",), [1.0], delta=-1.0), ValueError,
     "step must be positive and finite, got -1.0"),
    (lambda: Signal(("x", "y"), np.zeros((2, 3))), ValueError,
     "expected shape (n, 2), got (2, 3)"),
    (lambda: Signal(("x",), [1.0, np.inf]), ValueError,
     "signal samples must be finite"),
    (lambda: Signal(("x",), [1.0]).column("y"), UnknownVariable,
     "unknown variable 'y'; schema is ['x']"),
    # monitor values
    (lambda: RoSI(1.0, 0.0), ValueError,
     "RoSI bounds out of order: [1.0, 0.0]"),
    (lambda: _node_entries(1), KeyError, "1"),
    (lambda: _node_entries(-1), KeyError, "-1"),
])
def test_public_refusal(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_interval_oracle_refuses_an_overflowing_prefix_as_robustness_does():
    # 10 * 1e308 overflows, and inf - inf is NaN, at sample 1; the interval
    # oracle scores atoms over the whole prefix as robustness does, though
    # anchor 0 reads only sample 0
    f = validate(parse("10*x - 10*y > 0"), ("x", "y"))
    s = Signal(("x", "y"), [[1.0, 0.0], [1e308, 1e308]])
    message = "atom 10*x - 10*y > 0 has the non-finite margin nan at sample 1"
    for oracle in (robustness, rosi_naive):
        with pytest.raises(NonFiniteMargin, match=f"^{re.escape(message)}$"):
            oracle(f, s)
