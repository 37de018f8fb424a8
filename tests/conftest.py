import numpy as np
import pytest
from hypothesis import strategies as st

from ctstl import (Signal, Verdict, horizon, parse, rosi_naive, satisfies,
                   validate)
from ctstl.errors import ValidationError
from ctstl.logic import (Always, And, Atom, Cumulative, Eventually, Formula,
                         Not, Or, TimeInterval, Until)

NAMES = ("x", "y")

# Random formula and signal instances for the property suites.  Signals
# hold small integer values at step 1, so min/max/rank arithmetic stays
# exact in floating point and robustness comparisons can use equality.
_OPS = ("<", "<=", ">", ">=")
# the widest b - a of a drawn temporal interval, in samples
_MAX_WINDOW = 4


def random_signal(rng: np.random.Generator, names, length: int,
                  lo: int = -8, hi: int = 8) -> Signal:
    vals = rng.integers(lo, hi + 1, size=(length, len(names)))
    return Signal(tuple(names), vals.astype(np.float64), 1.0)


def _atom(rng, names) -> Atom:
    nvar = int(rng.integers(1, min(2, len(names)) + 1))
    picked = rng.choice(len(names), size=nvar, replace=False)
    coeffs = []
    for j in sorted(picked):
        c = 0
        while c == 0:
            c = int(rng.integers(-2, 3))
        coeffs.append((names[j], float(c)))
    op = _OPS[rng.integers(0, len(_OPS))]
    rhs = float(rng.integers(-5, 6))
    return Atom(tuple(coeffs), op, rhs)


def _interval(rng) -> TimeInterval:
    a = int(rng.integers(0, 3))
    b = a + int(rng.integers(0, _MAX_WINDOW + 1))
    return TimeInterval(float(a), float(b))


def random_formula(rng: np.random.Generator, names, depth: int) -> Formula:
    """Random formula over ``names``, not yet validated; it always validates
    at step 1.  Every operator kind can appear."""
    names = tuple(names)
    if depth <= 0:
        return _atom(rng, names)

    def sub() -> Formula:
        return random_formula(rng, names, depth - 1)

    kind = rng.integers(0, 8)
    if kind == 0:
        return _atom(rng, names)
    if kind == 1:
        return Not(sub())
    if kind == 2:
        return And(sub(), sub())
    if kind == 3:
        return Or(sub(), sub())
    if kind == 4:
        return Until(_interval(rng), sub(), sub())
    if kind == 5:
        return Eventually(_interval(rng), sub())
    if kind == 6:
        return Always(_interval(rng), sub())
    iv = _interval(rng)
    width = int(iv.hi - iv.lo) + 1
    k = int(rng.integers(1, width + 1))
    # half the time land tau strictly inside a ceiling step
    tau = float(k) if rng.integers(0, 2) else k - 0.5
    return Cumulative(iv, tau, sub())


def make_case(rng, depth=3, length=30, names=NAMES):
    """One validated random formula plus a signal long enough for it."""
    while True:
        f = random_formula(rng, names, depth)
        try:
            f = validate(f, names)
        except ValidationError:
            continue
        return f, random_signal(rng, names, length)


@st.composite
def signed_zero_cases(draw, bounded: bool = True):
    """(formula, rows, bounds): a validated ``random_formula`` over x and
    y, and rows past its horizon whose cells are 0.0, -0.0 or integers in
    -2..2.  When ``bounded``, half the cases put x and y under bounds
    whose ends include zeros of both signs, and the cells keep to them;
    otherwise bounds is None."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = validate(random_formula(rng, NAMES, draw(st.integers(1, 3))), NAMES)
    bounds = None
    if bounded and draw(st.booleans()):
        ends = st.tuples(st.sampled_from([-np.inf, -2.0, -0.0, 0.0]),
                         st.sampled_from([-0.0, 0.0, 2.0, np.inf]))
        bounds = dict(zip(NAMES, draw(st.tuples(ends, ends))))
    cell = st.sampled_from([0.0, -0.0]) | st.integers(-2, 2).map(float)
    cells = [cell.filter(lambda v, lo=lo, hi=hi: lo <= v <= hi)
             for lo, hi in ((bounds or {}).get(n, (-np.inf, np.inf))
                            for n in NAMES)]
    n = horizon(f) + 1 + draw(st.integers(0, 10))
    rows = draw(st.lists(st.tuples(*cells), min_size=n, max_size=n))
    return f, np.array(rows, dtype=float), bounds


def verdict_rule(root, i: int) -> Verdict:
    """The verdict a monitor owes at sample i (-1 before any sample) when
    its root interval first reads ``root``: True once lb > 0, False once
    ub < 0, and open otherwise."""
    if root.lb > 0:
        return Verdict(True, root, i)
    if root.ub < 0:
        return Verdict(False, root, i)
    return Verdict(None, root, None)


def push_held_to_rosi_naive(mon, rows) -> Verdict:
    """Push ``rows`` into ``mon``, a new monitor, and after each push hold
    it to ``rosi_naive`` on the prefix: while the verdict is open, the root
    interval is the oracle's and the verdict is ``verdict_rule``'s; once
    decided, the verdict stays as it is.  Then ``finalize`` is held to
    ``satisfies`` (``finalize_held_to_satisfies``).  Returns the last
    verdict of a push."""
    names = mon.names
    rows = np.asarray(rows, dtype=float).reshape(-1, len(names))

    def owed(n: int) -> Verdict:
        prefix = Signal(names, rows[:n], mon.delta)
        return verdict_rule(rosi_naive(mon.formula, prefix, 0, mon.bounds),
                            n - 1)

    assert mon.verdict == owed(0)
    for i, row in enumerate(rows):
        prev = mon.verdict
        got = mon.push_sample(row)
        if prev.decided:
            assert got is prev, i
            continue
        want = owed(i + 1)
        assert got == want and mon.root_rosi() == want.rosi, (i, got, want)
    last = mon.verdict
    finalize_held_to_satisfies(mon, rows)
    return last


def finalize_held_to_satisfies(mon, rows) -> None:
    """When ``rows``, which start with every row pushed into ``mon``, cover
    the horizon, hold ``mon.finalize()`` to ``satisfies`` on them: a
    decided verdict, or one settled at an exactly-zero root after every
    row, is the boolean semantics."""
    if len(rows) > horizon(mon.formula):
        whole = Signal(mon.names, np.asarray(rows, dtype=float), mon.delta)
        assert mon.finalize().outcome is satisfies(mon.formula, whole, 0)


# strict and non-strict atoms over x and y; samples are small integers,
# so margins tie at exactly 0
ATOMS = ("x > 0", "x >= 0", "x <= 1", "y < 0", "x + y >= 1", "2*y - x > 0")


@st.composite
def formula_texts(draw, delta=1.0, depth=3):
    """Formula text over x and y, time literals on a grid of step delta.

    Every operator appears, ``U[0,0]`` among the Until spans (its left
    operand then reaches past the formula's horizon), and ``C`` ranks
    fall on both sides of w/2, tau on or inside a ceiling step.
    """
    def num(x):
        return f"{x:g}"

    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(ATOMS))
    sub = formula_texts(delta, depth - 1)
    kind = draw(st.sampled_from(["!", "&&", "||", "U", "U0", "F", "G", "C"]))
    if kind == "!":
        return f"!({draw(sub)})"
    if kind in ("&&", "||"):
        return f"({draw(sub)}) {kind} ({draw(sub)})"
    a = draw(st.integers(0, 2))
    b = a + draw(st.integers(0, 3))
    if kind == "U0":
        a = b = 0
    span = f"[{num(a * delta)},{num(b * delta)}]"
    if kind in ("U", "U0"):
        return f"({draw(sub)}) U{span} ({draw(sub)})"
    if kind != "C":
        return f"{kind}{span} ({draw(sub)})"
    k = draw(st.integers(1, b - a + 1))
    tau = (k - draw(st.sampled_from([0, 0.5]))) * delta
    return f"C{span}^{num(tau)} ({draw(sub)})"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fig4_signal():
    vals = np.array([2, -1, 7, 10, -5, 15, 8, -2], dtype=float)
    return Signal(("x",), vals.reshape(-1, 1), 1.0)


@pytest.fixture
def fig4_formula():
    return validate(parse("G[0,2] C[1,5]^3 (x > 0)"), ("x",))


@pytest.fixture
def example_pair():
    """The worked C[2,8]^4 (x>1) pair: one satisfying, one violating."""
    x1 = np.array([0, 0, 2, 3, 4, 7, 10, 0, 5, 5, 15], dtype=float)
    x2 = np.array([0, 0, 2, -3, -4, 7, -5, -1, 0, 5, 15], dtype=float)
    f = validate(parse("C[2,8]^4 (x > 1)"), ("x",))
    return (f,
            Signal(("x",), x1.reshape(-1, 1), 1.0),
            Signal(("x",), x2.reshape(-1, 1), 1.0))
