import numpy as np
import pytest
from hypothesis import strategies as st

from ctstl import Signal, parse, validate
from ctstl.errors import ValidationError
from ctstl.randgen import random_formula, random_signal

NAMES = ("x", "y")


def make_case(rng, depth=3, length=30, names=NAMES):
    """One validated random formula plus a signal long enough for it."""
    while True:
        f = random_formula(rng, names, depth)
        try:
            f = validate(f, names)
        except ValidationError:
            continue
        return f, random_signal(rng, names, length)


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
