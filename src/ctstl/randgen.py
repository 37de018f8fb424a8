"""Random formula and signal instances for self-tests and benchmarks.

Signals hold small integer values at step 1, so min/max/rank arithmetic
stays exact in floating point and robustness comparisons can use equality.
"""

from __future__ import annotations

import numpy as np

from .logic import (Always, And, Atom, Cumulative, Eventually, Formula, Not,
                    Or, TimeInterval, Until)
from .signals import Signal

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
