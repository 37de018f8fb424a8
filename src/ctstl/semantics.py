"""Reference semantics and the offline sweep.

``satisfies`` and ``robustness`` follow the defining recursions directly.
They are the test oracles; nothing outside this module calls them.  Every
offline answer comes from one bottom-up sweep instead, which runs a
sliding-window engine per temporal layer.  The sweep has two atom maps:
the real margin gives the robustness (``robustness_trace``), and +1 where
the atom holds, -1 elsewhere gives the boolean semantics, since every
operator is the same lattice operation on {-1, +1} (``C`` at rank k is +1
exactly when at least k window samples hold).  ``_sweep_at`` reads either
one at a single anchor t from the rows [t, t + horizon]; ``ctstl eval``,
``rob --at`` and the monitor's end-of-stream fallback call it.

Window conventions, fixed once here and reused everywhere:

* all temporal windows are closed, [t+a, t+b];
* the left argument of Until is read on the half-open [t, t1);
* empty min is +inf, empty max is -inf;
* the cumulative operator at rank k is the k-th largest child robustness
  over the window (1-based, counted from the top).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyAdmissibleRange, RankOutOfRange, TraceTooShort
from .logic import (
    Always,
    And,
    Atom,
    Cumulative,
    Eventually,
    Formula,
    Not,
    Or,
    Until,
    horizon,
    validate,
)
from .signals import Signal, secondary_signal
from .windows import (
    sliding_extremum_batch,
    sliding_kth_batch,
    until_batch,
)


def max_tau_oracle(values, k: int) -> float:
    """k-th largest of values, 1-based; the defining sort-based form."""
    arr = np.asarray(values, dtype=np.float64)
    if not 1 <= k <= arr.size:
        raise RankOutOfRange(k, arr.size)
    return float(np.sort(arr)[::-1][k - 1])


def _admissible(f: Formula, signal: Signal, t: int) -> None:
    n = len(signal)
    h = horizon(f)
    if t < 0 or t >= n:
        raise TraceTooShort(
            f"anchor {t} outside trace of length {n}")
    if t + h > n - 1:
        raise TraceTooShort(
            f"anchor {t} needs samples up to {t + h}, trace has {n}")


def satisfies(f: Formula, signal: Signal, t: int = 0) -> bool:
    """Boolean semantics at anchor t; requires the full horizon of data."""
    f = validate(f, signal.names, signal.delta)
    _admissible(f, signal, t)
    margins = {}
    memo: dict[tuple[int, int], bool] = {}

    def ev(node: Formula, t: int) -> bool:
        key = (id(node), t)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            if id(node) not in margins:
                margins[id(node)] = secondary_signal(node, signal)
            y = margins[id(node)][t]
            out = y > 0 if node.strict else y >= 0
        elif isinstance(node, Not):
            out = not ev(node.child, t)
        elif isinstance(node, And):
            out = ev(node.left, t) and ev(node.right, t)
        elif isinstance(node, Or):
            out = ev(node.left, t) or ev(node.right, t)
        elif isinstance(node, Until):
            a, b = node.span
            out = any(
                ev(node.right, t1) and all(
                    ev(node.left, t2) for t2 in range(t, t1))
                for t1 in range(t + a, t + b + 1))
        elif isinstance(node, Eventually):
            a, b = node.span
            out = any(ev(node.child, t1) for t1 in range(t + a, t + b + 1))
        elif isinstance(node, Always):
            a, b = node.span
            out = all(ev(node.child, t1) for t1 in range(t + a, t + b + 1))
        elif isinstance(node, Cumulative):
            a, b = node.span
            # count against the rank validate bound, as robustness does;
            # count * delta >= tau can round the other way (3 * 0.3 < 0.9)
            count = sum(
                ev(node.child, t1) for t1 in range(t + a, t + b + 1))
            out = count >= node.order
        else:
            raise TypeError(f"not a formula node: {node!r}")
        out = bool(out)
        memo[key] = out
        return out

    return ev(f, t)


def robustness(f: Formula, signal: Signal, t: int = 0) -> float:
    """Quantitative margin at anchor t.

    Positive implies satisfaction and negative implies violation; zero is
    the boundary where only the boolean semantics distinguishes.
    """
    f = validate(f, signal.names, signal.delta)
    _admissible(f, signal, t)
    margins = {}
    memo: dict[tuple[int, int], float] = {}

    def ev(node: Formula, t: int) -> float:
        key = (id(node), t)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            if id(node) not in margins:
                margins[id(node)] = secondary_signal(node, signal)
            out = float(margins[id(node)][t])
        elif isinstance(node, Not):
            out = -ev(node.child, t)
        elif isinstance(node, And):
            out = min(ev(node.left, t), ev(node.right, t))
        elif isinstance(node, Or):
            out = max(ev(node.left, t), ev(node.right, t))
        elif isinstance(node, Until):
            a, b = node.span
            best = -np.inf
            for t1 in range(t + a, t + b + 1):
                head = min(
                    (ev(node.left, t2) for t2 in range(t, t1)),
                    default=np.inf)
                best = max(best, min(ev(node.right, t1), head))
            out = best
        elif isinstance(node, Eventually):
            a, b = node.span
            out = max(ev(node.child, t1) for t1 in range(t + a, t + b + 1))
        elif isinstance(node, Always):
            a, b = node.span
            out = min(ev(node.child, t1) for t1 in range(t + a, t + b + 1))
        elif isinstance(node, Cumulative):
            a, b = node.span
            vals = [ev(node.child, t1) for t1 in range(t + a, t + b + 1)]
            out = max_tau_oracle(vals, node.order)
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = float(out)
        return memo[key]

    return ev(f, t)


def characteristic(f: Formula, signal: Signal, t: int = 0) -> int:
    """+1 when satisfied, -1 when violated."""
    return 1 if satisfies(f, signal, t) else -1


def _signs(node: Atom, signal: Signal) -> np.ndarray:
    """+1 where the atom holds, -1 elsewhere."""
    y = secondary_signal(node, signal)
    return np.where(y > 0 if node.strict else y >= 0, 1.0, -1.0)


def _sweep(f: Formula, signal: Signal, atom_map) -> np.ndarray:
    """Value at every admissible anchor, atoms mapped by atom_map."""
    f = validate(f, signal.names, signal.delta)
    n = len(signal)
    h = horizon(f)
    if n - h <= 0:
        raise EmptyAdmissibleRange(
            f"trace of length {n} is shorter than horizon {h} + 1")

    def ev(node: Formula) -> np.ndarray:
        if isinstance(node, Atom):
            return atom_map(node, signal)
        if isinstance(node, Not):
            return -ev(node.child)
        if isinstance(node, (And, Or)):
            left, right = ev(node.left), ev(node.right)
            m = min(left.size, right.size)
            op = np.minimum if isinstance(node, And) else np.maximum
            return op(left[:m], right[:m])
        if isinstance(node, Until):
            a, b = node.span
            # U[0,0] never reads its left operand, whose horizon
            # (uncounted in the formula's) may exceed the trace
            if b == 0:
                return ev(node.right)
            return until_batch(ev(node.left), ev(node.right), a, b)
        if isinstance(node, (Eventually, Always)):
            mode = "max" if isinstance(node, Eventually) else "min"
            return sliding_extremum_batch(ev(node.child), node.span, mode)
        if isinstance(node, Cumulative):
            return sliding_kth_batch(ev(node.child), node.span, node.order)
        raise TypeError(f"not a formula node: {node!r}")

    out = ev(f)
    assert out.size == n - h
    return out


def robustness_trace(f: Formula, signal: Signal) -> np.ndarray:
    """Robustness at every admissible anchor t = 0 .. n-1-horizon(f).

    One bottom-up sweep; each temporal layer runs a sliding-window engine
    over its child's trace, so the whole thing is near-linear in trace
    length for fixed windows.
    """
    return _sweep(f, signal, secondary_signal)


def _sweep_at(f: Formula, signal: Signal, t: int, *,
              boolean: bool) -> float:
    """The sweep at anchor t alone, over rows [t, t + horizon(f)].

    With ``boolean`` the atoms map to +-1, so the result is +1 exactly when
    ``satisfies(f, signal, t)``; without, it equals ``robustness``.
    """
    f = validate(f, signal.names, signal.delta)
    _admissible(f, signal, t)
    rows = Signal(signal.names, signal.values[t:t + horizon(f) + 1],
                  signal.delta)
    return float(_sweep(f, rows, _signs if boolean else secondary_signal)[0])
