"""Formula syntax trees, time intervals, and validation.

Formulas are immutable trees over affine atomic predicates.  Temporal
operators carry a :class:`TimeInterval` whose endpoints are written in the
signal's time units; :func:`validate` divides them by the sampling step and
annotates each node with integer sample offsets.  The cumulative operator
``C[a,b]^tau`` additionally carries a positive real threshold ``tau`` and,
after validation, the integer rank ``order = ceil(tau / delta)``.

Time is discrete: a signal is a finite sequence of samples at 0, delta,
2*delta, ...  All window arithmetic below is closed on both ends except the
left argument of Until, which is evaluated on the half-open range [t, t1).
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from .errors import (
    InvalidInterval,
    NonPositiveTau,
    Record,
    TauOutOfRange,
    UnknownVariable,
    UnvalidatedFormula,
    ValidationError,
)

# Relative slack when deciding whether a time endpoint divided by the step
# lands on an integer.  Keeps 1.6 / 0.5 from drifting off 3.2 style grids.
_SNAP = 1e-9

COMPARATORS = ("<", "<=", ">", ">=")


class TimeInterval(Record, compared=2):
    """Closed interval [lo, hi] in time units (not yet divided by the step)."""

    __slots__ = ("lo", "hi")

    def __str__(self) -> str:
        return f"[{_fmt_num(self.lo)},{_fmt_num(self.hi)}]"


class Atom(Record, compared=3):
    """Affine comparison ``sum(coeff * var) <op> rhs``.

    The robustness signal of an atom is oriented so that positive means
    satisfied: ``y = expr - rhs`` for > and >=, ``y = rhs - expr`` for < and
    <=.  Non-strict comparisons are satisfied at y == 0, strict ones are not;
    this is the sign(0) = +1 convention applied to the normalized form
    ``mu(x) - c >= 0`` and its negation.
    """

    __slots__ = ("coeffs", "op", "rhs")

    def __init__(self, coeffs: tuple[tuple[str, float], ...], op: str,
                 rhs: float):
        if op not in COMPARATORS:
            raise ValueError(f"bad comparator {op!r}")
        if not coeffs:
            raise ValueError("atom references no variable")
        super().__init__(coeffs, op, rhs)

    @property
    def strict(self) -> bool:
        return self.op in ("<", ">")

    @property
    def sign(self) -> int:
        """+1 when the robustness signal is expr - rhs, -1 when flipped."""
        return 1 if self.op in (">", ">=") else -1

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)


class Not(Record, compared=1):
    __slots__ = ("child",)


class And(Record, compared=2):
    __slots__ = ("left", "right")


class Or(Record, compared=2):
    __slots__ = ("left", "right")


# A temporal node's ``span`` (sample offsets) and a Cumulative node's
# ``order`` are set by validate() and stay out of equality.
class Until(Record, compared=3):
    __slots__ = ("interval", "left", "right", "span")


class Eventually(Record, compared=2):
    __slots__ = ("interval", "child", "span")


class Always(Record, compared=2):
    __slots__ = ("interval", "child", "span")


class Cumulative(Record, compared=3):
    __slots__ = ("interval", "tau", "child", "span", "order")


Formula = Union[Atom, Not, And, Or, Until, Eventually, Always, Cumulative]


def _fmt_nums(xs: list[float]) -> list[str]:
    """Each float written as every output writes a number: an integral
    value below 1e16 in magnitude without a fraction, any other by
    ``repr`` (so a huge integral value keeps its exponent)."""
    return [str(int(x)) if -1e16 < x < 1e16 and x.is_integer() else repr(x)
            for x in xs]


def _fmt_num(x: float) -> str:
    return _fmt_nums([float(x)])[0]


def _snap_int(x: float) -> int | None:
    if not math.isfinite(x):
        return None
    r = round(x)
    if abs(x - r) <= _SNAP * max(1.0, abs(x)):
        return int(r)
    return None


def _snap_ceil(x: float) -> int:
    r = _snap_int(x)
    if r is not None:
        return r
    return math.ceil(x)


def _bind_interval(iv: TimeInterval, delta: float) -> tuple[int, int]:
    lo = _snap_int(iv.lo / delta)
    hi = _snap_int(iv.hi / delta)
    if lo is None or hi is None:
        raise InvalidInterval(
            f"interval {iv} endpoints are not multiples of the step {delta}")
    if lo < 0:
        raise InvalidInterval(f"interval {iv} starts before 0")
    if lo > hi:
        raise InvalidInterval(f"interval {iv} has lo > hi")
    return lo, hi


def validate(f: Formula, schema: tuple[str, ...] | list[str],
             delta: float = 1.0) -> Formula:
    """Check f against a schema and step, binding sample-unit offsets.

    Returns a structurally equal tree whose temporal nodes carry ``span``
    (integer sample offsets) and whose Cumulative nodes carry ``order``.
    Idempotent: spans are always recomputed from the preserved time-unit
    endpoints, so validating twice with the same step changes nothing.
    """
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError(f"step must be positive and finite, got {delta}")
    names = tuple(schema)

    def walk(node: Formula) -> Formula:
        if isinstance(node, Atom):
            nums = [c for _, c in node.coeffs] + [node.rhs]
            if not all(map(math.isfinite, nums)):
                from .syntax import format_formula  # syntax imports logic
                raise ValidationError(f"atom {format_formula(node)} has a "
                                      "non-finite coefficient or constant")
            for name in node.variables():
                if name not in names:
                    raise UnknownVariable(name, names)
            # fresh object so a subterm shared between positions cannot
            # alias: downstream passes key nodes by identity
            return Atom(node.coeffs, node.op, node.rhs)
        if isinstance(node, Not):
            return Not(walk(node.child))
        if isinstance(node, (And, Or)):
            return type(node)(walk(node.left), walk(node.right))
        if isinstance(node, Until):
            span = _bind_interval(node.interval, delta)
            return Until(node.interval, walk(node.left), walk(node.right),
                         span)
        if isinstance(node, (Eventually, Always)):
            span = _bind_interval(node.interval, delta)
            return type(node)(node.interval, walk(node.child), span)
        if isinstance(node, Cumulative):
            span = _bind_interval(node.interval, delta)
            if not node.tau > 0:  # NaN too
                raise NonPositiveTau(node.tau)
            width = span[1] - span[0] + 1
            # capped, as tau / delta may be infinite; a positive tau
            # snapped to 0 still needs one sample
            order = max(1, _snap_ceil(min(node.tau / delta, width + 1)))
            if order > width:
                raise TauOutOfRange(node.tau, width, delta)
            return Cumulative(node.interval, node.tau, walk(node.child),
                              span, order)
        raise TypeError(f"not a formula node: {node!r}")

    return walk(f)


def _span(node) -> tuple[int, int]:
    if node.span is None:
        raise UnvalidatedFormula(
            "temporal node has no sample-unit span; call validate() first")
    return node.span


def _children(f: Formula) -> tuple[Formula, ...]:
    """The children of f, in pre-order."""
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (And, Or, Until)):
        return f.left, f.right
    if isinstance(f, (Not, Eventually, Always, Cumulative)):
        return (f.child,)
    raise TypeError(f"not a formula node: {f!r}")


def _reach(f: Formula) -> list[tuple[Formula, int, int]]:
    """Each child of f, in pre-order, with its reach (ra, rb): anchor t of
    f reads the child's anchors t+ra .. t+rb.  The reach is empty when
    ra > rb."""
    kids = _children(f)
    if isinstance(f, (Atom, Not, And, Or)):
        return [(child, 0, 0) for child in kids]
    a, b = _span(f)
    if isinstance(f, Until):
        # the left argument is only read on [t, t1), so never past t + b - 1
        return [(f.left, 0, b - 1), (f.right, a, b)]
    return [(f.child, a, b)]


def horizon(f: Formula) -> int:
    """Number of future samples (beyond t) an evaluation at t can touch."""
    return max(hi for _, hi in node_horizons(f).values())


def iter_nodes(f: Formula) -> Iterator[tuple[int, Formula]]:
    """Yield (id, node) pairs in pre-order; ids are stable per formula."""

    def walk(node: Formula) -> Iterator[Formula]:
        yield node
        for child in _children(node):
            yield from walk(child)

    return enumerate(walk(f))


def node_horizons(f: Formula) -> dict[int, tuple[int, int]]:
    """Anchor range of every node, keyed by pre-order id.

    The root is anchored at [0, 0], and a child of reach (ra, rb) (see
    :func:`_reach`) at [lo + ra, hi + rb]: a Minkowski sum.  Only the
    left argument of Until with b == 0 has an empty reach; its range, and
    that of every node below it, is reported with lo > hi.
    """
    out: list[tuple[int, int]] = []

    def walk(node: Formula, lo: int, hi: int) -> None:
        out.append((lo, hi))
        for child, ra, rb in _reach(node):
            if lo <= hi and ra <= rb:
                walk(child, lo + ra, hi + rb)
            else:
                walk(child, lo, lo - 1)

    walk(f, 0, 0)
    return dict(enumerate(out))
