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
from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from .errors import (
    InvalidInterval,
    NonPositiveTau,
    TauOutOfRange,
    UnknownVariable,
    UnvalidatedFormula,
)

# Relative slack when deciding whether a time endpoint divided by the step
# lands on an integer.  Keeps 1.6 / 0.5 from drifting off 3.2 style grids.
_SNAP = 1e-9

COMPARATORS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class TimeInterval:
    """Closed interval [lo, hi] in time units (not yet divided by the step)."""

    lo: float
    hi: float

    def __str__(self) -> str:
        return f"[{_fmt_num(self.lo)},{_fmt_num(self.hi)}]"


@dataclass(frozen=True)
class Atom:
    """Affine comparison ``sum(coeff * var) <op> rhs``.

    The robustness signal of an atom is oriented so that positive means
    satisfied: ``y = expr - rhs`` for > and >=, ``y = rhs - expr`` for < and
    <=.  Non-strict comparisons are satisfied at y == 0, strict ones are not;
    this is the sign(0) = +1 convention applied to the normalized form
    ``mu(x) - c >= 0`` and its negation.
    """

    coeffs: tuple[tuple[str, float], ...]
    op: str
    rhs: float

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise ValueError(f"bad comparator {self.op!r}")
        if not self.coeffs:
            raise ValueError("atom references no variable")

    @property
    def strict(self) -> bool:
        return self.op in ("<", ">")

    @property
    def sign(self) -> int:
        """+1 when the robustness signal is expr - rhs, -1 when flipped."""
        return 1 if self.op in (">", ">=") else -1

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Until:
    interval: TimeInterval
    left: "Formula"
    right: "Formula"
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Eventually:
    interval: TimeInterval
    child: "Formula"
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Always:
    interval: TimeInterval
    child: "Formula"
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Cumulative:
    interval: TimeInterval
    tau: float
    child: "Formula"
    span: tuple[int, int] | None = field(default=None, compare=False)
    order: int | None = field(default=None, compare=False)


Formula = Union[Atom, Not, And, Or, Until, Eventually, Always, Cumulative]


def _fmt_num(x: float) -> str:
    x = float(x)
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def _snap_int(x: float) -> int | None:
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
            for name in node.variables():
                if name not in names:
                    raise UnknownVariable(name, names)
            # fresh object so a subterm shared between positions cannot
            # alias: downstream passes key nodes by identity
            return replace(node)
        if isinstance(node, Not):
            return replace(node, child=walk(node.child))
        if isinstance(node, (And, Or)):
            return replace(node, left=walk(node.left), right=walk(node.right))
        if isinstance(node, Until):
            span = _bind_interval(node.interval, delta)
            return replace(node, left=walk(node.left), right=walk(node.right),
                           span=span)
        if isinstance(node, (Eventually, Always)):
            span = _bind_interval(node.interval, delta)
            return replace(node, child=walk(node.child), span=span)
        if isinstance(node, Cumulative):
            span = _bind_interval(node.interval, delta)
            if node.tau <= 0:
                raise NonPositiveTau(node.tau)
            width = span[1] - span[0] + 1
            order = _snap_ceil(node.tau / delta)
            if order > width:
                raise TauOutOfRange(node.tau, width, delta)
            return replace(node, child=walk(node.child), span=span,
                           order=order)
        raise TypeError(f"not a formula node: {node!r}")

    return walk(f)


def _span(node) -> tuple[int, int]:
    if node.span is None:
        raise UnvalidatedFormula(
            "temporal node has no sample-unit span; call validate() first")
    return node.span


def horizon(f: Formula) -> int:
    """Number of future samples (beyond t) an evaluation at t can touch."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return horizon(f.child)
    if isinstance(f, (And, Or)):
        return max(horizon(f.left), horizon(f.right))
    if isinstance(f, Until):
        _, hi = _span(f)
        need = [hi + horizon(f.right)]
        # Left argument is only read on [t, t1), so never past t + hi - 1.
        if hi >= 1:
            need.append(hi - 1 + horizon(f.left))
        return max(need)
    if isinstance(f, (Eventually, Always, Cumulative)):
        _, hi = _span(f)
        return hi + horizon(f.child)
    raise TypeError(f"not a formula node: {f!r}")


def iter_nodes(f: Formula) -> Iterator[tuple[int, Formula]]:
    """Yield (id, node) pairs in pre-order; ids are stable per formula."""
    counter = 0

    def walk(node: Formula) -> Iterator[tuple[int, Formula]]:
        nonlocal counter
        me = counter
        counter += 1
        yield me, node
        if isinstance(node, Not):
            yield from walk(node.child)
        elif isinstance(node, (And, Or, Until)):
            yield from walk(node.left)
            yield from walk(node.right)
        elif isinstance(node, (Eventually, Always, Cumulative)):
            yield from walk(node.child)

    return walk(f)


def node_horizons(f: Formula) -> dict[int, tuple[int, int]]:
    """Anchor range of every node, keyed by pre-order id.

    The root is anchored at [0, 0].  A temporal operator with sample window
    [a, b] shifts its child's anchors by [a, b] (Minkowski sum); boolean
    connectives pass anchors through unchanged.  The left argument of Until
    is read on half-open windows, so its range is [lo, hi + b - 1]; when
    b == 0 that range is empty and is reported with lo > hi.
    """
    out: dict[int, tuple[int, int]] = {}
    ids = dict((id(node), nid) for nid, node in iter_nodes(f))

    def walk(node: Formula, lo: int, hi: int) -> None:
        if lo > hi:
            # Unreachable subtree (left of an Until with b == 0): mark every
            # node below as empty rather than shifting a hollow range.
            out[ids[id(node)]] = (lo, lo - 1)
            for _, sub in iter_nodes(node):
                out[ids[id(sub)]] = (lo, lo - 1)
            return
        out[ids[id(node)]] = (lo, hi)
        if isinstance(node, Atom):
            return
        if isinstance(node, Not):
            walk(node.child, lo, hi)
        elif isinstance(node, (And, Or)):
            walk(node.left, lo, hi)
            walk(node.right, lo, hi)
        elif isinstance(node, Until):
            a, b = _span(node)
            if b >= 1:
                walk(node.left, lo, hi + b - 1)
            else:
                walk(node.left, lo, lo - 1)
            walk(node.right, lo + a, hi + b)
        elif isinstance(node, (Eventually, Always, Cumulative)):
            a, b = _span(node)
            walk(node.child, lo + a, hi + b)

    walk(f, 0, 0)
    return out
