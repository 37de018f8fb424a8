"""Online monitoring of a growing signal prefix.

The monitor maintains, for every formula node and every anchor instant the
node can influence, an interval [lb, ub] guaranteed to contain the
robustness of every completion of the prefix seen so far.  Unknown samples
contribute the per-atom range derived from optional variable bounds
(default unbounded).  As soon as the root interval excludes zero the
verdict is final and further samples are ignored.

Update strategy per node kind, chosen at construction:

* atoms materialize one point entry per arriving sample;
* boolean nodes recompute the entries covered by their children's changes
  with vectorized interval min/max;
* ``F``, ``G`` and ``C`` are one rank node (rank k of a width-w window:
  k = 1 for ``F``, k = w for ``G``, ``order`` for ``C``) with two modes,
  chosen by the child's horizon.  Over a point-valued child (``suffix``)
  every affected anchor knows a suffix of the child trace and pads the
  rest, so one walk down from the newest sample into one capped sorted
  list serves them all and no per-anchor state survives a push.  Over a
  refining child (``rescan``) each affected anchor's window is
  re-partitioned;
* Until rescans the affected windows directly.  Rescans are exact for any
  child because node arrays always hold the current interval, pads
  included.

``rosi_naive`` recomputes the same intervals by direct recursion and is
both the correctness oracle and the performance baseline, wrapped as
:class:`NaiveMonitor` for engine-against-engine runs.  Both monitors share
one verdict contract (:class:`_PrefixMonitor`): the prefix bookkeeping,
bounds checking, ``push_sample`` and ``finalize``; each supplies only its
root interval.  ``finalize`` settles an exactly-zero root on a complete
trace with the offline sweep's boolean atom map over the kept rows.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ArityMismatch, ParamOutOfRange
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
    iter_nodes,
    node_horizons,
    validate,
)
from .semantics import _sweep_at
from .signals import Bounds, Signal, atom_bounds, check_bounds

INF = math.inf


@dataclass(frozen=True)
class RoSI:
    """Interval bracketing the robustness of every completion."""

    lb: float
    ub: float

    def __post_init__(self) -> None:
        if not self.lb <= self.ub:
            raise ValueError(f"RoSI bounds out of order: [{self.lb}, {self.ub}]")

    @property
    def is_point(self) -> bool:
        return self.lb == self.ub

    def __str__(self) -> str:
        return f"[{self.lb}, {self.ub}]"


@dataclass(frozen=True)
class Verdict:
    """Monitoring outcome: True / False / None (unknown) plus evidence."""

    outcome: bool | None
    rosi: RoSI
    decided_at: int | None = None

    @property
    def decided(self) -> bool:
        return self.outcome is not None

    def __str__(self) -> str:
        return "Unknown" if self.outcome is None else str(self.outcome)


def _judge(root: RoSI, decided_at: int) -> Verdict:
    if root.lb > 0:
        return Verdict(True, root, decided_at)
    if root.ub < 0:
        return Verdict(False, root, decided_at)
    return Verdict(None, root, None)


class _PrefixMonitor:
    """Prefix bookkeeping and the verdict contract of both monitors.

    A subclass computes the root interval after each sample in
    ``_root(i, row)`` and sets the verdict before any sample; once the
    verdict is decided, further samples are counted but not evaluated.
    Every sample is checked first, even after the verdict: it must be
    finite and inside its variable's declared bounds.
    Only the first horizon+1 rows are kept: no later row reaches anchor 0,
    the only anchor ``finalize`` and the root interval read.
    """

    def __init__(self, formula: Formula, schema: Sequence[str],
                 delta: float, bounds: Mapping[str, Bounds] | None):
        self.names = tuple(schema)
        self.delta = float(delta)
        self.formula = validate(formula, self.names, self.delta)
        self.bounds = check_bounds(bounds, self.names)
        self.horizon = horizon(self.formula)
        self.i = 0
        self._rows: list[tuple[float, ...]] = []

    def _prefix(self) -> Signal:
        return Signal(self.names, np.array(self._rows), self.delta)

    def push_sample(self, x: Sequence[float]) -> Verdict:
        """Consume one sample vector; returns the (possibly new) verdict."""
        if len(x) != len(self.names):
            raise ArityMismatch(len(self.names), len(x))
        row = tuple(float(v) for v in x)
        if not all(map(math.isfinite, row)):
            raise ValueError("signal samples must be finite")
        # bounds promise every sample's range; a verdict may rest on them
        for name, (lo, hi) in self.bounds.items():
            v = row[self.names.index(name)]
            if not lo <= v <= hi:
                raise ParamOutOfRange(
                    f"sample {self.i} has {name}={v}, outside its bounds "
                    f"{name}={lo}:{hi}")
        i = self.i
        self.i += 1
        if len(self._rows) <= self.horizon:
            self._rows.append(row)
        if self.verdict.decided:
            return self.verdict
        self.verdict = _judge(self._root(i, row), decided_at=i)
        return self.verdict

    def finalize(self) -> Verdict:
        """Resolve the verdict at end of stream.

        A point root decides by sign; an exactly-zero point on a complete
        trace falls back to the qualitative semantics.  Anything else stays
        Unknown, with the residual interval attached.
        """
        if self.verdict.decided:
            return self.verdict
        root = self.verdict.rosi
        last = self.i - 1
        if root.is_point:
            r = root.lb
            if r != 0:
                self.verdict = Verdict(r > 0, root, last)
            elif self.i >= self.horizon + 1:
                ok = _sweep_at(self.formula, self._prefix(), 0, boolean=True)
                self.verdict = Verdict(ok > 0, root, last)
        return self.verdict


def _init_rosi(node: Formula, bounds) -> tuple[float, float]:
    """Entry value before any sample: atom ranges propagated upward."""
    if isinstance(node, Atom):
        return atom_bounds(node, bounds)
    if isinstance(node, Not):
        lo, hi = _init_rosi(node.child, bounds)
        return -hi, -lo
    if isinstance(node, (And, Or)):
        llo, lhi = _init_rosi(node.left, bounds)
        rlo, rhi = _init_rosi(node.right, bounds)
        if isinstance(node, And):
            return min(llo, rlo), min(lhi, rhi)
        return max(llo, rlo), max(lhi, rhi)
    if isinstance(node, Until):
        rlo, rhi = _init_rosi(node.right, bounds)
        a, _ = node.span
        if a == 0:
            # d = 0 contributes the bare right entry, which dominates the
            # min-with-left candidates at larger d.
            return rlo, rhi
        llo, lhi = _init_rosi(node.left, bounds)
        return min(rlo, llo), min(rhi, lhi)
    if isinstance(node, (Eventually, Always, Cumulative)):
        # any rank statistic of identical entries is that entry
        return _init_rosi(node.child, bounds)
    raise TypeError(f"not a formula node: {node!r}")


class _Node:
    """Mutable per-node monitoring state."""

    __slots__ = (
        "form", "nid", "lo", "hi", "a", "b", "k", "mode", "children",
        "lb", "ub", "init", "cols", "coefs", "sign", "rhs",
    )

    def __init__(self, form: Formula, nid: int, lo: int, hi: int):
        self.form = form
        self.nid = nid
        self.lo = lo
        self.hi = hi
        self.a = 0
        self.b = 0
        self.k = 0
        self.mode = ""
        self.children: list[_Node] = []
        self.cols = None
        self.coefs = None
        self.sign = 1
        self.rhs = 0.0

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


def _until_anchor(left: _Node, right: _Node, t: int,
                  a: int, b: int) -> tuple[float, float]:
    rs = t + a - right.lo
    re = t + b - right.lo + 1
    r_lb = right.lb[rs:re]
    r_ub = right.ub[rs:re]
    if b == 0:
        return float(r_lb[0]), float(r_ub[0])
    ls = t - left.lo
    cm_lb = np.minimum.accumulate(left.lb[ls:ls + b])
    cm_ub = np.minimum.accumulate(left.ub[ls:ls + b])
    if a >= 1:
        pm_lb = cm_lb[a - 1:b]
        pm_ub = cm_ub[a - 1:b]
    else:
        pm_lb = np.concatenate(([INF], cm_lb))
        pm_ub = np.concatenate(([INF], cm_ub))
    lb = float(np.minimum(r_lb, pm_lb).max())
    ub = float(np.minimum(r_ub, pm_ub).max())
    return lb, ub


def _suffix_push(node: _Node, c: int, lo: int, hi: int) -> None:
    """Update anchors lo..hi, those whose window holds the new child sample c.

    Anchor t in [c-b, c-a] knows child[t+a .. c], m values, and pads the
    other w-m.  Its k-th largest is the pad clamped to [A, B]: A is the
    k-th largest known (-inf while m < k), B the (k-(w-m))-th largest
    known (+inf while w-m >= k).  Both ranks lie among the w-k+1 smallest
    knowns, and the anchors' known sets are nested suffixes, so one walk
    from c downward, keeping those smallest values sorted, serves every
    anchor.  When k < w-k+1 the walk ranks the negated values at w-k+1
    instead (the k-th largest of x is minus the (w-k+1)-th largest of -x,
    which swaps and negates A and B), so the list never holds more than
    min(k, w-k+1) values.
    """
    child = node.children[0]
    w = node.b - node.a + 1
    k = node.k
    sgn = 1.0
    if 2 * k < w + 1:
        k, sgn = w - k + 1, -1.0
    cap = w - k + 1
    known = child.lb[lo + node.a - child.lo:c - child.lo + 1]
    skip = c - node.a - hi  # walk steps before anchor hi
    kept: list[float] = []
    kth: list[float] = []
    cth: list[float] = []
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
    node.lb[r] = np.maximum(above, np.minimum(child.init[0], below))
    node.ub[r] = np.maximum(above, np.minimum(child.init[1], below))


class MonitorState(_PrefixMonitor):
    """Single-owner incremental monitor; feed samples with push_sample."""

    def __init__(self, formula: Formula, schema: Sequence[str],
                 delta: float = 1.0,
                 bounds: Mapping[str, Bounds] | None = None):
        super().__init__(formula, schema, delta, bounds)
        self._build()
        self.verdict = _judge(self.root_rosi(), decided_at=-1)

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        ranges = node_horizons(self.formula)
        by_obj: dict[int, _Node] = {}
        pre: list[_Node] = []
        for nid, form in iter_nodes(self.formula):
            lo, hi = ranges[nid]
            node = _Node(form, nid, lo, hi)
            by_obj[id(form)] = node
            pre.append(node)
        self._pre = pre
        post: list[_Node] = []

        def wire(form: Formula) -> _Node:
            node = by_obj[id(form)]
            if isinstance(form, Not):
                node.children = [wire(form.child)]
            elif isinstance(form, (And, Or, Until)):
                node.children = [wire(form.left), wire(form.right)]
            elif isinstance(form, (Eventually, Always, Cumulative)):
                node.children = [wire(form.child)]
            post.append(node)
            return node

        wire(self.formula)
        self._post = post

        for node in post:
            form = node.form
            ilo, ihi = _init_rosi(form, self.bounds)
            node.init = (ilo, ihi)
            node.lb = np.full(max(node.size, 0), ilo, dtype=np.float64)
            node.ub = np.full(max(node.size, 0), ihi, dtype=np.float64)
            if isinstance(form, Atom):
                node.mode = "atom"
                node.cols = [self.names.index(n) for n, _ in form.coeffs]
                node.coefs = [c for _, c in form.coeffs]
                node.sign = form.sign
                node.rhs = form.rhs
            elif isinstance(form, Not):
                node.mode = "neg"
            elif isinstance(form, And):
                node.mode = "and"
            elif isinstance(form, Or):
                node.mode = "or"
            elif isinstance(form, Until):
                node.a, node.b = form.span
                node.mode = "until"
            elif isinstance(form, (Eventually, Always, Cumulative)):
                node.a, node.b = form.span
                node.k = (form.order if isinstance(form, Cumulative)
                          else 1 if isinstance(form, Eventually)
                          else node.b - node.a + 1)
                pointlike = horizon(form.child) == 0
                node.mode = "suffix" if pointlike else "rescan"
            else:  # pragma: no cover
                raise TypeError(f"not a formula node: {form!r}")

    # -- update pass --------------------------------------------------

    def _margin(self, node: _Node, row: tuple[float, ...]) -> float:
        acc = 0.0
        for col, coeff in zip(node.cols, node.coefs):
            acc += coeff * row[col]
        return node.sign * (acc - node.rhs)

    def _clip(self, node: _Node, lo: int, hi: int) -> tuple[int, int] | None:
        lo = max(lo, node.lo)
        hi = min(hi, node.hi)
        if lo > hi:
            return None
        return lo, hi

    def _update(self, node: _Node, i: int, row,
                spans: list) -> tuple[int, int] | None:
        if node.size <= 0:
            return None
        mode = node.mode
        if mode == "atom":
            if node.lo <= i <= node.hi:
                y = self._margin(node, row)
                node.lb[i - node.lo] = y
                node.ub[i - node.lo] = y
                return i, i
            return None
        if mode == "neg":
            span = spans[0]
            if span is None:
                return None
            got = self._clip(node, *span)
            if got is None:
                return None
            lo, hi = got
            child = node.children[0]
            s, e = lo - child.lo, hi - child.lo + 1
            node.lb[lo - node.lo:hi - node.lo + 1] = -child.ub[s:e]
            node.ub[lo - node.lo:hi - node.lo + 1] = -child.lb[s:e]
            return lo, hi
        if mode in ("and", "or"):
            where = [s for s in spans if s is not None]
            if not where:
                return None
            got = self._clip(node, min(s[0] for s in where),
                             max(s[1] for s in where))
            if got is None:
                return None
            lo, hi = got
            left, right = node.children
            ls, le = lo - left.lo, hi - left.lo + 1
            rs, re = lo - right.lo, hi - right.lo + 1
            op = np.minimum if mode == "and" else np.maximum
            node.lb[lo - node.lo:hi - node.lo + 1] = op(
                left.lb[ls:le], right.lb[rs:re])
            node.ub[lo - node.lo:hi - node.lo + 1] = op(
                left.ub[ls:le], right.ub[rs:re])
            return lo, hi
        if mode == "suffix":
            span = spans[0]
            if span is None:
                return None
            c = span[0]
            got = self._clip(node, c - node.b, c - node.a)
            if got is not None:
                _suffix_push(node, c, *got)
            return got
        if mode == "rescan":
            span = spans[0]
            if span is None:
                return None
            got = self._clip(node, span[0] - node.b, span[1] - node.a)
            if got is None:
                return None
            lo, hi = got
            child = node.children[0]
            w = node.b - node.a + 1
            j = w - node.k
            for t in range(lo, hi + 1):
                r = t - node.lo
                if node.lb[r] == node.ub[r]:
                    continue
                s = t + node.a - child.lo
                node.lb[r] = np.partition(child.lb[s:s + w], j)[j]
                node.ub[r] = np.partition(child.ub[s:s + w], j)[j]
            return lo, hi
        if mode == "until":
            left, right = node.children
            lo = hi = None
            if spans[0] is not None and node.b >= 1:
                lo, hi = spans[0][0] - (node.b - 1), spans[0][1]
            if spans[1] is not None:
                rlo, rhi = spans[1][0] - node.b, spans[1][1] - node.a
                lo = rlo if lo is None else min(lo, rlo)
                hi = rhi if hi is None else max(hi, rhi)
            if lo is None:
                return None
            got = self._clip(node, lo, hi)
            if got is None:
                return None
            lo, hi = got
            for t in range(lo, hi + 1):
                r = t - node.lo
                if node.lb[r] == node.ub[r]:
                    continue
                node.lb[r], node.ub[r] = _until_anchor(
                    left, right, t, node.a, node.b)
            return lo, hi
        raise AssertionError(f"unknown mode {mode}")  # pragma: no cover

    def _root(self, i: int, row: tuple[float, ...]) -> RoSI:
        spans: dict[int, tuple[int, int] | None] = {}
        for node in self._post:
            child_spans = [spans[c.nid] for c in node.children]
            spans[node.nid] = self._update(node, i, row, child_spans)
        return self.root_rosi()

    # -- inspection ---------------------------------------------------

    def root_rosi(self) -> RoSI:
        root = self._post[-1]
        return RoSI(float(root.lb[0]), float(root.ub[0]))

    def node_ids(self) -> list[tuple[int, Formula]]:
        return [(node.nid, node.form) for node in self._pre]

    def node_entries(self, nid: int) -> dict[int, RoSI]:
        """Current worklist of one node: anchor instant -> interval."""
        for node in self._pre:
            if node.nid == nid:
                return {
                    node.lo + r: RoSI(float(node.lb[r]), float(node.ub[r]))
                    for r in range(node.size)
                }
        raise KeyError(nid)


def rosi_naive(f: Formula, prefix: Signal, t: int = 0,
               bounds: Mapping[str, Bounds] | None = None) -> RoSI:
    """Interval semantics by direct recursion over the partial trace.

    Instants beyond the prefix contribute the atom-level ranges.  Exact for
    the same componentwise interval recursion the monitor maintains, and
    therefore its oracle.
    """
    f = validate(f, prefix.names, prefix.delta)
    bounds = check_bounds(bounds, prefix.names)
    n = len(prefix)
    rows = [tuple(float(v) for v in prefix.values[j]) for j in range(n)]
    name_to_col = {name: j for j, name in enumerate(prefix.names)}
    memo: dict[tuple[int, int], tuple[float, float]] = {}

    def atom_point(node: Atom, t: int) -> float:
        acc = 0.0
        for name, coeff in node.coeffs:
            acc += coeff * rows[t][name_to_col[name]]
        return node.sign * (acc - node.rhs)

    def ev(node: Formula, t: int) -> tuple[float, float]:
        key = (id(node), t)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            if t < n:
                y = atom_point(node, t)
                out = (y, y)
            else:
                out = atom_bounds(node, bounds)
        elif isinstance(node, Not):
            clo, chi = ev(node.child, t)
            out = (-chi, -clo)
        elif isinstance(node, (And, Or)):
            llo, lhi = ev(node.left, t)
            rlo, rhi = ev(node.right, t)
            if isinstance(node, And):
                out = (min(llo, rlo), min(lhi, rhi))
            else:
                out = (max(llo, rlo), max(lhi, rhi))
        elif isinstance(node, Until):
            a, b = node.span
            best_lo, best_hi = -INF, -INF
            pm_lo, pm_hi = INF, INF
            for d in range(b + 1):
                if d >= 1:
                    llo, lhi = ev(node.left, t + d - 1)
                    pm_lo = min(pm_lo, llo)
                    pm_hi = min(pm_hi, lhi)
                if d >= a:
                    rlo, rhi = ev(node.right, t + d)
                    best_lo = max(best_lo, min(rlo, pm_lo))
                    best_hi = max(best_hi, min(rhi, pm_hi))
            out = (best_lo, best_hi)
        elif isinstance(node, (Eventually, Always)):
            a, b = node.span
            vals = [ev(node.child, t + d) for d in range(a, b + 1)]
            agg = max if isinstance(node, Eventually) else min
            out = (agg(v[0] for v in vals), agg(v[1] for v in vals))
        elif isinstance(node, Cumulative):
            a, b = node.span
            vals = [ev(node.child, t + d) for d in range(a, b + 1)]
            los = sorted((v[0] for v in vals), reverse=True)
            his = sorted((v[1] for v in vals), reverse=True)
            out = (los[node.order - 1], his[node.order - 1])
        else:
            raise TypeError(f"not a formula node: {node!r}")
        memo[key] = out
        return out

    return RoSI(*ev(f, t))


class NaiveMonitor(_PrefixMonitor):
    """Same interface and verdict contract, by full prefix recomputation.

    Every push rebuilds the root interval with rosi_naive, so a push costs
    O(prefix * window) instead of the incremental engine's near-constant
    work; exists to cross-check verdicts and to be benchmarked against.
    """

    def __init__(self, f: Formula, schema: Sequence[str], delta: float = 1.0,
                 bounds: Mapping[str, Bounds] | None = None):
        super().__init__(f, schema, delta, bounds)
        self.verdict = _judge(self._root(-1, ()), decided_at=-1)

    def _root(self, i: int, row: tuple[float, ...]) -> RoSI:
        return rosi_naive(self.formula, self._prefix(), 0, self.bounds)
