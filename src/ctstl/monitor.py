"""Online monitoring of a growing signal prefix.

The monitor maintains, for every formula node and every anchor instant the
node can influence, an interval [lb, ub] guaranteed to contain the
robustness of every completion of the prefix seen so far.  Unknown samples
contribute the per-atom range derived from optional variable bounds
(default unbounded).  As soon as the root interval excludes zero the
verdict is final and further samples are ignored.

Update strategy: construction builds a push plan in one recursive pass,
one step per node above the atoms in post order, with the node's window,
arrays and children bound once.  Anchor t of a node reads its children's
anchors t+ra .. t+rb, the child's reach (``logic._reach``), so a push
runs the steps in one shape: from the spans of anchors its children
rewrote, each step takes s-rb .. e-ra within its own anchors, and the
writer of its kind rewrites those and leaves the span it actually
rewrote, or None, in the node's ``span``, where its parent reads it.  A
node keeps its entries in one ``(2, n)`` array ``iv``, lower bounds in
row 0 and upper bounds in row 1 (``lb`` and ``ub`` are its row views),
and each writer updates both bounds in one numpy expression.

The arrays follow the stream, not the horizon: every node's arrays (a
``suffix`` node's two order-statistic arrays too) hold its anchors below
one shared sample capacity, ``_FIRST_CAPACITY`` at first.  No reach looks
back (ra >= 0), so every anchor past the last sample still holds the
node's ``init``.  The push of the last sample below the capacity doubles
it: the arrays are copied into larger ones whose new part holds ``init``
(inf in the order-statistic arrays), and the steps are bound anew to
them.  So the anchor after the last sample is always inside the arrays,
and an F or G rescan reads its child up to that anchor, whose ``init``
joins its min or max once.  A reader past a child's arrays sees ``init``
there: a middle-rank rescan and Until pad the window with it, and
``node_entries`` reports it for every anchor of the node's range.

* ``push_sample`` writes each atom node's entry at the sample's anchor,
  the margin it has computed and checked, as one point entry;
* ``neg`` recomputes the whole span with vectorized interval negation,
  and ``boolean`` the hull of its two children's spans with one ufunc;
* ``F``, ``G`` and ``C`` are one rank node (rank k of a width-w window:
  k = 1 for ``F``, k = w for ``G``, ``order`` for ``C``) with two modes,
  chosen by the child's horizon.  Over a point-valued child (``suffix``)
  every affected anchor knows a suffix of the child trace and pads the
  rest, so its entry follows from two order statistics of what it knows,
  kept per anchor in two arrays.  Each array is monotone in the anchor, so
  a new sample changes them on one run of anchors each.  The step's
  writer finds the runs by bisection, and skips the push while no anchor
  knows enough samples for either statistic; while no anchor of the span
  knows k samples, the k-th largest is -inf there and the writer searches
  and recomputes the other statistic's run alone, in a walk of its own
  with one comparison and one append per anchor.  Per run, a selection
  of the values above it seeds a capped sorted list and one walk over
  plain floats recomputes just its anchors, with no list for a statistic
  still infinite there; under an unbounded child such a run stores one
  order-statistic row and copies it into the upper bounds, the lower
  ones holding -inf already.  Over a refining child (``rescan``) each
  open anchor's window is re-partitioned, or scanned for its minimum or
  maximum when the rank is the first or the last;
* Until rescans each open anchor's windows directly, in the same loop.
  Rescans are exact for any child because a node's ``iv`` always holds
  the current interval, pads included; a settled (point) entry never moves.

The test oracle, ``rosi_naive`` in :mod:`ctstl.oracle`, recomputes any
node's interval at any anchor by direct recursion; a monitor run does not
load it.  ``finalize`` settles an exactly-zero root on a complete trace
with the offline sweep's boolean atom map over the margins the atom nodes
hold, which are all the samples anchor 0 reads.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from typing import Mapping, Sequence

import numpy as np

from .errors import (ArityMismatch, NonFiniteMargin, ParamOutOfRange, Record,
                     _set)
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
    _reach,
    horizon,
    iter_nodes,
    node_horizons,
    validate,
)
from .semantics import _sweep
from .signals import Bounds, atom_bounds, check_bounds
from .syntax import format_formula

INF = math.inf
# physical memory: the whole monitor state must fit in it
_MAX_STATE_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# samples the node arrays hold before they first grow; they double after
_FIRST_CAPACITY = 1024
_NO_PREFIX = np.full((2, 1), INF)  # Until's left prefix min before d = 1
_BOTH = slice(None)  # both rows of an iv


class RoSI(Record, compared=2):
    """Interval bracketing the robustness of every completion."""

    __slots__ = ("lb", "ub")

    def __init__(self, lb: float, ub: float):
        # built per push and per node_entries entry: written out, as the
        # generic one is slower (so is Verdict's)
        if not lb <= ub:
            raise ValueError(f"RoSI bounds out of order: [{lb}, {ub}]")
        _set(self, "lb", lb)
        _set(self, "ub", ub)

    @property
    def is_point(self) -> bool:
        return self.lb == self.ub

    def __str__(self) -> str:
        return f"[{self.lb}, {self.ub}]"


class Verdict(Record, compared=3):
    """Monitoring outcome: True / False / None (unknown) plus evidence."""

    __slots__ = ("outcome", "rosi", "decided_at")

    def __init__(self, outcome: bool | None, rosi: RoSI,
                 decided_at: int | None = None):
        _set(self, "outcome", outcome)
        _set(self, "rosi", rosi)
        _set(self, "decided_at", decided_at)

    @property
    def decided(self) -> bool:
        return self.outcome is not None

    def __str__(self) -> str:
        return "Unknown" if self.outcome is None else str(self.outcome)


def _judge(root: RoSI, decided_at: int) -> Verdict:
    if root.lb > 0 or root.ub < 0:
        return Verdict(root.lb > 0, root, decided_at)
    return Verdict(None, root, None)


class _Node:
    """Mutable per-node monitoring state."""

    __slots__ = (
        "form", "lo", "hi", "a", "b", "k", "children", "span",
        "iv", "lb", "ub", "init", "neg_above", "below", "open_init",
    )

    def __init__(self, form: Formula, lo: int, hi: int):
        self.form = form
        self.lo = lo
        self.hi = hi
        self.children: list[_Node] = []
        self.span: tuple[int, int] | None = None  # rewritten by the last push


def _initial_entry(node: _Node, bounds) -> np.ndarray:
    """Entry before any sample: atom ranges, propagated from the children's
    initial entries."""
    form = node.form
    if isinstance(form, Atom):
        return np.array(atom_bounds(form, bounds))
    if isinstance(form, Until):  # every column read is init: two suffice
        return _until_anchor(*node.children, node.lo,
                             *(min(end, 1) for end in form.span), True)
    kids = [child.init for child in node.children]
    if isinstance(form, Not):  # 0.0 - y, not -y: a zero stays 0.0
        return 0.0 - kids[0][::-1]
    # F, G and C: any rank statistic of identical entries is that entry
    op = max if isinstance(form, Or) else min
    return np.array((op(lo for lo, _ in kids), op(hi for _, hi in kids)))


def _entries(node: _Node, r: int, n: int) -> np.ndarray:
    """The node's entries at positions r .. r+n-1 of its arrays, both
    bounds; the anchors past its arrays hold ``init``."""
    x = node.iv[:, r:r + n]
    if x.shape[1] < n:
        x = np.hstack((x, np.repeat(node.init[:, None], n - x.shape[1], 1)))
    return x


def _extended(x: np.ndarray, size: int, fill) -> np.ndarray:
    """A copy of x lengthened to ``size`` along its last axis, the new
    part holding ``fill``."""
    n = x.shape[-1]
    y = np.empty((*x.shape[:-1], size))
    y[..., :n], y[..., n:] = x, fill
    return y


def _until_anchor(left: _Node, right: _Node, t: int, a: int, b: int,
                  past: bool) -> np.ndarray:
    """Anchor t's interval: the max over d in a..b of min(right[t+d],
    left[t .. t+d-1]), both bounds at once; ``past`` when it reads past
    a child's arrays."""
    ls, rs = t - left.lo, t - right.lo + a
    if past:
        lx, rx = _entries(left, ls, b), _entries(right, rs, b - a + 1)
    else:
        lx, rx = left.iv[:, ls:ls + b], right.iv[:, rs:rs + b - a + 1]
    pm = np.minimum.accumulate(lx, axis=1)
    pm = pm[:, a - 1:] if a >= 1 else np.hstack((_NO_PREFIX, pm))
    return np.minimum(rx, pm).max(1)


def _suffix_push(node: _Node, c: int, lo: int, hi: int) -> None:
    """Recompute anchors lo..hi, a run whose windows hold child sample c.

    Anchor t in [c-b, c-a] knows child[t+a .. c], m values, and pads the
    other w-m.  Its k-th largest is the pad clamped to [A, B]: A is the
    k-th largest known (-inf while m < k) and B the (w-k+1)-th smallest
    known (+inf while m < w-k+1), which is also the (k-(w-m))-th largest.
    Both ranks lie among the w-k+1 smallest knowns, and the anchors' known
    sets are nested suffixes, so one walk from c down to anchor lo, keeping
    those smallest values sorted, serves every anchor of the run.  The
    values above anchor hi only seed the list: past cap of them,
    ``np.partition`` selects the cap smallest, which are sorted.  Equal
    values are equal bits, as the monitor holds one zero, so this is the
    list a value-by-value walk builds.

    While anchor lo, which knows the most, knows fewer than k values, A
    is -inf on the whole run, where the lower bounds and ``neg_above``
    hold it already, and the walk keeps B alone, the list's last value.
    Otherwise, when k < w-k+1, the walk ranks the negated values at
    w-k+1 instead (the k-th largest of x is minus the (w-k+1)-th largest
    of -x, which swaps and negates A and B), so the list never holds more
    than cap = min(k, w-k+1) values, and it keeps B alone until an anchor
    knows k values.
    """
    child = node.children[0]
    a, k = node.a, node.k
    w = node.b - a + 1
    known = child.lb[lo + a - child.lo:c - child.lo + 1]
    alone = c - a - lo < k - 1  # A is -inf on the run
    flip = not alone and 2 * k < w + 1
    if flip:
        k, known = w - k + 1, -known
    cap = w - k + 1
    skip = c - a - hi  # walk steps before anchor hi
    if skip > cap:
        seed = known[:hi - lo:-1]
        kept = sorted(np.partition(seed, cap - 1)[:cap].tolist())
        vals = known[:hi - lo + 1].tolist()
        vals.reverse()
    else:
        vals = known.tolist()
        vals.reverse()
        # a pad of inf takes the place of the values not known yet
        kept = sorted(vals[:skip]) + [INF] * (cap - skip)
        vals = vals[skip:]
    top, cth = kept[-1], []
    r0, r1 = lo - node.lo, hi - node.lo + 1
    if alone:
        for v in vals:
            if v < top:
                insort(kept, v)
                kept.pop()
                top = kept[-1]
            cth.append(top)
        cth.reverse()
        below = node.below
        below[r0:r1] = cth
        if node.open_init:  # (A, B) with A = -inf, which lb holds already
            node.ub[r0:r1] = below[r0:r1]
        else:  # max(-inf, y) is y
            np.minimum(child.init[:, None], below[r0:r1],
                       out=node.iv[:, r0:r1])
        return
    kth = []
    nb = max(k - 1 - skip, 0)  # values walked before an anchor knows k
    for v in vals[:nb]:
        if v < top:
            insort(kept, v)
            kept.pop()
            top = kept[-1]
        cth.append(top)
    for q, v in enumerate(vals[nb:], skip + nb + 1 - k):
        if v < top:
            insort(kept, v)
            kept.pop()
            top = kept[-1]
        cth.append(top)
        kth.append(kept[q])
    # reversed, the lists start at anchor lo; past kth's end the anchors
    # know fewer than k values, and their A holds -inf already
    cth.reverse()
    kth.reverse()
    fb, fa = ((node.neg_above, node.below) if flip
              else (node.below, node.neg_above))
    fb[r0:r1] = cth
    fa[r0:r0 + len(kth)] = np.negative(kth)
    np.maximum(-node.neg_above[r0:r1], np.minimum(child.init[:, None],
                                                  node.below[r0:r1]),
               out=node.iv[:, r0:r1])


def _make_step(node: _Node, kids: list[tuple[_Node, int, int]]):
    """The push step of one node above the atoms: ``step(i)`` rewrites
    the node's entries that sample i changes and returns their anchor
    span, or None.

    ``kids`` holds each child, whose step (an atom's ``push_sample``) left
    its span s..e in its ``span``, and its reach (ra, rb).  The step hands
    the hull of the anchors s-rb .. e-ra, within the node's own, to the
    writer of the node's kind, which returns the span it rewrote; the plan
    stores it in the node's ``span``.  Boolean and suffix nodes, on every
    push of the paper's formulas, have steps of their own that take their
    children's spans directly.  Everything a step needs besides the
    sample's index is bound here, once; the module functions above are
    looked up at each call, so a test can wrap them.
    """
    form, lo, hi, iv = node.form, node.lo, node.hi, node.iv
    lb, ub = iv
    if isinstance(form, (And, Or, Until)):
        left, right = node.children
        llo, liv, rlo, riv = left.lo, left.iv, right.lo, right.iv
    else:
        (child,) = node.children
        clo, civ = child.lo, child.iv

    if isinstance(form, Not):
        def write(i, s, e):  # neg: [0.0 - ub, 0.0 - lb]; a zero stays 0.0
            np.subtract(0.0, civ[::-1, s - clo:e - clo + 1],
                        out=iv[:, s - lo:e - lo + 1])
            return s, e
    elif isinstance(form, (And, Or)):
        # both reaches are (0, 0), so both children's anchors are the
        # node's: the step writes the hull of their spans in one ufunc
        op = np.minimum if isinstance(form, And) else np.maximum

        def step(i):  # boolean
            ls, rs = left.span, right.span
            if ls is None:
                if rs is None:
                    return None
                s, e = rs
            elif rs is None:
                s, e = ls
            else:
                s = ls[0] if ls[0] < rs[0] else rs[0]
                e = ls[1] if ls[1] > rs[1] else rs[1]
            cols = _BOTH, slice(s - lo, e - lo + 1)  # one index for three
            op(liv[cols], riv[cols], out=iv[cols])
            return s, e

        return step
    else:
        a, b = node.a, node.b = form.span
        if isinstance(form, Until):
            # anchors past tmax read past a child's arrays; the others
            # take plain slices, which is measurably faster on psi_rec
            tmax = min(llo + liv.shape[1] - b, rlo + riv.shape[1] - 1 - b)

            def anchor(t, i):
                return _until_anchor(left, right, t, a, b, t > tmax)
        else:
            w = b - a + 1
            node.k = (form.order if isinstance(form, Cumulative)
                      else 1 if isinstance(form, Eventually) else w)
            j = w - node.k
            # F or G: the child's anchors past sample i hold init, which
            # joins the window's min or max once, read from the column of
            # anchor i+1; the child's arrays always hold it
            fold = np.minimum if j == 0 else np.maximum

            def anchor(t, i):
                q = t + a - clo
                if 0 < j < w - 1:  # a middle rank: the (j+1)-th smallest
                    return np.partition(_entries(child, q, w), j, 1)[:, j]
                return fold.reduce(civ[:, q:min(q + w, i + 2 - clo)], 1)

        if node.below is None:
            # anchor(t, i) reads sample i's index only in an F or G scan
            def write(i, s, e):  # rescan
                for t in range(s, e + 1):
                    r = t - lo
                    if lb[r] != ub[r]:  # a settled entry stays settled
                        iv[:, r] = anchor(t, i)
                return s, e
        else:
            # -A and B rise with the anchor (see _suffix_push), so child
            # sample i moves each on one run of anchors, which ends at the
            # highest anchor that knows as many samples as its rank
            k, kb, below = node.k, w - node.k + 1, node.below
            clb, least = child.lb, a - 1 + min(k, kb)
            keyed = ((k, node.neg_above, -1.0), (kb, below, 1.0))
            # under a child entry of (-inf, inf) an entry is (A, max(A, B)),
            # which _suffix_push stores in one row while A is -inf
            node.open_init = child.init.tolist() == [-INF, INF]

            def step(i):  # suffix
                # a point-valued child's span is (i, i) or None, and i lies
                # in its anchors lo+a .. hi+b, so s <= e
                if child.span is None:
                    return None
                s = i - b if i - b > lo else lo
                if i - least < s:  # no anchor knows enough samples yet
                    return None
                e = i - a if i - a < hi else hi
                x, top = clb.item(i - clo), i - a + 1  # t knows top-t
                if top - k < s:  # A is -inf on s..e; only B can move
                    end = top - kb if top - kb < e else e
                    if below.item(end - lo) <= x:
                        return None
                    run = s + int(below[s - lo:end - lo + 1]
                                  .searchsorted(x, "right")), end
                    _suffix_push(node, i, *run)
                    return run
                runs = []
                for rank, keys, sign in keyed:
                    end, v = min(e, top - rank), sign * x
                    # none above v at end means none in s..end
                    if end >= s and keys.item(end - lo) > v:
                        runs.append((s + int(keys[s - lo:end - lo + 1]
                                             .searchsorted(v, "right")), end))
                runs.sort()
                if len(runs) == 2 and runs[1][0] <= runs[0][1] + 1:
                    runs = [(runs[0][0], max(runs[0][1], runs[1][1]))]
                for run in runs:
                    _suffix_push(node, i, *run)
                # the parent reads the runs' hull
                return (runs[0][0], runs[-1][1]) if runs else None

            return step

    if len(kids) == 1:
        ((kid, ra, rb),) = kids

        def step(i):
            span = kid.span
            if span is None:
                return None
            s, e = span[0] - rb, span[1] - ra
            if s < lo:
                s = lo
            if e > hi:
                e = hi
            return write(i, s, e) if s <= e else None

        return step

    def step(i):
        s, e = hi + 1, lo - 1
        for kid, ra, rb in kids:
            span = kid.span
            if span is not None:
                if span[0] - rb < s:
                    s = span[0] - rb
                if span[1] - ra > e:
                    e = span[1] - ra
        if s < lo:
            s = lo
        if e > hi:
            e = hi
        return write(i, s, e) if s <= e else None

    return step


class MonitorState:
    """Single-owner incremental monitor; feed samples with push_sample.

    Every sample is checked first, even after the verdict: it must be
    finite, inside its variable's bounds, and give every atom a finite
    margin (finite samples can overflow).  A refused sample changes no
    state; after the verdict a sample is counted but not evaluated.  The
    monitor keeps no row: the atom nodes' entries hold the margins of the
    samples that reach anchor 0, which is all ``finalize`` reads.
    """

    def __init__(self, formula: Formula, schema: Sequence[str],
                 delta: float = 1.0,
                 bounds: Mapping[str, Bounds] | None = None):
        self.names = tuple(schema)
        self.delta = float(delta)
        self.formula = validate(formula, self.names, self.delta)
        self.bounds = check_bounds(bounds, self.names)
        self.horizon = horizon(self.formula)
        self.i = 0
        # each distinct atom once, in pre-order, at its position in ys
        atom_pos = {a: q for q, a in enumerate(dict.fromkeys(
            f for _, f in iter_nodes(self.formula) if isinstance(f, Atom)))}
        self._atoms = [(a, [(self.names.index(n), c) for n, c in a.coeffs],
                        a.sign, a.rhs) for a in atom_pos]
        self._build()
        # push_sample writes these nodes' entries; the plan holds the rest
        self._atom_nodes = [(node, atom_pos[node.form]) for node in self._pre
                            if isinstance(node.form, Atom)
                            and node.lo <= node.hi]
        self.verdict = _judge(self.root_rosi(), decided_at=-1)

    # -- construction -------------------------------------------------

    def _build(self) -> None:
        """The push plan: one step per node with anchors, children first,
        but for the atoms, whose entries ``push_sample`` writes.

        Nodes are numbered in pre-order, as ``iter_nodes`` numbers them,
        and each push leaves a step's span in its node's ``span``.  The walk
        allocates only empty arrays; then the state's size over the whole
        horizon, 16 bytes per entry and 16 more per anchor of a ``suffix``
        node, is checked, though the arrays start at ``_FIRST_CAPACITY``
        samples.  The check bounds the final state, all the monitor keeps;
        while a growth step copies a node, its old arrays are held too.
        """
        ranges = node_horizons(self.formula)
        pre: list[_Node] = []
        wiring = []

        def build(form: Formula) -> _Node:
            node = _Node(form, *ranges[len(pre)])
            pre.append(node)
            kids = [(build(child), ra, rb) for child, ra, rb in _reach(form)]
            node.children = [child for child, _, _ in kids]
            node.init = _initial_entry(node, self.bounds)
            node.iv = np.empty((2, 0))
            node.lb, node.ub = node.iv
            # a rank node over a point-valued child is a suffix node, which
            # keeps -A and B of every anchor
            suffix = (isinstance(form, (Eventually, Always, Cumulative))
                      and horizon(form.child) == 0)
            node.neg_above = node.below = np.empty(0) if suffix else None
            if node.lo <= node.hi and not isinstance(form, Atom):
                wiring.append((node, kids))
            return node

        build(self.formula)
        need = sum(16 * max(node.hi - node.lo + 1, 0)
                   * (1 + (node.below is not None)) for node in pre)
        if need > _MAX_STATE_BYTES:
            raise MemoryError(
                f"monitor state of {need / 2**30:.3g} GiB exceeds the "
                f"{_MAX_STATE_BYTES / 2**30:.3g} GiB of physical memory")
        self._pre, self._wiring = pre, wiring
        self._grow(_FIRST_CAPACITY)

    def _grow(self, cap: int) -> None:
        """Size every node's arrays to its anchors below ``cap`` and bind
        the steps anew.

        No anchor past the last sample has moved from ``init`` (every reach
        has ra >= 0), so the new entries hold ``init`` and the frontier
        arrays inf.  Sample ``cap - 1`` grows the arrays, doubling ``cap``,
        so the anchor after the last sample is always inside them.  The
        old steps, which hold the old arrays, go first, so each node's old
        arrays are freed as soon as its new ones are filled.
        """
        self._cap, self._plan = cap, []
        for node in self._pre:
            size = max(min(node.hi + 1, cap) - node.lo, 0)
            if size > node.iv.shape[1]:
                node.iv = _extended(node.iv, size, node.init[:, None])
                node.lb, node.ub = node.iv
                if node.below is not None:
                    node.neg_above = _extended(node.neg_above, size, INF)
                    node.below = _extended(node.below, size, INF)
        self._plan = [(node, _make_step(node, kids))
                      for node, kids in self._wiring]

    # -- update pass --------------------------------------------------

    def push_sample(self, x: Sequence[float]) -> Verdict:
        """Consume one sample vector; returns the (possibly new) verdict:
        the atom nodes take its margins, then the plan's ``step(i)`` run."""
        if len(x) != len(self.names):
            raise ArityMismatch(len(self.names), len(x))
        row = tuple(map(float, x))
        if not all(map(math.isfinite, row)):
            raise ValueError("signal samples must be finite")
        # bounds promise every sample's range; a verdict may rest on them
        if self.bounds:
            for name, (lo, hi) in self.bounds.items():
                v = row[self.names.index(name)]
                if not lo <= v <= hi:
                    raise ParamOutOfRange(
                        f"sample {self.i} has {name}={v}, outside its "
                        f"bounds {name}={lo}:{hi}")
        ys = []
        for atom, terms, sign, rhs in self._atoms:
            acc = 0.0
            for col, coeff in terms:
                acc += coeff * row[col]
            y = sign * (acc - rhs) + 0.0  # -0.0 + 0.0 is 0.0
            if not -INF < y < INF:
                raise NonFiniteMargin(format_formula(atom), self.i, y)
            ys.append(y)
        i = self.i
        self.i += 1
        if self.verdict.decided:
            return self.verdict
        if i + 1 == self._cap:  # samples come one at a time
            self._grow(2 * self._cap)
        for node, q in self._atom_nodes:  # one point entry at anchor i
            if node.lo <= i <= node.hi:
                node.lb[i - node.lo] = node.ub[i - node.lo] = ys[q]
                node.span = i, i
            else:
                node.span = None
        for node, step in self._plan:
            node.span = step(i)
        root = self.root_rosi()
        if root is not self.verdict.rosi:  # an unchanged root keeps it
            self.verdict = _judge(root, decided_at=i)
        return self.verdict

    def finalize(self) -> Verdict:
        """Resolve the verdict at end of stream.

        ``_judge`` has decided every root that excludes zero, so an open
        root is decided here only when it is exactly zero on a complete
        trace, by the qualitative semantics over the margins the atom nodes
        hold: their anchors lo..hi are all the samples anchor 0 reads.
        Anything else stays Unknown, with the residual interval attached.
        """
        if self.verdict.decided:
            return self.verdict
        root = self.verdict.rosi
        if root.lb == root.ub == 0 and self.i > self.horizon:
            n = self.horizon + 1
            margins: dict[Atom, np.ndarray] = {}
            for node, _ in self._atom_nodes:
                y = margins.setdefault(node.form, np.zeros(n))
                y[node.lo:node.hi + 1] = node.lb[:node.hi + 1 - node.lo]
            ok = _sweep(self.formula, n, margins.__getitem__, True)[0]
            self.verdict = Verdict(bool(ok > 0), root, self.i - 1)
        return self.verdict

    # -- inspection ---------------------------------------------------

    _rosi = RoSI(0.0, 0.0)  # the last root

    def root_rosi(self) -> RoSI:
        """The root interval; the same object while both bounds stay
        equal.  A zero bound is 0.0, the only zero the monitor computes:
        margins add 0.0, and negation subtracts from it."""
        lb, ub = self._pre[0].iv[:, 0].tolist()
        r = self._rosi
        if lb != r.lb or ub != r.ub:
            r = self._rosi = RoSI(lb, ub)
        return r

    def node_ids(self) -> list[tuple[int, Formula]]:
        return [(nid, node.form) for nid, node in enumerate(self._pre)]

    def node_bounds(self, nid: int) -> tuple[int, int, list, list]:
        """One node's anchor range lo..hi, the [lb, ub] of each anchor from
        lo on as far as its arrays reach, and the [lb, ub] of every later
        anchor, its ``init``."""
        if not 0 <= nid < len(self._pre):
            raise KeyError(nid)
        node = self._pre[nid]
        return node.lo, node.hi, node.iv.T.tolist(), node.init.tolist()

    def node_entries(self, nid: int) -> dict[int, RoSI]:
        """Current worklist of one node: anchor instant -> interval, in
        ascending anchor order."""
        lo, hi, pairs, init = self.node_bounds(nid)
        out = {t: RoSI(lb, ub) for t, (lb, ub) in enumerate(pairs, lo)}
        out.update(dict.fromkeys(range(lo + len(out), hi + 1), RoSI(*init)))
        return out
