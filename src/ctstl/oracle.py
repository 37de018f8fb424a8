"""The online monitor's test oracle: interval semantics by direct
recursion.

``rosi_naive`` recomputes, for one anchor of a prefix, the interval the
incremental monitor (:class:`ctstl.monitor.MonitorState`) keeps, and is
its correctness oracle.  It lives apart from the monitor, so that a
``ctstl monitor`` child neither compiles nor loads it.
"""

from __future__ import annotations

from typing import Mapping

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
    iter_nodes,
    validate,
)
from .monitor import INF, RoSI
from .signals import (Bounds, Signal, atom_bounds, check_bounds,
                      secondary_signal)


def rosi_naive(f: Formula, prefix: Signal, t: int = 0,
               bounds: Mapping[str, Bounds] | None = None) -> RoSI:
    """Interval semantics by direct recursion over the partial trace:
    instants beyond the prefix contribute the atom-level ranges."""
    f = validate(f, prefix.names, prefix.delta)
    bounds = check_bounds(bounds, prefix.names)
    atoms = [node for _, node in iter_nodes(f) if isinstance(node, Atom)]
    for node in atoms:  # refuses a range with no finite value
        atom_bounds(node, bounds)
    n = len(prefix)
    # margins as the offline semantics scores them; one that overflows is
    # refused, as the monitor refuses its sample
    margins = {id(node): secondary_signal(node, prefix) for node in atoms}
    memo: dict[tuple[int, int], tuple[float, float]] = {}

    def ev(node: Formula, t: int) -> tuple[float, float]:
        key = (id(node), t)
        if key in memo:
            return memo[key]
        if isinstance(node, Atom):
            if t < n:
                y = float(margins[id(node)][t])
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

