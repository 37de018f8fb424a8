"""Sampled multivariate signals and bounds on atom outputs.

A :class:`Signal` is a dense float64 matrix, one row per sample, one column
per variable, taken at a uniform step ``delta``.  Atoms are scored through
:func:`secondary_signal`, which maps the raw rows to the oriented margin
``y`` whose sign encodes satisfaction.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import ParamOutOfRange, UnknownVariable
from .logic import Atom

Bounds = tuple[float, float]


class Signal:
    """Uniformly sampled trace over named real-valued variables."""

    __slots__ = ("names", "delta", "values")

    def __init__(self, names: Sequence[str], values, delta: float = 1.0):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not names:
            raise ValueError("signal needs at least one variable")
        if delta <= 0 or not math.isfinite(delta):
            raise ValueError(f"step must be positive and finite, got {delta}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, len(names))
        if arr.ndim != 2 or arr.shape[1] != len(names):
            raise ValueError(
                f"expected shape (n, {len(names)}), got {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("signal samples must be finite")
        self.names = names
        self.delta = float(delta)
        self.values = arr

    def __len__(self) -> int:
        return self.values.shape[0]

    def __repr__(self) -> str:
        return (f"Signal({list(self.names)}, n={len(self)}, "
                f"delta={self.delta})")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise UnknownVariable(name, self.names) from None
        return self.values[:, j]


def secondary_signal(atom: Atom, signal: Signal) -> np.ndarray:
    """Oriented margin of an atom over every sample.

    y[t] >= 0 (or > 0 for strict comparators) iff the atom holds at t, and
    y is also the atom's robustness at t.
    """
    acc = np.zeros(len(signal), dtype=np.float64)
    for name, coeff in atom.coeffs:
        acc += coeff * signal.column(name)
    return atom.sign * (acc - atom.rhs)


def atom_bounds(atom: Atom,
                var_bounds: Mapping[str, Bounds] | None) -> Bounds:
    """Range of an atom's margin given per-variable ranges.

    Variables missing from var_bounds are unbounded.  Plain interval
    arithmetic over the affine form; exact because each variable appears
    once per atom after canonicalization.
    """
    lo = 0.0
    hi = 0.0
    for name, coeff in atom.coeffs:
        c = atom.sign * coeff
        if c == 0.0:
            continue
        if var_bounds is None or name not in var_bounds:
            vlo, vhi = -math.inf, math.inf
        else:
            vlo, vhi = var_bounds[name]
        a, b = c * vlo, c * vhi
        lo += min(a, b)
        hi += max(a, b)
    shift = -atom.sign * atom.rhs
    return lo + shift, hi + shift


def check_bounds(var_bounds: Mapping[str, Bounds] | None,
                 names: Sequence[str]) -> dict[str, Bounds]:
    """Per-variable ranges checked against a schema, as a fresh dict.

    Every name must be in the schema, and every range must hold a finite
    value (samples are finite): lo <= hi, no NaN end, not both ends at the
    same infinity.
    """
    out = {}
    for name, (lo, hi) in (var_bounds or {}).items():
        if name not in names:
            raise UnknownVariable(name, tuple(names))
        lo, hi = float(lo), float(hi)
        if not (lo <= hi and lo < math.inf and hi > -math.inf):
            raise ParamOutOfRange(
                f"bounds {name}={lo}:{hi} need lo <= hi and a finite value "
                f"between them")
        out[name] = (lo, hi)
    return out
