"""Synthetic scenario traces with exact excursion budgets.

Both generators embed a controlled number of excursion samples into an
otherwise nominal trace and report the counts actually present in the
returned signal, recomputed from the data, so callers can assert
satisfaction or violation of the matching formula families by
construction.  Excursion values sit in disjoint bands between the
thresholds of interest, which keeps the per-threshold counts independent.

Formula families mirror two case studies: a supply-voltage spec (bounded
total time above stepped thresholds inside a long window) and a
blood-glucose spec (bounded time hypo/hyper, minimum time euglycemic, over
a day-long window repeated along the trace).  Windows default to a
10,000-sample scale; the time limits stay in absolute samples, so the
allowed-excursion budget keeps its meaning when the window shrinks.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParamOutOfRange, check_at_least
from .logic import _fmt_num
from .signals import Signal

DEFAULT_WINDOW = 10_000

# allowed time (samples) at or above each voltage threshold
VOLT_LIMITS = ((1.7, 16), (1.4, 30), (1.3, 160))


def _excursion_trace(length: int, seed: int, spread: int | None,
                     nominal: tuple[float, float],
                     bands: list[tuple[str, int, tuple[float, float]]]
                     ) -> np.ndarray:
    """``length`` samples uniform in ``nominal``, of which, for each
    ``(name, count, band)`` of ``bands``, ``count`` are redrawn uniform in
    ``band``.  The excursions take distinct places in the first ``spread``
    samples (default 80 % of the trace)."""
    check_at_least(0, **{name: c for name, c, _ in bands})
    check_at_least(1, length=length)
    check_at_least(0, seed=seed, spread=spread)
    # numpy refuses a length past its largest array with a ValueError
    if 8 * length > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise MemoryError(
            f"a trace of {length} samples exceeds physical memory")
    total = sum(c for _, c, _ in bands)
    region = spread if spread is not None else max(int(0.8 * length), 1)
    region = min(region, length)
    if total > region:
        raise ParamOutOfRange(
            f"{total} excursion samples do not fit in the first "
            f"{region} samples")
    rng = np.random.default_rng(seed)
    x = rng.uniform(*nominal, size=length)
    picked = rng.choice(region, size=total, replace=False)
    rng.shuffle(picked)
    at = 0
    for _, c, band in bands:
        x[np.sort(picked[at:at + c])] = rng.uniform(*band, size=c)
        at += c
    return x


def overvoltage_trace(length: int, seed: int, over17: int = 0,
                      over14: int = 0, over13: int = 0, overcap: int = 0,
                      spread: int | None = None) -> tuple[Signal, dict]:
    """Per-unit voltage trace with chosen counts in each threshold band.

    over17/over14/over13 count samples placed in (1.7, 2), (1.4, 1.7) and
    (1.3, 1.4) respectively; overcap samples exceed 2.  The report gives
    cumulative counts per threshold, which is what the formulas see.
    Excursions land uniformly in the first ``spread`` samples (default
    80 % of the trace).
    """
    v = _excursion_trace(length, seed, spread, (0.95, 1.05), [
        ("over17", over17, (1.72, 1.95)), ("over14", over14, (1.45, 1.65)),
        ("over13", over13, (1.33, 1.38)), ("overcap", overcap, (2.05, 2.3))])
    sig = Signal(("v",), v.reshape(-1, 1), 1.0)
    report = {
        "scenario": "overvoltage",
        "n": length,
        "v_gt_2": int(np.sum(v > 2.0)),
        "v_ge_1.7": int(np.sum(v >= 1.7)),
        "v_ge_1.4": int(np.sum(v >= 1.4)),
        "v_ge_1.3": int(np.sum(v >= 1.3)),
    }
    return sig, report


def glucose_trace(length: int, seed: int, hypo: int = 0, hyper: int = 0,
                  spread: int | None = None) -> tuple[Signal, dict]:
    """Blood-glucose trace (mg/dL) with chosen hypo/hyper sample counts."""
    x = _excursion_trace(length, seed, spread, (90.0, 150.0), [
        ("hypo", hypo, (48.0, 62.0)), ("hyper", hyper, (195.0, 260.0))])
    sig = Signal(("x",), x.reshape(-1, 1), 1.0)
    report = {
        "scenario": "glucose",
        "n": length,
        "x_lt_70": int(np.sum(x < 70.0)),
        "x_gt_180": int(np.sum(x > 180.0)),
        "x_in_band": int(np.sum((x >= 70.0) & (x <= 180.0))),
    }
    return sig, report


def overvoltage_formulas(window: int = DEFAULT_WINDOW) -> dict[str, str]:
    """Voltage formula family over a [0, window] cumulative span.

    Each (threshold, limit) pair of VOLT_LIMITS allows at most limit + 1
    samples at or above the threshold inside any window (window + 1 -
    (window - limit) instants may miss the under-threshold requirement).
    phi5 repeats the conjunction of phi1-phi4 along [0, window].
    """
    parts = {"phi1": "v <= 2"}
    for j, (thr, limit) in enumerate(VOLT_LIMITS, start=2):
        tau = window - limit
        if tau <= 0:
            raise ParamOutOfRange(
                f"window {window} too small for limit {limit}")
        parts[f"phi{j}"] = (
            f"C[0,{window}]^{_fmt_num(tau)} (v < {_fmt_num(thr)})")
    conj = " && ".join(f"({phi})" for phi in parts.values())
    parts["phi5"] = f"G[0,{window}] ({conj})"
    return parts


def glucose_formulas(t1: int = 288, t2: int = 36) -> dict[str, str]:
    """Glucose formula family: limits scale with the day window t1.

    Hypo time below 4 %, hyper time below 25 %, euglycemic time at least
    70 % of t1; the whole requirement repeats along [0, t2].
    """
    if t1 < 2 or t2 < 0:
        raise ParamOutOfRange(f"bad windows t1={t1}, t2={t2}")
    tau_hypo = _fmt_num(t1 * 4 / 100)
    tau_hyper = _fmt_num(t1 * 25 / 100)
    tau_eu = _fmt_num(t1 * 70 / 100)
    phi1 = f"!C[0,{t1}]^{tau_hypo} (x < 70)"
    phi2 = f"!C[0,{t1}]^{tau_hyper} (x > 180)"
    phi3 = f"C[0,{t1}]^{tau_eu} (x >= 70 && x <= 180)"
    phi4 = f"({phi1}) && ({phi2}) && ({phi3})"
    return {
        "phi1": phi1,
        "phi2": phi2,
        "phi3": phi3,
        "phi4": phi4,
        "phi5": f"G[0,{t2}] ({phi4})",
    }
