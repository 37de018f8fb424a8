"""Monitoring toolkit for STL with a cumulative-time operator.

The cumulative operator C[a,b]^tau phi asks that phi hold for at least
tau time units, not necessarily contiguously, inside the window [a, b]
relative to the evaluation instant.  The package parses such formulas,
computes boolean satisfaction and quantitative robustness over uniformly
sampled traces, and monitors growing streams online through intervals
that bracket every robustness value still reachable.

Importing the package imports none of its modules: each export is loaded
from its module on first use (PEP 562), so a command-line child pays only
for the modules its command needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ArityMismatch", "CTSTLError", "EmptyAdmissibleRange",
        "InvalidInterval", "NonFiniteMargin", "NonPositiveTau",
        "ParamOutOfRange", "ParseError", "RankOutOfRange",
        "SignalFormatError", "SourceSpan", "TauOutOfRange", "TraceTooShort",
        "UnknownVariable", "UnvalidatedFormula", "ValidationError",
        "WindowExceedsTrace"), "errors"),
    **dict.fromkeys((
        "glucose_formulas", "glucose_trace", "overvoltage_formulas",
        "overvoltage_trace"), "generators"),
    **dict.fromkeys((
        "Always", "And", "Atom", "Cumulative", "Eventually", "Formula", "Not",
        "Or", "TimeInterval", "Until", "horizon", "iter_nodes",
        "node_horizons", "validate"), "logic"),
    **dict.fromkeys(("MonitorState", "RoSI", "Verdict"), "monitor"),
    "rosi_naive": "oracle",
    **dict.fromkeys((
        "max_tau_oracle", "robustness", "robustness_trace",
        "satisfies"), "semantics"),
    **dict.fromkeys((
        "MonitorEvent", "open_signal_stream", "read_signal_csv",
        "write_signal_csv"), "sigfile"),
    **dict.fromkeys(("Signal", "secondary_signal"), "signals"),
    **dict.fromkeys(("format_formula", "parse"), "syntax"),
    **dict.fromkeys((
        "naive_extremum_batch", "naive_kth_batch", "sliding_extremum_batch",
        "sliding_kth_batch", "until_batch"), "windows"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
