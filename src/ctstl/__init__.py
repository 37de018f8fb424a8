"""Monitoring toolkit for STL with a cumulative-time operator.

The cumulative operator C[a,b]^tau phi asks that phi hold for at least
tau time units, not necessarily contiguously, inside the window [a, b]
relative to the evaluation instant.  The package parses such formulas,
computes boolean satisfaction and quantitative robustness over uniformly
sampled traces, and monitors growing streams online through intervals
that bracket every robustness value still reachable.
"""

from .errors import (ArityMismatch, CTSTLError, EmptyAdmissibleRange,
                     InvalidInterval, NonPositiveTau, ParamOutOfRange,
                     ParseError, RankOutOfRange, SignalFormatError,
                     SourceSpan, TauOutOfRange, TraceTooShort,
                     UnknownVariable, UnvalidatedFormula, ValidationError,
                     WindowExceedsTrace)
from .generators import (glucose_formulas, glucose_trace,
                         overvoltage_formulas, overvoltage_trace)
from .logic import (Always, And, Atom, Cumulative, Eventually, Formula, Not,
                    Or, TimeInterval, Until, horizon, iter_nodes,
                    node_horizons, validate)
from .monitor import MonitorState, NaiveMonitor, RoSI, Verdict, rosi_naive
from .semantics import (characteristic, max_tau_oracle, robustness,
                        robustness_trace, satisfies)
from .sigfile import (MonitorEvent, open_signal_stream, read_signal_csv,
                      write_signal_csv)
from .signals import Signal, secondary_signal
from .syntax import format_formula, parse
from .windows import (naive_extremum_batch, naive_kth_batch,
                      sliding_extremum_batch, sliding_kth_batch, until_batch)

__version__ = "0.1.0"

__all__ = [
    "Always", "And", "ArityMismatch", "Atom", "CTSTLError", "Cumulative",
    "EmptyAdmissibleRange", "Eventually", "Formula", "InvalidInterval",
    "MonitorEvent", "MonitorState", "NaiveMonitor", "NonPositiveTau",
    "Not", "Or", "ParamOutOfRange", "ParseError", "RankOutOfRange", "RoSI",
    "Signal", "SignalFormatError", "SourceSpan", "TauOutOfRange",
    "TimeInterval", "TraceTooShort", "UnknownVariable", "Until",
    "UnvalidatedFormula", "ValidationError", "Verdict",
    "WindowExceedsTrace", "characteristic", "format_formula",
    "glucose_formulas", "glucose_trace", "horizon", "iter_nodes",
    "max_tau_oracle", "naive_extremum_batch", "naive_kth_batch",
    "node_horizons", "open_signal_stream", "overvoltage_formulas",
    "overvoltage_trace", "parse", "read_signal_csv", "robustness",
    "robustness_trace", "rosi_naive", "satisfies", "secondary_signal",
    "sliding_extremum_batch", "sliding_kth_batch", "until_batch",
    "validate", "write_signal_csv",
]
