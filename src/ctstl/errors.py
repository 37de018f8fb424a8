"""Exception types shared across the toolkit."""

from __future__ import annotations

from dataclasses import dataclass, field


class CTSTLError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CTSTLError):
    """A formula failed validation against a schema and step size."""


class UnknownVariable(ValidationError):
    """A predicate or a bounds entry names a variable outside the schema."""

    def __init__(self, name: str, schema: tuple[str, ...]):
        self.name = name
        self.schema = schema
        super().__init__(f"unknown variable {name!r}; "
                         f"schema is {list(schema)}")


class NonPositiveTau(ValidationError):
    def __init__(self, tau: float):
        self.tau = tau
        super().__init__(f"cumulative threshold must be positive, got {tau}")


class TauOutOfRange(ValidationError):
    def __init__(self, tau: float, width: int, delta: float):
        self.tau = tau
        self.width = width
        self.delta = delta
        super().__init__(
            f"cumulative threshold {tau} exceeds window capacity "
            f"{width} * {delta} = {width * delta}")


class InvalidInterval(ValidationError):
    """Interval endpoints are inverted, negative, or not multiples of the step."""


class UnvalidatedFormula(CTSTLError):
    """An operation that needs sample-unit binding got an unvalidated formula."""


class TraceTooShort(CTSTLError):
    """Evaluation time plus formula horizon runs past the end of the trace."""


class EmptyAdmissibleRange(TraceTooShort):
    """The trace is shorter than the formula horizon, so no anchor is evaluable."""


class RankOutOfRange(CTSTLError):
    def __init__(self, k: int, size: int):
        self.k = k
        self.size = size
        super().__init__(f"rank {k} outside 1..{size}")


class WindowExceedsTrace(CTSTLError):
    def __init__(self, window: int, length: int):
        self.window = window
        self.length = length
        super().__init__(f"window of {window} samples exceeds trace length {length}")


class ArityMismatch(CTSTLError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"sample has {got} values, schema expects {expected}")


class ParamOutOfRange(CTSTLError):
    """A parameter (generator budget, CLI flag, bounds) is out of range."""


class SignalFormatError(CTSTLError):
    """A signal file or stream row could not be interpreted."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SourceSpan:
    """Character offsets [start, end) into the formula source text."""
    start: int
    end: int


@dataclass
class ParseError(CTSTLError):
    message: str
    span: SourceSpan
    expected: frozenset[str] = field(default_factory=frozenset)

    def __str__(self) -> str:
        loc = f"at offset {self.span.start}"
        if self.expected:
            opts = ", ".join(sorted(self.expected))
            return f"{self.message} {loc} (expected one of: {opts})"
        return f"{self.message} {loc}"
