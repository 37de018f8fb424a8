"""Exception types shared across the toolkit, its one count check, and
the base of its value records."""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__  # a record's fields, set past its immutability


class Record:
    """An immutable value whose fields are its class's ``__slots__``, in
    order.  Two records are equal when they are of one class and their
    first ``compared`` fields (a class keyword) are equal, and the hash
    follows those fields.  A field past them (a formula node's ``span`` and
    ``order``) defaults to None.  Records are written out rather than built
    by ``dataclasses``, whose generated methods every process would compile
    at import."""

    __slots__ = ()

    def __init_subclass__(cls, compared: int) -> None:
        cls._compared = compared
        cls._key = attrgetter(*cls.__slots__[:compared])

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if (len(values) < len(args) + len(kwargs) or not
                    set(fields[:self._compared]) <= values.keys()
                    <= set(fields)):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{fields}, got {args} and {kwargs}")
            args = [values.get(n) for n in fields]
        for name, v in zip(fields, args):
            _set(self, name, v)

    def __setattr__(self, name, *_):
        raise AttributeError(
            f"cannot set {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


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


class NonFiniteMargin(CTSTLError):
    """Finite samples gave an atom a NaN or infinite margin (an overflow)."""

    def __init__(self, atom: str, sample: int, value: float):
        self.atom = atom
        self.sample = sample
        self.value = value
        super().__init__(f"atom {atom} has the non-finite margin {value} "
                         f"at sample {sample}")


class ParamOutOfRange(CTSTLError):
    """A parameter (generator budget, CLI flag, bounds) is out of range."""


def check_at_least(least: int, **counts: int | None) -> None:
    """Refuse the first count, in argument order, below ``least``; a count
    of None is not checked."""
    for name, v in counts.items():
        if v is not None and v < least:
            raise ParamOutOfRange(f"{name} must be >= {least}, got {v}")


class SignalFormatError(CTSTLError):
    """A signal file or stream row could not be interpreted."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndecodableLine(SignalFormatError):
    """A line of a signal or formula file holds bytes that are not UTF-8."""

    def __init__(self, line: int, exc: UnicodeDecodeError):
        super().__init__(f"input is not UTF-8 text at line {line:,} "
                         f"({exc.reason}: {exc.object[exc.start:exc.end]!r})")
        self.line = line


class SourceSpan(Record, compared=2):
    """Character offsets [start, end) into the formula source text."""

    __slots__ = ("start", "end")


class ParseError(CTSTLError):
    """Formula text that does not parse: ``span`` locates the fault, and
    ``expected`` holds the token kinds that would have continued it."""

    def __init__(self, message: str, span: SourceSpan,
                 expected: frozenset[str] = frozenset()):
        self.message = message
        self.span = span
        self.expected = expected
        text = f"{message} at offset {span.start}"
        if expected:
            text += f" (expected one of: {', '.join(sorted(expected))})"
        super().__init__(text)
