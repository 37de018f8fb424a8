"""The value records: formula nodes, time intervals, source spans, tokens,
parse errors and the monitor's RoSI and Verdict."""

import copy
import math
import pickle

import pytest

from ctstl import (Always, And, Atom, CTSTLError, Cumulative, Eventually,
                   Not, Or, ParseError, RoSI, SourceSpan, TimeInterval, Until,
                   Verdict, parse, validate)
from ctstl.syntax import _tokenize

X = ("x",)
A = Atom((("x", 1.0),), ">", 0.0)
B = Atom((("x", 2.0),), "<=", 1.0)
IV = TimeInterval(0, 2)
TEXTS = ["x > 0", "!(x > 0) || x < 2 && 2*x >= 1",
         "G[0,2] F[1,3] (x > 0)", "(x > 0) U[1,4] C[0,4]^2.5 (x <= 1)"]


def test_equality_needs_the_same_class():
    assert And(A, B) == And(A, B)
    assert And(A, B) != Or(A, B)
    assert Eventually(IV, A) != Always(IV, A)
    assert Not(A) != A
    assert TimeInterval(0, 2) != SourceSpan(0, 2)
    assert RoSI(0.0, 1.0) != (0.0, 1.0)
    assert A != Atom((("x", 1.0),), ">=", 0.0)
    assert Cumulative(IV, 1.0, A) != Cumulative(IV, 2.0, A)


@pytest.mark.parametrize("plain, bound", [
    (Until(IV, A, B), Until(IV, A, B, span=(0, 4))),
    (Eventually(IV, A), Eventually(IV, A, (0, 4))),
    (Always(IV, A), Always(IV, A, span=(0, 4))),
    (Cumulative(IV, 2.0, A), Cumulative(IV, 2.0, A, span=(0, 4), order=4)),
])
def test_span_and_order_stay_out_of_equality_and_hash(plain, bound):
    assert plain == bound
    assert hash(plain) == hash(bound)
    assert len({plain, bound}) == 1
    assert repr(plain) != repr(bound)


def test_hash_agrees_with_equality():
    pairs = [(parse(t), parse(t)) for t in TEXTS] + [
        (RoSI(-1.0, 2.0), RoSI(-1.0, 2.0)),
        (Verdict(True, RoSI(1.0, 2.0), 3), Verdict(True, RoSI(1.0, 2.0), 3)),
        (SourceSpan(1, 4), SourceSpan(1, 4)), (IV, TimeInterval(0, 2))]
    for a, b in pairs:
        assert a == b and a is not b and hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)
    assert Verdict(True, RoSI(1.0, 2.0), 3) != Verdict(True, RoSI(1.0, 2.0))


def test_fields_by_keyword_and_bad_calls():
    assert Until(interval=IV, left=A, right=B) == Until(IV, A, B)
    assert Cumulative(IV, 2.0, A, order=2).span is None
    assert Atom(coeffs=(("x", 1.0),), op=">", rhs=0.0) == A
    for make in (lambda: Until(IV, A), lambda: Not(A, B),
                 lambda: Not(A, child=A), lambda: Not(kid=A),
                 lambda: Always(IV, A, None, None)):
        with pytest.raises(TypeError):
            make()


@pytest.mark.parametrize("record, field", [
    (A, "op"), (Not(A), "child"), (And(A, B), "left"), (Or(A, B), "right"),
    (Until(IV, A, B), "span"), (Eventually(IV, A), "interval"),
    (Always(IV, A), "child"), (Cumulative(IV, 1.0, A), "order"),
    (IV, "lo"), (SourceSpan(0, 1), "end"), (RoSI(0.0, 1.0), "lb"),
    (Verdict(None, RoSI(0.0, 1.0)), "outcome"), (_tokenize("x")[0], "kind"),
])
def test_fields_cannot_be_assigned(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("text", TEXTS)
def test_validate_returns_an_equal_tree(text):
    f = parse(text)
    g = validate(f, X, delta=0.5)
    assert g == f and hash(g) == hash(f) and g is not f
    assert validate(g, X, delta=0.5) == g
    # every node is a fresh object, the atoms too
    assert validate(A, X) == A and validate(A, X) is not A


def test_repr_names_every_field():
    assert repr(RoSI(0.0, 1.5)) == "RoSI(lb=0.0, ub=1.5)"
    assert repr(Eventually(IV, A, (0, 2))) == (
        "Eventually(interval=TimeInterval(lo=0, hi=2), "
        "child=Atom(coeffs=(('x', 1.0),), op='>', rhs=0.0), span=(0, 2))")
    assert repr(Verdict(None, RoSI(0.0, 1.0))) == (
        "Verdict(outcome=None, rosi=RoSI(lb=0.0, ub=1.0), decided_at=None)")


@pytest.mark.parametrize("text", TEXTS)
def test_copies_and_pickles_keep_every_field(text):
    f = validate(parse(text), X, delta=0.5)
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and repr(g) == repr(f)


def test_rosi_refuses_bounds_out_of_order():
    assert RoSI(1.0, 1.0).is_point
    assert not RoSI(-math.inf, 0.0).is_point
    for lb, ub in [(1.0, 0.0), (math.nan, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="RoSI bounds out of order"):
            RoSI(lb, ub)


def test_verdict_defaults():
    v = Verdict(None, RoSI(-1.0, 1.0))
    assert v.decided_at is None and not v.decided and str(v) == "Unknown"
    assert v == Verdict(outcome=None, rosi=RoSI(-1.0, 1.0), decided_at=None)
    w = Verdict(False, RoSI(-2.0, -1.0), 7)
    assert (w.outcome, w.rosi, w.decided_at, w.decided, str(w)) == (
        False, RoSI(-2.0, -1.0), 7, True, "False")


def test_parse_error_fields_and_text():
    e = ParseError("unexpected token ')'", SourceSpan(4, 5),
                   frozenset({"NUM", "("}))
    assert isinstance(e, CTSTLError)
    assert (e.message, e.span, e.expected) == (
        "unexpected token ')'", SourceSpan(4, 5), frozenset({"NUM", "("}))
    assert str(e) == ("unexpected token ')' at offset 4 "
                      "(expected one of: (, NUM)")
    e = ParseError("trailing input", SourceSpan(2, 3))
    assert e.expected == frozenset()
    assert str(e) == "trailing input at offset 2"
    with pytest.raises(ParseError) as info:
        parse("F[0,")
    assert info.value.span == SourceSpan(4, 4)
    assert str(info.value).startswith("unexpected end of input at offset 4")
