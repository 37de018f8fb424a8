"""Concrete syntax: parsing, spans, precedence, printing round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_formula
from ctstl import (Always, And, Atom, Cumulative, Eventually, Not, Or,
                   TimeInterval, Until, format_formula, parse, validate)
from ctstl.errors import ParseError
from ctstl.generators import glucose_formulas, overvoltage_formulas

_name = st.sampled_from(["x", "y", "longish_name2"])
# integral values of 1e16 and above print by repr, in exponent form
_huge = st.floats(1e16, 1.7976931348623157e308)
_coeff = st.sampled_from([-2.5, -1.0, 1.0, 0.5, 3.0]) | _huge | _huge.map(
    lambda v: -v)
_cmp = st.sampled_from(["<", "<=", ">", ">="])
_num = st.integers(-9, 9).map(float) | _huge | _huge.map(lambda v: -v)


@st.composite
def _atoms(draw):
    items = draw(st.lists(st.tuples(_name, _coeff), min_size=1, max_size=2,
                          unique_by=lambda p: p[0]))
    return Atom(tuple(sorted(items)), draw(_cmp), draw(_num))


@st.composite
def _ivl(draw):
    lo = draw(st.integers(0, 3))
    return TimeInterval(float(lo), float(lo + draw(st.integers(0, 5))))


def _wrap(children):
    c_node = st.builds(
        lambda iv, t, ch: Cumulative(iv, float(t), ch),
        _ivl(), st.integers(1, 3) | _huge, children)
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Until, _ivl(), children, children),
        st.builds(Eventually, _ivl(), children),
        st.builds(Always, _ivl(), children),
        c_node)


_formulas = st.recursive(_atoms(), _wrap, max_leaves=10)


class TestParsing:
    def test_fig4_formula_shape(self):
        f = parse("G[0,2] C[1,5]^3 (x > 0)")
        assert isinstance(f, Always)
        assert f.interval.lo == 0 and f.interval.hi == 2
        c = f.child
        assert isinstance(c, Cumulative)
        assert c.tau == 3.0
        assert isinstance(c.child, Atom)

    def test_atom_normalization_keeps_surface_form(self):
        f = parse("v < 1.7")
        assert format_formula(f) == "v < 1.7"
        assert f.op == "<"
        assert f.rhs == 1.7

    def test_linear_combinations(self):
        f = parse("2*x - y >= 1")
        assert f.coeffs == (("x", 2.0), ("y", -1.0))
        assert f.rhs == 1.0
        g = parse("x*2 - y >= 1")
        assert g == f

    def test_constants_fold_to_rhs(self):
        f = parse("x + 1 > 3")
        assert f.coeffs == (("x", 1.0),)
        assert f.rhs == 2.0
        g = parse("-x - 1 < 2")
        assert g.coeffs == (("x", -1.0),)
        assert g.rhs == 3.0

    def test_variables_allowed_on_both_sides(self):
        f = parse("x > y")
        assert f.coeffs == (("x", 1.0), ("y", -1.0))
        assert f.rhs == 0.0

    def test_keyword_operators(self):
        assert parse("x > 0 and y < 1") == parse("x > 0 && y < 1")
        assert parse("x > 0 or y < 1") == parse("x > 0 || y < 1")
        assert parse("not x > 0") == parse("!(x > 0)")

    def test_precedence(self):
        f = parse("x > 0 && y > 0 || x < 5")
        assert isinstance(f, Or)
        assert isinstance(f.left, And)
        f = parse("!x > 0 && y > 0")
        assert isinstance(f, And)
        assert isinstance(f.left, Not)
        f = parse("(x > 0) U[0,2] (y > 0) || x < 1")
        assert isinstance(f, Until)
        assert isinstance(f.right, Or)

    def test_until_is_not_associative(self):
        with pytest.raises(ParseError, match="parentheses"):
            parse("(x>0) U[0,1] (y>0) U[0,1] (x<0)")
        parse("((x>0) U[0,1] (y>0)) U[0,1] (x<0)")

    def test_scientific_and_fractional_numbers(self):
        f = parse("C[0,1.5e1]^2.5 (x > .5)")
        assert f.interval.hi == 15.0
        assert f.tau == 2.5
        assert f.child.rhs == 0.5


class TestParseErrors:
    def test_unexpected_character(self):
        with pytest.raises(ParseError) as e:
            parse("x # 0")
        assert "offset 2" in str(e.value)

    def test_missing_comparator(self):
        with pytest.raises(ParseError):
            parse("x + y")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x > 0 y")

    def test_reserved_word_as_variable(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("F > 0")

    def test_predicate_needs_a_variable(self):
        with pytest.raises(ParseError, match="variable"):
            parse("3 > 2")

    def test_span_points_at_the_problem(self):
        with pytest.raises(ParseError) as e:
            parse("G[0,2] (x >> 1)")
        assert e.value.span is not None

    def test_bad_interval(self):
        with pytest.raises(ParseError):
            parse("G[0 2] (x > 1)")
        with pytest.raises(ParseError):
            parse("C[0,2] (x > 1)")  # missing ^tau

    # every path that raises, with its whole message and span
    @pytest.mark.parametrize("text, message, span", [
        # expect: each bracket, separator and token class
        ("x > 0 U", "unexpected end of input at offset 7 (expected one of: "
         "'[')", (7, 7)),
        ("F[0 2] x > 0", "found '2' at offset 4 (expected one of: ',')",
         (4, 5)),
        ("F[0,2 (x > 0)", "found '(' at offset 6 (expected one of: ']')",
         (6, 7)),
        ("F[, 2] (x > 0)", "found ',' at offset 2 (expected one of: number)",
         (2, 3)),
        ("C[0,2] 1 (x > 0)", "found '1' at offset 7 (expected one of: '^')",
         (7, 8)),
        ("(x > 0", "unexpected end of input at offset 6 (expected one of: "
         "')')", (6, 6)),
        ("x * y > 0", "found 'y' at offset 4 (expected one of: number)",
         (4, 5)),
        # the comparator
        ("x + y", "unexpected end of input at offset 5 (expected one of: "
         "comparison operator)", (5, 5)),
        ("x * 2 * 3 > 0", "found '*' at offset 6 (expected one of: "
         "comparison operator)", (6, 7)),
        # a term
        ("x > ", "unexpected end of input at offset 4 (expected one of: "
         "number, variable)", (4, 4)),
        ("x > 0 and or > 1", "found 'or' at offset 10 (expected one of: "
         "number, variable)", (10, 12)),
        # reserved words
        ("G 0,2] (x > 0)", "'G' is a reserved word at offset 0 (expected "
         "one of: '[' after a temporal operator)", (0, 1)),
        ("2 * U > 1", "'U' is a reserved word at offset 4 (expected one of: "
         "variable)", (4, 5)),
        ("2 * and > 1", "'and' is a reserved word at offset 4 (expected one "
         "of: variable)", (4, 7)),
        # the tokenizer, trailing input, chained U, no variable
        ("x # 0", "unexpected character '#' at offset 2", (2, 3)),
        ("x < 1 <", "trailing input starting at '<' at offset 6 (expected "
         "one of: end of formula)", (6, 7)),
        ("(x>0) U[0,1] (y>0) U[0,1] (x<0)", "chained U needs parentheses "
         "(non-associative) at offset 19 (expected one of: end of formula)",
         (19, 20)),
        ("3 > 2", "predicate references no variable at offset 0", (0, 5)),
        # tokens are ASCII: a Unicode digit or space is neither
        ("x > \u0663", "unexpected character '\u0663' at offset 4", (4, 5)),
        ("F[0,\uff12]\u3000(x > 0)", "unexpected character '\uff12' at "
         "offset 4", (4, 5)),
        ("F[0,2]\u3000(x > 0)", "unexpected character '\\u3000' at offset "
         "6", (6, 7)),
        ("x >\u00a00", "unexpected character '\\xa0' at offset 3", (3, 4)),
    ])
    def test_error_message_and_span(self, text, message, span):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message
        assert (e.value.span.start, e.value.span.end) == span

    def test_word_and_symbol_spellings_parse_alike(self):
        words = "not (x > 0 and y < 1) or F[0,2] (x >= 1 and not y <= 0)"
        symbols = "!(x > 0 && y < 1) || F[0,2] (x >= 1 && !y <= 0)"
        assert parse(words) == parse(symbols)


class TestRoundTrip:
    def test_fig4_round_trip(self):
        text = "G[0,2] C[1,5]^3 (x > 0)"
        f = parse(text)
        assert format_formula(f) == text
        assert parse(format_formula(f)) == f

    def test_random_asts_round_trip(self):
        rng = np.random.default_rng(7)
        names = ("x", "y", "z_2")
        for _ in range(400):
            f = random_formula(rng, names, depth=4)
            assert parse(format_formula(f)) == f

    @given(_formulas)
    @settings(max_examples=300, deadline=None)
    def test_printed_form_reparses_to_the_same_tree(self, f):
        assert parse(format_formula(f)) == f

    def test_round_trip_survives_validation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_formula(rng, ("x", "y"), depth=3)
            try:
                g = validate(f, ("x", "y"))
            except Exception:
                continue
            assert parse(format_formula(g)) == g


class TestCaseStudyFormulas:
    def test_overvoltage_family_parses_and_validates(self):
        fam = overvoltage_formulas(window=10_000)
        for text in fam.values():
            validate(parse(text), ("v",))
        assert "C[0,10000]^9984 (v < 1.7)" == fam["phi2"]

    def test_glucose_family_parses_and_validates(self):
        fam = glucose_formulas(t1=288, t2=36)
        for text in fam.values():
            validate(parse(text), ("x",))
        f = validate(parse(fam["phi1"]), ("x",))
        assert f.child.order == 12  # ceil(11.52)

    def test_negated_conjunction_example(self):
        f = parse("(x > 0.2) U[0.1,0.5] (!(y < 1) && x < 4)")
        assert isinstance(f, Until)
        assert isinstance(f.right, And)

    def test_battery_charging_example_needs_no_parens(self):
        f = parse("x1 > 100 U[0,7200] C[0,3600]^3000 x2 < 1.1")
        assert isinstance(f, Until)
        assert isinstance(f.right, Cumulative)
        validate(f, ("x1", "x2"))

    def test_full_scale_staircase_validates(self):
        text = ("G[0,600000] ((v <= 2)"
                " && C[0,600000]^599984 (v < 1.7)"
                " && C[0,600000]^599970 (v < 1.4)"
                " && C[0,600000]^599840 (v < 1.3))")
        f = validate(parse(text), ("v",))
        assert isinstance(f, Always)
