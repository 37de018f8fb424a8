"""Concrete syntax: text to formula trees and back.

Grammar summary (full reference in GRAMMAR.md at the repo root):

    formula   := or_expr [ 'U' interval or_expr ]     U is non-associative
    or_expr   := and_expr { ('||' | 'or') and_expr }
    and_expr  := unary { ('&&' | 'and') unary }
    unary     := ('!' | 'not') unary
               | 'F' interval unary
               | 'G' interval unary
               | 'C' interval '^' number unary
               | primary
    primary   := '(' formula ')' | predicate
    predicate := affine cmp signed-number,  cmp in < <= > >=
    affine    := ['-'] term { ('+' | '-') term },  term := number ['*' ident]
               | ident
    interval  := '[' number ',' number ']'

Interval endpoints and the cumulative threshold are written in the signal's
time units; validation against a step divides them into sample offsets.
``U``, ``F``, ``G``, ``C``, ``and``, ``or``, ``not`` are reserved words and
cannot name variables.  The formatter emits a canonical form that re-parses
to a structurally identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, SourceSpan
from .logic import (
    Always,
    And,
    Atom,
    Cumulative,
    Eventually,
    Formula,
    Not,
    Or,
    TimeInterval,
    Until,
    _fmt_num,
)

_KEYWORDS = {
    "U": "U", "F": "F", "G": "G", "C": "C",
    "and": "ANDKW", "or": "ORKW", "not": "NOTKW",
}

_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("NUM", r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("ANDOP", r"&&"),
    ("OROP", r"\|\|"),
    ("LE", r"<="),
    ("GE", r">="),
    ("LT", r"<"),
    ("GT", r">"),
    ("BANG", r"!"),
    ("LPAR", r"\("),
    ("RPAR", r"\)"),
    ("LBRK", r"\["),
    ("RBRK", r"\]"),
    ("COMMA", r","),
    ("CARET", r"\^"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("STAR", r"\*"),
]

_MASTER = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _MASTER.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             SourceSpan(pos, pos + 1))
        kind = m.lastgroup
        if kind != "WS":
            tok_text = m.group()
            if kind == "IDENT":
                kind = _KEYWORDS.get(tok_text, "IDENT")
            toks.append(_Tok(kind, tok_text, pos, m.end()))
        pos = m.end()
    toks.append(_Tok("EOF", "", len(text), len(text)))
    return toks


_CMP = {"LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"found {tok.text!r}" if tok.kind != "EOF"
                else "unexpected end of input",
                tok.span, frozenset({what}))
        return self.advance()

    def fail(self, msg: str, tok: _Tok, *expected: str):
        raise ParseError(msg, tok.span, frozenset(expected))

    # -- grammar ------------------------------------------------------

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek().kind == "U":
            op = self.advance()
            interval = self.interval()
            right = self.or_expr()
            if self.peek().kind == "U":
                self.fail("chained U needs parentheses (non-associative)",
                          self.peek(), "end of formula")
            return Until(interval, left, right)
        return left

    def or_expr(self) -> Formula:
        node = self.and_expr()
        while self.peek().kind in ("OROP", "ORKW"):
            self.advance()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> Formula:
        node = self.unary()
        while self.peek().kind in ("ANDOP", "ANDKW"):
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("BANG", "NOTKW"):
            self.advance()
            return Not(self.unary())
        if tok.kind in ("F", "G", "C"):
            # bare F/G/C without an interval is a reserved word misused
            # as a variable, not a temporal operator
            if self.toks[self.pos + 1].kind != "LBRK":
                self.fail(f"{tok.text!r} is a reserved word", tok,
                          "'[' after a temporal operator")
            self.advance()
            interval = self.interval()
            if tok.kind == "F":
                return Eventually(interval, self.unary())
            if tok.kind == "G":
                return Always(interval, self.unary())
            self.expect("CARET", "'^'")
            tau = self.number()
            return Cumulative(interval, tau, self.unary())
        return self.primary()

    def primary(self) -> Formula:
        if self.peek().kind == "LPAR":
            self.advance()
            node = self.formula()
            self.expect("RPAR", "')'")
            return node
        return self.predicate()

    def predicate(self) -> Formula:
        start = self.peek()
        coeffs, const = self.sum()
        tok = self.peek()
        if tok.kind not in _CMP:
            self.fail(f"found {tok.text!r}" if tok.kind != "EOF"
                      else "unexpected end of input",
                      tok, "comparison operator")
        op = _CMP[self.advance().kind]
        rcoeffs, rconst = self.sum()
        # everything moves left except the constant: sum cmp sum becomes
        # (left - right) cmp (rconst - const)
        for name, value in rcoeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) - value
        items = sorted((n, c) for n, c in coeffs.items() if c != 0.0)
        if not items:
            raise ParseError(
                "predicate references no variable",
                SourceSpan(start.start, self.toks[self.pos - 1].end))
        return Atom(tuple(items), op, rconst - const)

    def sum(self) -> tuple[dict[str, float], float]:
        coeffs: dict[str, float] = {}
        const = 0.0
        sign = 1.0
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1.0
        while True:
            name, value = self.term()
            if name is None:
                const += sign * value
            else:
                coeffs[name] = coeffs.get(name, 0.0) + sign * value
            tok = self.peek()
            if tok.kind == "PLUS":
                self.advance()
                sign = 1.0
            elif tok.kind == "MINUS":
                self.advance()
                sign = -1.0
            else:
                break
        return coeffs, const

    def term(self) -> tuple[str | None, float]:
        """One summand: (variable, coefficient) or (None, constant)."""
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            value = float(tok.text)
            if self.peek().kind == "STAR":
                self.advance()
                return self.variable(), value
            return None, value
        if tok.kind == "IDENT":
            name = self.variable()
            if self.peek().kind == "STAR":
                self.advance()
                return name, self.number()
            return name, 1.0
        self.fail(f"found {tok.text!r}" if tok.kind != "EOF"
                  else "unexpected end of input",
                  tok, "number", "variable")

    def variable(self) -> str:
        tok = self.peek()
        if tok.kind in _KEYWORDS.values() and tok.kind != "IDENT":
            self.fail(f"{tok.text!r} is a reserved word", tok, "variable")
        return self.expect("IDENT", "variable").text

    def number(self) -> float:
        return float(self.expect("NUM", "number").text)


    def interval(self) -> TimeInterval:
        self.expect("LBRK", "'['")
        lo = self.number()
        self.expect("COMMA", "','")
        hi = self.number()
        self.expect("RBRK", "']'")
        return TimeInterval(lo, hi)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an unvalidated formula tree."""
    p = _Parser(text)
    node = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input starting at {tok.text!r}",
                         tok.span, frozenset({"end of formula"}))
    return node


# -- formatting -------------------------------------------------------

_LVL_UNTIL = 1
_LVL_OR = 2
_LVL_AND = 3
_LVL_UNARY = 4
_LVL_ATOM = 5


def _atom_str(atom: Atom) -> str:
    parts: list[str] = []
    for j, (name, coeff) in enumerate(atom.coeffs):
        mag = abs(coeff)
        term = name if mag == 1 else f"{_fmt_num(mag)}*{name}"
        if j == 0:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if coeff > 0 else f" - {term}")
    return f"{''.join(parts)} {atom.op} {_fmt_num(atom.rhs)}"


def _fmt(node: Formula) -> tuple[str, int]:
    if isinstance(node, Atom):
        return _atom_str(node), _LVL_ATOM
    if isinstance(node, Not):
        return f"!{_operand(node.child)}", _LVL_UNARY
    if isinstance(node, Eventually):
        return f"F{node.interval} {_operand(node.child)}", _LVL_UNARY
    if isinstance(node, Always):
        return f"G{node.interval} {_operand(node.child)}", _LVL_UNARY
    if isinstance(node, Cumulative):
        head = f"C{node.interval}^{_fmt_num(node.tau)}"
        return f"{head} {_operand(node.child)}", _LVL_UNARY
    if isinstance(node, And):
        left = _at_level(node.left, _LVL_AND)
        right = _at_level(node.right, _LVL_AND + 1)
        return f"{left} && {right}", _LVL_AND
    if isinstance(node, Or):
        left = _at_level(node.left, _LVL_OR)
        right = _at_level(node.right, _LVL_OR + 1)
        return f"{left} || {right}", _LVL_OR
    if isinstance(node, Until):
        left = _at_level(node.left, _LVL_OR)
        right = _at_level(node.right, _LVL_OR)
        return f"{left} U{node.interval} {right}", _LVL_UNTIL
    raise TypeError(f"not a formula node: {node!r}")


def _at_level(node: Formula, minimum: int) -> str:
    s, lvl = _fmt(node)
    return s if lvl >= minimum else f"({s})"


def _operand(node: Formula) -> str:
    # atoms under a prefix operator get parentheses purely for readability
    s, lvl = _fmt(node)
    if isinstance(node, Atom):
        return f"({s})"
    return s if lvl >= _LVL_UNARY else f"({s})"


def format_formula(f: Formula) -> str:
    """Canonical text; parse(format_formula(f)) == f structurally."""
    return _fmt(f)[0]
