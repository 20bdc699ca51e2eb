"""A small expression evaluator over named basis blades.

Grammar (products bind equally, left-associative; unary tightest):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '^' | '.' | '&' | 'x') factor)*
    factor := NUMBER | BLADE | '~' factor | '!' factor | '(' expr ')'

``*`` geometric, ``^`` outer/meet, ``.`` inner, ``&`` join,
``x`` commutator, ``~`` reversion, ``!`` duality map.  Numbers are
plain decimals (no exponent notation, so ``1e2`` cannot be confused
with a blade product).
"""

from __future__ import annotations

import re

from .algebra import Algebra, Multivector

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?)
  | (?P<blade>e\d+|E\d|I)
  | (?P<op>[-+*^.&x~!()])
""", re.VERBOSE)

_PRODUCT_OPS = "*^.&x"


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alg: Algebra):
        self.tokens = tokenize(text)
        self.alg = alg
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Multivector:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> Multivector:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Multivector:
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in _PRODUCT_OPS:
                self.next()
                rhs = self.factor()
                if text == "*":
                    value = value * rhs
                elif text == "^":
                    value = value ^ rhs
                elif text == ".":
                    value = value | rhs
                elif text == "&":
                    value = value & rhs
                else:
                    value = value.commutator(rhs)
            else:
                return value

    def factor(self) -> Multivector:
        kind, text, pos = self.next()
        if kind == "number":
            return self.alg.scalar(float(text))
        if kind == "blade":
            try:
                return self.alg.blade(text)
            except KeyError:
                raise ExprError(
                    f"unknown blade {text!r} in Cl{self.alg.signature}", pos) from None
        if kind == "op" and text == "~":
            return ~self.factor()
        if kind == "op" and text == "!":
            return self.factor().dual()
        if kind == "op" and text == "(":
            value = self.expr()
            kind, text, pos = self.next()
            if text != ")":
                raise ExprError("expected ')'", pos)
            return value
        if kind == "op" and text == "-":
            return -self.factor()
        if kind == "end":
            raise ExprError("unexpected end of expression", pos)
        raise ExprError(f"unexpected {text!r}", pos)


def evaluate(text: str, alg: Algebra) -> Multivector:
    parser = _Parser(text, alg)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprError("expression nests too deeply", parser.peek()[2]) from None
