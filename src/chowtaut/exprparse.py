"""Recursive-descent parser for cycle expressions.

Grammar:

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' nat]
    atom     := rational | gen | '(' expr ')'
    gen      := 'h_' nat | 'o_' nat | ('t'|'tau') '_{' nat ',' nat '}'
    rational := nat ['/' nat]

Parsing normalizes through the active ring, so parse(str(x)) == x for any
CycleClass x printed by :meth:`chowtaut.ring.CycleClass.__str__`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .ring import ONE, CycleClass, TautRing

# Exact coefficients print in full up to this many decimal digits.  A power
# whose constant term alone would pass it is refused before it is computed.
MAX_DIGITS = 100_000


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<gen>(?P<name>tau|t|h|o)_(?:\{\s*(?P<pair>\d+\s*,\s*\d+)\s*\}|(?P<index>\d+)))
    | (?P<nat>\d+)
    | (?P<op>[-+*/^()])
    )""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int, re.Match | None]]:
    """(kind, text, position, match) per token; the match gives a generator's parts."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:]
            if not rest.strip():
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup), m))
        pos = m.end()
    tokens.append(("end", "", len(text), None))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: TautRing):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos, _ = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> CycleClass:
        value = self.expr()
        kind, val, pos, _ = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return value

    def expr(self) -> CycleClass:
        kind, val, *_ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, *_ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self) -> CycleClass:
        acc = self.factor()
        while True:
            kind, val, *_ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = self.ring.multiply(acc, self.factor())
            else:
                return acc

    def factor(self) -> CycleClass:
        base = self.atom()
        kind, val, *_ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k, v, pos, _ = self.next()
            if k != "nat":
                raise ExprSyntaxError("expected a natural number exponent", pos)
            n = int(v)
            c0 = base.coefficient(ONE)
            size = max(abs(c0.numerator), c0.denominator)
            if size > 1 and n >= MAX_DIGITS / math.log10(size):
                raise ExprSyntaxError(f"the constant term of this power would pass the "
                                      f"{MAX_DIGITS}-digit bound on coefficients", pos)
            return self.ring.power(base, n)
        return base

    def atom(self) -> CycleClass:
        kind, val, pos, m = self.next()
        if kind == "nat":
            num = int(val)
            k, v, *_ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, v2, pos2, _ = self.next()
                if k2 != "nat" or int(v2) == 0:
                    raise ExprSyntaxError("expected a nonzero denominator", pos2)
                return self.ring.scalar(Fraction(num, int(v2)))
            return self.ring.scalar(num)
        if kind == "gen":
            name, pair, index = m.group("name", "pair", "index")
            if name in ("t", "tau"):
                if pair is None:
                    raise ExprSyntaxError("tau needs a pair of indices", pos)
                make = lambda: self.ring.tau(*map(int, pair.split(",")))
            else:
                if index is None:
                    raise ExprSyntaxError(f"{name} takes a single index", pos)
                gen = self.ring.h if name == "h" else self.ring.o
                make = lambda: gen(int(index))
            try:
                return make()
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text: str, ring: TautRing) -> CycleClass:
    """Parse and normalize a cycle expression in the given ring."""
    return _Parser(text, ring).parse()
