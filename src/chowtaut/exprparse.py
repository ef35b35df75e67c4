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

import functools
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .ring import ONE, CycleClass, TautRing

# Exact coefficients print in full up to this many decimal digits.  The parser refuses
# any number it reads or forms past it, and a power whose constant term would pass it.
MAX_DIGITS = 100_000
_PAST_BOUND = f"passes the {MAX_DIGITS}-digit bound on coefficients"


@functools.cache
def _digit_limit() -> int:
    return 10 ** MAX_DIGITS  # the least integer with more than MAX_DIGITS digits


@contextmanager
def int_str_limit():
    """Python's int/str conversion limit set to MAX_DIGITS inside the block, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons before 3.10.7 have no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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
            kind, val, pos, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                acc = self.bounded(acc - rhs if val == "-" else acc + rhs, pos)
            else:
                return acc

    def term(self) -> CycleClass:
        acc = self.factor()
        while True:
            kind, val, pos, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                acc = self.bounded(self.ring.multiply(acc, self.factor()), pos)
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
            n = self.number(v, pos)
            c0 = base.coefficient(ONE)
            size = max(abs(c0.numerator), c0.denominator)
            if size > 1 and n >= MAX_DIGITS / math.log10(size):
                raise ExprSyntaxError(f"the constant term of this power would pass the "
                                      f"{MAX_DIGITS}-digit bound on coefficients", pos)
            return self.bounded(self.ring.power(base, n), pos)
        return base

    def bounded(self, value: CycleClass, pos: int) -> CycleClass:
        """value, unless one of its numerators or denominators passes MAX_DIGITS."""
        # the bit length spares computing the limit for all but huge integers
        if any(n.bit_length() > 3 * MAX_DIGITS and abs(n) >= _digit_limit()
               for c in value.terms.values() for n in (c.numerator, c.denominator)):
            raise ExprSyntaxError(f"a coefficient here {_PAST_BOUND}", pos)
        return value

    def number(self, text: str, pos: int) -> int:
        """int(text), refused before it is converted if it has over MAX_DIGITS digits."""
        digits = text.lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            raise ExprSyntaxError(f"this number {_PAST_BOUND}", pos)
        return int(digits)

    def atom(self) -> CycleClass:
        kind, val, pos, m = self.next()
        if kind == "nat":
            num = self.number(val, pos)
            k, v, *_ = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, v2, pos2, _ = self.next()
                if k2 != "nat" or (den := self.number(v2, pos2)) == 0:
                    raise ExprSyntaxError("expected a nonzero denominator", pos2)
                return self.ring.scalar(Fraction(num, den))
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
        raise ExprSyntaxError("unexpected end of expression" if kind == "end"
                              else f"unexpected token {val!r}", pos)


def parse_expr(text: str, ring: TautRing) -> CycleClass:
    """Parse and normalize a cycle expression in the given ring."""
    with int_str_limit():
        return _Parser(text, ring).parse()
