"""Exact sparse linear algebra over the rationals, the coefficient rule,
and the base of the immutable records whose constructor checks its input.

Every coefficient in the engine is an ``int``, or a ``Fraction`` where a
denominator remains, and never a float; :func:`exact` is the one place
that turns an input into such a coefficient.  Rank computations use
fraction-free (cross-multiplication) elimination on integer rows; incoming
rows with rational entries are cleared of denominators first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = int | Fraction


def exact(c) -> Rational:
    """The coefficient rule: an int stays an int, an integral Fraction becomes one.

    Anything else goes through Fraction first, exactly: 0.5 gives 1/2, 2.0 gives 2.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def require_ints(**values) -> None:
    """Raise ValueError unless every value is an int (a bool is not)."""
    for name, v in values.items():
        if type(v) is not int:
            raise ValueError(f"{name} must be an integer, got {v!r}")


class Frozen:
    """Base of the immutable values whose constructor validates or derives fields.

    A subclass names every field in ``__slots__`` and sets them once, in slot
    order, through :meth:`_set`.  The fields in ``_compared`` decide equality,
    the hash and the repr, as in a frozen dataclass: only values of the same
    class compare equal, and assigning or deleting a field raises
    AttributeError.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _to_int_row(vec: dict) -> dict:
    """Clear denominators and divide out the content; keys must be sortable."""
    vec = {k: exact(c) for k, c in vec.items()}
    denom = lcm(*(c.denominator for c in vec.values()))
    row = {k: c.numerator * (denom // c.denominator) for k, c in vec.items() if c}
    g = gcd(*row.values())
    if g > 1:
        row = {k: n // g for k, n in row.items()}
    return row


class SparseRowBasis:
    """Incrementally row-reduced basis of sparse vectors with sortable keys."""

    def __init__(self):
        self.pivots: dict = {}  # pivot key -> integer row (dict key -> int)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, vec: dict) -> dict:
        """Reduce vec against the stored pivots; returns an integer row.

        The row is updated in place, on the pivot's keys only.  A step with
        pivot lead a and row lead b subtracts fb * pivot after scaling the row
        by fa, for (fa, fb) = (a, b) / gcd(a, b).  Only a step with fa != 1
        scales, so only it divides out the row's content; :meth:`add`
        divides out what is left when it stores the row.
        """
        row = _to_int_row(vec)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            if fa != 1:
                for k in row:
                    row[k] *= fa
            for k, v in piv.items():
                v = row.get(k, 0) - fb * v
                if v:
                    row[k] = v
                else:
                    del row[k]
            if fa != 1 and row:
                g = gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
        return row

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True if it enlarged the span.

        The pivot is stored primitive, with a positive lead, in a fresh dict
        that does not keep the room the residual's updates took.
        """
        row = self.residual(vec)
        if not row:
            return False
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        self.pivots[lead] = {k: v // g for k, v in row.items()}
        return True
