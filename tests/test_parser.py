import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowtaut.exprparse import MAX_DIGITS, ExprSyntaxError, parse_expr
from chowtaut.ring import ONE, CycleClass, RingParams, TautRing


def ring(d=2, b=1, m=2):
    return TautRing(RingParams(d, b, m))


def python_digit_limit():
    """Python's int/str conversion digit limit, None on a Python that has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestExamples:
    def test_h_cube_relation(self):
        r = ring(d=2)
        assert parse_expr("h_1^3 - 2*o_1", r).is_zero()

    def test_tau_square_adjudicated(self):
        r = ring(b=1)
        got = parse_expr("t_{1,2}*t_{1,2}", r)
        assert got == r.multiply(r.o(1), r.o(2)).scale(-2)

    def test_zeroth_power(self):
        r = ring()
        assert parse_expr("(h_1+h_2)^0", r) == r.one()

    def test_reduce_relation_e2(self):
        r = ring(d=2, b=10)
        assert str(parse_expr("t_{1,2}*h_1", r)) == "0"

    def test_rationals_and_parens(self):
        r = ring(d=2)
        got = parse_expr("1/2*(h_1 + h_2) - 1/2*h_2", r)
        assert got == r.h(1).scale(Fraction(1, 2))

    def test_tau_alias(self):
        r = ring()
        assert parse_expr("tau_{1,2}", r) == parse_expr("t_{1,2}", r)

    def test_leading_minus(self):
        r = ring()
        assert parse_expr("-h_1", r) == -r.h(1)

    def test_trailing_whitespace(self):
        r = ring()
        assert parse_expr("h_1 + h_2 \t ", r) == r.h(1) + r.h(2)

    def test_terms_print_in_canonical_order(self):
        # the Monomial tuple order (tau, o, h): 1, h-only, o, then tau monomials
        cls = parse_expr("h_1 + o_2 + t_{1,2} + h_1^2*h_2 + 2*o_1*o_3 + t_{2,3}*h_1 + 1",
                         ring(d=2, b=1, m=3))
        printed = ["1", "h_1", "h_1^2*h_2", "2*o_1*o_3", "o_2", "t_{1,2}", "h_1*t_{2,3}"]
        assert str(cls) == " + ".join(printed)
        assert [str(CycleClass({mon: cls.terms[mon]})) for mon in sorted(cls.terms)] == printed

    def test_power_up_to_the_digit_bound(self):
        top = parse_expr("2^332192", ring()).coefficient(ONE)
        assert 10 ** (MAX_DIGITS - 1) <= top < 10 ** MAX_DIGITS

    @pytest.mark.parametrize("text", ["9" * MAX_DIGITS, "0" + "9" * MAX_DIGITS,
                                      "1/" + "9" * MAX_DIGITS, "10^99999"],
                             ids=["literal", "leading-zero", "denominator", "power"])
    def test_coefficient_of_max_digits_accepted(self, text):
        c = parse_expr(text, ring()).coefficient(ONE)
        assert 10 ** (MAX_DIGITS - 1) <= max(c.numerator, c.denominator) < 10 ** MAX_DIGITS

    @pytest.mark.parametrize("digits", [5000, MAX_DIGITS])
    def test_long_literal_parses_as_a_library_call(self, digits):
        # parse_expr lifts Python's int/str digit limit itself and puts it back
        limit = python_digit_limit()
        assert parse_expr("9" * digits, ring()).coefficient(ONE) == 10 ** digits - 1
        assert python_digit_limit() == limit


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("h_1 + @", ring())
        assert exc.value.pos == 6

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(h_1 + h_2", ring())

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("h_3", ring(m=2))
        with pytest.raises(ExprSyntaxError):
            parse_expr("t_{1,5}", ring(m=2))

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("h_1 h_2", ring())

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1/0", ring())

    @pytest.mark.parametrize("text, match", [
        ("h_1^-1", "natural number exponent"),
        ("t_1", "pair of indices"),
        ("h_{1,2}", "single index"),
        ("o_{1,2}", "single index"),
        ("", "unexpected end of expression"),
        ("   ", "unexpected end of expression"),
        ("h_1 +", "unexpected end of expression"),
    ])
    def test_error_messages(self, text, match):
        with pytest.raises(ExprSyntaxError, match=match):
            parse_expr(text, ring())

    @pytest.mark.parametrize("text", ["2^332193", "2^10000000", "(3/2)^10000000",
                                      "(1/3 + h_1)^10000000", "(2^1000)^1000",
                                      "2^" + "9" * 400],
                             ids=["boundary", "int", "fraction", "fraction-plus-h", "nested",
                                  "exponent-past-float"])
    def test_power_past_the_digit_bound_refused(self, text):
        with pytest.raises(ExprSyntaxError, match=f"{MAX_DIGITS}-digit bound"):
            parse_expr(text, ring())

    @pytest.mark.parametrize("text, pos", [
        ("2^300000*2^300000", 8),
        ("2^332192+2^332192", 8),
        ("-2^332192-2^332192", 9),
        ("(1/2)^300000*(1/2)^300000", 12),
        ("10^99999*10", 8),
        ("9" * MAX_DIGITS + "+1", MAX_DIGITS),
        ("1" + "0" * MAX_DIGITS, 0),
        ("1/1" + "0" * MAX_DIGITS, 2),
        ("(1 + 3^150000*h_1)^2", 19),
    ], ids=["product", "sum", "difference", "fraction-product", "times-ten", "plus-one",
            "literal", "denominator", "power-of-sum"])
    def test_coefficient_past_the_digit_bound_refused(self, text, pos):
        # refused where the parser forms it, before it is printed
        with pytest.raises(ExprSyntaxError, match=f"{MAX_DIGITS}-digit bound") as exc:
            parse_expr(text, ring())
        assert exc.value.pos == pos

    def test_refused_parse_restores_the_digit_limit(self):
        limit = python_digit_limit()
        with pytest.raises(ExprSyntaxError):
            parse_expr("9" * MAX_DIGITS + "+1", ring())
        assert python_digit_limit() == limit


class TestRoundTrip:
    def test_random_classes(self):
        rng = random.Random(2024)
        r = ring(d=3, b=2, m=3)
        for _ in range(200):
            cls = random_class(r, rng)
            assert parse_expr(str(cls), r) == cls

    @given(st.integers(-6, 6), st.integers(1, 4), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_scalar_combinations(self, a, q, b_):
        r = ring(d=2, b=1, m=3)
        cls = (r.multiply(r.h(1), r.h(2)).scale(Fraction(a, q))
               + r.tau(2, 3).scale(b_))
        assert parse_expr(str(cls), r) == cls


def random_class(r, rng, n_terms=4):
    acc = r.zero()
    for _ in range(n_terms):
        c = rng.randint(0, 3 * r.p.m)
        basis = r.graded_basis(c)
        mon = basis[rng.randrange(len(basis))]
        acc = acc + CycleClass({mon: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    return acc
