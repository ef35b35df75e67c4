"""The all-products reference span of the tensor model against the monomial span."""

import random

import pytest

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, tensor_multiply

from span_reference import AllProductsSpan, tensor_unit


def monomial_rows(span):
    """Per codim, a SparseRowBasis of every nonzero product of a nondecreasing word of
    generators: the span built from words, with no kept basis to multiply into."""
    rows = [SparseRowBasis() for _ in range(3 * span.m + 1)]
    stack = [(0, 0, tensor_unit(span.model, span.m))]
    while stack:
        first, c, x = stack.pop()
        rows[c].add(x.terms)
        for g in range(first, len(span.gens)):
            codim, gen = span.gens[g]
            if c + codim <= 3 * span.m and not (v := tensor_multiply(gen, x)).is_zero():
                stack.append((g, c + codim, v))
    return rows


def assert_same_span(model, m):
    span = AllProductsSpan(model, m)
    for c, rows in enumerate(monomial_rows(span)):
        assert span.dimension(c) == len(span.basis(c)) == rows.rank, c
        assert all(not rows.residual(v.terms) for v in span.basis(c)), c
        assert all(span.contains(v, c) for v in span.basis(c)), c


CASES = [(b, m) for b in (0, 1, 2) for m in range(1, 5)] + [(3, m) for m in range(1, 4)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("b,m", CASES)
def test_matches_all_products_span(b, m, d):
    assert_same_span(CohomologyModel(d, b), m)


def test_matches_all_products_span_random_basis():
    assert_same_span(CohomologyModel.random_basis(2, 2, random.Random(11)), 3)
