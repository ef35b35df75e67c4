"""The standard-monomial span of the tensor model against the all-products span."""

import random

import pytest

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, tensor_multiply

import span_reference
from span_reference import AllProductsSpan, StandardMonomialSpan


def assert_same_span(model, m):
    span, ref = StandardMonomialSpan(model, m), AllProductsSpan(model, m)
    for c in range(3 * m + 1):
        ref_rows = SparseRowBasis()
        for v in ref.basis(c):
            ref_rows.add(v.terms)
        assert span.dimension(c) == len(span.basis(c)) == len(ref.basis(c)), c
        assert all(ref_rows.contains(v.terms) for v in span.basis(c)), c
        assert all(span.contains(v, c) for v in ref.basis(c)), c


CASES = [(b, m) for b in (0, 1, 2) for m in range(1, 5)] + [(3, m) for m in range(1, 4)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("b,m", CASES)
def test_matches_all_products_span(b, m, d):
    assert_same_span(CohomologyModel(d, b), m)


def test_matches_all_products_span_random_basis():
    assert_same_span(CohomologyModel.random_basis(2, 2, random.Random(11)), 3)


def kept_words(span):
    """Generator codims, and the word of every basis class rebuilt codim by codim."""
    codims = [sum(degrees) // 2 for degrees, _ in span._gens]
    words = [[()]]
    for c in range(1, 3 * span.m + 1):
        span.dimension(c)
        words.append([words[c - codims[g]][x] + (g,)
                      for x, g in zip(span._parents[c], span._lasts[c])])
    return codims, words


@pytest.mark.parametrize("b,m", [(0, 4), (1, 4), (2, 3), (3, 3)])
def test_kept_words_are_an_order_ideal(b, m):
    # Dropping any one letter of a kept word gives a kept word of the lower codim.
    span = StandardMonomialSpan(CohomologyModel(2, b), m)
    codims, words = kept_words(span)
    kept = [set(ws) for ws in words]
    for c, ws in enumerate(words):
        assert len(kept[c]) == len(ws) == span.dimension(c)
        for word in ws:
            assert list(word) == sorted(word)
            assert sum(codims[g] for g in word) == c
            for i, g in enumerate(word):
                assert word[:i] + word[i + 1:] in kept[c - codims[g]], word


@pytest.mark.parametrize("b,m", [(1, 4), (2, 3)])
def test_kept_words_in_monomial_order(b, m):
    # Each codim keeps its words in increasing order: fewer h first, then lex with
    # generator 0 heaviest (ascending tuple order with negated letters).
    span = StandardMonomialSpan(CohomologyModel(2, b), m)
    codims, words = kept_words(span)
    for ws in words:
        keys = [(sum(codims[g] == 1 for g in w), [-g for g in w]) for w in ws]
        assert keys == sorted(keys)


@pytest.mark.parametrize("b,m", [(0, 3), (1, 4), (2, 3)])
def test_every_product_formed_is_nonzero(monkeypatch, b, m):
    products = []

    def recording(x, y):
        products.append(tensor_multiply(x, y))
        return products[-1]

    monkeypatch.setattr(span_reference, "tensor_multiply", recording)
    span = StandardMonomialSpan(CohomologyModel(2, b), m)
    rank = sum(span.dimension(c) for c in range(3 * m + 1))
    assert products and not any(v.is_zero() for v in products)
    assert len(products) < 2 * rank  # the all-products span forms about 19 times the rank
