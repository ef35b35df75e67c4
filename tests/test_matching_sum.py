"""The chained tau matching sum against the first-slot recursion and matching by matching."""

import random

import pytest

from chowtaut import oracle
from chowtaut.oracle import (
    CohomologyModel,
    TensorClass,
    _multiply_into,
    realize,
    tau_matching_sum,
    tensor_multiply,
    tensor_unit,
)
from chowtaut.ring import accumulate, perfect_matchings


def first_slot_recursion(model, n):
    """Reference: S(i, rest) = sum_j tau_{i,j} * S(rest without j) on Y^n, S() = 1,
    each sub-sum expanded afresh."""
    def expand(slots):
        if not slots:
            return tensor_unit(model, n).terms
        first, rest = slots[0], slots[1:]
        total = {}
        for k, j in enumerate(rest):
            _multiply_into(total, realize(("tau", first, j), model, n).terms,
                           expand(rest[:k] + rest[k + 1:]).items(), model.table)
        return total

    return TensorClass(model, n, expand(tuple(range(1, n + 1))))


def matching_by_matching(model, n, negate_first=False):
    """Reference: each matching's product of taus on Y^n formed on its own, then all added."""
    total = {}
    for k, matching in enumerate(perfect_matchings(range(1, n + 1))):
        prod = tensor_unit(model, n)
        for i, j in matching:
            prod = tensor_multiply(realize(("tau", i, j), model, n), prod)
        for key, c in prod.terms.items():
            accumulate(total, key, -c if negate_first and k == 0 else c)
    return TensorClass(model, n, total)


def models(b):
    """The standard model and a random basis."""
    return [CohomologyModel(2, b), CohomologyModel.random_basis(2, b, random.Random(7 + b))]


@pytest.mark.parametrize("b", [1, 2, 3])
def test_expansion_equals_matching_by_matching(b):
    # every even n up to 2b+2; at b = 3 the random basis is left out: there tau
    # has up to (2b)^2 terms where the standard one has 2b, and the
    # matching-by-matching reference at 8 slots takes about 6 minutes
    for model in models(b) if b < 3 else models(b)[:1]:
        for n in range(0, 2 * b + 3, 2):
            assert tau_matching_sum(model, n).terms == matching_by_matching(model, n).terms, n


@pytest.mark.parametrize("b", [1, 2, 3])
def test_chain_equals_first_slot_recursion(b):
    # the recursion reaches the random basis at b = 3 in about a second
    for model in models(b):
        for n in range(0, 2 * b + 3, 2):
            assert tau_matching_sum(model, n).terms == first_slot_recursion(model, n).terms, n


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_chain_makes_n_over_2_squared_kernel_calls(n, monkeypatch):
    # level k of the chain makes k - 1 products, so (n/2)^2 in all; re-expanding
    # each sub-sum, as the recursion does, makes 252 at n = 8
    calls = []

    def counting(out, x_terms, y_items, table):
        calls.append(None)
        return _multiply_into(out, x_terms, y_items, table)

    model = CohomologyModel(2, 1)
    want = first_slot_recursion(model, n)
    monkeypatch.setattr(oracle, "_multiply_into", counting)
    assert tau_matching_sum(model, n) == want
    assert len(calls) == (n // 2) ** 2


def test_chain_term_pairs_at_b3(monkeypatch):
    # 16 products of a 6-term tau with the padded level below: 32,514 term
    # pairs, where the recursion forms 49,770
    pairs = []

    def counting(out, x_terms, y_items, table):
        y_items = list(y_items)
        pairs.append(len(x_terms) * len(y_items))
        return _multiply_into(out, x_terms, y_items, table)

    monkeypatch.setattr(oracle, "_multiply_into", counting)
    assert tau_matching_sum(CohomologyModel(2, 3), 8).is_zero()
    assert (len(pairs), sum(pairs)) == (16, 32514)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_vanishes_at_2b_plus_2_slots_only(b):
    for model in models(b):
        assert not tau_matching_sum(model, 2 * b).is_zero()
        assert tau_matching_sum(model, 2 * b + 2).is_zero()


@pytest.mark.parametrize("b", [1, 2])
def test_one_negated_matching_is_detected(b):
    for model in models(b):
        assert matching_by_matching(model, 2 * b + 2).is_zero()
        assert not matching_by_matching(model, 2 * b + 2, negate_first=True).is_zero()


@pytest.mark.parametrize("n", [1, 3, 5, -1, -2])
def test_slots_without_perfect_matching_rejected_before_any_product(n, monkeypatch):
    # an odd or negative n has no perfect matching; an empty sum would read as
    # "the relation holds" although no product was checked
    def no_product(*args):
        raise AssertionError("a tensor product was formed")

    monkeypatch.setattr(oracle, "tensor_multiply", no_product)
    monkeypatch.setattr(oracle, "_multiply_into", no_product)
    with pytest.raises(ValueError, match="no perfect matching"):
        tau_matching_sum(CohomologyModel(2, 1), n)
