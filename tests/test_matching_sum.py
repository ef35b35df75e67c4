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


def first_slot_recursion(model, slots, m):
    """Reference: S(i, rest) = sum_j tau_{i,j} * S(rest without j) on Y^m, S() = 1,
    each sub-sum expanded afresh in the slots' own order."""
    def expand(slots):
        if not slots:
            return tensor_unit(model, m).terms
        first, rest = slots[0], slots[1:]
        total = {}
        for k, j in enumerate(rest):
            _multiply_into(total, realize(("tau", first, j), model, m).terms,
                           expand(rest[:k] + rest[k + 1:]).items(), model.table)
        return total

    return TensorClass(model, m, expand(tuple(slots)))


def matching_by_matching(model, slots, m, negate_first=False):
    """Reference: each matching's product of taus formed on its own, then all added."""
    total = {}
    for n, matching in enumerate(perfect_matchings(slots)):
        prod = tensor_unit(model, m)
        for i, j in matching:
            prod = tensor_multiply(realize(("tau", i, j), model, m), prod)
        for key, c in prod.terms.items():
            accumulate(total, key, -c if negate_first and n == 0 else c)
    return TensorClass(model, m, total)


def models(b):
    """The standard model and a random basis."""
    return [CohomologyModel(2, b), CohomologyModel.random_basis(2, b, random.Random(7 + b))]


def slot_tuples(b):
    """Every even slot count up to 2b+2 on Y^(2b+2): the first slots, and every other
    slot from the second on where there is room."""
    m = 2 * b + 2
    for k in range(0, m + 1, 2):
        yield tuple(range(1, k + 1))
        if 0 < 2 * k <= m:
            yield tuple(range(2, 2 * k + 1, 2))


@pytest.mark.parametrize("b", [1, 2, 3])
def test_expansion_equals_matching_by_matching(b):
    m = 2 * b + 2
    # at b = 3 the random basis is left out: there tau has up to (2b)^2 terms
    # where the standard one has 2b, and the matching-by-matching reference at
    # 8 slots takes about 6 minutes
    for model in models(b) if b < 3 else models(b)[:1]:
        for slots in slot_tuples(b):
            assert tau_matching_sum(model, slots, m).terms == \
                matching_by_matching(model, slots, m).terms, slots


@pytest.mark.parametrize("b", [1, 2, 3])
def test_chain_equals_first_slot_recursion(b):
    # the recursion reaches the random basis at b = 3 in about a second
    m = 2 * b + 2
    for model in models(b):
        for slots in slot_tuples(b):
            assert tau_matching_sum(model, slots, m).terms == \
                first_slot_recursion(model, slots, m).terms, slots


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("slots, m", [((3, 1, 6, 2), 7), ((6, 2), 7), ((2, 7, 5, 4, 1, 3), 8)])
def test_unsorted_slots_equal_sorted(b, slots, m):
    for model in models(b):
        got = tau_matching_sum(model, slots, m)
        assert got.terms == tau_matching_sum(model, tuple(sorted(slots)), m).terms
        assert got.terms == first_slot_recursion(model, slots, m).terms
        assert got.is_zero() == (len(slots) >= 2 * b + 2)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("slots, m", [((2, 5), 6), ((1, 3, 4, 7), 9), ((2, 4, 5, 6, 8, 9), 10)])
def test_noncontiguous_slots_on_a_larger_power(b, slots, m):
    # the sum lives on the given slots: every other slot of every key is E0
    for model in models(b):
        got = tau_matching_sum(model, slots, m)
        assert got.terms == first_slot_recursion(model, slots, m).terms
        assert got.is_zero() == (len(slots) >= 2 * b + 2)
        assert all(key[t - 1] == oracle.E0 for key in got.terms
                   for t in range(1, m + 1) if t not in slots)


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_chain_makes_n_over_2_squared_kernel_calls(n, monkeypatch):
    # level k of the chain makes k - 1 products, so (n/2)^2 in all; re-expanding
    # each sub-sum, as the recursion does, makes 252 at n = 8
    calls = []

    def counting(out, x_terms, y_items, table):
        calls.append(None)
        return _multiply_into(out, x_terms, y_items, table)

    model = CohomologyModel(2, 1)
    want = first_slot_recursion(model, tuple(range(1, n + 1)), n + 1)
    monkeypatch.setattr(oracle, "_multiply_into", counting)
    assert tau_matching_sum(model, tuple(range(1, n + 1)), n + 1) == want
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
    assert tau_matching_sum(CohomologyModel(2, 3), tuple(range(1, 9)), 8).is_zero()
    assert (len(pairs), sum(pairs)) == (16, 32514)


@pytest.mark.parametrize("slots, m, bad", [((0, 1), 3, 0), ((1, 4), 3, 4), ((2, 1, 5, 3), 4, 5)])
def test_slot_out_of_range_rejected(slots, m, bad):
    with pytest.raises(ValueError, match=rf"^factor index {bad} out of range 1\.\.{m}$"):
        tau_matching_sum(CohomologyModel(2, 1), slots, m)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_vanishes_at_2b_plus_2_slots_only(b):
    m = 2 * b + 2
    for model in models(b):
        assert not tau_matching_sum(model, tuple(range(1, 2 * b + 1)), m).is_zero()
        assert tau_matching_sum(model, tuple(range(1, m + 1)), m).is_zero()


@pytest.mark.parametrize("b", [1, 2])
def test_one_negated_matching_is_detected(b):
    m = 2 * b + 2
    slots = tuple(range(1, m + 1))
    for model in models(b):
        assert matching_by_matching(model, slots, m).is_zero()
        assert not matching_by_matching(model, slots, m, negate_first=True).is_zero()


@pytest.mark.parametrize("slots", [(1,), (1, 2, 3), (1, 2, 3, 4, 5), (1, 1), (1, 2, 3, 2)])
def test_slots_without_perfect_matching_rejected_before_any_product(slots, monkeypatch):
    # an odd or repeated slot tuple has no perfect matching; an empty sum would
    # read as "the relation holds" although no product was checked
    def no_product(*args):
        raise AssertionError("a tensor product was formed")

    monkeypatch.setattr(oracle, "tensor_multiply", no_product)
    monkeypatch.setattr(oracle, "_multiply_into", no_product)
    with pytest.raises(ValueError, match="no perfect matching"):
        tau_matching_sum(CohomologyModel(2, 1), slots, 5)
