"""The first-slot expansion of the tau matching sum against the sum matching by matching."""

import random

import pytest

from chowtaut import oracle
from chowtaut.oracle import (
    CohomologyModel,
    TensorClass,
    realize,
    tau_matching_sum,
    tensor_multiply,
    tensor_unit,
)
from chowtaut.ring import accumulate, perfect_matchings


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
