"""tensor_multiply and its accumulating kernel against the slot-by-slot product, term for term."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chowtaut.oracle import CohomologyModel, TensorClass, _multiply_into, tensor_multiply
from chowtaut.ring import accumulate


def slotwise_multiply(x, y):
    """Reference: every slot of every pair multiplied, the sign tracked slot by slot.

    Scanning left to right, each odd u_i flips the sign once for every odd v_j
    already passed, which is (-1)^{sum_{j<i} |v_j||u_i|}.
    """
    table = x.model.table
    out = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            coeff = cu * cv
            key = []
            odd_v = negate = False
            for ui, vi in zip(u, v):
                prod = table[ui][vi]
                if prod is None:
                    break
                if ui >= 4 and odd_v:
                    negate = not negate
                if vi >= 4:
                    odd_v = not odd_v
                coeff *= prod[0]
                key.append(prod[1])
            else:
                accumulate(out, tuple(key), -coeff if negate else coeff)
    return TensorClass(x.model, x.m, out)


coefficients = st.one_of(st.integers(-6, 6),
                         st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def classes(draw, n):
    """n classes on Y^m, m in 1..5, b in 0..2, standard or random Gram matrix.

    Each slot id is drawn from all ids, with E0 repeated `unit_weight` times, so
    the keys run from mostly E0 to dense; a class may be empty.
    """
    m, b, d = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        model = CohomologyModel(d, b)
    else:
        model = CohomologyModel.random_basis(d, b, random.Random(draw(st.integers(0, 99))))
    unit_weight = draw(st.sampled_from([0, 2, 8, 32]))
    slot = st.sampled_from((0,) * unit_weight + tuple(range(4 + 2 * b)))
    terms = st.dictionaries(st.tuples(*[slot] * m), coefficients, max_size=8)
    return tuple(TensorClass(model, m, draw(terms)) for _ in range(n))


@given(classes(2))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_slotwise_reference(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        got, want = tensor_multiply(a, b), slotwise_multiply(a, b)
        assert got.terms == want.terms
        assert all(type(got.terms[k]) is type(c) for k, c in want.terms.items())


@given(classes(3), st.sampled_from(["z", "-xy", "z - xy"]))
@settings(max_examples=200, deadline=None)
def test_kernel_accumulates_into_given_dict(triple, start):
    # the dict passed in may already hold terms, and -x*y among them: every
    # key of the sum that cancels must be dropped, not kept with coefficient 0
    x, y, z = triple
    xy = slotwise_multiply(x, y)
    if start == "-xy":
        z = xy.scale(-1)
    elif start == "z - xy":
        z = z - xy
    want = dict(z.terms)
    for key, c in xy.terms.items():
        accumulate(want, key, c)
    out = dict(z.terms)
    assert _multiply_into(out, x.terms, y.terms.items(), x.model.table) is out
    assert out == want
    if start == "-xy":
        assert out == {}


def test_reference_sees_koszul_signs():
    # f_0 (x) 1 times 1 (x) f_1 against the reverse order: one sign apart
    mod = CohomologyModel(2, 1)
    a = TensorClass(mod, 2, {(4, 0): 1})
    b = TensorClass(mod, 2, {(0, 5): Fraction(1, 2)})
    assert slotwise_multiply(b, a).terms == {(4, 5): Fraction(-1, 2)}
    assert tensor_multiply(b, a).terms == {(4, 5): Fraction(-1, 2)}
    assert tensor_multiply(a, b).terms == {(4, 5): Fraction(1, 2)}
