"""The matching rows behind r(s), and the elimination that takes their rank."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from chowtaut import oracle
from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, matching_rows
from chowtaut.ring import Monomial

from ring_reference import perfect_matchings
from span_reference import realize_monomial


def as_multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def double_factorial(n):
    return 1 if n <= 0 else n * double_factorial(n - 2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("b, top", [(0, 8), (1, 8), (2, 8), (3, 6)])
def test_rows_are_the_realized_matchings(b, top, d):
    # the same term dicts as realizing each matching's monomial, as a multiset
    for model in (CohomologyModel(d, b), CohomologyModel.random_basis(d, b, random.Random(b))):
        for s in range(0, top + 1, 2):
            want = [realize_monomial(Monomial(tau=tuple(matching)), model, s).terms
                    for matching in perfect_matchings(range(1, s + 1))]
            got = list(matching_rows(model, s))
            assert len(got) == double_factorial(s - 1), (s, model)
            assert as_multiset(got) == as_multiset(want), (s, model)


@pytest.mark.parametrize("s", [0, 2, 4, 6, 8])
def test_one_kernel_call_per_row(monkeypatch, s):
    # run to the end, every row of every level costs one kernel call, and each
    # level realizes each tau_{1,j} once
    kernel, gens = [], []

    def counting_kernel(out, x_terms, y_items, table):
        kernel.append(1)
        return multiply_into(out, x_terms, y_items, table)

    def counting_realize(gen, model, m):
        gens.append((gen, m))
        return realize(gen, model, m)

    multiply_into, realize = oracle._multiply_into, oracle.realize
    monkeypatch.setattr(oracle, "_multiply_into", counting_kernel)
    monkeypatch.setattr(oracle, "realize", counting_realize)
    assert len(list(matching_rows(CohomologyModel(2, 2), s))) == double_factorial(s - 1)
    assert len(kernel) == sum(double_factorial(k - 1) for k in range(2, s + 1, 2))
    assert sorted(gens) == sorted((("tau", 1, j), k)
                                  for k in range(2, s + 1, 2) for j in range(2, k + 1))


@pytest.mark.parametrize("s", [-2, 1, 5])
def test_no_rows_for_odd_or_negative_s(s):
    with pytest.raises(ValueError, match="no perfect matching"):
        next(matching_rows(CohomologyModel(2, 1), s))


def gauss_jordan_rank(rows, keys):
    """Rank of the rows over the rationals, by Gauss-Jordan elimination on Fractions."""
    mat = [[Fraction(row.get(k, 0)) for k in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def random_rows(rng, count, keys):
    """Sparse rows with entries up to 9 in size, some of them Fractions, and some rows
    sums of earlier ones, so the span does not simply fill up."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.3:
            row = {}
            for other in rng.sample(rows, min(len(rows), 3)):
                q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for k, c in other.items():
                    row[k] = row.get(k, 0) + q * c
        else:
            row = {}
            for k in rng.sample(keys, rng.randint(1, min(4, len(keys)))):
                c = rng.choice([-1, 1]) * rng.randint(1, 9)
                row[k] = Fraction(c, rng.randint(1, 4)) if rng.random() < 0.3 else c
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(30))
def test_rank_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    keys = [(i, rng.randrange(3)) for i in range(rng.randint(3, 8))]
    rows = random_rows(rng, rng.randint(1, 12), keys)
    basis = SparseRowBasis()
    for row in rows:
        basis.add(row)
    assert basis.rank == gauss_jordan_rank(rows, keys)
    for lead, piv in basis.pivots.items():
        assert min(piv) == lead and piv[lead] > 0
        assert all(type(c) is int for c in piv.values())
        assert gcd(*piv.values()) == 1
    for row in rows:
        assert not basis.residual(row)
    combo = {}
    for row in rows:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        for k, c in row.items():
            combo[k] = combo.get(k, 0) + q * c
    assert not basis.residual(combo)


def test_scaled_steps_occur():
    # leads other than +-1 force steps with fa != 1, where the row is scaled
    # and its content divided out: 3 (2, 5) - 2 (3, 1) = (0, 13) leaves (0, 1)
    basis = SparseRowBasis()
    assert basis.add({0: 3, 1: 1})
    assert basis.residual({0: 2, 1: 5}) == {1: 1}
    assert basis.add({0: 2, 1: 5})
    assert basis.pivots == {0: {0: 3, 1: 1}, 1: {1: 1}}
    assert not basis.residual({0: Fraction(3, 2), 1: Fraction(7, 3)})
