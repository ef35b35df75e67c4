"""The slot-degree block sum behind SubalgebraSpan against the reference span."""

import itertools
import random

import pytest

from chowtaut import oracle
from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import (
    CohomologyModel,
    SubalgebraSpan,
    adjudicate_signs,
    realize,
    tensor_multiply,
    tensor_unit,
)
from chowtaut.ring import RingParams, TautRing, perfect_matchings

from span_reference import AllProductsSpan


def assert_same_dims(model, m):
    span, ref = SubalgebraSpan(model, m), AllProductsSpan(model, m)
    for c in range(3 * m + 1):
        assert span.dimension(c) == ref.dimension(c), c


CASES = ([(b, m) for b in (0, 1, 2) for m in range(1, 6)]
         + [(3, m) for m in range(1, 5)] + [(1, 6)])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("b,m", CASES)
def test_matches_reference_span(b, m, d):
    assert_same_dims(CohomologyModel(d, b), m)


def test_matches_reference_span_random_basis():
    assert_same_dims(CohomologyModel.random_basis(2, 2, random.Random(11)), 4)


def brute_multigraphs(degrees):
    """Every loopless multigraph with the given degrees, as sorted edge lists, by
    filtering all multisets of edges."""
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for edges in itertools.combinations_with_replacement(pairs, sum(degrees) // 2):
        deg = [0] * n
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        if deg == list(degrees):
            found.append(tuple(sorted(edges)))
    return sorted(found)


def block_rank(model, s, u, fill):
    """The rank of block (s, u) on Y^(s+u) from every monomial in it, with no early
    stop: each of the u degree-6 slots carries two tau ends or none, and then
    ``fill`` (a list of generator kinds)."""
    n = s + u
    rows = SparseRowBasis()
    for k in range(u + 1):
        for paired in itertools.combinations(range(s + 1, n + 1), k):
            x = tensor_unit(model, n)
            for i in range(s + 1, n + 1):
                for kind in () if i in paired else fill:
                    x = tensor_multiply(x, realize((kind, i), model, n))
            slots = list(range(1, s + 1)) + list(paired)
            for graph in brute_multigraphs([1] * s + [2] * k):
                y = x
                for i, j in graph:
                    y = tensor_multiply(y, realize(("tau", slots[i], slots[j]), model, n))
                rows.add(y.terms)
    return rows.rank


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_h_cube_fill_gives_same_rank(b, d):
    """r(s) from the perfect matchings alone equals the rank of the whole block,
    with the o and the h^3 fill, on the standard and on a random odd basis."""
    reach = {1: 6, 2: 5, 3: 4}[b]
    for model in (CohomologyModel(d, b), CohomologyModel.random_basis(d, b, random.Random(5))):
        span = SubalgebraSpan(model, reach)
        for s, u in itertools.product(range(0, reach + 1, 2), range(reach + 1)):
            if s + u <= reach:
                for fill in (["o"], ["h"] * 3):
                    assert span._rank(s) == block_rank(model, s, u, fill), (s, u, fill)


def double_factorial(n):
    return 1 if n <= 0 else n * double_factorial(n - 2)


@pytest.mark.parametrize("p", range(6))
def test_multigraphs_at_all_ones_are_perfect_matchings(p):
    """At u = 0 the reference block is exactly the matchings r(s) enumerates."""
    graphs = brute_multigraphs([1] * (2 * p))
    assert len(graphs) == double_factorial(2 * p - 1)
    assert graphs == sorted(tuple(sorted(m)) for m in perfect_matchings(range(2 * p)))


@pytest.mark.parametrize("degrees", [[1], [2, 1], [1, 1, 1], [2, 2, 1], [3, 2, 2, 2]])
def test_multigraphs_none_at_odd_degree_sum(degrees):
    assert brute_multigraphs(degrees) == []


def test_builds_only_blocks_of_the_requested_codim(monkeypatch):
    # every generator of every product is realized, also the first one, which
    # is not multiplied by anything
    powers = set()

    def recording(gen, model, m):
        powers.add(m)
        return realize(gen, model, m)

    monkeypatch.setattr(oracle, "realize", recording)
    span = SubalgebraSpan(CohomologyModel(2, 1), 12)
    assert span.dimension(4) == TautRing(RingParams(2, 1, 12)).graded_dimensions()[4]
    assert span._ranks and all(3 * s <= 8 for s in span._ranks)
    assert powers and max(powers) <= 2


def test_rank_stops_at_full_rank_at_b0(monkeypatch):
    # At b = 0 the block is (2b)^s = 0 dimensional: the first matching, six taus,
    # already reaches it, and none of the other 10,394 matchings is realized.
    calls = []

    def recording(gen, model, m):
        calls.append(gen)
        return realize(gen, model, m)

    monkeypatch.setattr(oracle, "realize", recording)
    assert SubalgebraSpan(CohomologyModel(2, 0), 12)._rank(12) == 0
    assert 0 < len(calls) <= 6


def test_codim_out_of_range():
    span = SubalgebraSpan(CohomologyModel(2, 1), 2)
    for c in (-1, 7, 9):
        with pytest.raises(ValueError, match="out of range"):
            span.dimension(c)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_adjudicate_dims_unchanged(b):
    model = CohomologyModel(2, b)
    ref = AllProductsSpan(model, 2)
    assert adjudicate_signs(model).dims == tuple((c, ref.dimension(c)) for c in range(7))
