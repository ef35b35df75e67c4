"""The closed-form graded dimensions against brute force and the tensor oracle."""

import itertools
import math
import tracemalloc

import pytest

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, SubalgebraSpan
from chowtaut.ring import (
    RingParams,
    TautRing,
    perfect_matchings,
    slot_weight_count,
    symplectic_invariant_counts,
)

from ring_reference import PaperSigns

SIGNS = {"adjudicated": RingParams, "paper": PaperSigns}


def brute_dimension(r, c):
    """Reference: all monomials of codim c minus the rank of all relator vectors."""
    rows = SparseRowBasis()
    for v in r.relator_vectors(c):
        rows.add(v)
    return len(r.graded_basis(c)) - rows.rank


def crossing_free_matchings(b, p):
    """Perfect matchings of 1..2p in which no b+1 arcs cross pairwise."""
    def cross(e, f):
        (i, j), (k, l) = sorted((e, f))
        return i < k < j < l

    return sum(
        not any(all(cross(e, f) for e, f in itertools.combinations(arcs, 2))
                for arcs in itertools.combinations(matching, b + 1))
        for matching in perfect_matchings(range(1, 2 * p + 1)))


@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_invariant_counts_match_matching_count(b):
    assert symplectic_invariant_counts(b, 6) == [crossing_free_matchings(b, p)
                                                 for p in range(7)]


@pytest.mark.parametrize("b", [3, 4, 5, 6])
def test_invariant_counts_closed_form_when_b_covers_pmax(b):
    # pmax <= b: counted in closed form, not by the partition walk
    for pmax in range(min(b, 5) + 1):
        assert symplectic_invariant_counts(b, pmax) == [crossing_free_matchings(b, p)
                                                        for p in range(pmax + 1)]


def test_invariant_counts_at_catalog_b():
    assert symplectic_invariant_counts(52, 30)[30] == math.prod(range(1, 60, 2))  # 59!!


@pytest.mark.parametrize("n", range(7))
def test_slot_weight_count_matches_enumeration(n):
    counts = [sum(ws) for ws in itertools.product(range(4), repeat=n)]
    for k in range(-1, 3 * n + 2):
        assert slot_weight_count(n, k) == counts.count(k), (n, k)


def test_slot_weight_count_is_the_multinomial_block_sum():
    """C(m, n3) * [x^k](1+x+x^2+x^3)^(m-n3) is the sum of multinomial(m; n0, n2,
    n4, n3, n6) over n2 + 2 n4 + 3 n6 = k, the weight of the tensor-model blocks."""
    f = math.factorial
    for m in range(13):
        for n3 in range(0, m + 1, 2):
            for k in range(-1, 3 * (m - n3) + 2):
                weight = 0
                for n6 in range(m - n3 + 1):
                    for n4 in range(m - n3 + 1):
                        n2 = k - 3 * n6 - 2 * n4
                        n0 = m - n3 - n6 - n4 - n2
                        if n2 >= 0 and n0 >= 0:
                            weight += f(m) // (f(n0) * f(n2) * f(n4) * f(n3) * f(n6))
                assert math.comb(m, n3) * slot_weight_count(m - n3, k) == weight, (m, n3, k)


def test_invariant_counts_known_values():
    catalan = [math.comb(2 * p, p) // (p + 1) for p in range(7)]
    assert symplectic_invariant_counts(1, 6) == catalan
    assert symplectic_invariant_counts(2, 6) == [1, 1, 3, 14, 84, 594, 4719]
    assert symplectic_invariant_counts(0, 3) == [1, 0, 0, 0]


@pytest.mark.parametrize("signs", sorted(SIGNS))
@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_matches_brute_force_and_ignores_d(b, signs):
    """The closed form is the brute-force quotient; under either sign that quotient ignores d."""
    for m in range(1, 6):
        by_d = {}
        for d in (1, 2, 22):
            r = TautRing(SIGNS[signs](d, b, m))
            brute = [brute_dimension(r, c) for c in range(3 * m + 1)]
            if signs == "adjudicated":
                assert r.graded_dimensions() == brute, (d, m)
            by_d[d] = brute
        assert by_d[1] == by_d[2] == by_d[22], m


def test_paper_signs_ring_collapses():
    # Under eps2 = +1, tau_{1,2} * R(1..4) = 32 o_1 o_2 t_{3,4}; times t_{3,4}
    # that puts the point class in the ideal, so the degree map is lost.
    r = TautRing(PaperSigns(2, 1, 4))
    assert brute_dimension(r, 12) == 0
    assert TautRing(RingParams(2, 1, 4)).graded_dimension(12) == 1


@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_poincare_symmetry(b):
    for m in range(1, 31):
        dims = TautRing(RingParams(2, b, m)).graded_dimensions()
        assert dims == dims[::-1] and dims[0] == dims[-1] == 1, m


@pytest.mark.parametrize("b,m", [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (3, 4)])
def test_matches_tensor_oracle(b, m):
    span = SubalgebraSpan(CohomologyModel(2, b), m)
    dims = TautRing(RingParams(2, b, m)).graded_dimensions()
    assert dims == [span.dimension(c) for c in range(3 * m + 1)]


# odd m: the last product by 1+x+x^2+x^3 in the whole-vector expansion adds no term
@pytest.mark.parametrize("b,m", [(0, 4), (1, 5), (2, 6)]
                         + [(b, m) for b in (1, 3) for m in (1, 2, 7, 40, 41)])
def test_single_codim_matches_full_vector(b, m):
    r = TautRing(RingParams(3, b, m))
    dims = r.graded_dimensions()
    assert [r.graded_dimension(c) for c in range(3 * m + 1)] == dims
    assert vars(r) == {"p": r.p}  # no memo outlives the call


def test_whole_vector_keeps_no_table_of_powers():
    # a table of (1+x+x^2+x^3)^n for n = 0..400 peaks near 21 MiB
    r = TautRing(RingParams(2, 1, 400))
    tracemalloc.start()
    try:
        dims = r.graded_dimensions()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert dims == dims[::-1] and dims[0] == dims[-1] == 1


@pytest.mark.parametrize("b,m", [(52, 60), (1, 40)])
def test_single_codim_matches_full_vector_at_catalog_scale(b, m):
    r = TautRing(RingParams(2, b, m))
    dims = r.graded_dimensions()
    for c in (0, 1, 3, 45, 90, 3 * m):
        assert r.graded_dimension(c) == dims[c], c


def test_codim_out_of_range():
    r = TautRing(RingParams(2, 1, 2))
    for c in (-1, 7):
        with pytest.raises(ValueError):
            r.graded_dimension(c)
