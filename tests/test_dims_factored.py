"""The factored graded_dimension against brute force and the tensor oracle."""

import pytest

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, SubalgebraSpan
from chowtaut.ring import RingParams, TautRing

SIGNS = {"adjudicated": RingParams, "paper": RingParams.paper_signs}


def brute_dimension(r, c):
    """Reference: all monomials of codim c minus the rank of all relator vectors."""
    rows = SparseRowBasis()
    for v in r.relator_vectors(c):
        rows.add({mon.key(): q for mon, q in v.items()})
    return len(r.graded_basis(c)) - rows.rank


@pytest.mark.parametrize("signs", sorted(SIGNS))
@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_matches_brute_force_and_ignores_d(b, signs):
    for m in range(1, 6):
        by_d = {}
        for d in (1, 2, 22):
            r = TautRing(SIGNS[signs](d, b, m))
            got = r.graded_dimensions()
            assert got == [brute_dimension(r, c) for c in range(3 * m + 1)], (d, m)
            by_d[d] = got
        assert by_d[1] == by_d[2] == by_d[22], m


@pytest.mark.parametrize("b,m", [(1, 4), (1, 5), (2, 4)])
def test_matches_tensor_oracle(b, m):
    span = SubalgebraSpan(CohomologyModel(2, b), m)
    dims = TautRing(RingParams(2, b, m)).graded_dimensions()
    assert dims == [span.dimension(c) for c in range(3 * m + 1)]


@pytest.mark.parametrize("b,m", [(0, 4), (1, 5), (2, 6)])
def test_single_codim_matches_full_vector(b, m):
    r = TautRing(RingParams(3, b, m))
    dims = r.graded_dimensions()
    assert [r.graded_dimension(c) for c in range(3 * m + 1)] == dims
    assert vars(r) == {"p": r.p}  # no memo outlives the call


def test_codim_out_of_range():
    r = TautRing(RingParams(2, 1, 2))
    for c in (-1, 7):
        with pytest.raises(ValueError):
            r.graded_dimension(c)
