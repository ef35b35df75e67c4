import itertools
import math
import random
from fractions import Fraction

import pytest

from chowtaut.correspond import ck_projectors, pushforward_forget, verify_mck
from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import CohomologyModel, TensorClass, realize, tensor_multiply
from chowtaut.ring import (
    CycleClass,
    Monomial,
    RingParams,
    TautRing,
    accumulate,
    perfect_matchings,
    relabel,
)

from ring_reference import PaperSigns, integrate, normal_form, reduce_with_order


def ring(d=2, b=1, m=2):
    return TautRing(RingParams(d, b, m))


def raw_nf(r, *gens, coeff=1):
    return normal_form(r, gens, coeff)


class TestNormalForm:
    def test_h_cube_is_d_o(self):
        r = ring(d=2)
        assert raw_nf(r, ("h", 1), ("h", 1), ("h", 1)) == r.o(1).scale(2)

    def test_tau_h_vanishes(self):
        r = ring()
        assert raw_nf(r, ("tau", 1, 2), ("h", 1)).is_zero()
        assert raw_nf(r, ("tau", 1, 2), ("h", 2)).is_zero()

    def test_tau_o_vanishes(self):
        r = ring()
        assert raw_nf(r, ("tau", 1, 2), ("o", 1)).is_zero()

    def test_h_fourth_power_vanishes(self):
        r = ring(d=3)
        assert raw_nf(r, *[("h", 1)] * 4).is_zero()

    def test_tau_square(self):
        r = ring(b=1)
        expected = r.multiply(r.o(1), r.o(2)).scale(r.p.eps2 * 2 * r.p.b)
        assert raw_nf(r, ("tau", 1, 2), ("tau", 1, 2)) == expected

    def test_tau_chain_three_factors(self):
        # tau_{1,2} tau_{1,3} tau_{2,3} -> eps2 * 2b * o_1 o_2 o_3
        r = ring(d=5, b=1, m=3)
        got = raw_nf(r, ("tau", 1, 2), ("tau", 1, 3), ("tau", 2, 3))
        point = r.multiply(r.multiply(r.o(1), r.o(2)), r.o(3))
        assert got == point.scale(r.p.eps2 * 2 * r.p.b)

    def test_shared_index_rule(self):
        r = ring(m=3)
        got = raw_nf(r, ("tau", 1, 2), ("tau", 1, 3))
        want = r.multiply(r.tau(2, 3), r.o(1)).scale(r.p.eps3)
        assert got == want

    # tau words at b = 3 on Y^4, in every insertion order
    @pytest.mark.parametrize("word, want", [
        ([(1, 2), (2, 3), (3, 4), (1, 4)], "-6*o_1*o_2*o_3*o_4"),  # 4-cycle
        ([(1, 2), (2, 3), (3, 4)], "o_2*o_3*t_{1,4}"),             # path
        ([(1, 2), (1, 3), (1, 4)], "0"),                            # degree-3 vertex
    ], ids=["cycle", "path", "vertex"])
    def test_tau_words_b3(self, word, want):
        r = ring(d=2, b=3, m=4)
        for order in itertools.permutations(word):
            assert str(raw_nf(r, *[("tau", i, j) for i, j in order])) == want
            assert str(r.product([r.tau(i, j) for i, j in order])) == want

    def test_index_out_of_range(self):
        r = ring(m=2)
        with pytest.raises(ValueError):
            raw_nf(r, ("h", 3))
        with pytest.raises(ValueError):
            r.tau(1, 5)
        with pytest.raises(ValueError):
            r.tau(2, 2)

    def test_unknown_generator_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            raw_nf(ring(), ("x", 1))

    def test_paper_signs_mode(self):
        r = TautRing(PaperSigns(2, 10, 2))
        got = raw_nf(r, ("tau", 1, 2), ("tau", 1, 2))
        assert got == r.multiply(r.o(1), r.o(2)).scale(20)
        assert r.with_m(3).p == PaperSigns(2, 10, 3) != RingParams(2, 10, 3)


class TestParams:
    @pytest.mark.parametrize("args", [(2, 1.5, 4), (2.5, 1, 2), (2, 1, 2.0),
                                      (True, 1, 2), (2, 1, "3")])
    def test_non_integer_params_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            RingParams(*args)

    @pytest.mark.parametrize("args, match", [((0, 1, 2), "d must be"),
                                             ((2, -1, 2), "b must be"),
                                             ((2, 1, 0), "m must be")])
    def test_out_of_range_params_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            RingParams(*args)

    def test_non_integer_sign_rejected(self):
        # the signs are constants, not fields: no value can be passed, not even -1
        with pytest.raises(TypeError):
            RingParams(2, 1, 2, eps2=-1)


def test_coefficients_are_exact_at_the_boundary():
    # A float is converted exactly at every entry point, never kept as a float.
    r = ring(d=2, b=1, m=2)
    half = Fraction(1, 2)
    mon = next(iter(r.h(1).terms))
    assert set(CycleClass({mon: 0.5}).terms.values()) == {half}
    assert set(r.h(1).scale(0.5).terms.values()) == {half}
    assert set(r.scalar(0.5).terms.values()) == {half}
    assert set(normal_form(r, [("h", 1)], 0.5).terms.values()) == {half}
    assert set(reduce_with_order(r, [("h", 1)], random.Random(0), 0.5).terms.values()) == {half}
    mod = CohomologyModel(2, 1)
    assert set(TensorClass(mod, 1, {(0,): 0.5}).terms.values()) == {half}
    basis = SparseRowBasis()
    basis.add({0: 0.5, 1: 1})
    assert basis.pivots == {0: {0: 1, 1: 2}}  # the row read as exactly 1/2 : 1
    # Integral results stay int: no Fraction wraps an integer coefficient.
    t = realize(("tau", 1, 2), mod, 2)
    rand = CohomologyModel.random_basis(2, 2, random.Random(3))
    for coeffs in (r.power(r.h(1), 3).terms.values(),
                   tensor_multiply(t, t).terms.values(),
                   realize(("tau", 1, 2), rand, 2).terms.values()):
        assert coeffs and all(type(c) is int for c in coeffs)


def test_engine_sums_keep_integral_coefficients_int():
    r = ring(d=2, b=1, m=3)
    half = r.h(1).scale(Fraction(1, 2))
    one = r.multiply(half, r.h(2).scale(2))
    assert one.terms == {Monomial(h=((1, 1), (2, 1))): 1}
    assert_exact(one)
    assert_exact(half.scale(2))
    assert_exact(half + half)
    assert_exact(half + r.h(2).scale(Fraction(1, 3)))
    assert_exact(relabel(half.scale(Fraction(4, 2)), {1: 3}, r))
    pushed = pushforward_forget(r, r.multiply(r.o(1).scale(Fraction(1, 2)),
                                              r.tau(2, 3).scale(Fraction(6))), {1})
    assert pushed.terms == {Monomial(tau=((1, 2),)): 3}
    assert_exact(pushed)
    for d, b in [(1, 0), (2, 1), (3, 5)]:
        for e in verify_mck(ck_projectors(RingParams(d, b, 2))).entries:
            assert_exact(e.value)


class TestAccumulate:
    @pytest.mark.parametrize("c", [10 ** 30, Fraction(7, 3), Fraction(4, 2)],
                             ids=["int", "fraction", "integral-fraction"])
    def test_new_key_stores_c_itself(self, c):
        out = {"x": 1}
        accumulate(out, "y", c)
        assert out == {"x": 1, "y": c} and out["y"] is c

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_zero_on_absent_key_stores_nothing(self, zero):
        out = {"x": 1}
        accumulate(out, "y", zero)
        assert out == {"x": 1}

    def test_present_key_adds_and_is_deleted_when_the_sum_cancels(self):
        out = {"x": Fraction(1, 2)}
        accumulate(out, "x", Fraction(1, 3))
        assert out == {"x": Fraction(5, 6)}
        accumulate(out, "x", Fraction(-5, 6))
        assert out == {}
        out = {"x": 3}
        accumulate(out, "x", 0)
        assert out == {"x": 3} and type(out["x"]) is int


class TestMultiply:
    def test_difference_of_squares(self):
        r = ring()
        lhs = r.multiply(r.h(1) + r.h(2), r.h(1) - r.h(2))
        rhs = r.power(r.h(1), 2) - r.power(r.h(2), 2)
        assert lhs == rhs

    def test_tau_square_b10(self):
        r = ring(d=2, b=10)
        got = r.multiply(r.tau(1, 2), r.tau(1, 2))
        assert got == r.multiply(r.o(1), r.o(2)).scale(-20)

    def test_o_kills_h_on_same_factor(self):
        r = ring()
        assert r.multiply(r.o(1), r.h(1) + r.h(2)) == r.multiply(r.o(1), r.h(2))

    def test_commutative_associative_random(self):
        rng = random.Random(7)
        r = ring(d=3, b=2, m=3)
        for _ in range(60):
            xs = [random_class(r, rng) for _ in range(3)]
            a, b_, c = xs
            assert r.multiply(a, b_) == r.multiply(b_, a)
            assert r.multiply(r.multiply(a, b_), c) == r.multiply(a, r.multiply(b_, c))

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(3)
        r = ring(d=3, b=1, m=3)
        for _ in range(40):
            a = random_class(r, rng) + r.scalar(rng.randint(-2, 2))
            naive = r.one()
            for n in range(12):
                assert r.power(a, n) == naive
                naive = r.multiply(naive, a)

    def test_power_past_top_codim_is_zero(self):
        r = ring(m=2)
        assert r.power(r.h(1), 99999999).is_zero()
        assert r.power(r.zero(), 5).is_zero()
        assert r.power(r.zero(), 0) == r.one()

    def test_negative_power_rejected(self):
        r = ring()
        with pytest.raises(ValueError, match="negative powers"):
            r.power(r.h(1), -1)

    def test_grading_adds(self):
        rng = random.Random(11)
        r = ring(d=2, b=3, m=3)
        for _ in range(100):
            m1 = random_monomial(r, rng)
            m2 = random_monomial(r, rng)
            prod = r.multiply(CycleClass({m1: Fraction(1)}), CycleClass({m2: Fraction(1)}))
            if not prod.is_zero():
                assert prod.codim == m1.codim + m2.codim

    def test_product_multiplies_one_factor_fewer_than_it_has(self, monkeypatch):
        # the fold starts from the first factor, not from the unit
        calls = []
        multiply = TautRing.multiply

        def counted(self, a, b):
            calls.append((a, b))
            return multiply(self, a, b)

        monkeypatch.setattr(TautRing, "multiply", counted)
        rng = random.Random(5)
        r = ring(d=3, b=2, m=3)
        for n in range(6):
            factors = [random_class(r, rng) for _ in range(n)]
            calls.clear()
            r.product(factors)
            assert len(calls) == max(n - 1, 0)

    @pytest.mark.parametrize("params", [RingParams, PaperSigns])
    def test_product_matches_the_unit_fold(self, params):
        # equal classes with equal coefficient types, also for no factor and one
        rng = random.Random(13)
        r = TautRing(params(2, 1, 3))
        scales = [1, -2, Fraction(1, 2), Fraction(-2, 3)]
        for trial in range(100):
            factors = [random_class(r, rng).scale(rng.choice(scales)) for _ in range(trial % 5)]
            want = r.one()
            for x in factors:
                want = r.multiply(want, x)
            got = r.product(factors)
            assert got == want
            assert {mon: type(c) for mon, c in got.terms.items()} == \
                {mon: type(c) for mon, c in want.terms.items()}


class TestIntegrate:
    def test_point_class(self):
        r = ring(m=2)
        assert integrate(r, r.multiply(r.o(1), r.o(2))) == 1

    def test_h_cube_times_o(self):
        r = ring(d=2, m=2)
        cls = r.multiply(r.power(r.h(1), 3), r.o(2))
        assert integrate(r, cls) == 2

    def test_wrong_codim_integrates_to_zero(self):
        r = ring(m=2)
        assert integrate(r, r.multiply(r.power(r.h(1), 2), r.o(2))) == 0

    def test_inhomogeneous_rejected(self):
        r = ring()
        with pytest.raises(ValueError):
            integrate(r, r.h(1) + r.o(1))

    def test_point_class_up_to_m5(self):
        for m in range(1, 6):
            r = ring(d=4, b=2, m=m)
            point = r.product([r.o(i) for i in range(1, m + 1)])
            assert integrate(r, point) == 1


class TestSymRelator:
    def test_b1_matches_permutation_brute_force(self):
        r = ring(b=1, m=4)
        got = r.sym_relator([1, 2, 3, 4])
        brute = brute_force_relator(r, [1, 2, 3, 4])
        assert got == brute
        # 3 matchings, multiplicity 2^2 * 2! = 8 each
        assert len(got.terms) == 3
        assert set(got.terms.values()) == {Fraction(8)}

    def test_b0_relator(self):
        r = ring(b=0, m=2)
        assert r.sym_relator([1, 2]) == r.tau(1, 2).scale(2)

    def test_b2_multiplicity(self):
        r = ring(b=2, m=6)
        rel = r.sym_relator(range(1, 7))
        assert len(rel.terms) == 15
        assert set(rel.terms.values()) == {Fraction(2 ** 3 * math.factorial(3))}

    def test_errors(self):
        with pytest.raises(ValueError, match="too small"):
            ring(b=1, m=3).sym_relator([1, 2, 3, 4])
        with pytest.raises(ValueError, match="need 4 distinct"):
            ring(b=1, m=4).sym_relator([1, 2, 3])

    def test_perfect_matchings_need_an_even_count(self):
        with pytest.raises(ValueError, match="even number"):
            list(perfect_matchings([1, 2, 3]))


class TestGradedBasis:
    def test_codim3_m2(self):
        r = ring(d=2, b=1, m=2)
        basis = r.graded_basis(3)
        assert {str(m) for m in basis} == {"o_1", "o_2", "h_1^2*h_2", "h_1*h_2^2", "t_{1,2}"}

    def test_codim0(self):
        assert [str(m) for m in ring().graded_basis(0)] == ["1"]

    def test_top_codim_m2(self):
        basis = ring(m=2).graded_basis(6)
        assert [str(m) for m in basis] == ["o_1*o_2"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ring(m=2).graded_basis(7)

    def test_no_duplicates_and_sorted(self):
        r = ring(b=2, m=3)
        for c in range(10):
            basis = r.graded_basis(c)
            assert basis == sorted(basis)
            assert len(set(basis)) == len(basis)
            assert all(m.codim == c for m in basis)

    def test_size_is_relator_free_count(self):
        # sum_p C(m,2p) (2p-1)!! x^(3p) (1+x+x^2+x^3)^(m-2p): a tau support of
        # size 2p carries one of its (2p-1)!! perfect matchings, every other
        # factor one of 1, h, h^2, o.
        for m in range(1, 7):
            series = [0] * (3 * m + 1)
            for p in range(m // 2 + 1):
                free = [1]
                for _ in range(m - 2 * p):
                    free = [sum(free[max(0, c - 3):c + 1]) for c in range(len(free) + 3)]
                weight = math.comb(m, 2 * p) * math.prod(range(1, 2 * p, 2))
                for c, n in enumerate(free):
                    series[3 * p + c] += weight * n
            r = ring(m=m)
            assert [len(r.graded_basis(c)) for c in range(3 * m + 1)] == series, m


class TestGradedDimension:
    def test_m2_profile(self):
        assert ring(d=2, b=1, m=2).graded_dimensions() == [1, 2, 3, 5, 3, 2, 1]

    def test_pure_tau_span_drops(self):
        # at b=1, m=4 the single relator kills one dimension in codim 6
        free = ring(d=2, b=2, m=4)   # no relator active
        cut = ring(d=2, b=1, m=4)
        assert free.graded_dimension(6) - cut.graded_dimension(6) == 1

    def test_b0_matches_h_o_subring(self):
        for m in (2, 3):
            r = ring(d=3, b=0, m=m)
            for c in range(3 * m + 1):
                assert r.graded_dimension(c) == h_o_count(m, c)

    def test_poincare_symmetry(self):
        r = ring(d=2, b=1, m=4)
        dims = r.graded_dimensions()
        assert dims == dims[::-1]


class TestConfluenceAndQuotient:
    def test_randomized_reduction_orders_agree(self):
        rng = random.Random(123)
        for _ in range(300):
            r = ring(d=rng.choice([1, 2, 3, 4, 22]),
                     b=rng.choice([0, 1, 2, 5, 10, 52]),
                     m=rng.randint(2, 5))
            raw = random_raw(r, rng)
            ref = normal_form(r, raw)
            for _ in range(2):
                assert reduce_with_order(r, raw, rng) == ref

    def test_product_of_monomials_matches_rule_order(self):
        # multiply inserts every tau of both words into one matching
        rng = random.Random(41)
        for _ in range(600):
            r = ring(d=rng.choice([1, 2, 3]), b=rng.choice([0, 1, 3]), m=rng.randint(2, 6))
            m1, m2 = random_matching_monomial(r, rng), random_matching_monomial(r, rng)
            got = r.multiply(CycleClass({m1: 1}), CycleClass({m2: 1}))
            assert got == reduce_with_order(r, m1.generators() + m2.generators(), rng)

    @pytest.mark.parametrize("params", [RingParams, PaperSigns])
    @pytest.mark.parametrize("d,b", [(1, 0), (2, 1), (3, 2)])
    def test_product_kernel_on_every_pair_of_basis_monomials(self, params, d, b):
        # every ordered pair of basis monomials for m <= 3; at m = 4, where a
        # product can keep two tau pairs, every pair of monomials with tau and
        # a sample of the rest
        rng = random.Random(d)
        for m in (1, 2, 3, 4):
            r = TautRing(params(d, b, m))
            basis = [mon for c in range(3 * m + 1) for mon in r.graded_basis(c)]
            pairs = list(itertools.product(basis, repeat=2))
            if m == 4:
                pairs = ([(m1, m2) for m1, m2 in pairs if m1.tau and m2.tau]
                         + rng.sample(pairs, 1500))
            for m1, m2 in pairs:
                got = r.multiply(CycleClass({m1: 1}), CycleClass({m2: 1}))
                assert got == reduce_with_order(r, m1.generators() + m2.generators(), rng)
                for mon in got.terms:
                    assert_normal_form(mon)

    def test_integration_well_defined_on_relator_ideal(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            b = rng.choice([0, 1])
            m = rng.randint(max(2, 2 * b + 2), 5)
            r = ring(d=rng.choice([1, 2, 3]), b=b, m=m)
            S = rng.sample(range(1, m + 1), 2 * b + 2)
            rel = r.sym_relator(S)
            comp = r.graded_basis(3 * m - 3 * (b + 1))
            mu = comp[rng.randrange(len(comp))]
            val = integrate(r, r.multiply(rel, CycleClass({mu: Fraction(1)})))
            assert val == 0
            checked += 1

    def test_relator_ideal_closed_under_multiplication(self):
        # multiplying a relator vector by a generator lands back in the ideal span
        from chowtaut.linalg import SparseRowBasis
        r = ring(d=2, b=1, m=4)
        c = 9
        rows = SparseRowBasis()
        for v in r.relator_vectors(c):
            rows.add(v)
        rel = r.sym_relator([1, 2, 3, 4])
        for gen in [r.h(1), r.o(2), r.tau(2, 4)]:
            prod = r.multiply(rel, gen)
            if prod.codim == c and not prod.is_zero():
                assert not rows.residual(prod.terms)

    def test_point_class_nonzero_in_quotient(self):
        for (d, b, m) in [(2, 1, 2), (3, 0, 3), (2, 1, 4)]:
            r = ring(d=d, b=b, m=m)
            assert r.graded_dimension(3 * m) == 1


class TestRelabel:
    def test_roundtrip(self):
        r2 = ring(m=2)
        r3 = ring(m=3)
        up = relabel(r2.tau(1, 2), {1: 2, 2: 3}, r3)
        assert up == r3.tau(2, 3)
        with pytest.raises(ValueError):
            relabel(r2.multiply(r2.o(1), r2.o(2)), {2: 1}, r2)
        with pytest.raises(ValueError):
            relabel(r2.multiply(r2.h(1), r2.h(2)), {1: 2}, r2)
        with pytest.raises(ValueError):
            relabel(r2.multiply(r2.h(1), r2.o(2)), {1: 2}, r2)

    def test_colliding_ends_of_a_pair_reported_as_not_injective(self):
        # the mapped indices are checked before any pair is formed, so a tau
        # whose ends collide fails like every other collision
        r2, r3 = ring(m=2), ring(m=3)
        cases = [(r2, r2.tau(1, 2), {1: 2}), (r2, r2.tau(1, 2), {2: 1}),
                 (r3, r3.tau(1, 2), {1: 3, 2: 3}),
                 (r3, r3.multiply(r3.tau(1, 2), r3.h(3)), {3: 2})]
        for r, cls, mapping in cases:
            with pytest.raises(ValueError, match="^relabeling is not injective on the used indices$"):
                relabel(cls, mapping, r)

    def test_merged_terms_cancel_exactly(self):
        r = ring(m=2)
        assert relabel(r.h(1) - r.h(2), {1: 2}, r).is_zero()
        assert relabel(r.h(1) + r.h(2), {1: 2}, r) == r.h(2).scale(2)


class TestCombinatorics:
    def test_perfect_matching_count(self):
        assert len(list(perfect_matchings(range(6)))) == 15


# -- helpers ---------------------------------------------------------------


def assert_exact(cls):
    """Every coefficient is an int or a Fraction that is not an integer."""
    for c in cls.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def assert_normal_form(mon):
    """Sorted parts, h exponents in {1, 2}, pairs i < j, and no index used twice."""
    assert mon.tau == tuple(sorted(mon.tau)) and all(i < j for i, j in mon.tau)
    assert mon.o == tuple(sorted(mon.o))
    assert mon.h == tuple(sorted(mon.h)) and all(e in (1, 2) for _, e in mon.h)
    idx = mon.indices()
    assert len(set(idx)) == len(idx)


def random_raw(r, rng, max_len=7):
    raw = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["h", "h", "o", "tau"])
        if kind == "tau" and r.p.m >= 2:
            i, j = rng.sample(range(1, r.p.m + 1), 2)
            raw.append(("tau", i, j))
        elif kind == "o":
            raw.append(("o", rng.randint(1, r.p.m)))
        else:
            raw.append(("h", rng.randint(1, r.p.m)))
    return raw


def random_monomial(r, rng):
    cls = normal_form(r, random_raw(r, rng, max_len=4))
    if cls.is_zero():
        return Monomial()
    return next(iter(cls.terms))


def random_matching_monomial(r, rng):
    """Random normal-form monomial: a random partial matching, h or o on the rest."""
    idx = rng.sample(range(1, r.p.m + 1), r.p.m)
    k = rng.randint(0, r.p.m // 2)
    tau = tuple(sorted(tuple(sorted(idx[2 * n:2 * n + 2])) for n in range(k)))
    weights = {i: rng.choice([0, 0, 0, 1, 2, 3]) for i in idx[2 * k:]}
    return Monomial(h=tuple(sorted((i, w) for i, w in weights.items() if w in (1, 2))),
                    o=tuple(sorted(i for i, w in weights.items() if w == 3)),
                    tau=tau)


def random_class(r, rng, n_terms=3):
    acc = r.zero()
    for _ in range(n_terms):
        acc = acc + normal_form(r, random_raw(r, rng, max_len=3),
                                  Fraction(rng.randint(-3, 3)))
    return acc


def brute_force_relator(r, indices):
    """Sum over all permutations of consecutive tau pairs, reduced term by term."""
    import itertools
    acc = r.zero()
    for perm in itertools.permutations(indices):
        raw = [("tau", perm[2 * i], perm[2 * i + 1]) for i in range(len(indices) // 2)]
        acc = acc + normal_form(r, raw)
    return acc


def h_o_count(m, c):
    """Dimension of the subring generated by h's and o's alone: (1+x+x^2+x^3)^m."""
    coeffs = [1]
    for _ in range(m):
        new = [0] * (len(coeffs) + 3)
        for i, v in enumerate(coeffs):
            for w in range(4):
                new[i + w] += v
        coeffs = new
    return coeffs[c] if c < len(coeffs) else 0
