import itertools
import random
from fractions import Fraction

import pytest

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import (
    E0,
    E2,
    E6,
    CohomologyModel,
    SubalgebraSpan,
    TensorClass,
    _sign,
    adjudicate_signs,
    realize,
    realize_monomial,
    tensor_multiply,
    tensor_unit,
)
from chowtaut.ring import CycleClass, RingParams, TautRing

from ring_reference import normal_form
from span_reference import AllProductsSpan


def model(d=2, b=1):
    return CohomologyModel(d, b)


def rank(vectors) -> int:
    basis = SparseRowBasis()
    for v in vectors:
        basis.add(v)
    return basis.rank


class TestRealize:
    def test_h_placement(self):
        mod = model()
        assert realize(("h", 1), mod, 2).terms == {(E2, E0): Fraction(1)}

    def test_o_single_factor(self):
        mod = model()
        assert realize(("o", 1), mod, 1).terms == {(E6,): Fraction(1)}

    def test_tau_b1_is_odd_diagonal(self):
        mod = model(b=1)
        t = realize(("tau", 1, 2), mod, 2)
        # a (x) a' - a' (x) a, with a = f_0, a' = f_1
        assert t.terms == {(4, 5): Fraction(1), (5, 4): Fraction(-1)}

    def test_tau_symmetric_in_indices(self):
        mod = model(b=2)
        assert realize(("tau", 2, 1), mod, 3) == realize(("tau", 1, 2), mod, 3)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            realize(("h", 3), model(), 2)

    @pytest.mark.parametrize("gen, match", [(("x", 1), "unknown generator"),
                                            (("tau", 2, 2), "distinct indices")])
    def test_bad_generator_rejected(self, gen, match):
        with pytest.raises(ValueError, match=match):
            realize(gen, model(), 2)


@pytest.mark.parametrize("message, calls", [
    ("factor index 3 out of range 1..2",
     [lambda ring, mod: ring.h(3), lambda ring, mod: realize(("h", 3), mod, 2)]),
    ("tau requires two distinct indices, got (2,2)",
     [lambda ring, mod: ring.tau(2, 2), lambda ring, mod: realize(("tau", 2, 2), mod, 2)]),
    ("codimension 7 out of range 0..6",
     [lambda ring, mod: ring.graded_basis(7), lambda ring, mod: ring.graded_dimension(7),
      lambda ring, mod: SubalgebraSpan(mod, 2).dimension(7)]),
], ids=["factor-index", "equal-tau-pair", "codim"])
def test_ring_and_model_reject_alike(message, calls):
    """The ring and the tensor model check their arguments by the same rules."""
    ring, mod = TautRing(RingParams(2, 1, 2)), model()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(ring, mod)
        assert str(info.value) == message


class TestTensorMultiply:
    def test_slotwise_even(self):
        mod = model()
        x = realize(("h", 1), mod, 2)
        y = realize(("h", 2), mod, 2)
        assert tensor_multiply(x, y).terms == {(E2, E2): Fraction(1)}

    def test_h_cube_is_d_o(self):
        mod = model(d=3)
        h1 = realize(("h", 1), mod, 1)
        cube = tensor_multiply(tensor_multiply(h1, h1), h1)
        assert cube == realize(("o", 1), mod, 1).scale(3)

    def test_tau_square_is_minus_2b(self):
        for b in (1, 2, 3):
            mod = model(b=b)
            t = realize(("tau", 1, 2), mod, 2)
            oo = tensor_multiply(realize(("o", 1), mod, 2), realize(("o", 2), mod, 2))
            assert tensor_multiply(t, t) == oo.scale(-2 * b)

    def test_tau_times_h_vanishes(self):
        mod = model(b=2)
        t = realize(("tau", 1, 2), mod, 2)
        assert tensor_multiply(t, realize(("h", 1), mod, 2)).is_zero()

    def test_koszul_anticommute_odd_slots(self):
        mod = model(b=1)
        a = TensorClass(mod, 2, {(4, E0): Fraction(1)})
        b_ = TensorClass(mod, 2, {(E0, 5): Fraction(1)})
        left = tensor_multiply(a, b_)
        right = tensor_multiply(b_, a)
        assert left == right.scale(-1)

    def test_mismatched_m_rejected(self):
        mod = model()
        with pytest.raises(ValueError):
            tensor_multiply(tensor_unit(mod, 2), tensor_unit(mod, 3))

    def test_equality_compares_models(self):
        # same terms, but h^3 = 2 o on one model and 3 o on the other
        h2, h3 = realize(("h", 1), model(d=2), 2), realize(("h", 1), model(d=3), 2)
        assert h2 != h3
        assert realize(("tau", 1, 2), model(b=2), 2) != realize(
            ("tau", 1, 2), CohomologyModel.random_basis(2, 2, random.Random(3)), 2)
        with pytest.raises(ValueError, match="different models"):
            h2 + h3
        with pytest.raises(ValueError, match="different models"):
            tensor_multiply(h2, h3)

    def test_equal_models_combine(self):
        # two equal models that are distinct objects
        h, h_again = realize(("h", 1), model(d=2), 2), realize(("h", 1), model(d=2), 2)
        assert h.model is not h_again.model
        assert h == h_again
        assert h + h_again == h.scale(2)
        cube = tensor_multiply(tensor_multiply(h, h_again), h_again)
        assert cube == realize(("o", 1), model(d=2), 2).scale(2)

    @pytest.mark.parametrize("mod", [CohomologyModel(3, 2),
                                     CohomologyModel.random_basis(3, 2, random.Random(7))],
                             ids=["standard", "random_basis"])
    def test_product_table_obeys_algebra_laws(self, mod):
        # On one slot: E0 is the unit, x*y = (-1)^{|x||y|} y*x, and (x*y)*z = x*(y*z).
        ids = range(4 + 2 * mod.b)
        elt = {x: TensorClass(mod, 1, {(x,): 1}) for x in ids}
        for x in ids:
            assert tensor_multiply(elt[E0], elt[x]) == elt[x] == tensor_multiply(elt[x], elt[E0])
            for y in ids:
                xy = tensor_multiply(elt[x], elt[y])
                sign = -1 if x >= 4 and y >= 4 else 1
                assert xy == tensor_multiply(elt[y], elt[x]).scale(sign)
                for z in ids:
                    assert (tensor_multiply(xy, elt[z])
                            == tensor_multiply(elt[x], tensor_multiply(elt[y], elt[z])))

    def test_non_integer_params_rejected(self):
        for d, b in [(2.5, 1), (2, 1.0), (2, True)]:
            with pytest.raises(ValueError, match="must be an integer"):
                CohomologyModel(d, b)

    @pytest.mark.parametrize("args, match", [
        ((0, 1), "d >= 1"),
        ((2, -1), "b >= 0"),
        ((2, 1, ((0, 1),)), "2b x 2b"),
        ((2, 1, ((0, 1), (1, 0))), "antisymmetric"),
        ((2, 1, ((0, 0), (0, 0))), "singular"),
    ], ids=["d", "b", "shape", "symmetric", "singular"])
    def test_bad_model_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            CohomologyModel(*args)


class TestRewriteRulesHoldInModel:
    """Every rewrite rule of the presentation, realized term by term."""

    @pytest.mark.parametrize("b", [1, 2])
    def test_all_rules(self, b):
        mod = model(d=2, b=b)
        m = 3
        h1 = realize(("h", 1), mod, m)
        o1 = realize(("o", 1), mod, m)
        o2 = realize(("o", 2), mod, m)
        t12 = realize(("tau", 1, 2), mod, m)
        t13 = realize(("tau", 1, 3), mod, m)
        t23 = realize(("tau", 2, 3), mod, m)
        assert tensor_multiply(o1, o1).is_zero()
        assert tensor_multiply(h1, o1).is_zero()
        h1cube = tensor_multiply(tensor_multiply(h1, h1), h1)
        assert h1cube == o1.scale(mod.d)
        assert tensor_multiply(t12, o1).is_zero()
        assert tensor_multiply(t12, h1).is_zero()
        assert tensor_multiply(t12, t12) == tensor_multiply(o1, o2).scale(-2 * b)
        assert tensor_multiply(t12, t13) == tensor_multiply(t23, o1)  # eps3 = +1


class TestAdjudication:
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_signs(self, b):
        rep = adjudicate_signs(model(b=b))
        assert rep.eps2 == -1
        assert rep.eps3 == 1
        assert rep.sym_relation_verified

    def test_matches_ring_defaults(self):
        rep = adjudicate_signs(model(b=1))
        p = RingParams(2, 1, 2)
        assert (rep.eps2, rep.eps3) == (p.eps2, p.eps3)

    def test_stable_under_random_bases(self):
        rng = random.Random(42)
        base = adjudicate_signs(model(d=2, b=1))
        for _ in range(5):
            mod = CohomologyModel.random_basis(2, 1, rng)
            assert adjudicate_signs(mod) == base

    def test_repeated_runs_identical(self):
        assert adjudicate_signs(model(b=2)) == adjudicate_signs(model(b=2))

    def test_report_shape(self):
        rep = adjudicate_signs(model(d=2, b=1))
        assert set(rep._fields) == {
            "b", "eps2", "eps3", "sym_relation_verified", "dims"}
        assert [list(pair) for pair in rep.dims] == [
            [0, 1], [1, 2], [2, 3], [3, 5], [4, 3], [5, 2], [6, 1]]

    def test_sign_of_non_proportional_tensors_rejected(self):
        mod = model()
        h1, o1 = realize(("h", 1), mod, 2), realize(("o", 1), mod, 2)
        assert _sign(h1.scale(-1), h1, "unused") == -1
        with pytest.raises(ValueError, match="not proportional"):
            _sign(h1, o1, "h_1 is not proportional to o_1")

    def test_b0_rejected(self):
        with pytest.raises(ValueError):
            adjudicate_signs(model(b=0))


class TestSpanDimension:
    def test_m2_profile(self):
        assert SubalgebraSpan(model(d=2, b=1), 2).dimension(3) == 5

    def test_codim0(self):
        assert SubalgebraSpan(model(d=3, b=2), 2).dimension(0) == 1

    def test_codim_out_of_range(self):
        span = AllProductsSpan(model(b=1), 2)
        unit = tensor_unit(span.model, 2)
        for c in (-1, 7, 9):
            for call in (span.basis, span.dimension, lambda c: span.contains(unit, c)):
                with pytest.raises(ValueError, match="out of range"):
                    call(c)

    def test_contains_rejects_other_power_or_model(self):
        mod = model(d=2, b=1)
        span = AllProductsSpan(mod, 2)
        for x in (TensorClass(mod, 3), realize(("h", 1), CohomologyModel(5, 1), 2)):
            with pytest.raises(ValueError, match="different models or powers"):
                span.contains(x, 1)
        assert span.contains(realize(("h", 1), mod, 2), 1)

    def test_pure_tau_span_at_c6_m4(self):
        mod = model(b=1)
        vecs = []
        for pairs in ([(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]):
            t = tensor_multiply(realize(("tau", *pairs[0]), mod, 4),
                                realize(("tau", *pairs[1]), mod, 4))
            vecs.append(t.terms)
        assert rank(vecs) == 2

    @pytest.mark.parametrize("b,m", [(1, 2), (1, 3), (2, 2)])
    def test_matches_presentation(self, b, m):
        p = RingParams(2, b, m)
        ring = TautRing(p)
        span = SubalgebraSpan(model(b=b), m)
        for c in range(3 * m + 1):
            assert ring.graded_dimension(c) == span.dimension(c)


class TestPoincareDuality:
    @pytest.mark.parametrize("b,m", [(1, 2), (2, 2), (1, 3)])
    def test_pairing_nondegenerate(self, b, m):
        mod = model(d=2, b=b)
        span = AllProductsSpan(mod, m)
        top = 3 * m
        for c in range(top + 1):
            lo, hi = span.basis(c), span.basis(top - c)
            assert len(lo) == len(hi)
            point = (E6,) * m
            gram = [{j: v for j, y in enumerate(hi)
                     if (v := tensor_multiply(x, y).terms.get(point, 0))}
                    for x in lo]
            assert rank(gram) == len(lo)


class TestRealizeMonomial:
    def test_matches_ring_normal_form(self):
        rng = random.Random(3)
        ring = TautRing(RingParams(2, 2, 3))
        mod = model(d=2, b=2)
        for _ in range(40):
            raw = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["h", "o", "tau"])
                if kind == "tau":
                    raw.append(("tau", *rng.sample(range(1, 4), 2)))
                else:
                    raw.append((kind, rng.randint(1, 3)))
            direct = tensor_unit(mod, 3)
            for g in raw:
                direct = tensor_multiply(direct, realize(g, mod, 3))
            nf = normal_form(ring, raw)
            via_nf = TensorClass(mod, 3)
            for mon, coeff in nf.terms.items():
                via_nf = via_nf + realize_monomial(mon, mod, 3).scale(coeff)
            assert direct == via_nf


class TestRingHomomorphism:
    """realize is a ring map: the product kernel TautRing._reduce agrees with the model."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_every_pair_of_basis_monomials(self, d, b):
        # every ordered pair whose codims sum to at most 3m, for m <= 3, and
        # samples of such pairs at m = 4 and m = 6
        mod = model(d=d, b=b)
        rng = random.Random(10 * d + b)
        for m, samples in [(1, None), (2, None), (3, None), (4, 500), (6, 200)]:
            ring = TautRing(RingParams(d, b, m))
            basis = [mon for c in range(3 * m + 1) for mon in ring.graded_basis(c)]
            if samples is None:
                pairs = list(itertools.product(basis, repeat=2))
            else:
                pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(2 * samples)]
            pairs = [(mu, nu) for mu, nu in pairs if mu.codim + nu.codim <= 3 * m]
            for mu, nu in pairs[:samples]:
                product = ring.multiply(CycleClass({mu: 1}), CycleClass({nu: 1}))
                image = TensorClass(mod, m)
                for mon, c in product.terms.items():
                    image = image + realize_monomial(mon, mod, m).scale(c)
                assert image == tensor_multiply(realize_monomial(mu, mod, m),
                                                realize_monomial(nu, mod, m)), (m, mu, nu)


class TestLinalg:
    def test_rank_with_fractions(self):
        rows = [
            {0: Fraction(1, 2), 1: Fraction(1, 3)},
            {0: Fraction(1), 1: Fraction(1)},
            {0: Fraction(2), 1: Fraction(4, 3)},  # = row0 * 4
        ]
        assert rank(rows) == 2

    def test_contains(self):
        basis = SparseRowBasis()
        basis.add({0: 1, 1: 2})
        basis.add({1: 1, 2: 1})
        assert not basis.residual({0: 2, 1: 5, 2: 1})
        assert basis.residual({0: 1, 2: 1, 3: 1})

    def test_reduction_step_divides_out_the_content(self):
        # (1, 3) - (1, 1) leaves (0, 2): the step's common factor 2 is divided out
        basis = SparseRowBasis()
        assert basis.add({0: 1, 1: 1})
        assert basis.add({0: 1, 1: 3})
        assert basis.pivots == {0: {0: 1, 1: 1}, 1: {1: 1}}
        assert basis.rank == 2
        assert not basis.add({0: 5, 1: -7})
        assert basis.rank == 2
