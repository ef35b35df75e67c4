import itertools
import random
from fractions import Fraction

import pytest

from chowtaut.correspond import (
    Correspondence,
    MCKEntry,
    ProjectorSet,
    big_diagonal,
    ck_projectors,
    involution_check,
    pushforward_forget,
    verify_ck,
    verify_mck,
)
from chowtaut.oracle import (
    CohomologyModel,
    TensorClass,
    realize,
    realize_monomial,
    tensor_multiply,
)
from chowtaut import correspond
from chowtaut.catalog import load_catalog
from chowtaut.ring import CycleClass, RingParams, TautRing, relabel

from ring_reference import PaperSigns, integrate, normal_form, small_diagonal


def params(d=2, b=1, m=2):
    return RingParams(d, b, m)


def sabotaged_sets():
    """CK projectors for (d, b) = (2, 1) with some pi^i replaced, as the sabotage tests use them.

    In order: pi^0 scaled by 2; that and pi^3 = 2 tau; pi^2 + o_1 and
    pi^3 scaled by 2; pi^1 = pi^5 = o_1.
    """
    p = params(d=2, b=1)
    r = TautRing(p)
    pi = ck_projectors(p).pi
    swaps = [{0: pi[0].cls.scale(2)},
             {0: pi[0].cls.scale(2), 3: r.tau(1, 2).scale(2)},
             {2: pi[2].cls + r.o(1), 3: pi[3].cls.scale(2)},
             {1: r.o(1), 5: r.o(1)}]
    return [ProjectorSet(tuple(Correspondence(p, 1, 1, swap.get(i, f.cls))
                               for i, f in enumerate(pi)))
            for swap in swaps]


class TestPushforward:
    def test_o_integrates_to_one(self):
        r = TautRing(params(m=3))
        cls = r.multiply(r.o(3), r.tau(1, 2))
        out = pushforward_forget(r, cls, {3})
        assert out == TautRing(params(m=2)).tau(1, 2)

    def test_matched_tau_pushes_to_zero(self):
        r = TautRing(params(m=3))
        assert pushforward_forget(r, r.tau(1, 3), {3}).is_zero()

    def test_h_square_pushes_to_zero(self):
        r = TautRing(params(m=3))
        assert pushforward_forget(r, r.power(r.h(3), 2), {3}).is_zero()

    def test_empty_slot_pushes_to_zero(self):
        r = TautRing(params(m=2))
        assert pushforward_forget(r, r.o(1), {2}).is_zero()

    def test_inhomogeneous_rejected(self):
        r = TautRing(params(m=2))
        with pytest.raises(ValueError, match="homogeneous"):
            pushforward_forget(r, r.h(1) + r.o(2), {2})

    @pytest.mark.parametrize("forget", [{3}, {1}, {2}, {1, 3}, {1, 2}, {2, 3}])
    def test_matches_tensor_model(self, forget):
        # every basis monomial of Y^3 pushes forward as honest slot integration
        # in the model, for every nonempty proper forget set
        kept = [t for t in range(1, 4) if t not in forget]
        for b in (1, 2):
            r = TautRing(params(d=2, b=b, m=3))
            mod = CohomologyModel(2, b)
            for mon in (mon for c in range(10) for mon in r.graded_basis(c)):
                pushed = pushforward_forget(r, CycleClass({mon: 1}), forget)
                model_out = TensorClass(mod, len(kept))
                for key, c in realize_monomial(mon, mod, 3).terms.items():
                    if all(key[t - 1] == 3 for t in forget):  # e6 integrates to 1
                        model_out = model_out + TensorClass(
                            mod, len(kept), {tuple(key[t - 1] for t in kept): c})
                expected = TensorClass(mod, len(kept))
                for out, c in pushed.terms.items():
                    expected = expected + realize_monomial(out, mod, len(kept)).scale(c)
                assert model_out == expected


class TestPushPull:
    """The fused kernel of the certificates against multiply then pushforward_forget."""

    @pytest.mark.parametrize("params", [RingParams, PaperSigns])
    @pytest.mark.parametrize("d,b", [(1, 0), (2, 1), (3, 2)])
    def test_matches_unfused_route_on_every_pair_of_basis_monomials(self, params, d, b):
        # every ordered pair of basis monomials on Y^3 and every nonempty proper
        # forget set; the coefficients cycle so that some products stay int and
        # some keep a denominator
        r = TautRing(params(d, b, 3))
        basis = [mon for c in range(10) for mon in r.graded_basis(c)]
        coeffs = [1, Fraction(1, 2), -2, Fraction(2, 3), 3]
        kernels = [(set(F), correspond._push_pull(r, set(F)))
                   for n in (1, 2) for F in itertools.combinations((1, 2, 3), n)]
        for n, (m1, m2) in enumerate(itertools.product(basis, repeat=2)):
            x = CycleClass({m1: coeffs[n % 5]})
            y = CycleClass({m2: coeffs[n % 3]})
            product = r.multiply(x, y)
            for forget, kernel in kernels:
                assert_same_class(kernel(x, y), pushforward_forget(r, product, forget))

    @pytest.mark.parametrize("params", [RingParams, PaperSigns])
    def test_matches_unfused_route_on_sums(self, params):
        # terms of one codim merge and cancel in the product before the push
        rng = random.Random(7)
        r = TautRing(params(2, 1, 3))
        kernels = [(F, correspond._push_pull(r, F)) for F in ({1}, {2}, {3}, {1, 3})]
        for _ in range(300):
            x, y = random_homogeneous(r, rng), random_homogeneous(r, rng)
            if x is None or y is None:
                continue
            product = r.multiply(x, y)
            for forget, kernel in kernels:
                assert_same_class(kernel(x, y), pushforward_forget(r, product, forget))

    def test_errors_match_pushforward(self):
        # the kernel leaves its operands unchecked (the certificates pass it only
        # homogeneous classes); pushforward_forget checks its argument after the
        # forget set
        r = TautRing(params(m=3))
        with pytest.raises(ValueError, match="^pushforward requires a homogeneous class$"):
            pushforward_forget(r, r.h(1) + r.o(2), {1})
        with pytest.raises(ValueError, match="^factor index 4 out of range 1..3$"):
            pushforward_forget(r, r.h(1) + r.o(2), {4})
        for forget in ({0}, {4}, {1, 4}):
            with pytest.raises(ValueError) as want:
                pushforward_forget(r, r.o(1), forget)
            with pytest.raises(ValueError) as got:
                correspond._push_pull(r, forget)
            assert str(got.value) == str(want.value)


class TestCompose:
    def test_identity_law(self):
        rng = random.Random(17)
        p = params(d=3, b=2)
        ring2 = TautRing(p)
        delta = Correspondence(p, 1, 1, big_diagonal(ring2, 1, 2))
        for _ in range(25):
            cls = random_homogeneous(ring2, rng)
            if cls is None:
                continue
            f = Correspondence(p, 1, 1, cls)
            assert f.compose(delta) == f
            assert delta.compose(f) == f

    def test_transpose_involutive_and_antimultiplicative(self):
        rng = random.Random(23)
        p = params(d=2, b=3)
        for _ in range(25):
            c1, c2 = random_homogeneous(TautRing(p), rng), random_homogeneous(TautRing(p), rng)
            if c1 is None or c2 is None:
                continue
            f = Correspondence(p, 1, 1, c1)
            g = Correspondence(p, 1, 1, c2)
            assert f.transpose().transpose() == f
            assert f.compose(g).transpose() == g.transpose().compose(f.transpose())

    def test_associativity(self):
        rng = random.Random(31)
        p = params(d=2, b=1)
        for _ in range(25):
            fs = [random_homogeneous(TautRing(p), rng) for _ in range(3)]
            if any(c is None for c in fs):
                continue
            f, g, h = (Correspondence(p, 1, 1, c) for c in fs)
            assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_pi3_idempotent(self):
        ps = ck_projectors(params(d=2, b=5))
        assert ps.pi[3].compose(ps.pi[3]) == ps.pi[3]

    def test_pi2_pi4_orthogonal(self):
        ps = ck_projectors(params(d=3, b=1))
        assert ps.pi[4].compose(ps.pi[2]).cls.is_zero()  # pi^2 o pi^4
        assert ps.pi[2].compose(ps.pi[4]).cls.is_zero()  # pi^4 o pi^2

    def test_class_on_wrong_power_rejected(self):
        p = params()
        with pytest.raises(ValueError):
            Correspondence(p, 1, 1, TautRing(params(m=3)).o(3))
        with pytest.raises(ValueError):
            Correspondence(p, 1, 1, TautRing(params(m=3)).tau(1, 3))

    def test_params_off_r_plus_s_rejected(self):
        with pytest.raises(ValueError, match="must live on Y\\^\\(r\\+s\\)"):
            Correspondence(params(m=3), 1, 1, TautRing(params(m=3)).o(1))

    @pytest.mark.parametrize("r,s", [(0, 1), (1, 0)])
    def test_arity_zero_rejected(self, r, s):
        # there is no ring on Y^0, so no correspondence starts or ends there
        with pytest.raises(ValueError, match="arities must be at least 1: "):
            Correspondence(params(m=1), r, s, TautRing(params(m=1)).o(1))

    def test_inhomogeneous_class_rejected(self):
        r = TautRing(params())
        with pytest.raises(ValueError, match="must be homogeneous"):
            Correspondence(r.p, 1, 1, r.o(1) + r.h(2))

    def test_apply_rejects_class_off_source(self):
        p = params()
        ps = ck_projectors(p)
        with pytest.raises(ValueError):
            ps.pi[0].apply(TautRing(p).o(2))
        with pytest.raises(ValueError):
            ps.pi[3].apply(TautRing(p).tau(1, 2))
        point = TautRing(params(m=1)).o(1)
        assert ps.pi[6].apply(point) == point

    def test_partner_on_another_y_rejected(self):
        # (d, b) and the sign class must agree, as in a ProjectorSet; m may differ
        f = ck_projectors(RingParams(2, 1, 2)).pi[3]
        g = ck_projectors(RingParams(5, 3, 2)).pi[3]
        paper = ck_projectors(PaperSigns(2, 1, 2)).pi[3]
        for other in (g, paper):
            with pytest.raises(ValueError, match="on different Y"):
                f.compose(other)
            with pytest.raises(ValueError, match="on different Y"):
                other.compose(f)
            with pytest.raises(ValueError, match="on different Y"):
                f.tensor(other)
        assert f.tensor(f).params == RingParams(2, 1, 4)

    def test_arity_mismatch(self):
        p = params()
        f = Correspondence(p, 1, 1, TautRing(p).o(1))
        dsm = small_diagonal(TautRing(p).with_m(3))
        g = Correspondence(RingParams(p.d, p.b, 3), 2, 1, dsm)
        with pytest.raises(ValueError):
            g.compose(f).compose(g)


class TestProjectors:
    def test_pi0_is_point_times_one(self):
        ps = ck_projectors(params(d=2, b=1))
        assert ps.pi[0].cls == TautRing(params()).o(1)

    def test_sum_is_diagonal(self):
        p = params(d=3, b=5)
        ps = ck_projectors(p)
        assert ps.diagonal() == big_diagonal(TautRing(p), 1, 2)

    def test_transpose_duality(self):
        ps = ck_projectors(params(d=2, b=10))
        for i in range(7):
            assert ps.pi[i].transpose() == ps.pi[6 - i]

    def test_eps3_minus_one_rejected(self):
        # eps3 is fixed at +1 (idempotency forces it): it is not a parameter.
        with pytest.raises(TypeError):
            RingParams(2, 1, 2, eps3=-1)

    def test_projector_from_y2_to_y_rejected(self):
        # verify_ck and verify_mck multiply the classes as they stand on Y^2 and
        # Y^3/Y^4, so an entry of another arity would give a meaningless verdict
        p = params()
        pi = list(ck_projectors(p).pi)
        p3 = RingParams(p.d, p.b, 3)
        pi[1] = Correspondence(p3, 2, 1, small_diagonal(TautRing(p3)))
        with pytest.raises(ValueError, match="Y -> Y"):
            ProjectorSet(tuple(pi))

    def test_projectors_of_two_degrees_rejected(self):
        pi = list(ck_projectors(params(d=2, b=1)).pi)
        pi[3] = ck_projectors(params(d=3, b=1)).pi[3]
        with pytest.raises(ValueError, match="one RingParams"):
            ProjectorSet(tuple(pi))

    @pytest.mark.parametrize("n", [6, 8])
    def test_wrong_projector_count_rejected(self, n):
        pi = ck_projectors(params()).pi
        with pytest.raises(ValueError, match="seven projectors"):
            ProjectorSet((pi + pi)[:n])

    def test_non_correspondence_rejected(self):
        pi = list(ck_projectors(params()).pi)
        pi[0] = pi[0].cls
        with pytest.raises(ValueError, match="Y -> Y"):
            ProjectorSet(tuple(pi))

    def test_action_on_model_lines(self):
        # pi^{2j} is the identity on the h^j-line and zero elsewhere;
        # pi^3 is the identity on the odd part.
        mod = CohomologyModel(2, 1)
        ps = ck_projectors(params(d=2, b=1))
        lines = {0: 0, 2: 1, 4: 2, 6: 3}  # degree -> basis id of h^j line
        for i in range(7):
            corr = TensorClass(mod, 2)
            for mon, c in ps.pi[i].cls.terms.items():
                corr = corr + realize_monomial(mon, mod, 2).scale(c)
            for deg, bid in lines.items():
                out = model_apply(corr, TensorClass(mod, 1, {(bid,): Fraction(1)}), mod)
                if i == (deg if deg == 0 else deg // 2 * 2):
                    pass
                expected_id = (i % 2 == 0 and deg == i)
                if expected_id:
                    assert out == TensorClass(mod, 1, {(bid,): Fraction(1)})
                else:
                    assert out.is_zero()
            for odd in (4, 5):
                out = model_apply(corr, TensorClass(mod, 1, {(odd,): Fraction(1)}), mod)
                if i == 3:
                    assert out == TensorClass(mod, 1, {(odd,): Fraction(1)})
                else:
                    assert out.is_zero()


class TestVerifyCK:
    @pytest.mark.parametrize("d,b", [(3, 5), (2, 10), (1, 21), (2, 52)])
    def test_passes(self, d, b):
        report = verify_ck(ck_projectors(params(d=d, b=b)))
        assert report.passed

    def test_sabotage_detected(self):
        report = verify_ck(sabotaged_sets()[0])
        assert not report.passed
        idem0 = next(c for c in report.checks if c.name == "pi^0 o pi^0 = pi^0")
        assert not idem0.ok
        assert idem0.residual == "2*o_1"

    @pytest.mark.parametrize("d,b", [(2, 0), (2, 1), (3, 5)])
    def test_matches_compose(self, d, b):
        # each check is one product on Y^3, equal to the generic compose
        ps = ck_projectors(params(d=d, b=b))
        report = verify_ck(ps)
        assert [c.residual for c in report.checks[:49]] == ck_by_compose(ps)
        assert report.passed

    def test_sabotage_matches_compose(self):
        bad = sabotaged_sets()[1]
        report = verify_ck(bad)
        residuals = ck_by_compose(bad)
        assert [c.residual for c in report.checks[:49]] == residuals
        assert [c.ok for c in report.checks[:49]] == [r == "0" for r in residuals]
        assert not report.passed

    def test_push_pulls_once_per_pair_of_nonzero_projectors(self, monkeypatch):
        # the 5 nonzero projectors give 25 compositions; a shortcut that skipped
        # pairs by degree alone would drop push-pulls from this count
        calls = count_push_pulls(monkeypatch)
        for rec in load_catalog():
            ps = ck_projectors(params(d=rec.degree, b=rec.h12))
            calls.clear()
            verify_ck(ps)
            nonzero = sum(not f.cls.is_zero() for f in ps.pi)
            assert len(calls) == nonzero ** 2 == 25, rec.label
            assert all(forget == {2} for forget in calls)

    def test_residual_built_only_when_the_sides_differ(self, monkeypatch):
        # a passing set subtracts nothing; pi^0 scaled by 2 subtracts for the
        # checks that fail
        subs = []
        sub = CycleClass.__sub__

        def counted(a, b):
            subs.append((a, b))
            return sub(a, b)

        monkeypatch.setattr(CycleClass, "__sub__", counted)
        assert verify_ck(ck_projectors(params(d=2, b=3))).passed
        assert subs == []
        report = verify_ck(sabotaged_sets()[0])
        assert len(subs) == sum(not c.ok for c in report.checks) > 0

    def test_checks_do_not_go_through_compose(self, monkeypatch):
        def no_compose(*args):
            raise AssertionError("compose called")

        monkeypatch.setattr(Correspondence, "compose", no_compose)
        assert verify_ck(ck_projectors(params(d=2, b=3))).passed


class TestSmallDiagonal:
    def test_codim_6(self):
        dsm = small_diagonal(TautRing(params(d=2, b=1, m=3)))
        assert dsm.codim == 6

    @pytest.mark.parametrize("m", [2, 4])
    def test_other_powers_rejected(self, m):
        with pytest.raises(ValueError, match="lives on Y\\^3"):
            small_diagonal(TautRing(params(m=m)))

    def test_contains_tau12_o3(self):
        # the shared-index relation folds tau_{1,3} tau_{2,3} into tau_{1,2} o_3
        dsm = small_diagonal(TautRing(params(d=2, b=1, m=3)))
        r3 = TautRing(params(d=2, b=1, m=3))
        probe = r3.multiply(r3.tau(1, 2), r3.o(3))
        mon = next(iter(probe.terms))
        assert dsm.coefficient(mon) == 1

    def test_b0_tau_part_dies_in_quotient(self):
        # tau stays a formal generator at b = 0; its contribution to the
        # small diagonal lies in the relator ideal, so the quotient class
        # is the product of two decomposable diagonals.
        from chowtaut.linalg import SparseRowBasis
        r3 = TautRing(params(d=2, b=0, m=3))
        dsm = small_diagonal(r3)
        ideal = SparseRowBasis()
        for v in r3.relator_vectors(6):
            ideal.add(v)
        tau_part = {mon: c for mon, c in dsm.terms.items() if mon.tau}
        assert tau_part and not ideal.residual(tau_part)

    def test_degree_probes_match_model(self):
        r3 = TautRing(params(d=2, b=1, m=3))
        dsm = small_diagonal(r3)
        mod = CohomologyModel(2, 1)
        dsm_model = TensorClass(mod, 3)
        for mon, c in dsm.terms.items():
            dsm_model = dsm_model + realize_monomial(mon, mod, 3).scale(c)
        rng = random.Random(1)
        for _ in range(20):
            probe_raw = [(kind, i) for i, kind in
                         zip(range(1, 4), [rng.choice(["h", "o"]) for _ in range(3)])]
            probe = normal_form(r3, probe_raw)
            lhs = integrate(r3, r3.multiply(dsm, probe))
            probe_model = TensorClass(mod, 3, {(0, 0, 0): Fraction(1)})
            for g in probe_raw:
                probe_model = tensor_multiply(probe_model, realize(g, mod, 3))
            rhs = tensor_multiply(dsm_model, probe_model).terms.get((3, 3, 3), Fraction(0))
            assert lhs == rhs


class TestVerifyMCK:
    def test_small_cases(self):
        for d, b in [(3, 5), (2, 10)]:
            report = verify_mck(ck_projectors(params(d=d, b=b)))
            assert report.passed

    def test_entry_223_zero(self):
        report = verify_mck(ck_projectors(params(d=2, b=1)))
        assert report.entry(2, 2, 3).value.is_zero()

    def test_entry_333_zero(self):
        report = verify_mck(ck_projectors(params(d=2, b=1)))
        assert report.entry(3, 3, 3).value.is_zero()

    @pytest.mark.parametrize("d,b", [(2, 0), (2, 1), (3, 5)])
    def test_matches_small_diagonal_on_y6(self, d, b):
        # the Y^4 product equals the generic (t(pi^i) x t(pi^j) x pi^k)_* Delta^sm
        ps = ck_projectors(params(d=d, b=b))
        assert [e.value for e in verify_mck(ps).entries] == mck_on_y6(ps)

    def test_sabotage_matches_small_diagonal_on_y6(self):
        # transposes are no longer pi^(6-i), and some entries with i + j != k survive
        bad = sabotaged_sets()[2]
        report = verify_mck(bad)
        assert [e.value for e in report.entries] == mck_on_y6(bad)
        assert not report.passed

    def test_odd_legs_match_small_diagonal_on_y6(self):
        # nonzero pi^1 and pi^5 make leg pairs that vanish for the CK projectors
        # nonzero, so those rows take the full path instead of stopping early
        bad = sabotaged_sets()[3]
        report = verify_mck(bad)
        assert [e.value for e in report.entries] == mck_on_y6(bad)
        assert not report.passed
        assert not report.entry(1, 1, 0).value.is_zero()  # i + j = 2 != 0: fails MCK

    def test_pushes_forward_once_per_nonzero_pair_and_third_leg(self, monkeypatch):
        # 13 nonzero leg pairs times the 5 nonzero projectors, each one call of
        # the push-pull kernel; a shortcut that skipped entries by degree alone
        # would drop push-pulls from this count
        calls = count_push_pulls(monkeypatch)
        for rec in load_catalog():
            ps = ck_projectors(params(d=rec.degree, b=rec.h12))
            calls.clear()
            verify_mck(ps)
            r4 = TautRing(params(d=rec.degree, b=rec.h12, m=4))
            firsts = [relabel(f.cls, {1: 2, 2: 1}, r4) for f in ps.pi]
            seconds = [relabel(f, {2: 3}, r4) for f in firsts]
            expected = sum(1 for i, j, k in itertools.product(range(7), repeat=3)
                           if not r4.multiply(firsts[i], seconds[j]).is_zero()
                           and not ps.pi[k].cls.is_zero())
            assert len(calls) == expected == 65, rec.label
            assert all(forget == {1} for forget in calls)

    def test_entry_000_reported_not_asserted(self):
        report = verify_mck(ck_projectors(params(d=2, b=1)))
        e = report.entry(0, 0, 0)
        assert e.exempt and not e.value.is_zero() and e.ok
        for bad in [(0, 0, 7), (-1, 0, 0)]:
            with pytest.raises(ValueError):
                report.entry(*bad)


class TestVerdicts:
    @pytest.mark.parametrize("ps", [
        *(ck_projectors(params(d=rec.degree, b=rec.h12)) for rec in load_catalog()),
        *sabotaged_sets(),
    ], ids=[*(rec.label for rec in load_catalog()), *(f"sabotaged{n}" for n in range(4))])
    def test_verdicts_keep_their_meaning(self, ps):
        mck = verify_mck(ps)
        assert [(e.i, e.j, e.k) for e in mck.entries] == \
            list(itertools.product(range(7), repeat=3))
        assert all(type(e) is MCKEntry for e in mck.entries)
        assert [e.ok for e in mck.entries] == \
            [e.exempt or e.value.is_zero() for e in mck.entries]
        assert mck.passed == (bool(mck.entries) and
                              all(e.exempt or e.value.is_zero() for e in mck.entries))
        ck = verify_ck(ps)
        assert [c.ok for c in ck.checks] == [c.residual == "0" for c in ck.checks]
        assert ck.passed == (bool(ck.checks) and all(c.residual == "0" for c in ck.checks))

    def test_pi0_scaled_by_two_passes_mck_and_fails_ck(self):
        # every nonzero entry is exempt, so only the CK verdict sees the sabotage
        ps = sabotaged_sets()[0]
        mck = verify_mck(ps)
        nonzero = [e for e in mck.entries if not e.value.is_zero()]
        assert len(nonzero) == 13 and all(e.exempt for e in nonzero)
        assert mck.passed and not verify_ck(ps).passed


class TestInvolution:
    @pytest.mark.parametrize("d,b", [*((rec.degree, rec.h12) for rec in load_catalog()),
                                     (2, 1), (2, 0)],
                             ids=[*(rec.label for rec in load_catalog()), "2-1", "2-0"])
    def test_holds_on_ck_projectors(self, d, b):
        assert involution_check(ck_projectors(params(d=d, b=b)))

    @pytest.mark.parametrize("n,want", [(0, False), (1, False), (2, False), (3, True)])
    def test_reads_the_projectors(self, n, want):
        # sets 0-2 change pi^0, pi^2 or pi^3; set 3 changes only pi^1 and pi^5,
        # which G does not read
        assert involution_check(sabotaged_sets()[n]) is want

    @pytest.mark.parametrize("d,b", [(2, 0), (2, 1), (3, 2)])
    def test_anti_invariant_triple_vanishes_by_reference_calculus(self, d, b):
        # G = Delta - 2 pi^3; ((Delta -+ G)/2)^{x3}_* Delta^sm by tensor and apply
        p = params(d=d, b=b)
        ps = ck_projectors(p)
        delta = Correspondence(p, 1, 1, big_diagonal(TautRing(p), 1, 2))
        g = Correspondence(p, 1, 1, delta.cls - ps.pi[3].cls.scale(2))
        assert g.compose(g) == delta and g.transpose() == g
        dsm = small_diagonal(TautRing(p).with_m(3))

        def triple(sign):
            half = Correspondence(p, 1, 1, (delta.cls + g.cls.scale(sign)).scale(Fraction(1, 2)))
            return half.tensor(half).tensor(half).apply(dsm)

        assert triple(-1).is_zero()
        assert not triple(1).is_zero()


# -- helpers ---------------------------------------------------------------


def assert_same_class(got, want):
    """Equal classes whose coefficients also have the same types (int or Fraction)."""
    assert got == want
    assert {mon: type(c) for mon, c in got.terms.items()} == \
        {mon: type(c) for mon, c in want.terms.items()}


def count_push_pulls(monkeypatch):
    """Record the forget set of every call of every push-pull kernel built from now on."""
    calls = []
    build = correspond._push_pull

    def counting_build(ring, forget):
        kernel = build(ring, forget)

        def counted(a, b):
            calls.append(forget)
            return kernel(a, b)

        return counted

    monkeypatch.setattr(correspond, "_push_pull", counting_build)
    return calls


def model_apply(corr: TensorClass, x: TensorClass, mod) -> TensorClass:
    """Apply a correspondence tensor on Y^2 to a class on Y: push (corr * x(x)1) to slot 2."""
    lifted = TensorClass(mod, 2, {(key[0], 0): c for key, c in x.terms.items()})
    prod = tensor_multiply(lifted, corr)
    out_terms = {}
    for key, c in prod.terms.items():
        if key[0] == 3:  # e6 integrates to 1; anything else to 0
            out_terms[(key[1],)] = out_terms.get((key[1],), Fraction(0)) + c
    return TensorClass(mod, 1, {k: v for k, v in out_terms.items() if v})


def ck_by_compose(ps):
    """Residuals of the 49 composition checks of verify_ck, by the generic compose."""
    residuals = []
    for i, j in itertools.product(range(7), repeat=2):
        want = ps.pi[i].cls if i == j else CycleClass()
        residuals.append(str(ps.pi[j].compose(ps.pi[i]).cls - want))
    return residuals


def mck_on_y6(ps):
    """All 343 MCK entries by the Y^6 tensor correspondence applied to Delta^sm."""
    dsm = small_diagonal(TautRing(ps.params).with_m(3))
    t = [f.transpose() for f in ps.pi]
    return [t[i].tensor(t[j]).tensor(ps.pi[k]).apply(dsm)
            for i, j, k in itertools.product(range(7), repeat=3)]


def random_homogeneous(ring, rng):
    """Random homogeneous class of codim <= 6 on the ring's Y^m, or None when the draw is zero."""
    c = rng.randint(0, 6)
    basis = ring.graded_basis(c)
    terms = {mon: Fraction(rng.randint(-2, 2)) for mon in rng.sample(basis, min(3, len(basis)))}
    cls = CycleClass({m: q for m, q in terms.items() if q})
    return None if cls.is_zero() else cls
