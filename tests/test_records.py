"""The value semantics of the record types: construction, equality, hashing,
immutability and repr, and that importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chowtaut.catalog import FanoRecord, catalog_get
from chowtaut.correspond import (
    CheckResult,
    CKReport,
    Correspondence,
    MCKEntry,
    MCKReport,
    ProjectorSet,
    ck_projectors,
    verify_ck,
    verify_mck,
)
from chowtaut.oracle import AdjudicationReport, CohomologyModel, adjudicate_signs
from chowtaut.ring import RingParams, TautRing

from ring_reference import PaperSigns

SRC = Path(__file__).resolve().parent.parent / "src"


def projectors(p=RingParams(2, 1, 2)):
    return ck_projectors(p)


def one_of_each():
    """A value of every record type, built by keyword with its defaults left out."""
    ps = projectors()
    ring = TautRing(RingParams(2, 1, 2))
    return [
        RingParams(d=2, b=1, m=3),
        CohomologyModel(d=2, b=1),
        Correspondence(params=ring.p, r=1, s=1, cls=ring.tau(1, 2)),
        ProjectorSet(pi=ps.pi),
        CheckResult(name="c", ok=True, residual="0"),
        CKReport(checks=(CheckResult("c", True, "0"),)),
        MCKEntry(i=1, j=2, k=3, value=ring.zero()),
        MCKReport(entries=(MCKEntry(0, 0, 0, ring.one()),)),
        AdjudicationReport(b=1, eps2=-1, eps3=1, sym_relation_verified=True,
                           dims=((0, 1), (1, 2))),
        FanoRecord(label="2.2", index=2, degree=2, h12=10, description="X_4 in P(1^4,2)",
                   mck_status="new_in_paper"),
    ]


class TestConstruction:
    def test_keywords_match_positions(self):
        ring = TautRing(RingParams(2, 1, 2))
        assert RingParams(d=2, b=1, m=3) == RingParams(2, 1, 3)
        assert CohomologyModel(d=2, b=1) == CohomologyModel(2, 1, None)
        assert Correspondence(params=ring.p, r=1, s=1, cls=ring.tau(1, 2)) == \
            Correspondence(ring.p, 1, 1, ring.tau(1, 2))
        assert CheckResult(name="c", ok=False, residual="h_1") == CheckResult("c", False, "h_1")
        assert MCKEntry(i=1, j=2, k=3, value=ring.zero()) == MCKEntry(1, 2, 3, ring.zero())
        assert AdjudicationReport(b=1, eps2=-1, eps3=1, sym_relation_verified=True,
                                  dims=()) == AdjudicationReport(1, -1, 1, True, ())

    def test_defaults(self):
        assert CohomologyModel(2, 1).omega == ((0, -1), (1, 0))
        assert CohomologyModel(2, 1, omega=((0, -1), (1, 0))) == CohomologyModel(2, 1)
        rec = FanoRecord("2.2", 2, 2, 10, "X_4 in P(1^4,2)", "new_in_paper")
        assert rec.citations == ()
        assert rec == FanoRecord("2.2", 2, 2, 10, "X_4 in P(1^4,2)", "new_in_paper",
                                 citations=())

    def test_citations_become_a_tuple(self):
        rec = FanoRecord("2.3", 2, 3, 5, "X_3 in P^4", "proven", citations=["Diaz", "FLV2"])
        assert rec.citations == ("Diaz", "FLV2") and type(rec.citations) is tuple
        assert rec == catalog_get("2.3")


class TestEquality:
    def test_equal_values_hash_equal(self):
        for a, b in zip(one_of_each(), one_of_each()):
            assert a == b, type(a).__name__
            assert hash(a) == hash(b), type(a).__name__

    def test_computed_reports_compare_by_value(self):
        ps = projectors()
        assert verify_ck(ps) == verify_ck(projectors())
        assert hash(verify_ck(ps)) == hash(verify_ck(projectors()))
        assert verify_mck(ps) == verify_mck(projectors())
        assert hash(verify_mck(ps)) == hash(verify_mck(projectors()))
        model = CohomologyModel(2, 1)
        assert hash(adjudicate_signs(model)) == hash(adjudicate_signs(CohomologyModel(2, 1)))

    def test_different_values_differ(self):
        assert RingParams(2, 1, 3) != RingParams(2, 1, 4)
        assert CohomologyModel(2, 1) != CohomologyModel(3, 1)
        assert CohomologyModel(2, 1) != CohomologyModel(2, 1, ((0, 1), (-1, 0)))
        assert catalog_get("2.2") != catalog_get("2.3")

    def test_subclass_is_not_equal(self):
        assert PaperSigns(2, 10, 3) != RingParams(2, 10, 3)
        assert RingParams(2, 10, 3) != PaperSigns(2, 10, 3)
        assert PaperSigns(2, 10, 3) == PaperSigns(2, 10, 3)
        assert PaperSigns(2, 10, 3).eps2 == 1

    def test_with_m_keeps_the_params_class(self):
        p = TautRing(PaperSigns(2, 10, 2)).with_m(3).p
        assert type(p) is PaperSigns and p == PaperSigns(2, 10, 3)
        assert type(TautRing(RingParams(2, 10, 2)).with_m(3).p) is RingParams

    def test_with_m_validates(self):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            TautRing(RingParams(2, 1, 2)).with_m(0)

    def test_model_table_is_not_compared(self):
        a, b = CohomologyModel(2, 1), CohomologyModel(2, 1)
        assert a.table == b.table and a.table is not b.table
        assert a == b and hash(a) == hash(b)

    def test_correspondence_identity_includes_params(self):
        f = projectors().pi[3]
        ring = TautRing(RingParams(2, 1, 2))
        g = Correspondence(RingParams(2, 1, 2), 1, 1, ring.tau(1, 2))
        assert f == g and hash(f) == hash(g)
        assert f != projectors().pi[2]
        assert hash(ck_projectors(RingParams(2, 1, 2))) == hash(ck_projectors(RingParams(2, 1, 2)))
        # the same class on other params is another correspondence
        assert f.cls == projectors(RingParams(3, 10, 2)).pi[3].cls
        assert f != projectors(RingParams(3, 10, 2)).pi[3]
        assert projectors() != projectors(RingParams(3, 10, 2))
        assert Correspondence(PaperSigns(2, 1, 2), 1, 1, ring.tau(1, 2)) != g


class TestImmutability:
    @pytest.mark.parametrize("index", range(10))
    def test_assignment_raises(self, index):
        value = one_of_each()[index]
        field = {RingParams: "d", CohomologyModel: "omega", Correspondence: "r",
                 ProjectorSet: "pi", CheckResult: "ok", CKReport: "checks",
                 MCKEntry: "value", MCKReport: "entries", AdjudicationReport: "eps2",
                 FanoRecord: "citations"}[type(value)]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before

    def test_deletion_raises(self):
        p = RingParams(2, 1, 3)
        with pytest.raises(AttributeError):
            del p.m
        assert p.m == 3

    def test_model_table_cannot_be_replaced(self):
        model = CohomologyModel(2, 1)
        with pytest.raises(AttributeError):
            model.table = ()


class TestRepr:
    def test_ring_params(self):
        assert repr(RingParams(2, 1, 3)) == "RingParams(d=2, b=1, m=3)"

    def test_cohomology_model_hides_the_table(self):
        assert repr(CohomologyModel(2, 1)) == (
            "CohomologyModel(d=2, b=1, omega=((0, -1), (1, 0)), omega_inv=((0, 1), (-1, 0)))")
        assert repr(CohomologyModel(2, 0)) == "CohomologyModel(d=2, b=0, omega=(), omega_inv=())"


@pytest.mark.parametrize("module", ["chowtaut", "chowtaut.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # Compare with the modules already loaded, so that what the interpreter
    # loads at start-up (a site hook, say) cannot decide the test.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert module in out
    assert not {"dataclasses", "inspect"} & set(out)
