import json
import sys

import pytest

from chowtaut.catalog import (
    FanoRecord,
    catalog_get,
    load_catalog,
    parse_catalog,
    serialize_catalog,
)


def test_nineteen_records_with_unique_labels():
    records = load_catalog()
    assert len(records) == 19
    assert len({r.label for r in records}) == 19


def test_known_rows():
    assert catalog_get("2.2") == FanoRecord("2.2", 2, 2, 10, "X_4 in P(1^4,2)",
                                            "new_in_paper")
    assert catalog_get("1.2") == FanoRecord("1.2", 1, 2, 52, "X_6 in P(1^4,3)",
                                            "new_in_paper")
    rec = catalog_get("1.22")
    assert (rec.index, rec.degree, rec.h12) == (1, 22, 0)
    assert rec.mck_status == "trivial"
    assert "Gr(3,7)" in rec.description


def test_unknown_label():
    with pytest.raises(KeyError):
        catalog_get("9.99")


def test_trivial_iff_h12_zero():
    for rec in load_catalog():
        assert (rec.mck_status == "trivial") == (rec.h12 == 0)
        assert rec.degree >= 1 and rec.h12 >= 0


def test_round_trip_bit_exact():
    records = load_catalog()
    assert parse_catalog(serialize_catalog(records)) == records
    text = serialize_catalog(records)
    assert serialize_catalog(parse_catalog(text)) == text


def test_external_catalog_path(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text(serialize_catalog(load_catalog()), encoding="utf-8")
    assert load_catalog(str(path)) == load_catalog()


def test_invariant_violations_rejected():
    with pytest.raises(ValueError):
        FanoRecord("x", 1, 2, 0, "desc", "open")  # h12 = 0 must be trivial
    with pytest.raises(ValueError):
        FanoRecord("x", 1, 2, 3, "desc", "proven")  # proven needs citations
    with pytest.raises(ValueError):
        FanoRecord("x", 1, 0, 3, "desc", "open")  # degree >= 1
    with pytest.raises(ValueError):
        parse_catalog('{"label": "a", "index": 1, "degree": 1, "h12": 1, '
                      '"description": "d", "mck_status": "open"}\n' * 2)


@pytest.mark.parametrize("field,bad,message", [
    ("label", 5, "field 'label' must be a string"),
    ("description", None, "field 'description' must be a string"),
    ("citations", "Diaz", "field 'citations' must be a list of strings"),
    ("citations", [1], "field 'citations' must be a list of strings"),
])
def test_record_checks_its_own_field_types(field, bad, message):
    row = dict(label="x", index=2, degree=3, h12=1, description="d", mck_status="proven",
               citations=["Diaz"])
    with pytest.raises(ValueError, match=message):
        FanoRecord(**{**row, field: bad})


def test_record_citations_stored_as_tuple_and_hashable():
    rec = FanoRecord("x", 2, 3, 1, "d", "proven", citations=["Diaz", "FLV2"])
    same = FanoRecord("x", 2, 3, 1, "d", "proven", citations=("Diaz", "FLV2"))
    assert rec.citations == ("Diaz", "FLV2")
    assert rec == same and hash(rec) == hash(same)


@pytest.mark.parametrize("field", ["index", "degree", "h12"])
def test_non_integer_columns_rejected(field):
    row = {"label": "x", "index": 2, "degree": 3, "h12": 1,
           "description": "d", "mck_status": "new_in_paper"}
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_catalog(json.dumps({**row, field: bad}) + "\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no int/str conversion limit")
def test_integer_past_the_int_str_limit_names_its_line():
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    limit = sys.get_int_max_str_digits()
    row = json.dumps({"label": "x", "index": 2, "degree": 2, "h12": 1,
                      "description": "d", "mck_status": "new_in_paper"})
    text = "\n" + row.replace('"degree": 2', '"degree": ' + "9" * (limit + 1)) + "\n"
    with pytest.raises(ValueError) as exc:
        parse_catalog(text)
    assert str(exc.value) == f"catalog line 2: integer with more than {limit} digits"
