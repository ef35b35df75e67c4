"""Catalog of Fano threefolds with Picard number 1.

The table is embedded as one JSON object per line so the package is
self-contained; an external file in the same format can be supplied
instead.  The degree column is the self-intersection number of the ample
generator h (the d of the engine), h12 is the Hodge number h^{1,2} (the b
of the engine).
"""

from __future__ import annotations

import json
import sys

from .linalg import Frozen, require_ints

MCK_STATUSES = ("trivial", "proven", "new_in_paper", "open")

_CATALOG_JSONL = """\
{"label": "4", "index": 4, "degree": 1, "h12": 0, "description": "P^3", "mck_status": "trivial", "citations": []}
{"label": "3", "index": 3, "degree": 2, "h12": 0, "description": "X_2 in P^4", "mck_status": "trivial", "citations": []}
{"label": "2.1", "index": 2, "degree": 1, "h12": 21, "description": "X_6 in P(1^3,2,3)", "mck_status": "new_in_paper", "citations": []}
{"label": "2.2", "index": 2, "degree": 2, "h12": 10, "description": "X_4 in P(1^4,2)", "mck_status": "new_in_paper", "citations": []}
{"label": "2.3", "index": 2, "degree": 3, "h12": 5, "description": "X_3 in P^4", "mck_status": "proven", "citations": ["Diaz", "FLV2"]}
{"label": "2.4", "index": 2, "degree": 4, "h12": 2, "description": "X_(2,2) in P^5", "mck_status": "proven", "citations": ["2q"]}
{"label": "2.5", "index": 2, "degree": 5, "h12": 0, "description": "Gr(2,5) cap L in P^9", "mck_status": "trivial", "citations": []}
{"label": "1.2", "index": 1, "degree": 2, "h12": 52, "description": "X_6 in P(1^4,3)", "mck_status": "new_in_paper", "citations": []}
{"label": "1.4.a", "index": 1, "degree": 4, "h12": 30, "description": "X_4 in P^4", "mck_status": "open", "citations": []}
{"label": "1.4.b", "index": 1, "degree": 4, "h12": 30, "description": "2:1 cover of quadric with quartic branch locus", "mck_status": "new_in_paper", "citations": []}
{"label": "1.6", "index": 1, "degree": 6, "h12": 20, "description": "X_(2,3) in P^5", "mck_status": "proven", "citations": ["55"]}
{"label": "1.8", "index": 1, "degree": 8, "h12": 14, "description": "X_(2,2,2) in P^6", "mck_status": "open", "citations": []}
{"label": "1.10.a", "index": 1, "degree": 10, "h12": 10, "description": "ordinary Gushel-Mukai threefold", "mck_status": "open", "citations": []}
{"label": "1.10.b", "index": 1, "degree": 10, "h12": 10, "description": "special Gushel-Mukai threefold", "mck_status": "new_in_paper", "citations": []}
{"label": "1.12", "index": 1, "degree": 12, "h12": 7, "description": "OGr+(5,10) cap L in P^15", "mck_status": "open", "citations": []}
{"label": "1.14", "index": 1, "degree": 14, "h12": 5, "description": "Gr(2,6) cap L in P^14", "mck_status": "proven", "citations": ["g8"]}
{"label": "1.16", "index": 1, "degree": 16, "h12": 3, "description": "LGr(3,6) cap L in P^13", "mck_status": "open", "citations": []}
{"label": "1.18", "index": 1, "degree": 18, "h12": 2, "description": "G2/P cap L in P^13", "mck_status": "proven", "citations": ["g10"]}
{"label": "1.22", "index": 1, "degree": 22, "h12": 0, "description": "V(s) in Gr(3,7)", "mck_status": "trivial", "citations": []}
"""


_FIELDS = ("label", "index", "degree", "h12", "description", "mck_status")


class FanoRecord(Frozen):
    """One catalog row; its fields, in order, are the keys of a catalog line."""

    __slots__ = _compared = _FIELDS + ("citations",)
    label: str
    index: int
    degree: int
    h12: int
    description: str
    mck_status: str
    citations: tuple[str, ...]

    def __init__(self, label: str, index: int, degree: int, h12: int, description: str,
                 mck_status: str, citations: tuple[str, ...] = ()):
        for f, v in (("label", label), ("description", description)):
            if not isinstance(v, str):
                raise ValueError(f"field {f!r} must be a string")
        if not (isinstance(citations, (list, tuple))
                and all(isinstance(c, str) for c in citations)):
            raise ValueError("field 'citations' must be a list of strings")
        citations = tuple(citations)  # hashable
        if mck_status not in MCK_STATUSES:
            raise ValueError(f"unknown mck_status {mck_status!r}")
        require_ints(index=index, degree=degree, h12=h12)
        if degree < 1 or h12 < 0:
            raise ValueError("degree must be >= 1 and h12 >= 0")
        if (mck_status == "trivial") != (h12 == 0):
            raise ValueError("mck_status is 'trivial' exactly when h12 = 0")
        if (mck_status == "proven") != bool(citations):
            raise ValueError("citations are carried exactly by 'proven' records")
        self._set(label, index, degree, h12, description, mck_status, citations)


def parse_catalog(text: str) -> list[FanoRecord]:
    """Parse JSON lines; every error names the catalog line it comes from."""
    records = []
    first_line: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"catalog line {number}: {exc.msg} at column {exc.colno}") from None
        except ValueError:  # an integer past Python's int/str conversion limit
            raise ValueError(f"catalog line {number}: integer with more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if not isinstance(obj, dict):
            raise ValueError(f"catalog line {number}: record is not an object")
        missing = [f for f in _FIELDS if f not in obj]
        if missing:
            raise ValueError(f"catalog line {number}: missing field {missing[0]!r}")
        try:
            rec = FanoRecord(**{f: obj[f] for f in _FIELDS}, citations=obj.get("citations", []))
        except ValueError as exc:
            raise ValueError(f"catalog line {number}: {exc}") from None
        if rec.label in first_line:
            raise ValueError(f"catalog line {number}: duplicate label {rec.label!r}"
                             f" (first on line {first_line[rec.label]})")
        first_line[rec.label] = number
        records.append(rec)
    return records


def serialize_catalog(records: list[FanoRecord]) -> str:
    return "".join(json.dumps({f: getattr(r, f) for f in r.__slots__}) + "\n"
                   for r in records)


def load_catalog(path: str | None = None) -> list[FanoRecord]:
    if path is None:
        return parse_catalog(_CATALOG_JSONL)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a decoding error has no strerror
        raise ValueError(f"cannot read catalog {path!r}: "
                         f"{getattr(exc, 'strerror', None) or exc}") from None
    return parse_catalog(text)


def catalog_get(label: str, records: list[FanoRecord] | None = None) -> FanoRecord:
    for rec in records if records is not None else load_catalog():
        if rec.label == label:
            return rec
    raise KeyError(f"no Fano threefold with label {label!r}")
