import decimal
import itertools
import json
import math
import os
import sys
import time

import pytest

from chowtaut import cli
from chowtaut.cli import main
from chowtaut.correspond import CheckResult, CKReport, MCKReport
from chowtaut.exprparse import MAX_DIGITS, int_str_limit
from chowtaut.ring import RingParams, TautRing

from test_correspond import sabotaged_sets


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 19
    assert "1.22" in out


def test_list_json_round_trip(capsys):
    code, out, _ = run(capsys, "list", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 19
    # keys in FanoRecord field order, citations as a list
    assert out.splitlines(keepends=True)[0] == (
        '{"label": "4", "index": 4, "degree": 1, "h12": 0, "description": "P^3", '
        '"mck_status": "trivial", "citations": []}\n')


def test_get(capsys):
    code, out, _ = run(capsys, "get", "2.2")
    assert code == 0
    assert out == ('{"label": "2.2", "index": 2, "degree": 2, "h12": 10, '
                   '"description": "X_4 in P(1^4,2)", "mck_status": "new_in_paper", '
                   '"citations": []}\n')


def test_get_unknown_label(capsys):
    code, out, err = run(capsys, "get", "nope")
    assert code == 2 and out == ""
    assert err == '{"error": "no Fano threefold with label \'nope\'"}\n'


def test_verify_mck_unknown_label(capsys):
    code, out, err = run(capsys, "verify-mck", "--label", "nope")
    assert code == 2 and out == ""
    assert err == '{"error": "no Fano threefold with label \'nope\'"}\n'


def test_list_unreadable_catalog(capsys, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    code, out, err = run(capsys, "list", "--catalog", missing)
    assert code == 2 and out == ""
    assert missing in json.loads(err)["error"]


def test_list_non_utf8_catalog_names_the_file(capsys, tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_bytes(b"\xff\n")
    code, out, err = run(capsys, "list", "--catalog", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == (
        f"cannot read catalog {str(path)!r}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte")


def test_list_catalog_integer_past_the_digit_bound(capsys, tmp_path):
    # the CLI raises Python's int/str limit to MAX_DIGITS; one digit more names the line
    path = tmp_path / "cat.jsonl"
    path.write_text('{"label": "x", "index": 2, "degree": ' + "9" * (MAX_DIGITS + 1)
                    + ', "h12": 1, "description": "d", "mck_status": "new_in_paper"}\n',
                    encoding="utf-8")
    code, out, err = run(capsys, "list", "--catalog", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"catalog line 1: integer with more than {MAX_DIGITS} digits"


@pytest.mark.parametrize("line, message", [
    ('{"label": "x", "index": 2, "h12": 1, "description": "d", '
     '"mck_status": "new_in_paper"}', "line 2: missing field 'degree'"),
    ("[1]", "line 2: record is not an object"),
    ('{"label": "x", "index": 2, "degree": 2, "h12": 1, "description": "d", '
     '"mck_status": "new_in_paper", "citations": 5}',
     "line 2: field 'citations' must be a list of strings"),
    ('{"label": 7, "index": 2, "degree": 2, "h12": 1, "description": "d", '
     '"mck_status": "new_in_paper"}', "line 2: field 'label' must be a string"),
    ('{"label": "x", "index": 2, "degree": 2, "h12": 1, "description": ["a"], '
     '"mck_status": "new_in_paper"}', "line 2: field 'description' must be a string"),
    ('{"label": oops}', "catalog line 2: Expecting value at column 11"),
    ('{"label": "x", "index": 2, "degree": 2, "h12": 1, "description": "d", '
     '"mck_status": ["trivial"]}', "catalog line 2: unknown mck_status ['trivial']"),
    ('{"label": "x", "index": 2, "degree": 2, "h12": 0, "description": "d", '
     '"mck_status": "new_in_paper"}',
     "catalog line 2: mck_status is 'trivial' exactly when h12 = 0"),
])
def test_list_malformed_catalog_record(capsys, tmp_path, line, message):
    path = tmp_path / "cat.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "list", "--catalog", str(path))
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


def test_list_duplicate_label_names_both_lines(capsys, tmp_path):
    row = {"label": "x", "index": 2, "degree": 2, "h12": 1, "description": "d",
           "mck_status": "new_in_paper"}
    path = tmp_path / "cat.jsonl"
    path.write_text("".join(json.dumps({**row, "label": label}) + "\n"
                            for label in ("x", "y", "x")), encoding="utf-8")
    code, out, err = run(capsys, "list", "--catalog", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "catalog line 3: duplicate label 'x' (first on line 1)"


def test_internal_key_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(ps):
        raise KeyError("engine bug")

    monkeypatch.setattr(cli, "verify_ck", broken)
    with pytest.raises(KeyError):
        main(["verify-ck", "--d", "2", "--b", "1"])
    assert capsys.readouterr().err == ""


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--d", "2", "--b", "1", "--m", "2", "--json")
    assert code == 0
    assert json.loads(out) == [1, 2, 3, 5, 3, 2, 1]


def test_dims_text_prints_one_line_per_codim(capsys):
    _, out, _ = run(capsys, "dims", "--d", "2", "--b", "1", "--m", "3", "--json")
    dims = json.loads(out)
    code, out, _ = run(capsys, "dims", "--d", "2", "--b", "1", "--m", "3")
    assert code == 0
    assert out.splitlines() == [f"codim {c}: {v}" for c, v in enumerate(dims)]
    assert len(dims) == 10


def test_dims_single_codim(capsys):
    code, out, _ = run(capsys, "dims", "--d", "2", "--b", "1", "--m", "2",
                       "--codim", "3", "--json")
    assert code == 0
    assert json.loads(out) == 5


def test_dims_writes_no_files(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for name in [k for k in os.environ if k.startswith("CHOWTAUT_")]:
        monkeypatch.delenv(name)
    code, out, _ = run(capsys, "dims", "--d", "2", "--b", "1", "--m", "3", "--json")
    assert code == 0
    assert list(tmp_path.iterdir()) == []
    assert json.loads(out) == TautRing(RingParams(2, 1, 3)).graded_dimensions()


def test_verify_ck_by_label(capsys):
    code, out, _ = run(capsys, "verify-ck", "--label", "2.3")
    assert code == 0
    cert = json.loads(out)
    assert cert["passed"] and cert["params"] == {"d": 3, "b": 5, "label": "2.3"}
    assert cert["signs"] == {"eps2": -1, "eps3": 1}


def test_verify_mck_by_params(capsys):
    code, out, _ = run(capsys, "verify-mck", "--d", "2", "--b", "1")
    assert code == 0
    cert = json.loads(out)
    assert cert["passed"] and cert["involution"] is True
    assert len(cert["mck"]) == 343
    nonzero = [e for e in cert["mck"] if not e[3]]
    assert all(i + j == k for i, j, k, _ in nonzero)


def test_verify_mck_involution_reads_the_projectors(capsys, monkeypatch):
    # pi^0 scaled by 2 changes G, so the involution identities fail with CK
    monkeypatch.setattr(cli, "ck_projectors", lambda p: sabotaged_sets()[0])
    code, out, _ = run(capsys, "verify-mck", "--d", "2", "--b", "1")
    assert code == 1
    assert out.endswith('"involution": false, "passed": false}\n')


def test_verify_mck_label(capsys):
    code, out, _ = run(capsys, "verify-mck", "--label", "2.3")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_requires_params(capsys):
    code, _, err = run(capsys, "verify-ck")
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", ["verify-ck", "verify-mck"])
@pytest.mark.parametrize("extra", [["--d", "7", "--b", "1"], ["--d", "3"], ["--b", "5"]])
def test_verify_rejects_label_with_params(capsys, command, extra):
    code, out, err = run(capsys, command, "--label", "2.3", *extra)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "supply either --label or both --d and --b, not both"}


@pytest.mark.parametrize("field, bad", [("h12", 1.5), ("degree", 2.5)])
def test_verify_ck_rejects_non_integer_catalog_row(capsys, tmp_path, field, bad):
    row = {"label": "x", "index": 2, "degree": 3, "h12": 1,
           "description": "d", "mck_status": "new_in_paper", field: bad}
    path = tmp_path / "cat.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify-ck", "--label", "x", "--catalog", str(path))
    assert code == 2 and out == ""
    assert "must be an integer" in json.loads(err)["error"]


def test_oracle_compare(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--b", "1", "--m", "2", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert [row[1] for row in report["rows"]] == [1, 2, 3, 5, 3, 2, 1]


# -- certificate JSON: key order and entry shapes ------------------------------

CK_NAMES = ([f"pi^{i} o pi^{i} = pi^{i}" if i == j else f"pi^{i} o pi^{j} = 0"
             for i in range(7) for j in range(7)]
            + ["sum_i pi^i = Delta"] + [f"t(pi^{i}) = pi^{6 - i}" for i in range(7)])
HEAD = '{"engine": "%s", "params": {"d": 2, "b": 1, %s}, "signs": {"eps2": -1, "eps3": 1}, '


@pytest.mark.parametrize("command, keys", [
    ("verify-ck", ["engine", "params", "signs", "ck", "passed"]),
    ("verify-mck", ["engine", "params", "signs", "ck", "mck", "involution", "passed"]),
])
def test_verify_certificate_layout(capsys, command, keys):
    code, out, _ = run(capsys, command, "--d", "2", "--b", "1")
    assert code == 0
    cert = json.loads(out)
    assert list(cert) == keys
    assert out.startswith(HEAD % (cli.ENGINE, '"label": null') + '"ck": [')
    assert out.endswith(('"involution": true, ' if "mck" in cert else "") + '"passed": true}\n')
    assert [e["check"] for e in cert["ck"]] == CK_NAMES
    assert all(list(e) == ["check", "ok", "residual"] and e["ok"] is True
               and e["residual"] == "0" for e in cert["ck"])
    if "mck" in cert:
        assert [e[:3] for e in cert["mck"]] == [list(t) for t in
                                                itertools.product(range(7), repeat=3)]
        assert all(type(e[3]) is bool for e in cert["mck"])


@pytest.mark.parametrize("command", ["verify-ck", "verify-mck"])
def test_verify_certificate_failed_check_entry(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "verify_ck", lambda ps: CKReport((CheckResult("x", False, "h_1"),)))
    code, out, _ = run(capsys, command, "--label", "2.3")
    assert code == 1
    assert '"ck": [{"check": "x", "ok": false, "residual": "h_1"}], ' in out
    assert out.endswith('"passed": false}\n')


def test_oracle_compare_certificate_layout(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--b", "1", "--m", "2")
    assert code == 0
    assert out == (HEAD % (cli.ENGINE, '"m": 2') + '"rows": [[0, 1, 1, true], [1, 2, 2, true], '
                   '[2, 3, 3, true], [3, 5, 5, true], [4, 3, 3, true], [5, 2, 2, true], '
                   '[6, 1, 1, true]], "passed": true}\n')


@pytest.mark.parametrize("extra, tail", [
    ([], ""), (["--randomized", "2"], '"randomized_bases": 2, "stable": true, '),
], ids=["plain", "randomized"])
def test_adjudicate_certificate_layout(capsys, extra, tail):
    code, out, _ = run(capsys, "adjudicate", "--b", "1", *extra)
    assert code == 0
    assert out == ('{"b": 1, "eps2": -1, "eps3": 1, "sym_relation_verified": true, '
                   '"dims": [[0, 1], [1, 2], [2, 3], [3, 5], [4, 3], [5, 2], [6, 1]], '
                   f'"engine": "{cli.ENGINE}", "d": 2, {tail}"passed": true}}\n')


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--m", "2", "--d", "2", "--b", "10",
                       "t_{1,2}*h_1")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("argv", [
    ["dims", "--d", "2", "--b", "1", "--m", "2"],
    ["reduce", "--d", "2", "--b", "1", "--m", "2", "t_{1,2}^2"],
    ["verify-ck", "--d", "2", "--b", "1"],
    ["verify-mck", "--d", "2", "--b", "1"],
], ids=lambda argv: argv[0])
def test_signs_option_rejected(capsys, argv):
    # The adjudicated signs are the only ones with a degree map; no option selects others.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--signs", "paper"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --signs paper" in capsys.readouterr().err


def test_reduce_expression_starting_with_minus_after_double_dash(capsys):
    # without "--", argparse reads "-h_1" as the option -h
    code, out, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", "--", "-(-1)")
    assert (code, out, err) == (0, "1\n", "")
    code, out, _ = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", "--", "-h_1")
    assert (code, out) == (0, "-h_1\n")
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--d", "2", "--b", "1", "--m", "2", "-h_1"])
    assert exc.value.code == 2
    assert "argument -h/--help" in capsys.readouterr().err


def test_reduce_syntax_error(capsys):
    code, _, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", "h_1 +")
    assert code == 2
    assert "error" in json.loads(err)


def test_reduce_huge_power_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2",
                       "h_1^99999999")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize("expr", ["2^10000000", "2^1000000000", "(3/2)^10000000"] + [
    # coefficients past the bound are refused as the parser forms them
    pytest.param(expr, id=name) for name, expr in [
        ("product", "2^300000*2^300000"), ("sum", "2^332192+2^332192"),
        ("fraction-product", "(1/2)^300000*(1/2)^300000"), ("times-ten", "10^99999*10"),
        ("literal", "1" + "0" * 100000), ("chain-of-100", "*".join(["3^200000"] * 100)),
        # a unit constant term passes the pre-check; 2*C(N, 3) is what passes the bound
        ("unit-power-10^40000", "(1+h_1)^1" + "0" * 40000)]])
def test_reduce_refuses_power_past_digit_bound_quickly(capsys, expr):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", expr)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert "100000-digit bound" in json.loads(err)["error"]


def test_reduce_prints_coefficient_of_max_digits(capsys):
    code, out, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", "10^99999")
    assert code == 0 and err == ""
    assert out == "1" + "0" * 99999 + "\n"


@pytest.mark.parametrize("n, m", [(10**8, 2), (10**10000, 2), (10**10000, 100)],
                         ids=["10^8", "10^10000", "10^10000-m100"])
def test_reduce_power_with_unit_constant_term(capsys, n, m):
    with int_str_limit():
        exponent = str(n)
        want = f"1 + {n}*h_1 + {math.comb(n, 2)}*h_1^2 + {2 * math.comb(n, 3)}*o_1\n"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", str(m),
                         f"(1+h_1)^{exponent}")
    assert time.perf_counter() - t0 < 2.0
    assert code == 0 and err == ""
    assert out == want


def test_reduce_prints_exact_integers_in_full(capsys):
    # past Python's default int-to-str limit of 4300 digits; the limit is restored
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "reduce", "--d", "2", "--b", "1", "--m", "2", "2^20000")
    assert code == 0 and err == ""
    with decimal.localcontext() as ctx:
        ctx.prec = 7000
        assert out.strip() == str(decimal.Decimal(2) ** 20000)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_oracle_compare_negative_codim_rejected(capsys):
    code, out, err = run(capsys, "oracle-compare", "--b", "1", "--m", "2",
                         "--max-codim", "-1")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_reports_with_zero_checks_do_not_pass():
    assert CKReport(()).passed is False
    assert MCKReport(()).passed is False


def test_verify_with_zero_checks_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_ck", lambda ps: CKReport(()))
    code, out, _ = run(capsys, "verify-ck", "--d", "2", "--b", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False
    monkeypatch.setattr(cli, "verify_mck", lambda ps: MCKReport(()))
    code, out, _ = run(capsys, "verify-mck", "--d", "2", "--b", "1")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_adjudicate(capsys):
    code, out, _ = run(capsys, "adjudicate", "--b", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["eps2"] == -1 and rep["eps3"] == 1
    assert rep["sym_relation_verified"] is True
    assert rep["passed"] is True


def test_adjudicate_negative_randomized_rejected(capsys):
    code, _, err = run(capsys, "adjudicate", "--b", "1", "--randomized", "-1")
    assert code == 2
    assert "error" in json.loads(err)


def test_adjudicate_randomized_stable(capsys):
    code, out, _ = run(capsys, "adjudicate", "--b", "1", "--randomized", "3")
    assert code == 0
    assert json.loads(out)["stable"] is True


def test_adjudicate_randomized_compares_dims(capsys, monkeypatch):
    # The first randomized basis reports the same signs but different Y^2 dims.
    real = cli.adjudicate_signs
    calls = []

    def dims_differ_once(model):
        report = real(model)
        calls.append(model)
        if len(calls) == 2:
            return report._replace(dims=report.dims[:-1] + ((6, 2),))
        return report

    monkeypatch.setattr(cli, "adjudicate_signs", dims_differ_once)
    code, out, _ = run(capsys, "adjudicate", "--b", "1", "--randomized", "2")
    assert len(calls) == 3
    rep = json.loads(out)
    assert rep["sym_relation_verified"] is True
    assert rep["stable"] is False and rep["passed"] is False
    assert code == 1


def test_adjudicate_fails_on_signs_other_than_printed(capsys, monkeypatch):
    # a model that derived eps2 = +1 contradicts the signs every certificate prints
    real = cli.adjudicate_signs
    monkeypatch.setattr(cli, "adjudicate_signs",
                        lambda model: real(model)._replace(eps2=1))
    code, out, _ = run(capsys, "adjudicate", "--b", "1")
    rep = json.loads(out)
    assert rep["sym_relation_verified"] is True and rep["eps2"] == 1
    assert rep["passed"] is False
    assert code == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
