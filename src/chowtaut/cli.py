"""Command line interface.

Subcommands: list, get, dims, verify-ck, verify-mck, oracle-compare,
reduce, adjudicate.  Verification commands emit a JSON certificate, built
here from the library's reports, on stdout and exit 1 when a check fails;
bad input produces a machine-readable JSON error on stderr (exit 2).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .catalog import FanoRecord, catalog_get, load_catalog, serialize_catalog
from .correspond import ProjectorSet, ck_projectors, involution_check, verify_ck, verify_mck
from .exprparse import int_str_limit, parse_expr
from .oracle import CohomologyModel, SubalgebraSpan, adjudicate_signs
from .ring import RingParams, TautRing, symplectic_invariant_counts

ENGINE = f"chowtaut {__version__}"
# the adjudicated signs every certificate prints
SIGNS = {"eps2": RingParams.eps2, "eps3": RingParams.eps3}


class CliError(Exception):
    pass


def _record(label: str, catalog: str | None) -> FanoRecord:
    """The catalog row with this label; an unknown label is an input error."""
    try:
        return catalog_get(label, load_catalog(catalog))
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _params_from_args(args) -> tuple[int, int, str | None]:
    """Resolve (d, b) from --label or from --d/--b."""
    if args.label is not None:
        if args.d is not None or args.b is not None:
            raise CliError("supply either --label or both --d and --b, not both")
        rec = _record(args.label, args.catalog)
        return rec.degree, rec.h12, rec.label
    if args.d is None or args.b is None:
        raise CliError("supply either --label or both --d and --b")
    return args.d, args.b, None


def _emit(cert: dict, passed: bool) -> int:
    """Print a certificate with its verdict as the last key; exit 0 iff it passed."""
    cert["passed"] = passed
    print(json.dumps(cert))
    return 0 if passed else 1


def cmd_list(args) -> int:
    records = load_catalog(args.catalog)
    if args.json:
        print(serialize_catalog(records), end="")
    else:
        for r in records:
            cite = f" [{', '.join(r.citations)}]" if r.citations else ""
            print(f"{r.label:7s} index={r.index} degree={r.degree:2d} "
                  f"h12={r.h12:2d}  {r.mck_status}{cite}  {r.description}")
    return 0


def cmd_get(args) -> int:
    print(serialize_catalog([_record(args.label, args.catalog)]), end="")
    return 0


def cmd_dims(args) -> int:
    ring = TautRing(RingParams(args.d, args.b, args.m))
    if args.codim is not None:
        dim = ring.graded_dimension(args.codim)
        print(json.dumps(dim) if args.json else f"codim {args.codim}: {dim}")
        return 0
    dims = ring.graded_dimensions()
    if args.json:
        print(json.dumps(dims))
    else:
        for c, v in enumerate(dims):
            print(f"codim {c}: {v}")
    return 0


def _ck_certificate(args) -> tuple[ProjectorSet, dict, bool]:
    """The CK projectors, the CK certificate without its verdict, and the verdict."""
    d, b, label = _params_from_args(args)
    ps = ck_projectors(RingParams(d, b, 2))
    report = verify_ck(ps)
    cert = {"engine": ENGINE, "params": {"d": d, "b": b, "label": label}, "signs": SIGNS,
            "ck": [{"check": c.name, "ok": c.ok, "residual": c.residual}
                   for c in report.checks]}
    return ps, cert, report.passed


def cmd_verify_ck(args) -> int:
    _, cert, passed = _ck_certificate(args)
    return _emit(cert, passed)


def cmd_verify_mck(args) -> int:
    ps, cert, ck_passed = _ck_certificate(args)
    mck = verify_mck(ps)
    cert["mck"] = [[e.i, e.j, e.k, e.value.is_zero()] for e in mck.entries]
    cert["involution"] = involution_check(ps)
    return _emit(cert, ck_passed and mck.passed and cert["involution"])


def cmd_oracle_compare(args) -> int:
    if args.max_codim is not None and args.max_codim < 0:
        raise CliError("--max-codim must be non-negative")
    p = RingParams(args.d, args.b, args.m)
    ring, span = TautRing(p), SubalgebraSpan(CohomologyModel(p.d, p.b), p.m)
    max_c = 3 * p.m if args.max_codim is None else min(args.max_codim, 3 * p.m)
    dims = [(ring.graded_dimension(c), span.dimension(c)) for c in range(max_c + 1)]
    rows = [[c, g, n, g == n] for c, (g, n) in enumerate(dims)]
    # r(s) of each block the span computed, next to I_b(s/2), the closed form's count
    invariants = symplectic_invariant_counts(p.b, max(span.ranks) // 2)
    cert = {"engine": ENGINE, "params": {"d": p.d, "b": p.b, "m": p.m},
            "signs": SIGNS, "rows": rows,
            "ranks": [[s, r, invariants[s // 2]] for s, r in sorted(span.ranks.items())]}
    return _emit(cert, bool(rows) and all(row[3] for row in rows))


def cmd_reduce(args) -> int:
    print(parse_expr(args.expr, TautRing(RingParams(args.d, args.b, args.m))))
    return 0


def cmd_adjudicate(args) -> int:
    if args.randomized < 0:
        raise CliError("--randomized must be non-negative")
    report = adjudicate_signs(CohomologyModel(args.d, args.b))
    cert = {"b": report.b, "eps2": report.eps2, "eps3": report.eps3,
            "sym_relation_verified": report.sym_relation_verified,
            "dims": [list(pair) for pair in report.dims], "engine": ENGINE, "d": args.d}
    # the model must derive the signs every other certificate prints
    passed = (report.sym_relation_verified
              and {"eps2": report.eps2, "eps3": report.eps3} == SIGNS)
    if args.randomized:
        rng = random.Random(args.seed)
        stable = [adjudicate_signs(CohomologyModel.random_basis(args.d, args.b, rng)) == report
                  for _ in range(args.randomized)]
        cert["randomized_bases"] = args.randomized
        cert["stable"] = all(stable)
        passed = passed and cert["stable"]
    return _emit(cert, passed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowtaut",
        description="Exact tautological-ring engine for Picard-rank-1 Fano threefolds.",
    )
    parser.add_argument("--version", action="version", version=ENGINE)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", help="list the Fano catalog")
    sp.add_argument("--catalog", help="path to an external catalog (JSON lines)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("get", help="print one catalog record as JSON")
    sp.add_argument("label")
    sp.add_argument("--catalog")
    sp.set_defaults(func=cmd_get)

    sp = sub.add_parser("dims", help="graded dimensions of R*(Y^m)")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--codim", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_dims)

    for name, fn in (("verify-ck", cmd_verify_ck), ("verify-mck", cmd_verify_mck)):
        sp = sub.add_parser(name, help=f"{name} certificate for one parameter pair")
        sp.add_argument("--label")
        sp.add_argument("--d", type=int)
        sp.add_argument("--b", type=int)
        sp.add_argument("--catalog")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("oracle-compare",
                        help="compare presentation dimensions with the tensor model")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--max-codim", type=int)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("reduce", help="normalize a cycle expression")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("adjudicate", help="adjudicate sign conventions in the model")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--randomized", type=int, default=0,
                    help="re-run with N randomized odd bases and check stability")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_adjudicate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with int_str_limit():  # exact integers print in full up to MAX_DIGITS digits
            return args.func(args)
    except (CliError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
