"""Regenerate bench/reference.json, the recorded answers the benchmark checks.

Usage, from the root of a checkout (takes about seven minutes):

    python3 bench/make_reference.py

Every graded-dimension vector the workloads need is computed with the ring
engine at several degrees d and stored with its provenance: whether the
vectors at those d agreed, whether the vector is Poincare symmetric, and
that the independent tensor model (``SubalgebraSpan``) gave the same
vector.  The CK/MCK counts and the adjudicated signs are checked once here
as well.

Last, every workload that takes a degree is run once, traced, at every
catalog degree and at both sizes.  The degrees whose outputs verify and
whose per-layer counts equal those at d = 2 are stored under ``degrees``;
the benchmark draws d from that list only, so the seed never changes the
work.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import workloads as wl
from run import git_commit, run_round
from tracing import Tracer, layer_metrics

# Degrees at which every vector is recomputed; dimensions must not depend on d.
DEGREES = (1, 2, 22)


def needed_pairs() -> list[tuple[int, int]]:
    pairs = set()
    for size in wl.SIZES.values():
        pairs.update((b, size["dims_m"]) for b in size["dims_b"])
        pairs.update(size["oracle"])
        pairs.add((size["adjudicate_b"], 2))
    return sorted(pairs)


def dims_entry(lib, b: int, m: int) -> dict:
    vectors = [lib.ring.TautRing(lib.ring.RingParams(d, b, m)).graded_dimensions()
               for d in DEGREES]
    vec = vectors[0]
    if any(v != vec for v in vectors):
        raise SystemExit(f"b={b} m={m}: dimensions depend on d: {vectors}")
    if vec != vec[::-1]:
        raise SystemExit(f"b={b} m={m}: {vec} is not Poincare symmetric")
    span = lib.oracle.SubalgebraSpan(lib.oracle.CohomologyModel(2, b), m)
    model = [span.dimension(c) for c in range(3 * m + 1)]
    if model != vec:
        raise SystemExit(f"b={b} m={m}: ring {vec} != tensor model {model}")
    return {"vector": vec, "same_for_d": list(DEGREES), "poincare_symmetric": True,
            "tensor_model_agrees": True}


def layer_counts(lib, workload: str, d: int, size: str, ref: dict) -> dict:
    """The per-layer counts (every metric that is not a time) of one traced round."""
    tasks = wl.TASK_LISTS[workload](lib, d, wl.SIZES[size], ref)
    failures: list[str] = []
    tracer = Tracer()
    with tracer.installed(lib):
        run_round(tasks, failures)
    if failures:
        raise SystemExit(f"{workload} at d={d}, {size} size: {failures}")
    return {name: m["value"] for name, m in layer_metrics(tracer).items() if m["unit"] != "s"}


def same_count_degrees(lib, ref: dict) -> list[int]:
    """Catalog degrees at which every workload does exactly the work it does at d = 2."""
    runs = [(w, size) for w in wl.WORKLOADS if w != "mck" for size in wl.SIZES]
    degrees = sorted({row.degree for row in lib.catalog.load_catalog()})
    counts = {}
    for d in degrees:
        t0 = perf_counter()
        counts[d] = {(w, size): layer_counts(lib, w, d, size, ref) for w, size in runs}
        print(f"counts d={d}: {perf_counter() - t0:.1f} s", file=sys.stderr)
    kept = []
    for d in degrees:
        differ = [run for run in runs if counts[d][run] != counts[2][run]]
        if differ:
            print(f"d={d} left out: per-layer counts differ from d=2 on {differ}",
                  file=sys.stderr)
        else:
            kept.append(d)
    return kept


def dump(ref: dict) -> str:
    """JSON with one line per top-level entry and per dimension vector."""
    lines = []
    for key, value in sorted(ref.items()):
        if key == "dims":
            inner = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                     for k, v in sorted(value.items())]
            lines.append(' "dims": {\n' + ",\n".join(inner) + "\n }")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    lib = wl.import_library()
    ref = {"made_by": "bench/make_reference.py", "git_commit": git_commit(), "dims": {}}
    for b, m in needed_pairs():
        t0 = perf_counter()
        ref["dims"][wl.dims_key(b, m)] = dims_entry(lib, b, m)
        print(f"dims b={b} m={m}: {perf_counter() - t0:.1f} s", file=sys.stderr)

    counts = set()
    for row in lib.catalog.load_catalog():
        if row.h12 == 0:
            continue
        ps = lib.correspond.ck_projectors(lib.ring.RingParams(row.degree, row.h12, 2))
        ck, mck = lib.correspond.verify_ck(ps), lib.correspond.verify_mck(ps)
        if not (ck.passed and mck.passed):
            raise SystemExit(f"catalog row {row.label} fails CK or MCK")
        counts.add((len(ck.checks), len(mck.entries)))
    if len(counts) != 1:
        raise SystemExit(f"catalog rows run different numbers of checks: {counts}")
    n_ck, n_mck = counts.pop()
    ref["mck"] = {"ck_checks": n_ck, "mck_entries": n_mck}

    signs = set()
    for b in sorted({size["adjudicate_b"] for size in wl.SIZES.values()}):
        report = lib.oracle.adjudicate_signs(lib.oracle.CohomologyModel(2, b))
        signs.add((report.eps2, report.eps3, report.sym_relation_verified))
    if signs != {(-1, 1, True)}:
        raise SystemExit(f"adjudicated signs differ from eps2=-1, eps3=+1: {signs}")
    ref["adjudicate"] = {"eps2": -1, "eps3": 1, "sym_relation_verified": True}

    ref["degrees"] = same_count_degrees(lib, ref)

    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(dump(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main())
