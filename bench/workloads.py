"""The benchmark workloads: inputs from a seed, tasks, and reference checks.

This module does not import ``chowtaut`` at import time.  :func:`setup`
imports it from the checkout's ``src`` directory and builds the inputs, so
that the time it takes is the set-up a user pays before the first answer.

The seed picks the degree d and the task order, never the work: d is drawn
from the catalog degrees that ``make_reference.py`` found to give the same
graded dimensions and the same per-layer counts on every workload (the
``degrees`` entry of ``reference.json``).  No task uses
``CohomologyModel.random_basis``, whose dense Gram matrix would make the
tensor work depend on the seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("dims", "mck", "oracle", "adjudicate")

# Workloads whose task times are scaled by the host-speed kernel (see
# hostspeed.py).  Their many small products slow down in step with the
# kernel.  adjudicate's few huge tensor products do not: over ten runs with
# every workload scaled, its raw wall_s spread 4.5% between quartiles and
# its scaled wall_s 17.8%, so it reports raw times.
HOST_SCALED = ("dims", "mck", "oracle")

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same code paths at m <= 3 and one catalog row, for the self-test.
SIZES = {
    "full": {"dims_m": 6, "dims_b": (0, 1, 2), "mck_rows": None,
             "oracle": ((1, 5), (2, 4)), "adjudicate_b": 3},
    "tiny": {"dims_m": 3, "dims_b": (0, 1, 2), "mck_rows": 1,
             "oracle": ((1, 3), (2, 2)), "adjudicate_b": 1},
}


class Mismatch(Exception):
    """A task's output differs from the recorded reference."""


class Task:
    """One unit of work: ``check(run())`` raises :class:`Mismatch` on a wrong answer."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def dims_key(b: int, m: int) -> str:
    return f"b={b},m={m}"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def import_library() -> SimpleNamespace:
    """Import chowtaut from ``SRC`` and return its modules as one namespace."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chowtaut
    from chowtaut import catalog, correspond, linalg, oracle, ring

    if Path(chowtaut.__file__).resolve().parent != (SRC / "chowtaut").resolve():
        raise ImportError(f"chowtaut was imported from {chowtaut.__file__}, not from {SRC}")
    return SimpleNamespace(catalog=catalog, correspond=correspond, linalg=linalg,
                           oracle=oracle, ring=ring)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _dims_tasks(lib, d, size, ref):
    m = size["dims_m"]
    tasks = []
    for b in size["dims_b"]:
        ring = lib.ring.TautRing(lib.ring.RingParams(d, b, m))
        want = ref["dims"][dims_key(b, m)]["vector"]

        def check(got, want=want, b=b):
            _expect(got == want, f"dims b={b} m={m} d={d}: {got} != {want}")

        tasks.append(Task(f"dims b={b} m={m} d={d}", ring.graded_dimensions, check))
    return tasks


def _mck_tasks(lib, d, size, ref):
    rows = [r for r in lib.catalog.load_catalog() if r.h12 > 0][:size["mck_rows"]]
    n_ck, n_mck = ref["mck"]["ck_checks"], ref["mck"]["mck_entries"]
    tasks = []
    for row in rows:
        p = lib.ring.RingParams(row.degree, row.h12, 2)

        def run(p=p):
            c = lib.correspond
            ps = c.ck_projectors(p)
            return c.verify_ck(ps), c.verify_mck(ps)

        def check(got, label=row.label):
            ck, mck = got
            _expect(len(ck.checks) == n_ck and ck.passed,
                    f"mck {label}: CK {sum(c.ok for c in ck.checks)}/{len(ck.checks)} passed")
            _expect(len(mck.entries) == n_mck and mck.passed,
                    f"mck {label}: MCK {sum(e.ok for e in mck.entries)}/{len(mck.entries)} ok")

        tasks.append(Task(f"mck {row.label}", run, check))
    return tasks


def _oracle_tasks(lib, d, size, ref):
    tasks = []
    for b, m in size["oracle"]:
        p = lib.ring.RingParams(d, b, m)
        model = lib.oracle.CohomologyModel(d, b)
        want = ref["dims"][dims_key(b, m)]["vector"]

        def run(p=p, model=model):
            ring = lib.ring.TautRing(p)
            span = lib.oracle.SubalgebraSpan(model, p.m)
            return [(ring.graded_dimension(c), span.dimension(c))
                    for c in range(3 * p.m + 1)]

        def check(got, want=want, b=b, m=m):
            bad = [c for c, (r, s) in enumerate(got) if r != s]
            _expect(not bad, f"oracle b={b} m={m}: ring and model differ at codims {bad}")
            _expect([r for r, _ in got] == want, f"oracle b={b} m={m}: dims != reference")

        tasks.append(Task(f"oracle b={b} m={m} d={d}", run, check))
    return tasks


def _adjudicate_tasks(lib, d, size, ref):
    b = size["adjudicate_b"]
    model = lib.oracle.CohomologyModel(d, b)
    want = ref["adjudicate"]
    want_dims = ref["dims"][dims_key(b, 2)]["vector"]

    def run():
        return lib.oracle.adjudicate_signs(model)

    def check(report):
        got = {"eps2": report.eps2, "eps3": report.eps3,
               "sym_relation_verified": report.sym_relation_verified}
        _expect(got == want, f"adjudicate b={b}: {got} != {want}")
        _expect([n for _, n in report.dims] == want_dims,
                f"adjudicate b={b}: model dims on Y^2 != reference")

    return [Task(f"adjudicate b={b} d={d}", run, check)]


# Workload -> task builder (lib, degree d, size, reference) -> tasks.  The
# mck tasks run every catalog row at its own degree and ignore d.
TASK_LISTS = {"dims": _dims_tasks, "mck": _mck_tasks, "oracle": _oracle_tasks,
              "adjudicate": _adjudicate_tasks}


def setup(workload: str, seed: int, size: str, ref: dict):
    """Import chowtaut and build the workload's tasks in seed order.

    Returns (library namespace, tasks); ``ref`` is the loaded reference.json.
    """
    lib = import_library()
    rng = random.Random(seed)
    tasks = TASK_LISTS[workload](lib, rng.choice(ref["degrees"]), SIZES[size], ref)
    rng.shuffle(tasks)
    return lib, tasks
