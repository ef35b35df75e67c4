"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces chosen functions of ``chowtaut`` with timing
wrappers, in the namespace where their callers look them up (a class
attribute for methods, a module global for functions), and puts the
originals back when the traced block ends.  Each wrapped call is a span;
a span's self time is its duration minus the time covered by wrapped calls
made inside it.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count(key, size):
    """Hook that adds ``size(args, result)`` to the extra counter ``key``."""
    def hook(extra, args, result):
        extra[key] += size(args, result)
    return hook


# (span name, module attribute of the library namespace, owner name inside
# that module or None for the module itself, attribute, hook or None).
# relabel is imported by name into chowtaut.correspond, so it is wrapped
# in both places under one span name.
SPANS = [
    ("ring.graded_basis", "ring", "TautRing", "graded_basis",
     _count("ring.graded_basis.monomials", lambda a, r: len(r))),
    ("ring.relator_vectors", "ring", "TautRing", "relator_vectors",
     _count("ring.relator_vectors.nonzero", lambda a, r: len(r))),
    ("ring.sym_relator", "ring", "TautRing", "sym_relator", None),
    ("ring.multiply", "ring", "TautRing", "multiply",
     _count("ring.multiply.term_pairs", lambda a, r: len(a[1].terms) * len(a[2].terms))),
    ("ring.add", "ring", "CycleClass", "__add__", None),
    ("ring.relabel", "ring", None, "relabel", None),
    ("ring.relabel", "correspond", None, "relabel", None),
    ("linalg.add", "linalg", "SparseRowBasis", "add",
     _count("linalg.add.grew", lambda a, r: int(r))),
    ("oracle.tensor_multiply", "oracle", None, "tensor_multiply",
     _count("oracle.tensor_multiply.term_pairs",
            lambda a, r: len(a[0].terms) * len(a[1].terms))),
    ("oracle.tensor_add", "oracle", "TensorClass", "__add__", None),
    ("oracle.span", "oracle", "SubalgebraSpan", "dimension",
     _count("oracle.span.basis", lambda a, r: r)),
    ("oracle.adjudicate", "oracle", None, "adjudicate_signs", None),
    ("correspond.compose", "correspond", "Correspondence", "compose", None),
    ("correspond.tensor", "correspond", "Correspondence", "tensor", None),
    ("correspond.apply", "correspond", "Correspondence", "apply", None),
    ("correspond.pushforward", "correspond", None, "pushforward_forget", None),
    ("correspond.verify_ck", "correspond", None, "verify_ck", None),
    ("correspond.verify_mck", "correspond", None, "verify_mck",
     _count("correspond.mck.entries", lambda a, r: len(r.entries))),
]


def span_owners(lib):
    """Yield (owner object, attribute, span name, hook) for every wrapped function."""
    for name, module, owner, attr, hook in SPANS:
        obj = getattr(lib, module)
        yield (obj if owner is None else getattr(obj, owner)), attr, name, hook


class Tracer:
    """Span timings and counters for one traced block."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self._child_s: list[float] = []
        self._names: list[str] = []

    def _wrap(self, fn, name, hook):
        child_s, names, extra = self._child_s, self._names, self.extra
        is_multiply = name == "ring.multiply"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_multiply and names and names[-1] == "ring.relator_vectors":
                extra["ring.relator_vectors.products"] += 1
            child_s.append(0.0)
            names.append(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                names.pop()
                self.self_s[name] += dt - child_s.pop()
                if child_s:
                    child_s[-1] += dt
                self.calls[name] += 1
            if hook is not None:
                hook(extra, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, lib):
        """Wrap every span of ``lib`` for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, hook in span_owners(lib):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _ratio(a, b):
    return a / b if b else 0.0


def _calls(span):
    return lambda t: t.calls[span]


def _self(span):
    return lambda t: t.self_s[span]


def _extra(key):
    return lambda t: t.extra[key]


# Per-layer metric name -> (unit, value from a finished Tracer).  The names
# and units match the ``per_layer`` list of BENCHMARK.json.
LAYER_METRICS = {
    "ring.graded_basis.calls": ("count", _calls("ring.graded_basis")),
    "ring.graded_basis.self_s": ("s", _self("ring.graded_basis")),
    "ring.graded_basis.monomials": ("count", _extra("ring.graded_basis.monomials")),
    "ring.relator_vectors.self_s": ("s", _self("ring.relator_vectors")),
    "ring.relator_vectors.products": ("count", _extra("ring.relator_vectors.products")),
    "ring.relator_vectors.nonzero": ("count", _extra("ring.relator_vectors.nonzero")),
    "ring.relator_vectors.useful": (
        "ratio", lambda t: _ratio(t.extra["ring.relator_vectors.nonzero"],
                                  t.extra["ring.relator_vectors.products"])),
    "ring.sym_relator.calls": ("count", _calls("ring.sym_relator")),
    "ring.sym_relator.self_s": ("s", _self("ring.sym_relator")),
    "ring.multiply.calls": ("count", _calls("ring.multiply")),
    "ring.multiply.self_s": ("s", _self("ring.multiply")),
    "ring.multiply.term_pairs": ("count", _extra("ring.multiply.term_pairs")),
    "ring.add.calls": ("count", _calls("ring.add")),
    "ring.add.self_s": ("s", _self("ring.add")),
    "ring.relabel.calls": ("count", _calls("ring.relabel")),
    "ring.relabel.self_s": ("s", _self("ring.relabel")),
    "linalg.add.calls": ("count", _calls("linalg.add")),
    "linalg.add.self_s": ("s", _self("linalg.add")),
    "linalg.add.useful": (
        "ratio", lambda t: _ratio(t.extra["linalg.add.grew"], t.calls["linalg.add"])),
    "linalg.rank": ("count", _extra("linalg.add.grew")),
    "oracle.tensor_multiply.calls": ("count", _calls("oracle.tensor_multiply")),
    "oracle.tensor_multiply.self_s": ("s", _self("oracle.tensor_multiply")),
    "oracle.tensor_multiply.term_pairs": ("count", _extra("oracle.tensor_multiply.term_pairs")),
    "oracle.tensor_add.calls": ("count", _calls("oracle.tensor_add")),
    "oracle.tensor_add.self_s": ("s", _self("oracle.tensor_add")),
    "oracle.span.self_s": ("s", _self("oracle.span")),
    "oracle.span.basis": ("count", _extra("oracle.span.basis")),
    "oracle.adjudicate.self_s": ("s", _self("oracle.adjudicate")),
    "correspond.compose.calls": ("count", _calls("correspond.compose")),
    "correspond.compose.self_s": ("s", _self("correspond.compose")),
    "correspond.tensor.calls": ("count", _calls("correspond.tensor")),
    "correspond.tensor.self_s": ("s", _self("correspond.tensor")),
    "correspond.apply.calls": ("count", _calls("correspond.apply")),
    "correspond.apply.self_s": ("s", _self("correspond.apply")),
    "correspond.pushforward.calls": ("count", _calls("correspond.pushforward")),
    "correspond.pushforward.self_s": ("s", _self("correspond.pushforward")),
    "correspond.verify_ck.self_s": ("s", _self("correspond.verify_ck")),
    "correspond.verify_mck.self_s": ("s", _self("correspond.verify_mck")),
    "correspond.mck.entries": ("count", _extra("correspond.mck.entries")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of a finished traced block, as {name: {value, unit}}."""
    return {name: {"value": value(tracer), "unit": unit}
            for name, (unit, value) in LAYER_METRICS.items()}
