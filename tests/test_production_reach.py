"""Every function and method of chowtaut runs on some command, or says why not.

The commands below cover every subcommand, two bad ``reduce`` inputs (a syntax
error and a coefficient past the digit bound) and a ``reduce`` argument that
starts with a dash.  They run in-process under
``sys.setprofile``, which records the code object of every Python call.  A
function or method of ``src/chowtaut`` that no command reaches must be on
``ALLOWED`` with its reason: the tracer in bench/tracing.py wraps it, it is
the correspondence calculus the tests check the certificates against, it is
part of a report's API, or it belongs to a value's protocol (a dunder that
no command needs).  So code that only tests use has to leave the package
or be named here, and a name that leaves the package has to leave ``ALLOWED``.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import chowtaut
from chowtaut import cli

# every module but __main__, which only runs cli.main
MODULES = [importlib.import_module(f"chowtaut.{info.name}")
           for info in pkgutil.iter_modules(chowtaut.__path__) if info.name != "__main__"]

COMMANDS = [
    (["list"], 0),
    (["list", "--json"], 0),
    (["get", "2.2"], 0),
    (["dims", "--d", "2", "--b", "1", "--m", "6"], 0),
    (["dims", "--d", "2", "--b", "52", "--m", "60", "--codim", "90", "--json"], 0),
    (["verify-ck", "--label", "2.3"], 0),
    (["verify-mck", "--label", "2.4"], 0),
    (["verify-mck", "--d", "2", "--b", "0"], 0),
    (["oracle-compare", "--b", "1", "--m", "4"], 0),
    (["oracle-compare", "--b", "2", "--m", "4", "--max-codim", "3"], 0),
    (["reduce", "--d", "2", "--b", "1", "--m", "3", "(h_1 + t_{1,2})^3 - 1/2*o_3 + 2^5"], 0),
    (["reduce", "--d", "2", "--b", "1", "--m", "3", "h_1 * (o_2 +"], 2),
    (["reduce", "--d", "2", "--b", "1", "--m", "2", "2^300000*2^300000"], 2),
    (["reduce", "--d", "2", "--b", "1", "--m", "2", "--", "-h_1"], 0),
    (["adjudicate", "--b", "1", "--randomized", "1"], 0),
    (["adjudicate", "--b", "2"], 0),
]

TRACED = "bench/tracing.py wraps it, and its span reads the attribute"
BRUTE = "brute-force reference for graded_dimensions; " + TRACED
CALCULUS = "correspondence calculus the tests check verify_ck and verify_mck against"
REPORT = "report API for library callers"
PROTOCOL = "value protocol"

ALLOWED = {
    "TautRing.graded_basis": BRUTE,
    "TautRing.relator_vectors": BRUTE,
    "TautRing.sym_relator": BRUTE,
    "pushforward_forget": f"reference for the push-pull kernel, and {CALCULUS}; {TRACED}",
    "Correspondence.compose": f"{CALCULUS}; {TRACED}",
    "Correspondence.tensor": f"{CALCULUS}; {TRACED}",
    "Correspondence.apply": f"{CALCULUS}; {TRACED}",
    "Correspondence._check_same_y": f"{CALCULUS}: compose and tensor check their partner",
    "Correspondence.transpose": CALCULUS,
    "MCKEntry.exempt": REPORT,
    "MCKReport.entry": REPORT,
    "TensorClass.__add__": f"{PROTOCOL}; {TRACED}",
    "CycleClass.codim": f"{PROTOCOL}: the grading, which is_homogeneous reads only "
                        "for a class of two or more terms",
    "Monomial.codim": f"{PROTOCOL}: the grading of one term, read by CycleClass.codim",
    "CycleClass.__hash__": PROTOCOL,
    "CycleClass.__repr__": PROTOCOL,
    "TensorClass.__sub__": PROTOCOL,
    "TensorClass.__repr__": PROTOCOL,
    "Frozen.__hash__": PROTOCOL,
    "Frozen.__repr__": PROTOCOL,
    "Frozen.__setattr__": PROTOCOL,
    "Frozen.__delattr__": PROTOCOL,
}


def _codes(qualname, fn):
    """(qualname, code) for fn and each named function defined inside it."""
    code = fn.__code__
    yield qualname, code
    stack = [(qualname, code)]
    while stack:
        outer, code = stack.pop()
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = f"{outer}.<locals>.{const.co_name}"
                yield name, const
                stack.append((name, const))


def package_functions():
    """qualname -> code object for every function and method defined in the package."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)  # a cached function or a context manager's body
            if inspect.isfunction(obj):
                found.update(_codes(name, obj))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and member.__module__ == module.__name__:
                        found.update(_codes(f"{name}.{attr}", member))
    return found


def run_commands():
    """Run every command under sys.setprofile; return the ids of the code objects called.

    Code objects are told apart by identity: two methods with the same body on
    the same line of different files compare equal as code objects.
    """
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(id(frame.f_code))

    for module in MODULES:  # cold caches, so a cached function runs its body
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv, want in COMMANDS:
            sys.setprofile(profile)
            try:
                got = cli.main(argv)
            finally:
                sys.setprofile(None)
            assert got == want, (argv, got, err.getvalue())
    return called


def test_every_function_is_reached_or_allowed():
    functions = package_functions()
    called = run_commands()
    unreached = sorted(name for name, code in functions.items()
                       if id(code) not in called and name not in ALLOWED)
    assert not unreached, f"no command reaches these; move them to the tests: {unreached}"
    stale = sorted(name for name in ALLOWED
                   if name in functions and id(functions[name]) in called)
    assert not stale, f"a command reaches these; take them off ALLOWED: {stale}"


def test_every_allowed_name_exists():
    assert not sorted(set(ALLOWED) - set(package_functions()))
