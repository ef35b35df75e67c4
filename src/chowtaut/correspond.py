"""Correspondences between powers of Y inside the tautological ring.

A correspondence Y^r -> Y^s is a cycle class on Y^(r+s), with source
factors 1..r and target factors r+1..r+s.  Composition pulls both classes
to the common product, multiplies, and pushes forward by forgetting the
middle factors (Lieberman push-pull).  On this calculus we build the seven
candidate Chow-Kuenneth projectors of Y x Y and the multiplicativity check
against the small diagonal, plus the formal covering-involution
cancellation argument.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, NamedTuple

from .linalg import Frozen, Rational
from .ring import (CycleClass, Monomial, RingParams, TautRing, _monomial, accumulate,
                   check_index, relabel)


def pushforward_forget(ring: TautRing, a: CycleClass, forget: set[int]) -> CycleClass:
    """Push a class on Y^m forward along the projection forgetting the given factors.

    This is the push-pull kernel of :func:`_push_pull` against the unit,
    p_*(a) = p_*(a*1).  A monomial survives, with the same coefficient,
    exactly when every forgotten factor carries o (the integral of o is 1);
    otherwise it pushes to 0.  This is complete because a normal-form
    monomial puts no o on an index that carries h or sits in a tau pair.  So
    a forgotten factor without o holds h^k (k < 3, zero for degree reasons),
    a tau pair ((p_1)_* tau = (p_1)_* Delta - (1/d)(p_1)_*(h^0 x h^3) =
    1 - 1 = 0, validated against the tensor model in the test suite) or
    nothing (zero for degree reasons).  Distinct survivors stay distinct, so
    no terms merge.
    """
    return _push_pull(ring, forget)(a, ring.one())


def _push_pull(ring: TautRing, forget: set[int]) -> Callable[[CycleClass, CycleClass], CycleClass]:
    """The kernel a, b -> p_*(a*b), p forgetting these factors of Y^m: the one pushforward.

    The forget set is checked and the renumbering built once.  Each term
    pair is reduced with ``TautRing._reduce``, and its product monomial is
    kept only when every forgotten factor carries o; the kept factors go to
    1..m-|forget| by the increasing map, which keeps index tuples sorted and
    is injective on survivors, so the sums are those of multiply and no
    product class is built.
    """
    for t in forget:
        check_index(t, ring.p.m)
    keep = [i for i in range(1, ring.p.m + 1) if i not in forget]
    mapping = {i: n + 1 for n, i in enumerate(keep)}
    reduce = ring._reduce

    def push_pull(a: CycleClass, b: CycleClass) -> CycleClass:
        if not (a.is_homogeneous() and b.is_homogeneous()):
            raise ValueError("pushforward requires a homogeneous class")
        out: dict[Monomial, Rational] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                factor, mon = reduce(m1, m2)
                if mon is not None and forget.issubset(mon.o):
                    mon = _monomial([(mapping[i], mapping[j]) for i, j in mon.tau],
                                    [mapping[i] for i in mon.o if i not in forget],
                                    [(mapping[i], e) for i, e in mon.h])
                    accumulate(out, mon, c1 * c2 if factor == 1 else c1 * c2 * factor)
        return CycleClass._adopt(out)

    return push_pull


def _check_lives_on(a: CycleClass, m: int, what: str) -> None:
    """Raise ValueError unless every index a uses lies in 1..m."""
    allowed = set(range(1, m + 1))
    for mon in a.terms:
        if not allowed.issuperset(mon.indices()):
            raise ValueError(f"{what} must live on Y^{m}, but has the term {mon}")


class Correspondence(Frozen):
    """A cycle class on Y^(r+s) acting as a correspondence Y^r -> Y^s.

    Equal, and hashed alike, when the params, the arities and the classes are.
    """

    __slots__ = _compared = ("params", "r", "s", "cls")
    params: RingParams  # with m = r + s
    r: int
    s: int
    cls: CycleClass

    def __init__(self, params: RingParams, r: int, s: int, cls: CycleClass):
        if r < 1 or s < 1:
            raise ValueError(f"correspondence arities must be at least 1: {r} -> {s}")
        if params.m != r + s:
            raise ValueError("correspondence class must live on Y^(r+s)")
        _check_lives_on(cls, params.m, "correspondence class")
        if not cls.is_homogeneous():
            raise ValueError("correspondence class must be homogeneous")
        self._set(params, r, s, cls)

    @property
    def ring(self) -> TautRing:
        return TautRing(self.params)

    def is_zero(self) -> bool:
        return self.cls.is_zero()

    def transpose(self) -> "Correspondence":
        mapping = {i: self.s + i for i in range(1, self.r + 1)}
        mapping.update({self.r + j: j for j in range(1, self.s + 1)})
        return Correspondence(self.params, self.s, self.r,
                              relabel(self.cls, mapping, self.ring))

    def _check_same_y(self, g: "Correspondence", op: str) -> None:
        """Raise ValueError unless g has the same (d, b) and parameter class (so signs)."""
        p, q = self.params, g.params
        if type(p) is not type(q) or (p.d, p.b) != (q.d, q.b):
            raise ValueError(f"cannot {op} correspondences on different Y: {p!r} and {q!r}")

    def compose(self, g: "Correspondence") -> "Correspondence":
        """self : Y^a -> Y^b followed by g : Y^b -> Y^c (i.e. g o self)."""
        self._check_same_y(g, "compose")
        if g.r != self.s:
            raise ValueError(f"arity mismatch: cannot compose {self.s} -> {g.r}")
        a, b, c = self.r, self.s, g.s
        big = TautRing(self.params).with_m(a + b + c)
        g_cls = relabel(g.cls, {i: a + i for i in range(1, b + c + 1)}, big)
        prod = big.multiply(self.cls, g_cls)
        pushed = pushforward_forget(big, prod, set(range(a + 1, a + b + 1)))
        ring_ac = big.with_m(a + c)
        return Correspondence(ring_ac.p, a, c, pushed)

    def tensor(self, g: "Correspondence") -> "Correspondence":
        """Product correspondence Y^(r1+r2) -> Y^(s1+s2)."""
        self._check_same_y(g, "tensor")
        r, s = self.r + g.r, self.s + g.s
        big = TautRing(self.params).with_m(r + s)
        f_map = {self.r + j: r + j for j in range(1, self.s + 1)}
        g_map = {i: self.r + i for i in range(1, g.r + 1)}
        g_map.update({g.r + j: r + self.s + j for j in range(1, g.s + 1)})
        cls = big.multiply(relabel(self.cls, f_map, big), relabel(g.cls, g_map, big))
        return Correspondence(big.p, r, s, cls)

    def apply(self, x: CycleClass) -> CycleClass:
        """Action on a cycle class of Y^r: pull up, multiply, push to the target.

        Y^r is the first r factors of Y^(r+s), so x is pulled up as it is.
        """
        _check_lives_on(x, self.r, "argument of apply")
        ring = self.ring
        prod = ring.multiply(x, self.cls)
        return pushforward_forget(ring, prod, set(range(1, self.r + 1)))


def identity_correspondence(p: RingParams) -> Correspondence:
    """The diagonal of Y as a correspondence Y -> Y."""
    ring = TautRing(p).with_m(2)
    return Correspondence(ring.p, 1, 1, big_diagonal(ring, 1, 2))


def big_diagonal(ring: TautRing, i: int, j: int) -> CycleClass:
    """[Delta] on factors (i, j): sum_k (1/d) h_i^(3-k) h_j^k + tau_{i,j}."""
    d = ring.p.d
    acc = ring.tau(i, j)
    for k in range(4):
        term = ring.product([ring.h(i)] * (3 - k) + [ring.h(j)] * k)
        acc = acc + term.scale(Fraction(1, d))
    return acc


# -- Chow-Kuenneth projectors ------------------------------------------------


class ProjectorSet(Frozen):
    """Candidate projectors pi^0..pi^6 on Y x Y (pi^1 = pi^5 = 0)."""

    __slots__ = _compared = ("pi",)
    pi: tuple[Correspondence, ...]

    def __init__(self, pi: tuple[Correspondence, ...]):
        if len(pi) != 7:
            raise ValueError("expected seven projectors pi^0..pi^6")
        for f in pi:
            if not isinstance(f, Correspondence) or (f.r, f.s) != (1, 1):
                raise ValueError("each projector must be a correspondence Y -> Y")
            if f.params != pi[0].params:
                raise ValueError("all projectors must share one RingParams")
        self._set(pi)

    @property
    def params(self) -> RingParams:
        return self.pi[0].params

    def diagonal(self) -> CycleClass:
        total: dict[Monomial, Rational] = {}
        for f in self.pi:
            for mon, c in f.cls.terms.items():
                accumulate(total, mon, c)
        return CycleClass(total)


def ck_projectors(p: RingParams) -> ProjectorSet:
    """The h-power projectors pi^{2j} = (1/d) h_1^(3-j) h_2^j and pi^3 = tau_{1,2}."""
    ring = TautRing(p).with_m(2)
    d = p.d
    pi: list[Correspondence] = []
    for i in range(7):
        if i % 2 == 0:
            j = i // 2
            cls = ring.product([ring.h(1)] * (3 - j) + [ring.h(2)] * j).scale(Fraction(1, d))
        elif i == 3:
            cls = ring.tau(1, 2)
        else:
            cls = ring.zero()
        pi.append(Correspondence(ring.p, 1, 1, cls))
    return ProjectorSet(tuple(pi))


class CheckResult(NamedTuple):
    """One identity of the CK check; compares equal to the plain tuple of its fields."""

    name: str
    ok: bool
    residual: str


class CKReport(NamedTuple):
    """The checks of :func:`verify_ck`; compares equal to the plain tuple ``(checks,)``."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        """True iff at least one check ran and every check held."""
        return bool(self.checks) and all(c.ok for c in self.checks)


def verify_ck(ps: ProjectorSet) -> CKReport:
    """Check idempotency, mutual orthogonality, completeness and transpose duality.

    Each composition pi^i o pi^j is one product on Y^3 pushed forward along
    factor 2, pi^j_{1,2} * pi^i_{2,3}, which is what ``compose`` computes, taken
    by the push-pull kernel and skipped when a leg is zero.  A residual
    got - want is built only when the two sides differ term by term; equal
    sides share one zero class.
    """
    ring2 = TautRing(ps.params)
    ring3 = ring2.with_m(3)
    push_pull = _push_pull(ring3, {2})
    shifted = [relabel(f.cls, {1: 2, 2: 3}, ring3) for f in ps.pi]
    zero = ring3.zero()

    def residual(got: CycleClass, want: CycleClass) -> CycleClass:
        return zero if got.terms == want.terms else got - want

    checks: list[CheckResult] = []
    for i in range(7):
        for j in range(7):
            first = ps.pi[j].cls
            got = zero if first.is_zero() or shifted[i].is_zero() else push_pull(first, shifted[i])
            res = residual(got, ps.pi[i].cls) if i == j else got
            name = f"pi^{i} o pi^{i} = pi^{i}" if i == j else f"pi^{i} o pi^{j} = 0"
            checks.append(CheckResult(name, res.is_zero(), str(res)))
    res = residual(ps.diagonal(), big_diagonal(ring2, 1, 2))
    checks.append(CheckResult("sum_i pi^i = Delta", res.is_zero(), str(res)))
    for i in range(7):
        res = residual(relabel(ps.pi[i].cls, {1: 2, 2: 1}, ring2), ps.pi[6 - i].cls)
        checks.append(CheckResult(f"t(pi^{i}) = pi^{6 - i}", res.is_zero(), str(res)))
    return CKReport(tuple(checks))


# -- multiplicativity --------------------------------------------------------


def small_diagonal(ring: TautRing) -> CycleClass:
    """[Delta^sm] on Y^3, represented as Delta_{1,3} * Delta_{2,3}."""
    if ring.p.m != 3:
        raise ValueError("the small diagonal lives on Y^3")
    return ring.multiply(big_diagonal(ring, 1, 3), big_diagonal(ring, 2, 3))


class MCKEntry(NamedTuple):
    """pi^k o Delta^sm o (pi^i x pi^j); compares equal to the plain tuple of its fields."""

    i: int
    j: int
    k: int
    value: CycleClass

    @property
    def exempt(self) -> bool:
        return self.i + self.j == self.k

    @property
    def ok(self) -> bool:
        """Exempt (i + j = k) or zero: the one rule that MCKReport.passed applies."""
        return self.i + self.j == self.k or not self.value.terms


class MCKReport(NamedTuple):
    """The 343 entries of :func:`verify_mck`; compares equal to the plain tuple ``(entries,)``."""

    entries: tuple[MCKEntry, ...]

    @property
    def passed(self) -> bool:
        """True iff at least one entry was evaluated and every entry is ok."""
        return bool(self.entries) and all(map(MCKEntry.ok.fget, self.entries))

    def entry(self, i: int, j: int, k: int) -> MCKEntry:
        if not all(0 <= x <= 6 for x in (i, j, k)):
            raise ValueError(f"MCK entry indices must lie in 0..6, got ({i}, {j}, {k})")
        return self.entries[49 * i + 7 * j + k]


def verify_mck(ps: ProjectorSet) -> MCKReport:
    """Evaluate pi^k o Delta^sm o (pi^i x pi^j) for all 343 triples.

    By the projection formula along the small diagonal, entry (i, j, k) is
    the push forward forgetting factor 1 of the product on Y^4

        t(pi^i)_{1,2} * t(pi^j)_{1,3} * pi^k_{1,4},

    which equals (t(pi^i) x t(pi^j) x pi^k)_* Delta^sm.  The transposes are
    the relabeling that swaps factors 1 and 2; the third leg goes through the
    push-pull kernel.  A product with a zero leg, such as a first pair that
    multiplies to zero, is zero with no further product (0 * x = 0 and
    p_*(0) = 0).  Multiplicativity holds iff the entry vanishes whenever
    i + j != k; entries with i + j = k are reported but not asserted.
    """
    ring4 = TautRing(ps.params).with_m(4)
    firsts = [relabel(f.cls, {1: 2, 2: 1}, ring4) for f in ps.pi]
    seconds = [relabel(f, {2: 3}, ring4) for f in firsts]
    thirds = [relabel(f.cls, {2: 4}, ring4) for f in ps.pi]
    push_pull = _push_pull(ring4, {1})
    zero = ring4.zero()
    entries: list[MCKEntry] = []
    for i, j in itertools.product(range(7), repeat=2):
        pair = (zero if firsts[i].is_zero() or seconds[j].is_zero()
                else ring4.multiply(firsts[i], seconds[j]))
        for k in range(7):
            value = (zero if pair.is_zero() or thirds[k].is_zero()
                     else push_pull(pair, thirds[k]))
            entries.append(tuple.__new__(MCKEntry, (i, j, k, value)))
    return MCKReport(tuple(entries))


# -- covering-involution words ------------------------------------------------

# A symbol (g1, g2, g3) stands for (g1 x g2 x g3)_* Delta^sm with g in
# {id, iota}; True marks iota.  Reparametrizing the small diagonal gives
# (g1, g2, g3) ~ (iota g1, iota g2, iota g3); for mixed symbols this merge
# is built into the canonical form, while for the two pure symbols it is
# exactly the identification (iota,iota,iota)_* Delta^sm = Delta^sm, kept
# behind a flag so its effect can be isolated.

Symbol = tuple[bool, bool, bool]


def _canonical(sym: Symbol, identify_triple: bool) -> Symbol:
    comp = tuple(not g for g in sym)
    if len(set(sym)) == 1:  # pure: (id,id,id) or (iota,iota,iota)
        return (False, False, False) if identify_triple else sym
    return min(sym, comp)  # type: ignore[return-value]


def involution_expansion(sign: int = -1, identify_triple: bool = True) -> dict[Symbol, Fraction]:
    """Expand (1/8)(Delta + sign*G) o Delta^sm o ((Delta + sign*G) x (Delta + sign*G)).

    G is the graph of the covering involution; sign=-1 is the projector onto
    the anti-invariant motive.  Lieberman's lemma turns the expansion into
    the eight signed symbols (g1, g2, g3) * Delta^sm, summed here in canonical
    form; the empty dict is the zero word.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    word: dict[Symbol, Fraction] = {}
    for sym in itertools.product((False, True), repeat=3):
        accumulate(word, _canonical(sym, identify_triple), Fraction(sign ** sum(sym), 8))
    return word


def involution_check() -> bool:
    """The anti-invariant part composed through the small diagonal vanishes."""
    return not involution_expansion(sign=-1, identify_triple=True)
