"""Exact graded algebra of powers of a degree-d Fano threefold.

The ring R*(Y^m) is presented by generators h_i (codim 1), o_i (codim 3)
and tau_{i,j} (codim 3, i != j), modulo the rewrite rules

    o_i*o_i -> 0          h_i*o_i -> 0        h_i^3 -> d*o_i
    tau_{i,j}*o_i -> 0    tau_{i,j}*h_i -> 0
    tau_{i,j}*tau_{i,j} -> eps2 * 2b * o_i*o_j
    tau_{i,j}*tau_{i,k} -> eps3 * tau_{j,k}*o_i     (j != k)

plus, whenever m >= 2b+2, the vanishing of the symmetrized tau products
(see :meth:`TautRing.sym_relator`).  Every coefficient is an int, or a
Fraction where a denominator remains, and never a float: each input goes
through :func:`chowtaut.linalg.exact`.

The signs eps2 = -1, eps3 = +1 (plain unsigned symmetrization) are constants
on :class:`RingParams`, adjudicated by the tensor model in :mod:`chowtaut.oracle`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, ClassVar, Iterable, NamedTuple, Sequence

from .linalg import Frozen, Rational, exact, require_ints

# A raw generator is one of ('h', i), ('o', i), ('tau', i, j).
Gen = tuple


class RingParams(Frozen):
    """Numerical data fixing the ring R*(Y^m).

    d is the degree (integral of h^3 over Y), b is half the dimension of
    the odd cohomology, m the power of Y.  The signs are class constants,
    not fields: eps2 = -1 in the tau^2 relation and eps3 = +1 in the
    shared-index relation, as :func:`chowtaut.oracle.adjudicate_signs` derives.
    """

    __slots__ = _compared = ("d", "b", "m")
    d: int
    b: int
    m: int
    eps2: ClassVar[int] = -1
    eps3: ClassVar[int] = 1

    def __init__(self, d: int, b: int, m: int):
        require_ints(d=d, b=b, m=m)
        if d < 1:
            raise ValueError("d must be a positive integer")
        if b < 0:
            raise ValueError("b must be non-negative")
        if m < 1:
            raise ValueError("m must be a positive integer")
        self._set(d, b, m)


class Monomial(NamedTuple):
    """A normal-form monomial; its tuple order is the canonical order of monomials.

    tau: sorted tuple of (i, j) pairs with i < j, forming a partial matching;
    o: sorted tuple of indices carrying the point class;
    h: sorted tuple of (index, exponent) with exponent in {1, 2}.
    An index appearing in tau carries no h power and no o flag.
    A Monomial compares equal to the plain tuple of its fields.
    """

    tau: tuple[tuple[int, int], ...] = ()
    o: tuple[int, ...] = ()
    h: tuple[tuple[int, int], ...] = ()

    @property
    def codim(self) -> int:
        return sum(e for _, e in self.h) + 3 * len(self.o) + 3 * len(self.tau)

    def indices(self) -> list[int]:
        """Every factor index used, once per occurrence (h, then o, then tau)."""
        return [i for i, _ in self.h] + list(self.o) + [x for pr in self.tau for x in pr]

    def __str__(self) -> str:
        if not (self.h or self.o or self.tau):
            return "1"
        parts = []
        for i, e in self.h:
            parts.append(f"h_{i}" if e == 1 else f"h_{i}^{e}")
        parts.extend(f"o_{i}" for i in self.o)
        parts.extend(f"t_{{{i},{j}}}" for i, j in self.tau)
        return "*".join(parts)


ONE = Monomial()


def _monomial(tau: Iterable, o: Iterable, h: Iterable) -> Monomial:
    """The Monomial with these tau pairs, o indices and (index, exponent) pairs, each sorted."""
    return tuple.__new__(Monomial, (tuple(sorted(tau)), tuple(sorted(o)), tuple(sorted(h))))


class CycleClass:
    """A formal rational combination of normal-form monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Rational] | None = None):
        self.terms: dict[Monomial, Rational] = {}
        if terms:
            for mon, c in terms.items():
                c = exact(c)
                if c:
                    self.terms[mon] = c

    @classmethod
    def _adopt(cls, terms: dict[Monomial, Rational]) -> "CycleClass":
        """Take (not copy) a dict of nonzero int or Fraction coefficients; Fractions go through exact."""
        for mon, c in terms.items():
            if type(c) is not int:
                terms[mon] = exact(c)
        new = object.__new__(cls)
        new.terms = terms
        return new

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def codim(self):
        """Common codimension, None for the zero class, 'inhomogeneous' for mixed sums."""
        cods = {mon.codim for mon in self.terms}
        if not cods:
            return None
        if len(cods) > 1:
            return "inhomogeneous"
        return cods.pop()

    def is_homogeneous(self) -> bool:
        return len(self.terms) <= 1 or self.codim != "inhomogeneous"

    def coefficient(self, mon: Monomial) -> Rational:
        return self.terms.get(mon, 0)

    def __add__(self, other: "CycleClass") -> "CycleClass":
        out = dict(self.terms)
        for mon, c in other.terms.items():
            accumulate(out, mon, c)
        return CycleClass._adopt(out)

    def __sub__(self, other: "CycleClass") -> "CycleClass":
        return self + other.scale(-1)

    def __neg__(self) -> "CycleClass":
        return self.scale(-1)

    def scale(self, q: Rational) -> "CycleClass":
        q = exact(q)
        if not q:
            return CycleClass()
        return CycleClass._adopt({mon: c * q for mon, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, CycleClass) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for n, (mon, c) in enumerate(sorted(self.terms.items())):
            neg = c < 0
            a = -c if neg else c
            if mon == ONE:
                body = str(a)
            elif a == 1:
                body = str(mon)
            else:
                body = f"{a}*{mon}"
            if n == 0:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"CycleClass({self})"


def accumulate(out: dict, key, c: Rational) -> None:
    """Add c*key into a sparse term dict in place, dropping a coefficient that cancels.

    The one add-and-drop rule for every exact sum: cycle classes and tensor
    classes both accumulate through it.  A key not yet in the dict stores c
    itself, or nothing when c == 0; a present key takes the sum and is
    deleted when it cancels.
    """
    s = out.get(key)
    if s is None:
        if c:
            out[key] = c
        return
    s += c
    if s:
        out[key] = s
    else:
        del out[key]


def _pair(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError(f"tau requires two distinct indices, got ({i},{j})")
    return (i, j) if i < j else (j, i)


def check_index(i: int, m: int) -> None:
    """The factor-index rule on Y^m, for the ring and the tensor model alike."""
    if not 1 <= i <= m:
        raise ValueError(f"factor index {i} out of range 1..{m}")


def check_codim(c: int, m: int) -> None:
    """The codimension rule on Y^m, for the ring and the tensor model alike."""
    if not 0 <= c <= 3 * m:
        raise ValueError(f"codimension {c} out of range 0..{3 * m}")


class TautRing:
    """The ring R*(Y^m) for fixed parameters, with all core operations."""

    def __init__(self, p: RingParams):
        self.p = p

    # -- constructors -------------------------------------------------

    def zero(self) -> CycleClass:
        return CycleClass()

    def one(self) -> CycleClass:
        return CycleClass({ONE: 1})

    def scalar(self, q: Rational) -> CycleClass:
        return CycleClass({ONE: exact(q)})

    def h(self, i: int) -> CycleClass:
        check_index(i, self.p.m)
        return CycleClass({Monomial(h=((i, 1),)): 1})

    def o(self, i: int) -> CycleClass:
        check_index(i, self.p.m)
        return CycleClass({Monomial(o=(i,)): 1})

    def tau(self, i: int, j: int) -> CycleClass:
        check_index(i, self.p.m)
        check_index(j, self.p.m)
        return CycleClass({Monomial(tau=(_pair(i, j),)): 1})

    def with_m(self, m: int) -> "TautRing":
        return TautRing(type(self.p)(self.p.d, self.p.b, m))

    # -- normal form ---------------------------------------------------

    def _reduce(self, m1: Monomial, m2: Monomial) -> tuple[int, Monomial | None]:
        """Normal form of the product of two normal-form monomials: (coefficient factor, monomial).

        The partial matching (mate[i] == j iff mate[j] == i) starts as m1's
        tau pairs, and each tau_{i,j} of m2 is inserted into it.  If i and j
        are matched to each other, the pair squares away to eps2*2b*o_i*o_j.
        Otherwise each end already matched, say i to a, takes one shared-index
        rewrite tau_{a,i}*tau_{i,j} -> eps3*tau_{a,j}*o_i: i gets o and the new
        pair moves to a.  h exponents add, and h^3 becomes d*o.  No rule takes
        an o flag away, so the product is 0 exactly when the factor is, or an
        index is used twice across h, the o flags and the matching.
        """
        p = self.p
        coeff = 1
        mate: dict[int, int] = {}
        for i, j in m1.tau:
            mate[i], mate[j] = j, i
        o = [*m1.o, *m2.o]
        for i, j in m2.tau:
            if mate.get(i) == j:
                del mate[i], mate[j]
                coeff *= p.eps2 * 2 * p.b
                o += (i, j)
                continue
            pair = [i, j]
            for n, end in enumerate(pair):
                a = mate.pop(end, None)
                if a is not None:
                    del mate[a]
                    coeff *= p.eps3
                    o.append(end)
                    pair[n] = a
            i, j = pair
            mate[i], mate[j] = j, i
        h = dict(m1.h)
        for i, e in m2.h:
            e += h.pop(i, 0)
            if e >= 3:
                coeff *= p.d
                o.append(i)
                e -= 3
            if e:
                h[i] = e
        used = [*h, *o, *mate]
        if not coeff or len(set(used)) < len(used):
            return 0, None
        return coeff, _monomial([(i, j) for i, j in mate.items() if i < j], o, h.items())

    # -- ring operations -----------------------------------------------

    def multiply(self, a: CycleClass, b: CycleClass) -> CycleClass:
        out: dict[Monomial, Rational] = {}
        reduce = self._reduce
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                factor, mon = reduce(m1, m2)
                if mon is not None:
                    accumulate(out, mon, c1 * c2 if factor == 1 else c1 * c2 * factor)
        return CycleClass._adopt(out)

    def product(self, classes: Sequence[CycleClass]) -> CycleClass:
        """The product of the classes, folded from the first: n factors take n - 1 multiplies."""
        if not classes:
            return self.one()
        acc = classes[0]
        for x in classes[1:]:
            acc = self.multiply(acc, x)
        return acc

    def power(self, a: CycleClass, n: int) -> CycleClass:
        """a^n = sum over k of C(n,k) * c^(n-k) * x^k, where c is a's constant term, x = a - c.

        The ring is commutative and x has no constant term, so x^k vanishes past
        codim 3m: at most min(n, 3m) products, whatever the length of n.
        """
        if n < 0:
            raise ValueError("negative powers are not defined")
        c = a.coefficient(ONE)
        x = a - self.scalar(c) if c else a
        acc, xk = self.zero(), self.one()
        for k in range(min(n, 3 * self.p.m) + 1):
            if k:
                xk = self.multiply(xk, x) if k > 1 else x
            if (c or k == n) and not xk.is_zero():  # spares C(n,k) where x^k = 0
                acc = acc + xk.scale(math.comb(n, k) * c ** (n - k))
        return acc

    # -- symmetrization relators ----------------------------------------

    def sym_relator(self, indices: Sequence[int]) -> CycleClass:
        """The symmetrized tau product over a set of 2b+2 distinct indices.

        Equals the sum over all permutations sigma in S_{2b+2} of
        prod_i tau_{sigma(2i-1),sigma(2i)}, i.e. 2^(b+1) (b+1)! times the
        sum over perfect matchings.  This class is declared to vanish in
        the quotient.

        Reference (``TestSymRelator``, tests/test_ring.py); bench/tracing.py wraps it.
        """
        n = 2 * self.p.b + 2
        S = sorted(set(indices))
        if len(S) != n or len(S) != len(list(indices)):
            raise ValueError(f"need {n} distinct indices, got {list(indices)}")
        if self.p.m < n:
            raise ValueError(f"m={self.p.m} too small for a relator on {n} indices")
        for i in S:
            check_index(i, self.p.m)
        mult = 2 ** (self.p.b + 1) * math.factorial(self.p.b + 1)
        # A perfect matching of S is n/2 disjoint sorted pairs, listed in order;
        # distinct matchings are distinct monomials, so no two terms merge.
        return CycleClass({
            Monomial(tau=matching): mult
            for matching in itertools.combinations(itertools.combinations(S, 2), n // 2)
            if len({i for pair in matching for i in pair}) == n
        })

    # -- graded pieces ---------------------------------------------------

    def graded_basis(self, c: int) -> list[Monomial]:
        """All normal-form monomials of codimension c, in canonical order.

        A monomial is a perfect matching of its even-size tau support times a
        weight in {0,1,2,3} on each other factor (3 encodes the o flag).  With
        :meth:`relator_vectors` it is the reference of ``brute_dimension``
        (tests/test_dims_factored.py); bench/tracing.py wraps it.
        """
        m = self.p.m
        check_codim(c, m)
        out: list[Monomial] = []
        for q in range(min(m // 2, c // 3) + 1):
            weights = [ws for ws in itertools.product(range(4), repeat=m - 2 * q)
                       if sum(ws) == c - 3 * q]
            for support in itertools.combinations(range(1, m + 1), 2 * q):
                rest = [i for i in range(1, m + 1) if i not in support]
                parts = [(tuple((i, w) for i, w in zip(rest, ws) if w in (1, 2)),
                          tuple(i for i, w in zip(rest, ws) if w == 3)) for ws in weights]
                for matching in itertools.combinations(itertools.combinations(support, 2), q):
                    if len({i for pair in matching for i in pair}) == 2 * q:
                        out.extend(Monomial(h=h, o=o, tau=matching) for h, o in parts)
        out.sort()
        return out

    def relator_vectors(self, c: int) -> list[dict[Monomial, Rational]]:
        """All nf(relator * monomial) of codimension c, as coefficient dicts.

        Reference of ``brute_dimension``, as :meth:`graded_basis`; bench/tracing.py wraps it.
        """
        rc = 3 * (self.p.b + 1)
        if c < rc:
            return []
        vecs = []
        lower = self.graded_basis(c - rc)
        for S in itertools.combinations(range(1, self.p.m + 1), 2 * self.p.b + 2):
            rel = self.sym_relator(S)
            for mu in lower:
                v = self.multiply(rel, CycleClass({mu: 1}))
                if not v.is_zero():
                    vecs.append(v.terms)
        return vecs

    def graded_dimension(self, c: int) -> int:
        """Dimension of the codim-c piece of the quotient by the relator ideal.

        The coefficient of x^c in the Hilbert series of :meth:`graded_dimensions`,
        taken term by term with :func:`slot_block_sum`, so only I_b(p) for
        3p <= c is counted.
        """
        m = self.p.m
        check_codim(c, m)
        invariants = symplectic_invariant_counts(self.p.b, min(m // 2, c // 3))
        return slot_block_sum(m, c, invariants.__getitem__)

    def graded_dimensions(self) -> list[int]:
        """Dimensions of R^c(Y^m) for c = 0..3m, from the Hilbert series

            sum_c dim R^c x^c = sum_p C(m,2p) * I_b(p) * x^(3p) * (1+x+x^2+x^3)^(m-2p),

        where I_b(p) = dim (V^{(x)2p})^{Sp(2b)} for V the standard
        representation (:func:`symplectic_invariant_counts`).  The h- and
        o-part of a monomial lives on the factors outside its tau support,
        each carrying one of 1, h, h^2, o; a tau support T with |T| = 2p
        contributes the matching tensors on T modulo the relators, which by
        the first and second fundamental theorems of invariant theory for
        Sp(2b) (De Concini-Procesi 1976) is the invariant space above.
        The dimensions depend on b but not on d.

        This holds only for the adjudicated sign eps2 = -1: with eps2 = +1
        the relator ideal is not the kernel to cohomology (it already
        contains the point class at b=1, m=4).  Checked against the brute-force
        quotient, len(graded_basis(c)) - rank(relator_vectors(c)), for m <= 5, b <= 3,
        against the tensor model for b in {1, 2}, m <= 5, at (1, 6), (3, 4) (tests)
        and (1, 7), (3, 6), (3, 7), (2, 8), (2, 9), (1, 10) (CI), and once against
        an exact h-free elimination for b <= 3, m <= 6 and at (0, 7),
        (1, 7), (1, 8), (2, 7), (2, 8), (3, 8).  Beyond these ranges the
        result rests on the cited theorem.

        The whole vector is expanded by Horner's rule in F = 1+x+x^2+x^3: one running
        polynomial is multiplied by F m times, and C(m,n) I_b(n/2) x^(3n/2) joins it
        after the n-th product, n even, to take the remaining F^(m-n).  No power of F
        is kept; :meth:`graded_dimension` reads one coefficient in closed form instead.
        """
        m = self.p.m
        invariants = symplectic_invariant_counts(self.p.b, m // 2)
        dims = [1]  # C(m,0) * I_b(0)
        for n in range(1, m + 1):
            dims = [a + b for a, b in zip(dims + [0], [0] + dims)]  # times 1+x
            dims = [a + b for a, b in zip(dims + [0, 0], [0, 0] + dims)]  # times 1+x^2
            if n % 2 == 0:
                dims[3 * n // 2] += math.comb(m, n) * invariants[n // 2]
        return dims


# -- relabeling across powers of Y ----------------------------------------


def relabel(a: CycleClass, mapping: dict[int, int], target: TautRing) -> CycleClass:
    """Rename factor indices; mapping must be injective on each monomial's indices.

    Different monomials may land on the same target (their terms merge).
    """
    out: dict[Monomial, Rational] = {}
    get = mapping.get
    for mon, c in a.terms.items():
        idx = [get(i, i) for i in mon.indices()]
        if len(set(idx)) != len(idx):
            raise ValueError("relabeling is not injective on the used indices")
        for i in idx:
            check_index(i, target.p.m)
        new = _monomial([_pair(get(i, i), get(j, j)) for i, j in mon.tau],
                        [get(i, i) for i in mon.o],
                        [(get(i, i), e) for i, e in mon.h])
        accumulate(out, new, c)
    return CycleClass._adopt(out)


# -- combinatorial helpers -------------------------------------------------


def slot_weight_count(n: int, k: int) -> int:
    """[x^k](1+x+x^2+x^3)^n: the ways to give n factors weights in {0,1,2,3} summing to k.

    Inclusion-exclusion on (1-x^4)^n / (1-x)^n:
    sum_j (-1)^j C(n,j) C(k-4j+n-1, n-1).  It is 0 outside 0..3n.
    """
    if not 0 <= k <= 3 * n:
        return 0
    if n == 0:
        return 1
    total, sign = 0, 1
    for j in range(k // 4 + 1):
        total += sign * math.comb(n, j) * math.comb(k - 4 * j + n - 1, n - 1)
        sign = -sign
    return total


def slot_block_sum(m: int, c: int, count: Callable[[int], int]) -> int:
    """sum_q C(m,2q) * [x^(c-3q)](1+x+x^2+x^3)^(m-2q) * count(q), over q <= m/2, c/3.

    The codim-c sum over slot blocks with 2q factors of degree 3 that both sides
    of oracle-compare take; count(q) is called only where the weight is nonzero.
    """
    total = 0
    for q in range(min(m // 2, c // 3) + 1):
        weight = math.comb(m, 2 * q) * slot_weight_count(m - 2 * q, c - 3 * q)
        if weight:
            total += weight * count(q)
    return total


def symplectic_invariant_counts(b: int, pmax: int) -> list[int]:
    """I_b(p) for p = 0..pmax: perfect matchings of 2p points with no (b+1)-crossing.

    Equivalently dim (V^{(x)2p})^{Sp(2b)}, or the number of oscillating
    tableaux of length 2p from the empty partition back to it with at most
    b rows (Sundaram 1986; Chen-Deng-Du-Stanley-Yan, Trans. AMS 2007).
    Counted by walking partitions one box at a time; a walk that must return
    to the empty partition by step 2*pmax never holds more boxes than steps
    remain, so it has at most min(b, pmax) rows.

    When b >= pmax no walk is needed: p <= b arcs hold no (b+1)-crossing, so
    every one of the (2p-1)!! matchings counts.
    """
    counts = [1]
    if b >= pmax:
        for p in range(1, pmax + 1):
            counts.append(counts[-1] * (2 * p - 1))
        return counts
    layer: dict[tuple[int, ...], int] = {(): 1}
    for step in range(1, 2 * pmax + 1):
        room = 2 * pmax - step
        nxt: dict[tuple[int, ...], int] = {}
        for lam, n in layer.items():
            padded = lam + (0,)
            if sum(lam) < room:
                for r in range(min(len(lam) + 1, b)):
                    if r == 0 or padded[r - 1] > padded[r]:
                        accumulate(nxt, lam[:r] + (padded[r] + 1,) + lam[r + 1:], n)
            for r in range(len(lam)):
                if padded[r] > padded[r + 1]:
                    mu = lam[:r] + (lam[r] - 1,) + lam[r + 1:]
                    accumulate(nxt, mu if mu[-1] else mu[:-1], n)
        layer = nxt
        if step % 2 == 0:
            counts.append(layer.get((), 0))
    return counts
