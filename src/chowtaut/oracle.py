"""Brute-force cohomology model used to cross-check the presentation.

H*(Y) is modeled as the graded vector space with even basis
e0 (deg 0), e2 (deg 2, the class of h), e4 (deg 4, h^2), e6 (deg 6, the
point class o, with h^3 = d*o) and odd basis f_0..f_{2b-1} in degree 3.
Odd products are given by an antisymmetric nondegenerate Gram matrix
Omega: f_i * f_j = Omega[i][j] * o.  Products on H*(Y^m) carry Koszul
signs factorwise.

The generators h_i, o_i, tau_{i,j} are realized as explicit tensors; the
tau realization is the odd Kuenneth component of the diagonal, i.e.
sum_{k,l} (Omega^-1)[k][l] f_k (x) f_l placed in slots i, j.  Running the
relations inside this model adjudicates the sign conventions of
:mod:`chowtaut.ring`.  Coefficients follow the rule of
:func:`chowtaut.linalg.exact`: an int, or a Fraction where a denominator
remains, and never a float.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .linalg import Frozen, Rational, SparseRowBasis, exact, require_ints
from .ring import (Monomial, _pair, accumulate, check_codim, check_index, perfect_matchings,
                   slot_weight_count)

# basis element ids: 0..3 even (e0, e2, e4, e6); 4.. odd (f_0, f_1, ...)
E0, E2, E4, E6 = 0, 1, 2, 3

Matrix = tuple[tuple[Rational, ...], ...]


def _standard_omega(b: int) -> Matrix:
    """Block-diagonal symplectic Gram matrix with f_{2k}*f_{2k+1} = -o."""
    n = 2 * b
    rows = [[0] * n for _ in range(n)]
    for k in range(b):
        rows[2 * k][2 * k + 1] = -1
        rows[2 * k + 1][2 * k] = 1
    return tuple(tuple(r) for r in rows)


def _invert(mat: Sequence[Sequence[Rational]]) -> Matrix:
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("Gram matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(exact(x) for x in row[n:]) for row in a)


class CohomologyModel(Frozen):
    """Explicit graded model of H*(Y) for a degree-d threefold with dim H^3 = 2b.

    omega defaults to the standard symplectic Gram matrix; the product table
    derived from it is neither compared nor shown in the repr.
    """

    __slots__ = ("d", "b", "omega", "omega_inv", "table")
    _compared = __slots__[:4]
    d: int
    b: int
    omega: Matrix
    omega_inv: Matrix
    table: tuple

    def __init__(self, d: int, b: int, omega: Matrix | None = None):
        require_ints(d=d, b=b)
        if d < 1 or b < 0:
            raise ValueError("need d >= 1 and b >= 0")
        om = omega if omega is not None else _standard_omega(b)
        n = 2 * b
        if len(om) != n or any(len(r) != n for r in om):
            raise ValueError("Omega must be 2b x 2b")
        if any(om[i][j] != -om[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Omega must be antisymmetric")
        om = tuple(tuple(exact(x) for x in r) for r in om)
        # table[x][y] is the product of basis elements x, y as (coefficient, id), or
        # None: even(>0) * odd lands in degrees 5, 7, 9, other even products above 6.
        table = [[None] * (n + 4) for _ in range(n + 4)]
        for x in range(n + 4):
            table[E0][x] = table[x][E0] = (1, x)
        table[E2][E2] = (1, E4)
        table[E2][E4] = table[E4][E2] = (d, E6)  # h * h^2 = h^3 = d o
        for i, j in itertools.product(range(n), repeat=2):
            if om[i][j]:
                table[4 + i][4 + j] = (om[i][j], E6)
        self._set(d, b, om, _invert(om) if n else (), tuple(map(tuple, table)))

    @classmethod
    def random_basis(cls, d: int, b: int, rng) -> "CohomologyModel":
        """Model with the Gram matrix of a random unimodular change of odd basis."""
        n = 2 * b
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-3, 3)
            for k in range(n):
                mat[i][k] += c * mat[j][k]
        J = _standard_omega(b)
        gram = tuple(
            tuple(sum(mat[k][i] * J[k][l] * mat[l][j] for k in range(n) for l in range(n))
                  for j in range(n))
            for i in range(n)
        )
        return cls(d, b, gram)


class TensorClass:
    """Rational combination of pure tensors on H*(Y^m), with Koszul-signed products."""

    __slots__ = ("model", "m", "terms")

    def __init__(self, model: CohomologyModel, m: int,
                 terms: dict[tuple[int, ...], Rational] | None = None):
        self.model = model
        self.m = m
        self.terms: dict[tuple[int, ...], Rational] = {}
        if terms:
            for key, c in terms.items():
                c = exact(c)
                if c:
                    self.terms[key] = c

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TensorClass") -> "TensorClass":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return TensorClass(self.model, self.m, out)

    def __sub__(self, other: "TensorClass") -> "TensorClass":
        return self + other.scale(-1)

    def scale(self, q) -> "TensorClass":
        q = exact(q)
        return TensorClass(self.model, self.m,
                           {k: c * q for k, c in self.terms.items()} if q else {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorClass) and self.m == other.m
                and (self.model is other.model or self.model == other.model)
                and self.terms == other.terms)

    def _check_compatible(self, other: "TensorClass") -> None:
        # equal models (same d, b and Omega) may be distinct objects
        if self.m != other.m or (self.model is not other.model and self.model != other.model):
            raise ValueError("tensor classes live on different models or powers")

    def __repr__(self) -> str:
        return f"TensorClass(m={self.m}, {len(self.terms)} terms)"


def tensor_unit(model: CohomologyModel, m: int) -> TensorClass:
    return TensorClass(model, m, {(E0,) * m: 1})


def _multiply_into(out: dict[tuple[int, ...], Rational], x_terms: dict, y_items: Iterable,
                   table: tuple) -> dict[tuple[int, ...], Rational]:
    """Add the Koszul-signed products of the terms of x and y into out, and return it.

    x is a term dict, y an iterable of (key, coefficient) pairs read once.  E0
    is the unit of the product table, so a pair (u, v) starts from v and
    multiplies in only the support of u (its slots other than E0): pass the
    factor of small support, such as a generator, first.  Only parities enter
    the sign, and the odd ids are those >= 4: bit i of v's prefix mask is set
    when an odd number of v's odd ids come before slot i, and each odd u_i
    flips the sign once if its bit is set.  x's terms carry their support's
    table rows, grouped by support and odd mask, so each v forms its mask once
    and its key list and sign once per group.  A key whose coefficient cancels
    is dropped from out, also one that out held before.
    """
    groups: dict[tuple[int, int], list] = {}
    for u, cu in x_terms.items():
        support, slots, odd_u = [], 0, 0
        for i, ui in enumerate(u):
            if ui != E0:
                support.append((i, table[ui]))
                slots |= 1 << i
                odd_u |= (ui >= 4) << i
        groups.setdefault((slots, odd_u), []).append((cu, support))
    for v, cv in y_items:
        prefix = odd = 0
        for i, vi in enumerate(v):
            prefix |= odd << i
            odd ^= vi >= 4
        for (_, odd_u), group in groups.items():
            key = list(v)
            cs = -cv if (odd_u & prefix).bit_count() & 1 else cv
            for cu, support in group:
                coeff = cu * cs
                for i, row in support:
                    prod = row[v[i]]
                    if prod is None:
                        break
                    coeff *= prod[0]
                    key[i] = prod[1]
                else:
                    accumulate(out, tuple(key), coeff)
    return out


def tensor_multiply(x: TensorClass, y: TensorClass) -> TensorClass:
    """Factorwise product with the Koszul sign (-1)^{sum_{j<i} |v_j||u_i|}.

    The kernel is :func:`_multiply_into`; it walks only the support of x's
    terms, so pass the factor of small support first.
    """
    x._check_compatible(y)
    return TensorClass(x.model, x.m, _multiply_into({}, x.terms, y.terms.items(), x.model.table))


def tensor_integrate(x: TensorClass) -> Rational:
    """Coefficient of the full point class e6 (x) ... (x) e6."""
    return x.terms.get((E6,) * x.m, 0)


def realize(gen, model: CohomologyModel, m: int) -> TensorClass:
    """Realize a ring generator ('h', i), ('o', i) or ('tau', i, j) as a tensor.

    The index and tau-pair checks are the ring's; the algebra is not shared.
    """
    kind = gen[0]
    if kind in ("h", "o"):
        check_index(gen[1], m)
        slot = gen[1] - 1
        bid = E2 if kind == "h" else E6
        key = tuple(bid if t == slot else E0 for t in range(m))
        return TensorClass(model, m, {key: 1})
    if kind != "tau":
        raise ValueError(f"unknown generator {gen!r}")
    check_index(gen[1], m)
    check_index(gen[2], m)
    i, j = _pair(gen[1], gen[2])
    terms: dict[tuple[int, ...], Rational] = {}
    for k, row in enumerate(model.omega_inv):
        for l, c in enumerate(row):
            if c:
                key = [E0] * m
                key[i - 1], key[j - 1] = 4 + k, 4 + l
                terms[tuple(key)] = c
    return TensorClass(model, m, terms)


def realize_monomial(mon, model: CohomologyModel, m: int) -> TensorClass:
    """g_n * ... * g_1 for the generators g_1..g_n of mon, each multiplied in from the left."""
    gens = mon.generators()
    if not gens:
        return tensor_unit(model, m)
    acc = realize(gens[0], model, m)
    for g in gens[1:]:
        acc = tensor_multiply(realize(g, model, m), acc)
    return acc


# -- sign adjudication ------------------------------------------------------


class AdjudicationReport(NamedTuple):
    """Signs and Y^2 dimensions read off one model; equal to the plain tuple of its fields."""

    b: int
    eps2: int
    eps3: int
    sym_relation_verified: bool
    dims: tuple[tuple[int, int], ...]


def _sign(lhs: TensorClass, rhs: TensorClass, message: str) -> int:
    """The sign s with lhs = s * rhs; ValueError(message) if there is none."""
    for s in (1, -1):
        if lhs == rhs.scale(s):
            return s
    raise ValueError(message)


def tau_matching_sum(model: CohomologyModel, slots: tuple[int, ...], m: int) -> TensorClass:
    """Sum over the perfect matchings M of slots of prod_{(i,j) in M} tau_{i,j}, on Y^m.

    Built in n/2 levels, n = len(slots), each from the one before only: the sum
    S_k over the matchings of 1..k on Y^k is sum_{j=2..k} tau_{1,j} * pad_j(S_{k-2}),
    a hafnian's first-slot expansion with S_0 = 1, where pad_j inserts E0 at
    slots 1 and j of every key and is streamed into the kernel.  E0 is even of
    degree 0, so padding changes neither a Koszul sign nor the order of the odd
    factors; the same holds for placing S_n at sorted(slots) of Y^m.  Each tau
    is even, so the factors commute and the Koszul signs stay in the kernel.
    An odd number of slots, or a repeated slot, has no perfect matching and
    raises ValueError rather than returning an empty sum.
    """
    if len(slots) % 2 or len(set(slots)) != len(slots):
        raise ValueError(f"slots {slots} admit no perfect matching")
    for s in slots:
        check_index(s, m)
    level: dict[tuple[int, ...], Rational] = {(): 1}
    for k in range(2, len(slots) + 1, 2):
        prev, level = level, {}
        for j in range(2, k + 1):
            pad = (((E0,) + v[:j - 2] + (E0,) + v[j - 2:], c) for v, c in prev.items())
            _multiply_into(level, realize(("tau", 1, j), model, k).terms, pad, model.table)
    # slot t of Y^m takes position pos[t - 1] of a key of S_n with E0 appended
    pos = [sorted(slots).index(t) if t in slots else len(slots) for t in range(1, m + 1)]
    return TensorClass(model, m, {tuple(map((v + (E0,)).__getitem__, pos)): c
                                  for v, c in level.items()})


def adjudicate_signs(model: CohomologyModel) -> AdjudicationReport:
    """Read the signs of the tau relations off the tensor model.

    Returns the sign s2 with tau^2 = s2 * 2b * o_1 o_2, the sign s3 with
    tau_{1,2} tau_{1,3} = s3 * tau_{2,3} o_1, and verifies that the plain
    (unsigned) sum over perfect matchings of 2b+2 indices vanishes
    (:func:`tau_matching_sum`), and reports the dimensions of the generated
    subalgebra of H*(Y^2) in codims 0..6.
    """
    if model.b < 1:
        raise ValueError("sign adjudication needs b >= 1")
    # eps2 on Y^2
    tau2 = realize(("tau", 1, 2), model, 2)
    sq = tensor_multiply(tau2, tau2)
    oo = tensor_multiply(realize(("o", 1), model, 2), realize(("o", 2), model, 2))
    eps2 = _sign(sq, oo.scale(2 * model.b),
                 "tau^2 is not proportional to 2b * o_1 o_2 in the model")
    # eps3 on Y^3
    lhs = tensor_multiply(realize(("tau", 1, 2), model, 3), realize(("tau", 1, 3), model, 3))
    rhs = tensor_multiply(realize(("tau", 2, 3), model, 3), realize(("o", 1), model, 3))
    eps3 = _sign(lhs, rhs, "tau_{1,2} tau_{1,3} is not proportional to tau_{2,3} o_1")
    # symmetrized vanishing on Y^(2b+2)
    n = 2 * model.b + 2
    sym_ok = tau_matching_sum(model, tuple(range(1, n + 1)), n).is_zero()
    span = SubalgebraSpan(model, 2)
    dims = tuple((c, span.dimension(c)) for c in range(7))
    return AdjudicationReport(model.b, eps2, eps3, sym_ok, dims)


# -- generated subalgebra ---------------------------------------------------


class SubalgebraSpan:
    """Graded span of the subalgebra of H*(Y^m) generated by the realized classes.

    dimension(c) = sum over even n3 of C(m, n3) * [x^(c - 3 n3/2)](1+x+x^2+x^3)^(m-n3)
    * r(n3), where r(s) is the rank on Y^s of the products of tau over the perfect
    matchings of 1..s.  This is the sum of multinomial(m; n0, n2, n4, n3, n6) * r(n3)
    over the slot-degree counts with 2 n2 + 4 n4 + 3 n3 + 6 n6 = 2c, the n3 slots
    chosen first and the others given codim weights 0, 1, 2, 3
    (:func:`slot_weight_count`).  It is exact:

    - every generator is multi-homogeneous in the slot degrees, so codim c is
      the direct sum of its slot-degree blocks;
    - permuting slots is an automorphism that maps each generator to a
      generator up to sign, so a block's rank depends only on the counts;
    - a slot of degree 0, 2 or 4 carries the fixed even class 1, h or h^2 in
      every monomial of its block, so it drops out;
    - at a slot of degree 6 with no tau, h^3 = d * o with d >= 1, so the o fill
      spans what the h^3 fill spans;
    - a slot i of degree 6 with two tau ends collapses in the model itself:
      tau_{a,i} tau_{i,c} = eps3 * tau_{a,c} o_i for a != c and
      tau_{a,i}^2 = eps2 * 2b * o_a o_i, the products adjudicate_signs reads.
      So every monomial of the block is a multiple of o on all its degree-6
      slots times a matching on the degree-3 ones, and since o at those slots
      is one fixed even tensor factor, the block's rank is r(s).

    Ranks are memoized on the instance and computed only for blocks that occur
    in a requested codim.  README.md, "The tensor model", has the argument.
    """

    def __init__(self, model: CohomologyModel, m: int):
        self.model = model
        self.m = m
        self._ranks: dict[int, int] = {}

    def dimension(self, c: int) -> int:
        m = self.m
        check_codim(c, m)
        total = 0
        for n3 in range(0, m + 1, 2):
            weight = math.comb(m, n3) * slot_weight_count(m - n3, c - 3 * n3 // 2)
            if weight:
                total += weight * self._rank(n3)
        return total

    def _rank(self, s: int) -> int:
        """r(s), stopping once it reaches (2b)^s, the dimension of H^3(Y)^(x)s."""
        if s not in self._ranks:
            model = self.model
            rows = SparseRowBasis()
            full = (2 * model.b) ** s
            for matching in perfect_matchings(range(1, s + 1)):
                rows.add(realize_monomial(Monomial(tau=tuple(matching)), model, s).terms)
                if rows.rank == full:
                    break
            self._ranks[s] = rows.rank
        return self._ranks[s]
