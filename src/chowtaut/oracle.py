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
:mod:`chowtaut.ring`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import SparseRowBasis
from .ring import RingParams, accumulate, perfect_matchings

# basis element ids: 0..3 even (e0, e2, e4, e6); 4.. odd (f_0, f_1, ...)
E0, E2, E4, E6 = 0, 1, 2, 3
_EVEN_DEG = {E0: 0, E2: 2, E4: 4, E6: 6}


def _standard_omega(b: int) -> tuple[tuple[Fraction, ...], ...]:
    """Block-diagonal symplectic Gram matrix with f_{2k}*f_{2k+1} = -o."""
    n = 2 * b
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(b):
        rows[2 * k][2 * k + 1] = Fraction(-1)
        rows[2 * k + 1][2 * k] = Fraction(1)
    return tuple(tuple(r) for r in rows)


def _invert(mat: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
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
    return tuple(tuple(row[n:]) for row in a)


@dataclass(frozen=True)
class CohomologyModel:
    """Explicit graded model of H*(Y) for a degree-d threefold with dim H^3 = 2b."""

    d: int
    b: int
    omega: tuple[tuple[Fraction, ...], ...] = None  # type: ignore[assignment]
    omega_inv: tuple[tuple[Fraction, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.d < 1 or self.b < 0:
            raise ValueError("need d >= 1 and b >= 0")
        om = self.omega if self.omega is not None else _standard_omega(self.b)
        n = 2 * self.b
        if len(om) != n or any(len(r) != n for r in om):
            raise ValueError("Omega must be 2b x 2b")
        for i in range(n):
            for j in range(n):
                if om[i][j] != -om[j][i]:
                    raise ValueError("Omega must be antisymmetric")
        object.__setattr__(self, "omega", tuple(tuple(Fraction(x) for x in r) for r in om))
        object.__setattr__(self, "omega_inv", _invert(self.omega) if n else ())

    @classmethod
    def random_basis(cls, d: int, b: int, rng) -> "CohomologyModel":
        """Model with the Gram matrix of a random unimodular change of odd basis."""
        n = 2 * b
        mat = [[Fraction(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = Fraction(rng.randint(-3, 3))
            for k in range(n):
                mat[i][k] += c * mat[j][k]
        J = _standard_omega(b)
        gram = tuple(
            tuple(sum(mat[k][i] * J[k][l] * mat[l][j] for k in range(n) for l in range(n))
                  for j in range(n))
            for i in range(n)
        )
        return cls(d, b, gram)

    @property
    def dim(self) -> int:
        return 4 + 2 * self.b

    def degree(self, bid: int) -> int:
        return _EVEN_DEG[bid] if bid < 4 else 3

    def mul_basis(self, x: int, y: int) -> tuple[Fraction, int] | None:
        """Product of two basis elements as (coefficient, basis id), or None if zero."""
        if x == E0:
            return Fraction(1), y
        if y == E0:
            return Fraction(1), x
        if x < 4 and y < 4:
            deg = _EVEN_DEG[x] + _EVEN_DEG[y]
            if deg == 4:
                return Fraction(1), E4
            if deg == 6:
                return Fraction(self.d), E6  # h * h^2 = h^3 = d o
            return None
        if x < 4 or y < 4:
            return None  # even(>0) * odd lands in degrees 5, 7, 9: all zero
        c = self.omega[x - 4][y - 4]
        return (c, E6) if c else None


class TensorClass:
    """Rational combination of pure tensors on H*(Y^m), with Koszul-signed products."""

    __slots__ = ("model", "m", "terms")

    def __init__(self, model: CohomologyModel, m: int,
                 terms: dict[tuple[int, ...], Fraction] | None = None):
        self.model = model
        self.m = m
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[key] = c

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        degs = {sum(self.model.degree(x) for x in key) for key in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            return "inhomogeneous"
        return degs.pop()

    def __add__(self, other: "TensorClass") -> "TensorClass":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return TensorClass(self.model, self.m, out)

    def __sub__(self, other: "TensorClass") -> "TensorClass":
        return self + other.scale(-1)

    def scale(self, q) -> "TensorClass":
        q = Fraction(q)
        return TensorClass(self.model, self.m,
                           {k: c * q for k, c in self.terms.items()} if q else {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorClass) and self.m == other.m
                and self.terms == other.terms)

    def _check_compatible(self, other: "TensorClass") -> None:
        if self.m != other.m or self.model is not other.model:
            raise ValueError("tensor classes live on different models or powers")

    def __repr__(self) -> str:
        return f"TensorClass(m={self.m}, {len(self.terms)} terms)"


def tensor_unit(model: CohomologyModel, m: int) -> TensorClass:
    return TensorClass(model, m, {(E0,) * m: Fraction(1)})


def tensor_multiply(x: TensorClass, y: TensorClass) -> TensorClass:
    """Factorwise product with the Koszul sign (-1)^{sum_{j<i} |v_j||u_i|}."""
    x._check_compatible(y)
    model, m = x.model, x.m
    out: dict[tuple[int, ...], Fraction] = {}
    for u, cu in x.terms.items():
        u_deg = [model.degree(e) for e in u]
        # suffix sums of the degrees of u strictly to the right of slot j
        suffix = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            suffix[i] = suffix[i + 1] + u_deg[i]
        for v, cv in y.terms.items():
            sign_exp = 0
            coeff = cu * cv
            key = []
            for j in range(m):
                dv = model.degree(v[j])
                if dv % 2:
                    sign_exp += suffix[j + 1]
                prod = model.mul_basis(u[j], v[j])
                if prod is None:
                    break
                coeff *= prod[0]
                key.append(prod[1])
            else:
                accumulate(out, tuple(key), -coeff if sign_exp % 2 else coeff)
    return TensorClass(model, m, out)


def tensor_product_all(classes: Sequence[TensorClass]) -> TensorClass:
    acc = tensor_unit(classes[0].model, classes[0].m)
    for x in classes:
        acc = tensor_multiply(acc, x)
    return acc


def tensor_integrate(x: TensorClass) -> Fraction:
    """Coefficient of the full point class e6 (x) ... (x) e6."""
    return x.terms.get((E6,) * x.m, Fraction(0))


def realize(gen, model: CohomologyModel, m: int) -> TensorClass:
    """Realize a ring generator ('h', i), ('o', i) or ('tau', i, j) as a tensor."""

    def check(i):
        if not 1 <= i <= m:
            raise ValueError(f"factor index {i} out of range 1..{m}")

    kind = gen[0]
    if kind in ("h", "o"):
        check(gen[1])
        slot = gen[1] - 1
        bid = E2 if kind == "h" else E6
        key = tuple(bid if t == slot else E0 for t in range(m))
        return TensorClass(model, m, {key: Fraction(1)})
    if kind != "tau":
        raise ValueError(f"unknown generator {gen!r}")
    i, j = gen[1], gen[2]
    check(i)
    check(j)
    if i == j:
        raise ValueError("tau requires distinct indices")
    if i > j:
        i, j = j, i
    terms: dict[tuple[int, ...], Fraction] = {}
    n = 2 * model.b
    for k in range(n):
        for l in range(n):
            c = model.omega_inv[k][l]
            if not c:
                continue
            key = [E0] * m
            key[i - 1] = 4 + k
            key[j - 1] = 4 + l
            terms[tuple(key)] = c
    return TensorClass(model, m, terms)


def realize_monomial(mon, model: CohomologyModel, m: int) -> TensorClass:
    return tensor_product_all([realize(g, model, m) for g in mon.generators()]) \
        if mon.generators() else tensor_unit(model, m)


# -- sign adjudication ------------------------------------------------------


@dataclass(frozen=True)
class AdjudicationReport:
    b: int
    eps2: int
    eps3: int
    sym_relation_verified: bool
    dims: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "eps2": self.eps2,
            "eps3": self.eps3,
            "sym_relation_verified": self.sym_relation_verified,
            "dims": [list(pair) for pair in self.dims],
        }


def adjudicate_signs(model: CohomologyModel, with_dims: bool = True) -> AdjudicationReport:
    """Read the signs of the tau relations off the tensor model.

    Returns the sign s2 with tau^2 = s2 * 2b * o_1 o_2, the sign s3 with
    tau_{1,2} tau_{1,3} = s3 * tau_{2,3} o_1, and verifies that the plain
    (unsigned) sum over perfect matchings of 2b+2 indices vanishes.
    """
    if model.b < 1:
        raise ValueError("sign adjudication needs b >= 1")
    # eps2 on Y^2
    tau2 = realize(("tau", 1, 2), model, 2)
    sq = tensor_multiply(tau2, tau2)
    oo = tensor_multiply(realize(("o", 1), model, 2), realize(("o", 2), model, 2))
    target = oo.scale(2 * model.b)
    if sq == target:
        eps2 = 1
    elif sq == target.scale(-1):
        eps2 = -1
    else:
        raise ValueError("tau^2 is not proportional to 2b * o_1 o_2 in the model")
    # eps3 on Y^3
    lhs = tensor_multiply(realize(("tau", 1, 2), model, 3), realize(("tau", 1, 3), model, 3))
    rhs = tensor_multiply(realize(("tau", 2, 3), model, 3), realize(("o", 1), model, 3))
    if lhs == rhs:
        eps3 = 1
    elif lhs == rhs.scale(-1):
        eps3 = -1
    else:
        raise ValueError("tau_{1,2} tau_{1,3} is not proportional to tau_{2,3} o_1")
    # symmetrized vanishing on Y^(2b+2)
    n = 2 * model.b + 2
    total: dict[tuple[int, ...], Fraction] = {}
    for matching in perfect_matchings(list(range(1, n + 1))):
        prod = tensor_product_all([realize(("tau", i, j), model, n) for i, j in matching])
        for key, c in prod.terms.items():
            accumulate(total, key, c)
    sym_ok = not total
    dims: tuple[tuple[int, int], ...] = ()
    if with_dims:
        span = SubalgebraSpan(model, 2)
        dims = tuple((c, span.dimension(c)) for c in range(7))
    return AdjudicationReport(model.b, eps2, eps3, sym_ok, dims)


# -- generated subalgebra ---------------------------------------------------


class SubalgebraSpan:
    """Graded span of the subalgebra of H*(Y^m) generated by the realized classes."""

    def __init__(self, model: CohomologyModel, m: int):
        self.model = model
        self.m = m
        gens = [("h", i) for i in range(1, m + 1)]
        gens += [("o", i) for i in range(1, m + 1)]
        gens += [("tau", i, j) for i, j in itertools.combinations(range(1, m + 1), 2)]
        self._gens = [(1 if g[0] == "h" else 3, realize(g, model, m)) for g in gens]
        self._bases: list[list[TensorClass]] = [[tensor_unit(model, m)]]
        self._reducers: list[SparseRowBasis] = [SparseRowBasis()]
        self._reducers[0].add(self._bases[0][0].terms)

    def _grow(self, c: int) -> None:
        while len(self._bases) <= c:
            k = len(self._bases)
            reducer = SparseRowBasis()
            basis: list[TensorClass] = []
            seen: set = set()
            for codim, gen in self._gens:
                if k - codim < 0:
                    continue
                for x in self._bases[k - codim]:
                    v = tensor_multiply(gen, x)
                    if v.is_zero():
                        continue
                    fingerprint = frozenset(v.terms.items())
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    if reducer.add(v.terms):
                        basis.append(v)
            self._bases.append(basis)
            self._reducers.append(reducer)

    def basis(self, c: int) -> list[TensorClass]:
        self._grow(c)
        return self._bases[c]

    def dimension(self, c: int) -> int:
        if not 0 <= c <= 3 * self.m:
            raise ValueError(f"codimension {c} out of range 0..{3 * self.m}")
        self._grow(c)
        return self._reducers[c].rank

    def contains(self, x: TensorClass, c: int) -> bool:
        self._grow(c)
        return self._reducers[c].contains(x.terms)


def span_dimension(p: RingParams, c: int, model: CohomologyModel | None = None) -> int:
    """Dimension of the degree-2c piece of the generated subalgebra of H*(Y^m)."""
    model = model or CohomologyModel(p.d, p.b)
    return SubalgebraSpan(model, p.m).dimension(c)
