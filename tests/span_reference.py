"""Reference spans of the tensor model, for the tests.

``StandardMonomialSpan`` builds the generated subalgebra of H*(Y^m) codim by
codim from standard monomials, and keeps a basis, so it can also answer
``contains``.  ``AllProductsSpan`` is the plainer reference it is checked
against: every generator times every kept class.  ``chowtaut.oracle`` computes
only dimensions, by slot-degree blocks; both spans here are its references.
"""

import itertools
from operator import add

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import TensorClass, realize, tensor_multiply, tensor_unit

# DEGREE[min(id, 4)] is the degree of a basis element; H*(Y) is nonzero in SLOT_DEGREES
DEGREE = (0, 2, 4, 6, 3)
SLOT_DEGREES = frozenset(DEGREE)


def _slot_degrees(x: TensorClass) -> tuple[int, ...]:
    """Degree in each slot of a nonzero multi-homogeneous class, read off one term."""
    return tuple(DEGREE[min(i, 4)] for i in next(iter(x.terms)))


def generators(m):
    gens = [("h", i) for i in range(1, m + 1)]
    gens += [("o", i) for i in range(1, m + 1)]
    gens += [("tau", i, j) for i, j in itertools.combinations(range(1, m + 1), 2)]
    return gens


class StandardMonomialSpan:
    """Graded span of the subalgebra of H*(Y^m) generated by the realized classes,
    built from standard monomials (Macaulay's basis theorem)."""

    def __init__(self, model, m):
        self.model = model
        self.m = m
        # (slot degrees, tensor); a zero generator (tau at b = 0) spans nothing
        self._gens = [(_slot_degrees(t), t) for g in generators(m)
                      if not (t := realize(g, model, m)).is_zero()]
        unit = tensor_unit(model, m)
        self._bases = [[unit]]
        # Basis class i of codim c > 0 is class parents[c][i] of codim c - codim(g) times
        # generator g = lasts[c][i]: its word, the nondecreasing tuple of its generator
        # indices, is the parent's word followed by g.  The unit's entries are 0, so any
        # generator may follow its empty word.
        self._parents = [[0]]
        self._lasts = [[0]]
        self._reducers = [SparseRowBasis()]
        self._reducers[0].add(unit.terms)

    def _grow(self, c):
        if not 0 <= c <= 3 * self.m:
            raise ValueError(f"codimension {c} out of range 0..{3 * self.m}")
        while len(self._bases) <= c:
            k = len(self._bases)
            reducer = SparseRowBasis()
            basis, parents, lasts = [], [], []
            # Codim k is filled greedily in increasing monomial order: fewer h first, then
            # lex with generator 0 heaviest.  The kept words are then the standard
            # monomials, so each is a kept word times a generator no earlier than its last
            # letter.  Those candidates come in order unsorted: a word times an o or a tau
            # (from codim k - 3) has fewer h than an h word times an h (from codim k - 1),
            # each codim keeps its words in order, and for one word a later generator comes
            # first.  None that vanishes by slot degree is formed.
            for src, codim in ((k - 3, 3), (k - 1, 1)):
                if src < 0:
                    continue
                run = [g for g, (gdeg, _) in enumerate(self._gens) if sum(gdeg) == 2 * codim]
                for x, (last, cls) in enumerate(zip(self._lasts[src], self._bases[src])):
                    xdeg = _slot_degrees(cls)
                    for g in reversed(run):
                        if g < last:
                            break
                        if SLOT_DEGREES.issuperset(map(add, xdeg, self._gens[g][0])):
                            v = tensor_multiply(cls, self._gens[g][1])
                            if reducer.add(v.terms):
                                basis.append(v)
                                parents.append(x)
                                lasts.append(g)
            self._bases.append(basis)
            self._parents.append(parents)
            self._lasts.append(lasts)
            self._reducers.append(reducer)

    def basis(self, c):
        self._grow(c)
        return self._bases[c]

    def dimension(self, c):
        self._grow(c)
        return self._reducers[c].rank

    def contains(self, x, c):
        self._bases[0][0]._check_compatible(x)
        self._grow(c)
        return self._reducers[c].contains(x.terms)


class AllProductsSpan:
    """Codim k is spanned by every generator times every kept element of
    codim k - codim(generator), each product formed and offered to the basis."""

    def __init__(self, model, m):
        self.gens = [(1 if g[0] == "h" else 3, realize(g, model, m)) for g in generators(m)]
        self.bases = [[tensor_unit(model, m)]]

    def basis(self, c):
        while len(self.bases) <= c:
            k = len(self.bases)
            reducer = SparseRowBasis()
            basis = []
            for codim, gen in self.gens:
                for x in self.bases[k - codim] if codim <= k else ():
                    v = tensor_multiply(gen, x)
                    if reducer.add(v.terms):
                        basis.append(v)
            self.bases.append(basis)
        return self.bases[c]
