"""Reference span of the tensor model, for the tests.

``AllProductsSpan`` builds the generated subalgebra of H*(Y^m) codim by codim:
every generator times every kept class, each product formed and offered to the
basis.  It keeps a basis, so it can also answer ``contains``.
``chowtaut.oracle`` computes only dimensions, by slot-degree blocks; this span
is its reference.  ``tensor_unit`` and ``realize_monomial`` carry ring
classes into the model for the tests.
"""

import itertools

from chowtaut.linalg import SparseRowBasis
from chowtaut.oracle import E0, TensorClass, realize, tensor_multiply

from ring_reference import generator_word


def tensor_unit(model, m):
    return TensorClass(model, m, {(E0,) * m: 1})


def realize_monomial(mon, model, m):
    """g_n * ... * g_1 for the generators g_1..g_n of mon, each multiplied in from the left."""
    gens = generator_word(mon)
    if not gens:
        return tensor_unit(model, m)
    acc = realize(gens[0], model, m)
    for g in gens[1:]:
        acc = tensor_multiply(realize(g, model, m), acc)
    return acc


def generators(m):
    gens = [("h", i) for i in range(1, m + 1)]
    gens += [("o", i) for i in range(1, m + 1)]
    gens += [("tau", i, j) for i, j in itertools.combinations(range(1, m + 1), 2)]
    return gens


class AllProductsSpan:
    """Codim k is spanned by every generator times every kept element of
    codim k - codim(generator)."""

    def __init__(self, model, m):
        self.model = model
        self.m = m
        self.gens = [(1 if g[0] == "h" else 3, realize(g, model, m)) for g in generators(m)]
        unit = tensor_unit(model, m)
        self.bases = [[unit]]
        self.reducers = [SparseRowBasis()]
        self.reducers[0].add(unit.terms)

    def basis(self, c):
        if not 0 <= c <= 3 * self.m:
            raise ValueError(f"codimension {c} out of range 0..{3 * self.m}")
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
            self.reducers.append(reducer)
        return self.bases[c]

    def dimension(self, c):
        return len(self.basis(c))

    def contains(self, x, c):
        self.bases[0][0]._check_compatible(x)
        self.basis(c)
        return not self.reducers[c].residual(x.terms)
