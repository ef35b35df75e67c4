"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each test prints a single PASS line with its measured runtime; pytest -s (or
the default capture with -rA) shows them.  Runtime bounds are part of the
criteria and are asserted.
"""

import random
import time
from fractions import Fraction

from chowtaut.catalog import load_catalog
from chowtaut.correspond import (
    ck_projectors,
    involution_check,
    verify_ck,
    verify_mck,
)
from chowtaut.exprparse import parse_expr
from chowtaut.oracle import (
    CohomologyModel,
    SubalgebraSpan,
    adjudicate_signs,
    realize_monomial,
)
from chowtaut.ring import (
    Monomial,
    RingParams,
    TautRing,
    perfect_matchings,
)

from ring_reference import integrate, normal_form, reduce_with_order
from span_reference import AllProductsSpan
from test_correspond import sabotaged_sets


def _report(name, elapsed, bound):
    line = f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {bound:.0f}s)"
    print(line)
    assert elapsed < bound, line.replace("PASS", "RUNTIME FAIL")


def _random_raw(rng, m, n_factors):
    raw = []
    for _ in range(n_factors):
        kind = rng.choice(("h", "o", "tau"))
        if kind == "tau":
            i = rng.randrange(1, m + 1)
            j = rng.randrange(1, m + 1)
            while j == i:
                j = rng.randrange(1, m + 1)
            raw.append(("tau", i, j))
        else:
            raw.append((kind, rng.randrange(1, m + 1)))
    return raw


def test_acceptance_relation_suite():
    """Rewrite rules hold for randomized parameters; 1000 confluence cases."""
    t0 = time.perf_counter()
    rng = random.Random(11)
    ds = [1, 2, 3, 4, 22]
    bs = [0, 1, 2, 5, 10, 52]
    # direct rule instances
    for d in ds:
        for b in bs:
            m = rng.randrange(2, 6)
            ring = TautRing(RingParams(d=d, b=b, m=m))
            i = rng.randrange(1, m + 1)
            j = i % m + 1
            assert ring.multiply(ring.o(i), ring.o(i)).is_zero()
            assert ring.multiply(ring.h(i), ring.o(i)).is_zero()
            assert ring.power(ring.h(i), 3) == ring.o(i).scale(d)
            assert ring.multiply(ring.tau(i, j), ring.h(i)).is_zero()
            assert ring.multiply(ring.tau(i, j), ring.o(j)).is_zero()
            sq = ring.multiply(ring.tau(i, j), ring.tau(i, j))
            assert sq == ring.multiply(ring.o(i), ring.o(j)).scale(-2 * b)
            if m >= 3:
                k = max(i, j) % m + 1
                if k not in (i, j):
                    lhs = ring.multiply(ring.tau(i, j), ring.tau(i, k))
                    rhs = ring.multiply(ring.tau(j, k), ring.o(i))
                    assert lhs == rhs
    # confluence: randomized reduction orders agree with normal_form
    cases = 0
    while cases < 1000:
        d = rng.choice(ds)
        b = rng.choice(bs)
        m = rng.randrange(2, 6)
        ring = TautRing(RingParams(d=d, b=b, m=m))
        raw = _random_raw(rng, m, rng.randrange(1, 7))
        nf = normal_form(ring, raw)
        assert reduce_with_order(ring, raw, rng) == nf
        cases += 1
    _report("relation-suite", time.perf_counter() - t0, 5.0)


def test_acceptance_oracle_equivalence():
    """graded_dimension == oracle span dimension for b in {1,2}, m <= 4."""
    t0 = time.perf_counter()
    for b in (1, 2):
        for m in (1, 2, 3, 4):
            ring = TautRing(RingParams(d=2, b=b, m=m))
            span = SubalgebraSpan(CohomologyModel(d=2, b=b), m)
            for c in range(3 * m + 1):
                assert ring.graded_dimension(c) == span.dimension(c)
    # the b=1, m=4 pure-tau drop: three perfect matchings span only 2 dims
    p = RingParams(d=2, b=1, m=4)
    model = CohomologyModel(d=2, b=1)
    taus = [
        realize_monomial(Monomial(h=(), o=(), tau=tuple(sorted(match))), model, 4)
        for match in perfect_matchings([1, 2, 3, 4])
    ]
    assert len(taus) == 3
    from chowtaut.linalg import SparseRowBasis

    basis = SparseRowBasis()
    rank = sum(basis.add(t.terms) for t in taus)
    assert rank == 2
    _report("oracle-equivalence", time.perf_counter() - t0, 60.0)


def test_acceptance_symmetrization_combinatorics():
    """S_4 brute force = 8 x 3 matchings; oracle evaluates the sum to 0."""
    t0 = time.perf_counter()
    from itertools import permutations

    p = RingParams(d=2, b=1, m=4)
    ring = TautRing(p)
    brute = ring.zero()
    for sigma in permutations([1, 2, 3, 4]):
        term = ring.multiply(ring.tau(sigma[0], sigma[1]),
                             ring.tau(sigma[2], sigma[3]))
        brute = brute + term
    relator = ring.sym_relator([1, 2, 3, 4])
    assert brute == relator
    counts = {}
    for sigma in permutations([1, 2, 3, 4]):
        key = tuple(sorted((tuple(sorted(sigma[0:2])), tuple(sorted(sigma[2:4])))))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3 and set(counts.values()) == {8}
    model = CohomologyModel(d=2, b=1)
    total = None
    for mon, q in relator.terms.items():
        t = realize_monomial(mon, model, 4).scale(q)
        total = t if total is None else total + t
    assert total.is_zero()
    _report("symmetrization-combinatorics", time.perf_counter() - t0, 1.0)


def _catalog_params():
    return [(r.label, r.degree, r.h12) for r in load_catalog() if r.h12 > 0]


def test_acceptance_ck_suite():
    """verify_ck passes for every catalog row with h12 > 0."""
    t0 = time.perf_counter()
    rows = _catalog_params()
    assert len(rows) == 15
    for label, d, b in rows:
        report = verify_ck(ck_projectors(RingParams(d=d, b=b, m=2)))
        assert report.passed, label
    _report("ck-suite", time.perf_counter() - t0, 10.0)


def test_acceptance_mck_suite():
    """verify_mck: every entry with i+j != k is exactly zero, all rows."""
    t0 = time.perf_counter()
    for label, d, b in _catalog_params():
        report = verify_mck(ck_projectors(RingParams(d=d, b=b, m=2)))
        assert len(report.entries) == 343
        assert report.passed, label
        for e in report.entries:
            if not e.exempt:
                assert e.value.is_zero(), (label, e.i, e.j, e.k)
    _report("mck-suite", time.perf_counter() - t0, 120.0)


def test_acceptance_involution_lemma():
    """The involution identities hold on every catalog row; changing pi^0, pi^2 or pi^3 fails them."""
    t0 = time.perf_counter()
    for rec in load_catalog():
        assert involution_check(ck_projectors(RingParams(rec.degree, rec.h12, 2))), rec.label
    assert not any(involution_check(bad) for bad in sabotaged_sets()[:3])
    _report("involution-lemma", time.perf_counter() - t0, 1.0)


def test_acceptance_degree_map():
    """Relator x complementary-monomial integrals vanish; point degree is 1."""
    t0 = time.perf_counter()
    rng = random.Random(23)
    for m in range(1, 6):
        ring = TautRing(RingParams(d=2, b=1, m=m))
        point = ring.product([ring.o(i) for i in range(1, m + 1)])
        assert integrate(ring, point) == 1
    done = 0
    while done < 200:
        b = rng.choice([0, 1])
        m = rng.randrange(max(2, 2 * b + 2), 6)
        ring = TautRing(RingParams(d=rng.choice([1, 2, 3]), b=b, m=m))
        indices = rng.sample(range(1, m + 1), 2 * b + 2)
        relator = ring.sym_relator(indices)
        rc = relator.codim
        comp = rng.choice(ring.graded_basis(3 * m - rc))
        prod = ring.multiply(relator, normal_form(ring, comp.generators()))
        assert integrate(ring, prod) == 0
        done += 1
    _report("degree-map", time.perf_counter() - t0, 30.0)


def test_acceptance_b0_degeneracy():
    """b=0: tau dies in the quotient and dimensions are pure-(h,o) counts."""
    t0 = time.perf_counter()
    for m in (1, 2, 3):
        p = RingParams(d=2, b=0, m=m)
        ring = TautRing(p)
        if m >= 2:
            # the 2-index symmetrization relator is 2*tau_{1,2}
            assert ring.sym_relator([1, 2]) == ring.tau(1, 2).scale(2)
        # pure-(h,o) count: each factor contributes 1 + x + x^2 + x^3
        coeffs = [1]
        for _ in range(m):
            nxt = [0] * (len(coeffs) + 3)
            for i, c in enumerate(coeffs):
                for j in range(4):
                    nxt[i + j] += c
            coeffs = nxt
        span = SubalgebraSpan(CohomologyModel(d=2, b=0), m)
        for c in range(3 * m + 1):
            assert span.dimension(c) == coeffs[c]
    # decomposable CK: every projector is a polynomial in h alone times 1/d
    ps = ck_projectors(RingParams(d=2, b=0, m=2))
    model = CohomologyModel(d=2, b=0)
    span = AllProductsSpan(model, 2)
    for k in range(7):
        pk = ps.pi[k]
        total = None
        for mon, q in pk.cls.terms.items():
            t = realize_monomial(mon, model, 2).scale(q)
            total = t if total is None else total + t
        if total is not None and not total.is_zero():
            c = pk.cls.codim
            assert span.contains(total, c)
    _report("b0-degeneracy", time.perf_counter() - t0, 30.0)


def test_acceptance_catalog_and_parser():
    """19 records round-trip; parse(str(x)) == x on 500 random classes."""
    t0 = time.perf_counter()
    from chowtaut.catalog import parse_catalog, serialize_catalog

    records = load_catalog()
    assert len(records) == 19
    assert parse_catalog(serialize_catalog(records)) == records
    rng = random.Random(37)
    for _ in range(500):
        m = rng.randrange(1, 5)
        ring = TautRing(RingParams(d=rng.choice([1, 2, 3]),
                                   b=rng.choice([0, 1, 2, 10]), m=m))
        c = rng.randrange(0, 3 * m + 1)
        basis = ring.graded_basis(c)
        if not basis:
            continue
        x = ring.zero()
        for mon in rng.sample(basis, min(len(basis), rng.randrange(1, 4))):
            q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
            x = x + normal_form(ring, mon.generators(), q)
        assert parse_expr(str(x), ring) == x
    _report("catalog-and-parser", time.perf_counter() - t0, 30.0)


def test_acceptance_sign_adjudication_stable():
    """Repeated and randomized-basis adjudication give identical reports, dims included."""
    t0 = time.perf_counter()
    rng = random.Random(41)
    outputs = set()
    for b in (1, 2):
        base = adjudicate_signs(CohomologyModel(d=2, b=b))
        outputs.add((base.eps2, base.eps3))
        assert base.sym_relation_verified
        assert adjudicate_signs(CohomologyModel(d=2, b=b)) == base
        for _ in range(4):
            assert adjudicate_signs(CohomologyModel.random_basis(2, b, rng)) == base
    assert outputs == {(-1, 1)}
    _report("sign-adjudication", time.perf_counter() - t0, 30.0)
