"""The rewrite rules applied one at a time in a random order, the paper's sign, and
the ring helpers that only the tests use.

``reduce_with_order`` is the reference for :func:`normal_form` (and so for
``TautRing.multiply``): it must give the same normal form whatever order of
rule applications ``rng`` picks, which tests confluence of the rewriting system.

``normal_form`` (a generator word through ``TautRing.product``), ``integrate``
(the degree map) and ``small_diagonal`` (Delta^sm on Y^3) build test inputs and
read test outputs; no command needs them, so they live here and not in
``chowtaut``.

``PaperSigns`` is the ring data with tau^2 = +2b o o, the sign the source
presentation prints; the tests use it as the witness that this sign collapses
the ring.
"""

from __future__ import annotations

from typing import Iterable

from chowtaut.linalg import Rational, exact
from chowtaut.correspond import big_diagonal
from chowtaut.ring import CycleClass, Gen, Monomial, RingParams, TautRing, _pair


class PaperSigns(RingParams):
    """RingParams with eps2 = +1, as the source presentation prints it."""

    eps2 = 1


def normal_form(ring: TautRing, raw: Iterable[Gen], coeff: Rational = 1) -> CycleClass:
    """Normal form of a single product of generators times a coefficient."""
    makers = {"h": ring.h, "o": ring.o, "tau": ring.tau}
    factors = []
    for g in raw:
        if g[0] not in makers:
            raise ValueError(f"unknown generator kind {g!r}")
        factors.append(makers[g[0]](*g[1:]))
    return ring.product(factors).scale(coeff)


def integrate(ring: TautRing, a: CycleClass) -> Rational:
    """Degree map: coefficient of o_1*...*o_m in top codimension, else 0."""
    if not a.is_homogeneous():
        raise ValueError("integrate requires a homogeneous class")
    if a.is_zero() or a.codim != 3 * ring.p.m:
        return 0
    return a.coefficient(Monomial(o=tuple(range(1, ring.p.m + 1))))


def small_diagonal(ring: TautRing) -> CycleClass:
    """[Delta^sm] on Y^3, represented as Delta_{1,3} * Delta_{2,3}."""
    if ring.p.m != 3:
        raise ValueError("the small diagonal lives on Y^3")
    return ring.multiply(big_diagonal(ring, 1, 3), big_diagonal(ring, 2, 3))


def reduce_with_order(ring: TautRing, raw: Iterable[Gen], rng,
                      coeff: Rational = 1) -> CycleClass:
    """Apply the rewrite rules one at a time in an order chosen by rng.

    Semantically identical to :func:`normal_form`; used to test
    confluence of the rewriting system.
    """
    p = ring.p
    hc: dict[int, int] = {}
    oc: dict[int, int] = {}
    taus: list[tuple[int, int]] = []
    for g in raw:
        if g[0] == "h":
            hc[g[1]] = hc.get(g[1], 0) + 1
        elif g[0] == "o":
            oc[g[1]] = oc.get(g[1], 0) + 1
        else:
            taus.append(_pair(g[1], g[2]))
    coeff = exact(coeff)
    while True:
        moves = []
        for a in range(len(taus)):
            for c in range(a + 1, len(taus)):
                if taus[a] == taus[c]:
                    moves.append(("tau_dup", a, c))
                elif set(taus[a]) & set(taus[c]):
                    moves.append(("tau_shared", a, c))
        for i, n in hc.items():
            if n >= 3:
                moves.append(("h_cube", i))
            if n and oc.get(i, 0):
                moves.append(("kill_ho", i))
        for i, n in oc.items():
            if n >= 2:
                moves.append(("kill_oo", i))
        tau_idx = {x for pr in taus for x in pr}
        for i in tau_idx:
            if hc.get(i, 0):
                moves.append(("kill_tau_h", i))
            if oc.get(i, 0):
                moves.append(("kill_tau_o", i))
        if not moves:
            break
        move = moves[rng.randrange(len(moves))]
        kind = move[0]
        if kind == "tau_dup":
            _, a, c = move
            i, j = taus[a]
            del taus[c], taus[a]
            coeff *= p.eps2 * 2 * p.b
            oc[i] = oc.get(i, 0) + 1
            oc[j] = oc.get(j, 0) + 1
        elif kind == "tau_shared":
            _, a, c = move
            i = (set(taus[a]) & set(taus[c])).pop()
            j = (set(taus[a]) - {i}).pop()
            k = (set(taus[c]) - {i}).pop()
            del taus[c], taus[a]
            coeff *= p.eps3
            taus.append(_pair(j, k))
            oc[i] = oc.get(i, 0) + 1
        elif kind == "h_cube":
            i = move[1]
            hc[i] -= 3
            oc[i] = oc.get(i, 0) + 1
            coeff *= p.d
        else:
            return CycleClass()
        if not coeff:
            return CycleClass()
    mon = Monomial(
        h=tuple(sorted((i, e) for i, e in hc.items() if e)),
        o=tuple(sorted(i for i, n in oc.items() if n)),
        tau=tuple(sorted(taus)),
    )
    return CycleClass({mon: coeff})
