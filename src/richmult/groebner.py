"""Buchberger's algorithm over Q with the coprimality and chain criteria.

Pairs are processed from a queue ordered by the degree of the lcm of the
leading monomials (then by the lcm itself, then by index), which makes the
computation deterministic.  ``reduced_groebner_basis`` returns the unique
reduced basis for the ring's order: monic, autoreduced, sorted by leading
monomial.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .poly import (
    Polynomial,
    PolyRing,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def _reduce_terms(terms: dict, ring: PolyRing, reducers: list) -> dict:
    """Full division remainder of the term dict by reducers (lm, lc, terms)."""
    key = ring.key
    remainder: dict = {}
    work = dict(terms)
    while work:
        lead = max(work, key=key)
        for lm, lc, gterms in reducers:
            if mono_divides(lm, lead):
                shift = mono_div(lead, lm)
                coeff = work[lead] / lc
                for e, c in gterms.items():
                    e2 = mono_mul(e, shift)
                    s = work.get(e2)
                    if s is None:
                        work[e2] = -coeff * c
                    else:
                        s = s - coeff * c
                        if s:
                            work[e2] = s
                        else:
                            del work[e2]
                break
        else:
            remainder[lead] = work.pop(lead)
    return remainder


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under full division by the basis, in basis order.

    If the basis is a Groebner basis the result is the canonical normal
    form; it is zero exactly when f lies in the ideal.
    """
    reducers = [
        (g.leading_exps(), g.leading_coeff(), g.terms) for g in basis if not g.is_zero()
    ]
    if not reducers:
        return f
    return Polynomial(f.ring, _reduce_terms(f.terms, f.ring, reducers))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_exps(), g.leading_exps()
    lcm = mono_lcm(lf, lg)
    mf = mono_div(lcm, lf)
    mg = mono_div(lcm, lg)
    a = Polynomial(f.ring, {mf: 1 / f.leading_coeff()}) * f
    b = Polynomial(g.ring, {mg: 1 / g.leading_coeff()}) * g
    return a - b


def buchberger(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """A (not yet reduced) Groebner basis of the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.key
    G = [g.monic() for g in sorted(gens, key=lambda g: key(g.leading_exps()))]
    lms = [g.leading_exps() for g in G]

    pending: set = set()
    heap: list = []

    def push(i: int, j: int):
        lcm = mono_lcm(lms[i], lms[j])
        heapq.heappush(heap, (mono_deg(lcm), key(lcm), i, j))
        pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = lms[i], lms[j]
        lcm = mono_lcm(li, lj)
        # Coprimality criterion: disjoint leading monomials reduce to zero.
        if lcm == mono_mul(li, lj):
            continue
        # Chain criterion: a third leading monomial dividing the lcm whose
        # pairs with i and j have both been handled already.
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(lms[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(G[i], G[j])
        reducers = [(g.leading_exps(), g.leading_coeff(), g.terms) for g in G]
        r = _reduce_terms(s.terms, ring, reducers)
        if r:
            h = Polynomial(ring, r).monic()
            G.append(h)
            lms.append(h.leading_exps())
            new = len(G) - 1
            for k in range(new):
                push(k, new)
    return G


def _minimalize(G: list[Polynomial]) -> list[Polynomial]:
    """Drop basis elements whose leading monomial is divisible by another's."""
    out = []
    lms = [g.leading_exps() for g in G]
    for i, g in enumerate(G):
        li = lms[i]
        redundant = False
        for j, lj in enumerate(lms):
            if i == j:
                continue
            if mono_divides(lj, li) and (lj != li or j < i):
                redundant = True
                break
        if redundant:
            continue
        out.append(g)
    return out


def reduced_groebner_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """The unique reduced Groebner basis: monic, fully autoreduced, sorted
    by increasing leading monomial.  The unit ideal yields [1]."""
    G = buchberger(gens)
    if not G:
        return []
    ring = G[0].ring
    G = _minimalize(G)
    G.sort(key=lambda g: ring.key(g.leading_exps()))
    reduced = []
    for i, g in enumerate(G):
        others = G[:i] + G[i + 1 :]
        r = normal_form(g, others)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: ring.key(g.leading_exps()))
    return reduced


def dedupe_normalized(gens: Iterable[Polynomial]) -> list[Polynomial]:
    """The generators made primitive, each kept once, in first-seen order."""
    seen = set()
    out = []
    for g in gens:
        g = g.primitive()
        key = frozenset(g.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def interreduce(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Autoreduce a generating set without completing it to a Groebner
    basis: repeatedly replace each generator by its remainder modulo the
    others until stable.  The ideal is unchanged; the output is
    content-normalized and sorted by decreasing leading monomial."""
    current = [g for g in gens if not g.is_zero()]
    if not current:
        return []
    ring = current[0].ring
    changed = True
    while changed:
        changed = False
        current.sort(key=lambda g: ring.key(g.leading_exps()))
        for i in range(len(current)):
            others = current[:i] + current[i + 1 :]
            r = normal_form(current[i], others)
            if r.terms != current[i].terms:
                changed = True
                if r.is_zero():
                    current = others
                    break
                current[i] = r
    out = [g.primitive() for g in current]
    out.sort(key=lambda g: ring.key(g.leading_exps()), reverse=True)
    return out


class PolyIdeal:
    """A finitely generated ideal in a :class:`PolyRing`.

    The empty generator list is the zero ideal; the unit-ideal marker
    (single generator 1) encodes an empty chart intersection.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb = None

    @classmethod
    def unit_marker(cls, ring: PolyRing) -> "PolyIdeal":
        return cls(ring, [ring.one()])

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        """Whether the ideal is all of the ring (empty vanishing locus)."""
        if any(g.is_constant() for g in self.gens):
            return True
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = tuple(reduced_groebner_basis(self.gens))
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.groebner()).is_zero()

    def leading_exponents(self) -> list:
        return [g.leading_exps() for g in self.groebner()]

    def vanishes_at(self, values) -> bool:
        return all(g.evaluate(values) == 0 for g in self.gens)

    def canonical_key(self):
        """Hashable identity of the ideal: ring data plus the reduced basis."""
        return (
            self.ring.names,
            self.ring.order,
            tuple(str(g) for g in self.groebner()),
        )

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"PolyIdeal({inside})"
