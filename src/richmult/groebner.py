"""Reduced Groebner bases over Q, normal forms and polynomial ideals.

``reduced_groebner_basis`` is the one basis routine, in three stages:

1. Buchberger's pair loop with the coprimality and chain criteria.  A
   pair with coprime leading monomials is never queued; the others are
   processed from a queue ordered by the degree of the lcm of the
   leading monomials (then by the lcm itself, then by index), which makes
   the computation deterministic.
2. A minimal basis: the first element seen for each minimal leading
   monomial.
3. Each kept element reduced by the ones before it.

A minimal basis reduced this way is the unique reduced basis for the
ring's order: monic, autoreduced, sorted by leading monomial.  It is the
one reduction routine: ``PolyIdeal.of_basis`` builds an ideal on such a
basis and keeps it, so the basis is never computed twice.

Two more ideals are built on a kept basis without a Buchberger run.  A
sum of ideals whose bases use disjoint variables (``PolyIdeal.__add__``)
keeps the two bases merged by leading monomial.  A translation
x -> x + m (``PolyIdeal.translated``) keeps leading terms under a graded
order, so the shifted basis is the moved ideal's reduced basis.  A
variable permutation (``PolyIdeal.permuted``) keeps a basis whose leading
terms it keeps, which a cheap certificate checks and Buchberger replaces
when it fails.  Buchberger runs once per Schubert chart ideal: never on a
sum, never at a point, and on a permuted ideal only when the certificate
fails.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterable, Sequence

from .poly import (
    Polynomial,
    PolyRing,
    minimalize_monomials,
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


def reduced_groebner_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """The unique reduced Groebner basis: monic, fully autoreduced, sorted
    by increasing leading monomial.  The unit ideal yields [1]."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.key
    G = [g.monic() for g in sorted(gens, key=lambda g: key(g.leading_exps()))]
    lms = [g.leading_exps() for g in G]
    reducers = [(lm, g.leading_coeff(), g.terms) for lm, g in zip(lms, G)]

    # Stage 1: Buchberger's pair loop.  Each pair is queued once, with its
    # lcm, and leaves `pending` when it is popped.
    pending: set = set()
    heap: list = []

    def push(i: int, j: int):
        lcm = mono_lcm(lms[i], lms[j])
        # Coprimality criterion: a pair with disjoint leading monomials
        # reduces to zero, so it is never queued and counts as handled.
        if lcm != mono_mul(lms[i], lms[j]):
            heapq.heappush(heap, (mono_deg(lcm), key(lcm), i, j, lcm))
            pending.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push(i, j)

    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
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
        r = _reduce_terms(s_polynomial(G[i], G[j]).terms, ring, reducers)
        if r:
            h = Polynomial(ring, r).monic()
            G.append(h)
            lms.append(h.leading_exps())
            reducers.append((lms[-1], h.leading_coeff(), h.terms))
            new = len(G) - 1
            for k in range(new):
                push(k, new)

    # Stage 2: a minimal basis, the first element seen for each minimal
    # leading monomial.
    first: dict = {}
    for lm, g in zip(lms, G):
        first.setdefault(lm, g)
    G = [first[lm] for lm in sorted(minimalize_monomials(lms), key=key)]
    # Stage 3: reduce each element by the ones before it.  Its terms stay
    # at most its leading monomial, which a later, larger leading monomial
    # cannot divide.  No earlier one divides its own, so it keeps its
    # leading term 1: nothing vanishes and the order stands.
    return [normal_form(g, G[:i]) for i, g in enumerate(G)]


def _support(basis: Sequence[Polynomial]) -> set:
    """The positions of the variables that occur in the basis."""
    return {i for g in basis for e in g.terms for i, k in enumerate(e) if k}


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


class PolyIdeal:
    """A finitely generated ideal in a :class:`PolyRing`.

    The empty generator list is the zero ideal; the unit-ideal marker
    (single generator 1) encodes an empty chart intersection.
    """

    __slots__ = ("ring", "gens", "_gb", "_of_basis")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb = None
        self._of_basis = False

    @classmethod
    def unit_marker(cls, ring: PolyRing) -> "PolyIdeal":
        return cls(ring, [ring.one()])

    @classmethod
    def of_basis(cls, ring: PolyRing, basis: Sequence[Polynomial]) -> "PolyIdeal":
        """The ideal with the reduced Groebner basis ``basis``, which must be
        what ``reduced_groebner_basis`` returns for this ring's order.  The
        generators are the basis elements made primitive, largest leading
        monomial first; the basis is kept, so ``groebner()`` does no work.
        Any other input gives an ideal whose ``groebner()`` is wrong."""
        return cls._on_basis(ring, [g.primitive() for g in reversed(basis)], basis)

    @classmethod
    def _on_basis(cls, ring: PolyRing, gens, basis) -> "PolyIdeal":
        """The ideal of ``gens``, which are the reduced basis ``basis`` up to
        scale, keeping that basis."""
        ideal = cls(ring, gens)
        ideal._gb, ideal._of_basis = tuple(basis), True
        return ideal

    def translated(self, offsets: Sequence, ring: PolyRing) -> "PolyIdeal":
        """The ideal under x -> x + offsets, in ``ring``: each generator
        shifted and made primitive, in order.  If the generators are the
        kept reduced basis up to scale (``of_basis`` and ``+`` build such
        ideals, and so does this), the result keeps the moved basis: the
        shifted generators made monic, matched to the kept basis by
        leading monomial, with no Buchberger run and no reduction.

        That is the moved ideal's reduced basis when the order (the same on
        both rings) is graded, as both orders here are.  A translation keeps
        every polynomial's top-degree form, so under a graded order it keeps
        its leading term: the moved ideal has the leading monomials of the
        ideal, and the shifted basis is a monic Groebner basis of it.  Each
        term of a shifted element divides a term of the element.  In a
        reduced basis no tail term lies in the leading-term ideal, so none
        of its divisors does, and neither does a proper divisor of a
        leading monomial (the basis is minimal).  So the shifted basis is
        reduced, and as the reduced basis is unique it is the one
        Buchberger would give.  A shifted element whose leading monomial
        moved raises ``RuntimeError``."""
        gens = [g.shift(offsets, ring).primitive() for g in self.gens]
        if not self._of_basis:
            return PolyIdeal(ring, gens)
        shifted = sorted((g.monic() for g in gens), key=lambda g: ring.key(g.leading_exps()))
        for g, h in zip(self._gb, shifted):
            if h.leading_exps() != g.leading_exps():
                raise RuntimeError(
                    f"translation moved the leading monomial of {g} to that of {h}: "
                    f"the order of {ring} is not graded"
                )
        return PolyIdeal._on_basis(ring, gens, shifted)

    def permuted(self, source: Sequence[int], ring: PolyRing) -> "PolyIdeal":
        """The ideal under the variable permutation sigma that puts variable
        ``source[j]`` of this ring at position j of ``ring``, a ring of the
        same arity: each generator carried over, in order.  If the ideal
        keeps its reduced basis G (``of_basis``, ``+`` and ``translated``
        build such ideals), the result keeps the reduced basis of ``ring``'s
        order: sigma(G) when a leading-term certificate holds, else the one
        ``reduced_groebner_basis`` computes from sigma(G).

        The certificate: for every g in G, the leading monomial of sigma(g)
        under ``ring``'s order is sigma of the leading monomial of g.  Then
        the permuted ideal's initial ideal contains sigma(in(I)).  Both
        orders are graded, so the two initial ideals count the same number
        of monomials in each degree (the dimension of the ideal's part of
        degree at most k, which sigma keeps).  The certified one contains
        the other, so the two are equal, and sigma(G) is a Groebner basis.
        A variable permutation preserves divisibility, so sigma(G) is
        reduced as G is, and monic as G is; sorted by leading monomial it
        is the reduced basis.  The check reads each element's terms once
        and runs no Groebner work; an element that fails it sends the whole
        basis to Buchberger, never trusted.  On a certified basis the
        generators are this ideal's, carried over without re-normalising:
        sigma keeps the content, and it keeps the sign of the leading
        coefficient because it keeps the leading term."""
        if sorted(source) != list(range(self.ring.nvars)) or ring.nvars != self.ring.nvars:
            raise ValueError("source is not a permutation of the ring's variables")
        pick = itemgetter(*source) if len(source) > 1 else tuple

        def carry(g: Polynomial) -> Polynomial:
            return Polynomial(ring, {pick(e): c for e, c in g.terms.items()})

        if not self._of_basis:
            return PolyIdeal(ring, [carry(g) for g in self.gens])
        scaled = {g.leading_exps(): g for g in self.gens}
        pairs = []
        for g in self._gb:
            h, lead = carry(g), g.leading_exps()
            if h.leading_exps() != pick(lead):
                return PolyIdeal.of_basis(ring, reduced_groebner_basis([carry(b) for b in self._gb]))
            gen = scaled[lead]
            pairs.append((ring.key(h.leading_exps()), h, h if gen is g else carry(gen)))
        pairs.sort(key=lambda pair: pair[0])
        return PolyIdeal._on_basis(ring, [s for _, _, s in reversed(pairs)], [h for _, h, _ in pairs])

    def __add__(self, other: "PolyIdeal") -> "PolyIdeal":
        """The sum of two ideals built on their reduced bases whose bases use
        disjoint variables: the generators of this ideal, then those of
        ``other``, keeping the two bases merged by leading monomial.  A
        unit operand gives the unit marker; bases that share a variable
        raise ``RuntimeError``.

        The merged basis is the reduced basis of the sum.  A leading
        monomial of one side and one of the other share no variable, so
        they are coprime and Buchberger's first criterion closes every
        cross pair: the union is a Groebner basis.  No leading monomial of
        one side divides a term of the other, which has none of its
        variables, and each side is reduced, so the union is reduced."""
        if self.is_unit() or other.is_unit():
            return PolyIdeal.unit_marker(self.ring)
        if not (self._of_basis and other._of_basis):
            raise ValueError("a sum needs ideals built on their reduced basis")
        shared = _support(self._gb) & _support(other._gb)
        if shared:
            names = ", ".join(self.ring.names[i] for i in sorted(shared))
            raise RuntimeError(f"the bases of a sum share the variables {names}")
        basis = sorted(self._gb + other._gb, key=lambda g: self.ring.key(g.leading_exps()))
        return PolyIdeal._on_basis(self.ring, self.gens + other.gens, basis)

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        """Whether the ideal is all of the ring (empty vanishing locus): its
        reduced basis is [1].  A kept basis answers with no scan."""
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = tuple(reduced_groebner_basis(self.gens))
        return self._gb

    def leading_exponents(self) -> list:
        return [g.leading_exps() for g in self.groebner()]

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
