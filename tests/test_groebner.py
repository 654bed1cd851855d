"""Buchberger, normal forms, ideal membership, ideals built on a kept basis."""

import heapq
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import richmult.hilbert
import richmult.poly
from richmult.groebner import (
    PolyIdeal,
    _reduce_terms,
    dedupe_normalized,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from richmult import charts, groebner, localmult
from richmult.charts import build_chart, opposite_ideal, schubert_ideal
from richmult.hilbert import ideal_dimension, ideal_hilbert_data
from richmult.localmult import multiplicity_at_origin
from richmult.poly import (
    Polynomial,
    PolyRing,
    mono_deg,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from richmult.weyl import GrassShape, all_coset_reps, bruhat_leq, parse_coset

from polytext import parse_polynomial


@pytest.fixture
def xy():
    return PolyRing(("x", "y"))


def polys(ring, *texts):
    return [parse_polynomial(ring, t) for t in texts]


class TestBasics:
    def test_single_generator(self, xy):
        (g,) = reduced_groebner_basis(polys(xy, "x"))
        assert str(g) == "x"

    def test_unit_ideal(self, xy):
        basis = reduced_groebner_basis(polys(xy, "x", "x + 1"))
        assert len(basis) == 1 and basis[0].is_constant()

    def test_zero_input(self, xy):
        assert reduced_groebner_basis([]) == []

    def test_s_polynomial_cancels_leads(self, xy):
        f, g = polys(xy, "x^2*y - 1", "x*y^2 - x")
        s = s_polynomial(f, g)
        # Leading terms x^2y and xy^2 both divide into lcm x^2y^2 and cancel.
        assert s.total_degree() < 4


class TestEllipticExample:
    """x^2 - y and x*y - 1: three solutions counted with multiplicity."""

    def setup_method(self):
        self.ring = PolyRing(("x", "y"))
        self.ideal = PolyIdeal(self.ring, polys(self.ring, "x^2 - y", "x*y - 1"))

    def test_dimension_zero(self):
        assert ideal_dimension(self.ideal) == 0

    def test_quotient_length_three(self):
        # Hand oracle: y = x^2 forces x^3 = 1, three simple roots, and y is
        # determined by x, so the quotient has vector-space dimension 3.
        assert ideal_hilbert_data(self.ideal).degree == 3

    def test_membership_by_elimination(self):
        # x^3 - 1 = x*(x^2 - y) + (x*y - 1) lies in the ideal.
        basis = self.ideal.groebner()
        f = parse_polynomial(self.ring, "x^3 - 1")
        assert normal_form(f, basis).is_zero()
        assert not normal_form(parse_polynomial(self.ring, "x - 1"), basis).is_zero()


class TestNormalForm:
    def test_generator_reduces_to_zero(self, xy):
        gens = polys(xy, "x^2 - y", "x*y - 1")
        basis = reduced_groebner_basis(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()

    def test_one_survives_proper_ideal(self, xy):
        basis = reduced_groebner_basis(polys(xy, "x^2 - y"))
        assert normal_form(xy.one(), basis) == xy.one()

    def test_no_leading_divisibility_in_remainder(self, xy):
        basis = reduced_groebner_basis(polys(xy, "x^2 - y", "x*y - 1"))
        f = parse_polynomial(xy, "x^5 + y^5 + x*y + 1")
        r = normal_form(f, basis)
        from richmult.poly import mono_divides

        for e in r.terms:
            assert not any(mono_divides(g.leading_exps(), e) for g in basis)


class TestReducedBasis:
    def test_idempotent(self, xy):
        gens = polys(xy, "x^2 - y", "x*y - 1")
        basis = reduced_groebner_basis(gens)
        again = reduced_groebner_basis(basis)
        assert [str(g) for g in basis] == [str(g) for g in again]

    def test_monic_and_autoreduced(self, xy):
        basis = reduced_groebner_basis(polys(xy, "2*x^2 - 2*y", "3*x*y - 3"))
        from richmult.poly import mono_divides

        for g in basis:
            assert g.leading_coeff() == 1
            for h in basis:
                if h is g:
                    continue
                for e in g.terms:
                    assert not mono_divides(h.leading_exps(), e)

    def test_katsura_like_system(self):
        ring = PolyRing(("a", "b", "c"))
        gens = polys(
            ring,
            "a + 2*b + 2*c - 1",
            "a^2 + 2*b^2 + 2*c^2 - a",
            "2*a*b + 2*b*c - b",
        )
        ideal = PolyIdeal(ring, gens)
        basis = ideal.groebner()
        for g in gens:
            assert normal_form(g, basis).is_zero()
        assert ideal_dimension(ideal) == 0


# ---------------------------------------------------------------------------
# Reference: the basis routine as three functions (Buchberger's loop with a
# reducer list rebuilt per S-pair, a separate minimalization, a reduction
# tail that drops zeros and re-sorts), kept to check the single routine.
# ---------------------------------------------------------------------------


def _reference_buchberger(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.key
    G = [g.monic() for g in sorted(gens, key=lambda g: key(g.leading_exps()))]
    lms = [g.leading_exps() for g in G]
    pending, heap = set(), []

    def push(i, j):
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
        if lcm == mono_mul(li, lj):
            continue
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
            for k in range(len(G) - 1):
                push(k, len(G) - 1)
    return G


def _reference_minimalize(G):
    out = []
    lms = [g.leading_exps() for g in G]
    for i, g in enumerate(G):
        if not any(
            mono_divides(lj, lms[i]) and (lj != lms[i] or j < i)
            for j, lj in enumerate(lms)
            if j != i
        ):
            out.append(g)
    return out


def _reference_reduced_basis(gens):
    G = _reference_buchberger(gens)
    if not G:
        return []
    ring = G[0].ring
    G = _reference_minimalize(G)
    G.sort(key=lambda g: ring.key(g.leading_exps()))
    reduced = []
    for i, g in enumerate(G):
        r = normal_form(g, G[:i] + G[i + 1 :])
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: ring.key(g.leading_exps()))
    return reduced


@st.composite
def small_generators(draw):
    """1-3 generators in 2-3 variables of total degree <= 2, coefficients
    p/q with |p| <= 5 and 1 <= q <= 3: homogeneous, mixed, or a rescaled
    repeat of an earlier generator."""
    ring = PolyRing(("x", "y", "z")[: draw(st.integers(2, 3))])
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))

    def monomial(deg):
        e = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1), min_size=deg, max_size=deg)):
            e[i] += 1
        return tuple(e)

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["homogeneous", "mixed", "repeat"]))
        if kind == "repeat" and gens:
            gens.append(draw(st.sampled_from(gens)) * draw(coeffs.filter(bool)))
            continue
        degree = draw(st.integers(1, 2))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            deg = degree if kind == "homogeneous" else draw(st.integers(0, 2))
            terms[monomial(deg)] = draw(coeffs)
        gens.append(ring.from_terms(terms))
    return gens


class TestSingleRoutine:
    @given(small_generators())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, gens):
        got = reduced_groebner_basis(gens)
        assert [str(g) for g in got] == [str(g) for g in _reference_reduced_basis(gens)]

    @pytest.mark.parametrize("texts,expected", [
        (("x*y - 1", "x", "y"), ["1"]),  # unit ideal
        ((), []),  # no generators
        (("0",), []),
        (("2*x^2 - 2*y", "x^2 - y", "x^2 - y"), ["x^2 - y"]),  # duplicates
        (("x - y", "y^2 - 1/3*y"), ["x - y", "y^2 - 1/3*y"]),  # already reduced
        (("x + y", "x", "y^2 + x"), ["y", "x"]),  # equal leading monomials
        (("x^2 - y", "x*y - 1"), ["y^2 - x", "x*y - 1", "x^2 - y"]),  # the loop adds y^2 - x
    ])
    def test_fixed_cases(self, xy, texts, expected):
        gens = polys(xy, *texts)
        got = [str(g) for g in reduced_groebner_basis(gens)]
        assert got == expected == [str(g) for g in _reference_reduced_basis(gens)]

    def test_one_monomial_minimalization(self):
        assert richmult.hilbert.minimalize_monomials is richmult.poly.minimalize_monomials


# ---------------------------------------------------------------------------
# Reference: the autoreduction stratum ideals and tangent cones used before
# they kept their reduced basis (a fixed-point loop over remainders modulo
# the other generators), and the tangent cone built on it.
# ---------------------------------------------------------------------------


def _reference_interreduce(gens):
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


def _reference_tangent_cone(ideal):
    """The ideal of lowest forms: the cone-order basis of the homogenized
    ideal with t set to 1, each element cut to its lowest-degree part, and
    interreduced.  Both cuts are done here on term dicts."""
    ring = ideal.ring
    basis = list(ideal.groebner())
    if not basis:
        return PolyIdeal(ring, [])
    if all(g.is_homogeneous() for g in basis):
        return PolyIdeal(ring, [g.primitive() for g in basis])
    hring = ring.homogenized()
    lowest = []
    for h in reduced_groebner_basis([g.homogenize(hring) for g in basis]):
        # h is homogeneous, so setting t = 1 merges no two terms.
        terms = {e[1:]: c for e, c in h.terms.items()}
        low = min(map(mono_deg, terms))
        lowest.append(ring.from_terms({e: c for e, c in terms.items() if mono_deg(e) == low}))
    return PolyIdeal(ring, _reference_interreduce(dedupe_normalized(lowest)))


def _reference_multiplicity(ideal):
    cone = _reference_tangent_cone(ideal)
    return 1 if cone.is_zero_ideal() else ideal_hilbert_data(cone).degree


@st.composite
def ideals_at_origin(draw):
    """1-3 generators without constant term in 2-3 variables, of degree
    <= 3, coefficients p/q with |p| <= 4 and 1 <= q <= 3: forms, mixed
    polynomials, and a first generator disguised by a multiple of the
    second."""
    ring = PolyRing(("x", "y", "z")[: draw(st.integers(2, 3))])
    coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

    def polynomial(degrees):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            deg = draw(st.sampled_from(degrees))
            parts = draw(st.lists(st.integers(0, ring.nvars - 1), min_size=deg, max_size=deg))
            terms[tuple(parts.count(i) for i in range(ring.nvars))] = draw(coeffs)
        return ring.from_terms(terms)

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(polynomial([draw(st.integers(1, 3))]))
        else:
            gens.append(polynomial([1, 2, 3]))
    if len(gens) > 1 and draw(st.booleans()):
        gens[0] = gens[0] + polynomial([0, 1]) * gens[1]
    return PolyIdeal(ring, gens)


def _count_basis_runs(monkeypatch):
    """Record every reduced_groebner_basis call from the ideal, chart and
    tangent-cone code; the list grows by one per call."""
    calls = []
    real = groebner.reduced_groebner_basis

    def counted(gens):
        calls.append(gens)
        return real(gens)

    for module in (groebner, charts, localmult):
        monkeypatch.setattr(module, "reduced_groebner_basis", counted)
    return calls


class TestOfBasis:
    def test_generators_primitive_largest_first(self, xy):
        basis = reduced_groebner_basis(polys(xy, "2*x^2 - 2*y", "3*x*y - 3"))
        ideal = PolyIdeal.of_basis(xy, basis)
        assert [str(g) for g in ideal.gens] == ["x^2 - y", "x*y - 1", "y^2 - x"]
        assert ideal.groebner() == tuple(basis)

    def test_zero_and_unit(self, xy):
        assert PolyIdeal.of_basis(xy, []).is_zero_ideal()
        assert PolyIdeal.of_basis(xy, reduced_groebner_basis(polys(xy, "x", "x + 1"))).is_unit()

    @given(ideals_at_origin())
    @settings(max_examples=200, deadline=None)
    def test_tangent_cone_matches_reference(self, ideal):
        assert multiplicity_at_origin(ideal) == _reference_multiplicity(ideal)

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (2, 6), (3, 6)])
    def test_stratum_ideals_match_autoreduced_minors(self, monkeypatch, d, n):
        """The kept basis, made primitive and largest first, is exactly
        what autoreducing the deduplicated minors gave.  An opposite ideal
        runs one basis, on the minors of the Schubert ideal of w0·v on the
        chart of w0·tau; its generators are those autoreduced minors with
        each x_q_p renamed x_{n+1-q}_{n+1-p}, ordered in this chart's
        ring."""
        calls = _count_basis_runs(monkeypatch)
        shape = GrassShape(d, n)
        reps = all_coset_reps(shape)

        def renamed(g, chart):
            text = re.sub(
                r"x_(\d+)_(\d+)", lambda m: f"x_{n + 1 - int(m[1])}_{n + 1 - int(m[2])}", str(g)
            )
            return parse_polynomial(chart.ring, text)

        for tau in reps:
            chart = build_chart(shape, tau)
            for build, below in ((schubert_ideal, False), (opposite_ideal, True)):
                for x in reps:
                    if not (bruhat_leq(x, tau) if below else bruhat_leq(tau, x)):
                        continue
                    calls.clear()
                    ideal = build(chart, x)
                    (minors,) = calls
                    expected = _reference_interreduce(minors)
                    if below:
                        expected = sorted(
                            (renamed(g, chart) for g in expected),
                            key=lambda g: chart.ring.key(g.leading_exps()), reverse=True,
                        )
                    assert [str(g) for g in ideal.gens] == [str(g) for g in expected]

    def test_stratum_ideals_run_no_second_basis(self, monkeypatch):
        shape = GrassShape(3, 7)
        chart = build_chart(shape, parse_coset(shape, "256"))
        ideals = [
            schubert_ideal(chart, parse_coset(shape, "356")),
            opposite_ideal(chart, parse_coset(shape, "125")),
        ]
        calls = _count_basis_runs(monkeypatch)
        for ideal in ideals:
            assert len(ideal.groebner()) == len(ideal.gens) > 0
        assert calls == []

    def test_homogeneous_multiplicity_runs_no_basis(self, monkeypatch):
        xyz = PolyRing(("x", "y", "z"))
        ideal = PolyIdeal(xyz, polys(xyz, "x*y - z^2", "2*x^2*z"))
        expected = _reference_multiplicity(ideal)
        calls = _count_basis_runs(monkeypatch)
        assert multiplicity_at_origin(ideal) == expected
        assert calls == []

    def test_non_homogeneous_multiplicity_runs_one_basis(self, monkeypatch):
        """A translated ideal keeps its basis, so the multiplicity takes one
        run: the cone-order basis of the homogenized ideal."""
        xyz = PolyRing(("x", "y", "z"))
        basis = reduced_groebner_basis(polys(xyz, "x*y - z^2", "x^2 - y^3"))
        moved = PolyIdeal.of_basis(xyz, basis).translated((1, 1, 1), xyz)
        expected = _reference_multiplicity(moved)
        calls = _count_basis_runs(monkeypatch)
        assert multiplicity_at_origin(moved) == expected == 1
        assert len(calls) == 1 and calls[0][0].ring == xyz.homogenized()

    @pytest.mark.parametrize("sweep", ["G(2,4) 5-value", "quadric --qn 2", "quadric --qn 3"])
    def test_sweep_multiplicities_match_reference(self, monkeypatch, sweep):
        """Every translated side and oracle ideal of the sweep has the
        reference cone's degree as its multiplicity."""
        from richmult import engine
        from richmult.engine import SweepConfig, verify_theorem
        from richmult.quadric import QuadricShape, quadric_sweep

        seen = {}
        real = engine.multiplicity_at_origin

        def recorded(ideal, *table):
            mult = real(ideal, *table)
            seen[ideal.ring, tuple(str(g) for g in ideal.gens)] = ideal, mult
            return mult

        monkeypatch.setattr(engine, "multiplicity_at_origin", recorded)
        if sweep.startswith("G"):
            verify_theorem(GrassShape(2, 4), SweepConfig())
        else:
            quadric_sweep(QuadricShape(int(sweep[-1])))
        assert any(not g.is_homogeneous() for ideal, _ in seen.values() for g in ideal.gens)
        for ideal, mult in seen.values():
            assert mult == _reference_multiplicity(ideal), ideal


# ---------------------------------------------------------------------------
# Translated bases, against Buchberger on the translated generators
# ---------------------------------------------------------------------------


@st.composite
def translations(draw):
    """1-3 generators in 2-4 variables under grevlex, of degree <= 3 with
    1-4 terms and coefficients p/q (|p| <= 5, 1 <= q <= 3), and rational
    offsets p/q (|p| <= 3, 1 <= q <= 3), all zero in some examples."""
    n = draw(st.integers(2, 4))
    ring = PolyRing(("x", "y", "z", "w")[:n])
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            parts = draw(st.lists(st.integers(0, n - 1), max_size=3))
            terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
        gens.append(ring.from_terms(terms))
    zero = [Fraction(0)] * n
    offsets = draw(st.one_of(
        st.just(zero),
        st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=n, max_size=n),
    ))
    return ring, gens, offsets


class TestTranslatedBasis:
    @given(translations())
    @settings(max_examples=200, deadline=None)
    def test_matches_buchberger_on_shifted_generators(self, case):
        ring, gens, offsets = case
        target = PolyRing(tuple(name + "1" for name in ring.names))
        basis = reduced_groebner_basis(gens)
        built = PolyIdeal.of_basis(ring, basis)
        for into, moved in (
            (ring, built.translated(offsets, ring)),
            (target, built.translated(offsets, target)),
        ):
            expected = reduced_groebner_basis([g.shift(offsets, into) for g in gens])
            got = moved.groebner()
            assert [str(g) for g in got] == [str(g) for g in expected]
            assert [g.leading_exps() for g in got] == [g.leading_exps() for g in basis]

        # The three kinds of input of a translation: built on its basis,
        # keeping a computed basis, and keeping none.  The generators are
        # the shifted ones made primitive either way; only the first kind
        # gives an ideal that keeps a basis.
        computed = PolyIdeal(ring, gens)
        computed.groebner()
        expected = [str(g) for g in reduced_groebner_basis([g.shift(offsets, ring) for g in gens])]
        for ideal in (built, computed, PolyIdeal(ring, gens)):
            moved = ideal.translated(offsets, ring)
            assert [g.terms for g in moved.gens] == [
                g.shift(offsets, ring).primitive().terms
                for g in ideal.gens if not g.shift(offsets, ring).is_zero()
            ]
            assert (moved._gb is None) == (ideal is not built)
            assert [str(g) for g in moved.groebner()] == expected

    def test_translation_runs_no_basis(self, monkeypatch, xy):
        """A translation keeps the basis of an ideal built on its basis and
        computes none; an ideal that only computed its basis gives a moved
        ideal that keeps none."""
        gens = polys(xy, "x^2 - y", "x*y - 1")
        built = PolyIdeal.of_basis(xy, reduced_groebner_basis(gens))
        computed = PolyIdeal(xy, gens)
        computed.groebner()
        fresh = PolyIdeal(xy, gens)
        calls = _count_basis_runs(monkeypatch)
        assert len(built.translated((1, -2), xy).groebner()) == 3
        assert calls == []
        moved = [ideal.translated((1, -2), xy) for ideal in (computed, fresh)]
        assert calls == []
        assert len(moved[0].groebner()) == 3
        assert len(calls) == 1

    def test_moved_leading_monomial_raises(self, monkeypatch, xy):
        """Under an order that is not graded a translation can move a
        leading monomial; the kept basis would then be wrong, so it raises."""
        ideal = PolyIdeal.of_basis(xy, reduced_groebner_basis(polys(xy, "x^2 - y")))
        target = PolyRing(("u", "v"))
        # Lower degree first: the constant term of (u + 1)^2 - v leads.
        monkeypatch.setattr(target, "_key", lambda e: (-sum(e), e))
        with pytest.raises(RuntimeError, match="leading monomial"):
            ideal.translated((1, 0), target)
        graded = PolyRing(("u", "v"))
        moved = ideal.translated((1, 0), graded)
        assert [str(g) for g in moved.groebner()] == ["u^2 + 2*u - v + 1"]


# ---------------------------------------------------------------------------
# Sums of ideals in disjoint variables, against Buchberger on the union
# ---------------------------------------------------------------------------


@st.composite
def disjoint_sides(draw):
    """Two ideals built on their reduced bases in a 2-5-variable ring under
    grevlex, over disjoint nonempty random subsets of the variables (a
    variable may belong to neither side): 0-3 generators per side, of
    degree 1-3 with 1-3 terms (a constant term among them) and
    coefficients p/q (|p| <= 5, 1 <= q <= 3), and rational offsets p/q
    (|p| <= 3, 1 <= q <= 3)."""
    n = draw(st.integers(2, 5))
    ring = PolyRing(("x", "y", "z", "w", "v")[:n])
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(1, n - 1))
    end = draw(st.integers(cut + 1, n))
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    sides = []
    for own in (order[:cut], order[cut:end]):
        gens = []
        for _ in range(draw(st.integers(0, 3))):
            terms = {}
            for size in range(draw(st.integers(1, 3))):
                parts = draw(st.lists(st.sampled_from(own), min_size=size == 0, max_size=3))
                terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
            gens.append(ring.from_terms(terms))
        sides.append(PolyIdeal.of_basis(ring, reduced_groebner_basis(gens)))
    offsets = draw(st.lists(
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=n, max_size=n
    ))
    return ring, sides[0], sides[1], tuple(offsets)


class TestSum:
    @given(disjoint_sides())
    @settings(max_examples=200, deadline=None)
    def test_matches_buchberger_on_the_union(self, case):
        ring, a, b, offsets = case
        total = a + b
        one = (ring.one(),)
        if a.is_unit() or b.is_unit():
            assert total.gens == one
        else:
            assert total.gens == a.gens + b.gens
        expected = reduced_groebner_basis(a.gens + b.gens)
        assert [str(g) for g in total.groebner()] == [str(g) for g in expected]

        # Translating the sum is summing the translations.
        moved = total.translated(offsets, ring)
        assembled = a.translated(offsets, ring) + b.translated(offsets, ring)
        assert [g.terms for g in moved.gens] == [g.terms for g in assembled.gens]
        assert [str(g) for g in moved.groebner()] == [str(g) for g in assembled.groebner()]
        assert [str(g) for g in moved.groebner()] == [
            str(g) for g in reduced_groebner_basis(moved.gens)
        ]

        # A unit operand gives the unit marker; a shared variable raises.
        unit = PolyIdeal.of_basis(ring, [ring.one()])
        for side in (a, b):
            assert (side + unit).gens == (unit + side).gens == one
            assert (PolyIdeal.unit_marker(ring) + side).gens == one
            if side.is_unit():
                continue
            for i in {i for g in side.groebner() for e in g.terms for i, k in enumerate(e) if k}:
                other = PolyIdeal.of_basis(ring, [ring.var(i)])
                with pytest.raises(RuntimeError, match="share the variables"):
                    side + other
                with pytest.raises(RuntimeError, match="share the variables"):
                    other + side

    def test_needs_ideals_built_on_their_basis(self, xy):
        built = PolyIdeal.of_basis(xy, reduced_groebner_basis(polys(xy, "x^2 - 1")))
        plain = PolyIdeal(xy, polys(xy, "y^2 - 1"))
        with pytest.raises(ValueError, match="reduced basis"):
            built + plain
        with pytest.raises(ValueError, match="reduced basis"):
            plain + built


# ---------------------------------------------------------------------------
# Permuted bases: the leading-term certificate, or Buchberger when it fails
# ---------------------------------------------------------------------------


def _carried(g, source, ring):
    """g with variable source[j] moved to position j of ring."""
    return Polynomial(ring, {tuple(e[i] for i in source): c for e, c in g.terms.items()})


@st.composite
def permutations(draw):
    """The generators of ``translations`` and a permutation of their ring's
    variables, into a ring with other names."""
    ring, gens, _ = draw(translations())
    source = draw(st.permutations(range(ring.nvars)))
    return ring, gens, list(source)


class TestPermutedBasis:
    def test_failed_certificate_falls_back_to_buchberger(self, monkeypatch):
        """In grevlex x > y > z the leading monomial of x*y - z^2 is x*y.
        Swapping x and z gives z*y - x^2, led by x^2, not by the swapped
        x*y: the certificate fails and Buchberger computes the basis."""
        xyz = PolyRing(("x", "y", "z"))
        ideal = PolyIdeal.of_basis(xyz, reduced_groebner_basis(polys(xyz, "x*y - z^2")))
        calls = _count_basis_runs(monkeypatch)
        swapped = ideal.permuted([2, 1, 0], xyz)
        assert len(calls) == 1
        expected = reduced_groebner_basis(polys(xyz, "z*y - x^2"))
        assert [str(g) for g in swapped.groebner()] == [str(g) for g in expected] == ["x^2 - y*z"]
        assert [str(g) for g in swapped.gens] == ["x^2 - y*z"]

    def test_certified_basis_runs_no_buchberger(self, monkeypatch):
        """Swapping x and y keeps the leading term of x^2*y - z, so the
        swapped basis is kept as it is."""
        xyz = PolyRing(("x", "y", "z"))
        ideal = PolyIdeal.of_basis(xyz, reduced_groebner_basis(polys(xyz, "2*x^2*y - 2*z")))
        calls = _count_basis_runs(monkeypatch)
        swapped = ideal.permuted([1, 0, 2], xyz)
        assert calls == []
        assert [str(g) for g in swapped.gens] == ["x*y^2 - z"]
        assert [str(g) for g in swapped.groebner()] == [
            str(g) for g in reduced_groebner_basis(swapped.gens)
        ]

    def test_rejects_a_non_permutation(self, xy):
        ideal = PolyIdeal(xy, polys(xy, "x - y"))
        with pytest.raises(ValueError, match="not a permutation"):
            ideal.permuted([0, 0], xy)
        with pytest.raises(ValueError, match="not a permutation"):
            ideal.permuted([1, 0], PolyRing(("x", "y", "z")))

    @given(permutations())
    @settings(max_examples=300, deadline=None)
    def test_matches_buchberger_on_permuted_generators(self, case):
        """Certified or recomputed, the permuted ideal keeps the reduced
        basis of the permuted generators and the generators of
        ``of_basis`` on it; an ideal that keeps no basis gets its
        generators carried over, in order."""
        ring, gens, source = case
        target = PolyRing(tuple(name + "1" for name in ring.names))
        carried = [_carried(g, source, target) for g in gens]
        expected = reduced_groebner_basis(carried)
        built = PolyIdeal.of_basis(ring, reduced_groebner_basis(gens))
        permuted = built.permuted(source, target)
        assert permuted.ring == target
        assert [str(g) for g in permuted.groebner()] == [str(g) for g in expected]
        assert [g.terms for g in permuted.gens] == [
            g.terms for g in PolyIdeal.of_basis(target, expected).gens
        ]
        plain = PolyIdeal(ring, gens).permuted(source, target)
        assert plain._gb is None
        assert [g.terms for g in plain.gens] == [g.terms for g in carried if not g.is_zero()]
