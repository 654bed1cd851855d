"""Tangent cones, multiplicity at the origin, the Hilbert-Samuel oracle."""

import os
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richmult.charts import build_chart, opposite_ideal, richardson_ideal, schubert_ideal, translate_to_origin
from richmult.engine import enumerate_instances
from richmult.groebner import PolyIdeal
from richmult.hilbert import ideal_dimension
from richmult.localmult import (
    OracleBudgetError,
    OriginNotOnVarietyError,
    fit_leading_coefficient,
    hilbert_samuel_multiplicity,
    hilbert_samuel_series,
    multiplicity_at_origin,
)
from richmult.poly import PolyRing, mono_deg, mono_mul
from richmult.weyl import GrassShape

from polytext import parse_polynomial


def ideal(ring, *texts):
    return PolyIdeal(ring, [parse_polynomial(ring, t) for t in texts])


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed (where
    SIGALRM exists): an elimination that misreads a lead can cycle."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Every series call below runs under ``time_limit``, so that a wrong lead
# that makes the elimination cycle fails the test instead of hanging it.
# The limit is the one of test_lead_is_the_least_column_term; the slowest
# call measured took 0.1 s (an opt-in G(3,6) ideal; 0.04 s in the
# hypothesis tests) under CPython 3.11 on a 2-core x86-64 host.
SERIES_SECONDS = 1


def limited_series(target, k_max):
    with time_limit(SERIES_SECONDS):
        return hilbert_samuel_series(target, k_max)


def limited_multiplicity(target, dim):
    with time_limit(SERIES_SECONDS):
        return hilbert_samuel_multiplicity(target, dim)


def _reference_series(ideal, k_max):
    """The Hilbert-Samuel series by the earlier kernel: leftmost-pivot
    elimination over Fraction on exponent tuples, every ideal through the
    general loop (no monomial shortcut).  The packed integer kernel must
    agree with it."""
    n = ideal.ring.nvars

    def monomials_up_to(max_deg):
        out = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + (remaining,))
                return
            for take in range(remaining + 1):
                rec(prefix + (take,), remaining - take, slots - 1)

        for d in range(max_deg + 1):
            rec((), d, n)
        return out

    mons = monomials_up_to(k_max - 1)
    col_of = {e: i for i, e in enumerate(mons)}
    mons_per_deg = [0] * k_max
    for e in mons:
        mons_per_deg[mono_deg(e)] += 1
    pivots = {}
    pivot_deg = [0] * k_max
    for g in ideal.gens:
        terms = g.terms
        mindeg = min(map(mono_deg, terms))
        for alpha in monomials_up_to(k_max - 1 - mindeg):
            row = {}
            for e, c in terms.items():
                prod = mono_mul(alpha, e)
                if mono_deg(prod) < k_max:
                    col = col_of[prod]
                    s = row.get(col)
                    row[col] = c if s is None else s + c
            row = {c: v for c, v in row.items() if v}
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    coeff = row.pop(lead)
                    if coeff != 1:
                        row = {c: v / coeff for c, v in row.items()}
                    pivots[lead] = row
                    pivot_deg[mono_deg(mons[lead])] += 1
                    break
                factor = row.pop(lead)
                for c, v in pivot.items():
                    s = row.get(c)
                    if s is None:
                        row[c] = -factor * v
                    else:
                        s = s - factor * v
                        if s:
                            row[c] = s
                        else:
                            del row[c]
    series = []
    total = 0
    for d in range(k_max):
        total += mons_per_deg[d] - pivot_deg[d]
        series.append(total)
    return series


@st.composite
def oracle_inputs(draw):
    """An ideal vanishing at the origin and a window k_max: 1-4 generators
    in 2-4 variables, coefficients of large height (non-integral ones
    included), homogeneous, mixed-degree and one-term generators."""
    n = draw(st.integers(2, 4))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    height = 10**30
    coeffs = st.builds(
        Fraction,
        st.integers(-height, height).filter(bool),
        st.sampled_from([1, 1, 2, 3, 7, 10**9 + 7, 2**61 - 1, height + 1]),
    )
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["monomial", "homogeneous", "mixed"]))
        size = 1 if kind == "monomial" else draw(st.integers(1, 4))
        deg = draw(st.integers(1, 3))
        terms = {}
        for _ in range(size):
            d = deg if kind == "homogeneous" else draw(st.integers(1, 4))
            parts = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
            terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
        gens.append(ring.from_terms(terms))
    return PolyIdeal(ring, gens), draw(st.integers(1, 7))


@st.composite
def redundant_generators(draw):
    """Generator lists with rows the elimination may skip: a generator
    repeated, a multiple h*g of an earlier generator, and a pair f, g
    followed by f*g + h*f.  Small generators in 2-3 variables, f and g
    mostly not monomials, h possibly with a constant term, and a window
    k_max wide enough for the products to reach a column."""
    n = draw(st.integers(2, 3))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    coeffs = st.builds(
        Fraction, st.integers(-5, 5).filter(bool), st.sampled_from([1, 2, 3])
    )

    def poly(min_deg, min_size):
        terms = {}
        for _ in range(draw(st.integers(min_size, 3))):
            d = draw(st.integers(min_deg, 2))
            parts = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
            terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
        return ring.from_terms(terms)

    f, g, h = poly(1, 2), poly(1, 2), poly(0, 1)
    gens = draw(st.sampled_from([[f, g, f], [g, h * g], [f, g, f * g + h * f]]))
    return PolyIdeal(ring, gens), draw(st.integers(4, 7))


@st.composite
def lazy_lead_inputs(draw):
    """Generators whose lowest-degree terms compete for the lead, with rows
    that reduce against earlier pivots.  In 3-4 variables, g1's lowest
    terms are x0*x1^2 (the least code, so the lead: codes order a degree
    by the exponents of the last variables first) and x0^2*x2 (the
    largest code of that degree).  g2 has the lead x0*x1^2 too, so
    whichever of g1, g2 comes second has a first row that reduces against
    the other's.  g2's x0^2*x2 term is absent, arbitrary, or proportional
    to g1's, so that its lowest form cancels.  Both get higher terms, and
    a third generator of degree 2-4 may join.  The order of the generators
    is drawn."""
    n = draw(st.integers(3, 4))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    coeffs = st.builds(
        Fraction, st.integers(-7, 7).filter(bool), st.sampled_from([1, 2, 3])
    )

    def poly(lowest, min_deg, max_deg, min_size=0):
        terms = {}
        for _ in range(draw(st.integers(min_size, 3))):
            d = draw(st.integers(min_deg, max_deg))
            parts = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
            terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
        terms.update({e + (0,) * (n - 3): c for e, c in lowest.items() if c})
        return ring.from_terms(terms)

    a, b, c = draw(coeffs), draw(coeffs), draw(coeffs)
    d = draw(st.sampled_from([0, b * c / a, draw(coeffs)]))
    gens = [poly({(1, 2, 0): a, (2, 0, 1): b}, 4, 5), poly({(1, 2, 0): c, (2, 0, 1): d}, 4, 5)]
    gens += draw(st.sampled_from([[], [poly({}, 2, 4, 1)]]))
    return PolyIdeal(ring, draw(st.permutations(gens))), draw(st.integers(4, 7))


@pytest.fixture
def xy():
    return PolyRing(("x", "y"))


@pytest.fixture
def xyz():
    return PolyRing(("x", "y", "z"))


class TestTangentCone:
    """Multiplicities read off the cone-order basis, on ideals whose
    tangent cone is known."""

    def test_parabola(self, xy):
        assert multiplicity_at_origin(ideal(xy, "y - x^2")) == 1

    def test_single_lowest_form(self, xyz):
        # The cone is (x*y), a quadric.
        assert multiplicity_at_origin(ideal(xyz, "x*y - z^3")) == 2

    def test_output_homogeneous(self, xyz):
        # The ideal is (y - x^2, z - x^3, x^5): a fat point of length 5
        # whose cone is (y, z, x^5).
        assert multiplicity_at_origin(ideal(xyz, "y - x^2", "z - x^3", "x*z - y^2 + x^5")) == 5

    def test_twisted_cubic_smooth_origin(self, xyz):
        # Naive lowest forms of the generators would already give (y, z),
        # but the basis completion must not add anything spurious.
        assert multiplicity_at_origin(ideal(xyz, "y - x^2", "z - x^3")) == 1

    def test_hidden_lowest_form(self, xy):
        # x^2 appears only after combining the generators: the ideal
        # contains (y + 2*x^2) - (y + x^2) = x^2, and the cone (y, x^2)
        # has degree 2 beyond the naive lowest forms {y, y}.
        assert multiplicity_at_origin(ideal(xy, "y + x^2", "y + 2*x^2")) == 2

    def test_rejects_constant_term(self, xy):
        with pytest.raises(OriginNotOnVarietyError):
            multiplicity_at_origin(ideal(xy, "x + 1"))

    def test_zero_ideal(self, xy):
        assert multiplicity_at_origin(PolyIdeal(xy, [])) == 1


class TestMultiplicity:
    def test_smooth_curve(self, xy):
        assert multiplicity_at_origin(ideal(xy, "y - x^2")) == 1

    def test_nodal_cubic(self, xy):
        assert multiplicity_at_origin(ideal(xy, "y^2 - x^2 - x^3")) == 2

    def test_cusp(self, xy):
        assert multiplicity_at_origin(ideal(xy, "y^2 - x^3")) == 2

    def test_zero_ideal_is_smooth(self, xy):
        assert multiplicity_at_origin(PolyIdeal(xy, [])) == 1

    def test_ordinary_triple_point(self, xy):
        assert multiplicity_at_origin(ideal(xy, "y^3 - x^3 - x^4")) == 3

    def test_fat_point(self, xy):
        assert multiplicity_at_origin(ideal(xy, "x^2", "x*y", "y^2")) == 3


class TestHilbertSamuelSeries:
    def test_zero_ideal_binomials(self, xy):
        series = limited_series(PolyIdeal(xy, []), 5)
        assert series == [1, 3, 6, 10, 15]

    def test_smooth_curve_series(self, xy):
        series = limited_series(ideal(xy, "y - x^2"), 4)
        assert series == [1, 2, 3, 4]

    def test_monomial_fast_path_matches_generic(self, xyz):
        mono = ideal(xyz, "x*y", "z^2")
        # Both presentations of the same ideal go through the generic
        # elimination, the monomial one as unit-vector rows; the dimensions
        # must agree.
        generic = ideal(xyz, "x*y + z^2", "z^2")
        assert limited_series(mono, 6) == limited_series(generic, 6)

    def test_rejects_constant_term(self, xy):
        with pytest.raises(OriginNotOnVarietyError):
            limited_series(ideal(xy, "x - 1"), 3)

    def test_rejects_bad_k(self, xy):
        with pytest.raises(ValueError):
            limited_series(PolyIdeal(xy, []), 0)

    @given(oracle_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        target, k_max = case
        assert limited_series(target, k_max) == _reference_series(target, k_max)

    @given(oracle_inputs())
    @settings(max_examples=150, deadline=None)
    def test_single_generator_closed_form(self, case):
        """One generator's pivots are counted in closed form; the series
        must equal the eliminated reference's."""
        target, k_max = case
        single = PolyIdeal(target.ring, target.gens[:1])
        assert limited_series(single, k_max) == _reference_series(single, k_max)

    @given(redundant_generators())
    @settings(max_examples=100, deadline=None)
    def test_skipped_rows_leave_series_unchanged(self, case):
        """Rows whose multiplier is a pivot column of the earlier
        generators are skipped; in every generator order the series must
        still match the unpruned reference."""
        target, k_max = case
        for gens in permutations(target.gens):
            permuted = PolyIdeal(target.ring, list(gens))
            assert limited_series(permuted, k_max) == _reference_series(permuted, k_max)

    @given(lazy_lead_inputs())
    @settings(max_examples=100, deadline=None)
    def test_lead_is_the_least_column_term(self, case):
        """A row's lead is read off its generator's least code (its column)
        before the row is built, and a pivot row is built only when a later
        row reads it; the series must equal the eager reference's.  A wrong
        lead can make the elimination cycle, so a call past 1 s fails."""
        target, k_max = case
        with time_limit(1):
            series = hilbert_samuel_series(target, k_max)
        assert series == _reference_series(target, k_max)

    def test_all_generators_truncated(self, xy, xyz):
        """Generators with no term below degree k_max leave no row: the
        series is the zero ideal's, for one generator and for several."""
        for ring, texts, k_max in [
            (xy, ["x"], 1),
            (xy, ["x", "y"], 1),
            (xy, ["x^3", "x*y^2 + y^5"], 3),
            (xyz, ["x*y*z", "z^4 - x^3", "y^3"], 3),
        ]:
            series = limited_series(ideal(ring, *texts), k_max)
            assert series == limited_series(PolyIdeal(ring, []), k_max)

    def test_truncated_generator_beside_kept(self, xyz):
        """A generator truncated away beside one kept: the series is the
        kept generator's alone, in either order."""
        kept = "x*y - z^2 + x^3"
        for texts in (["x^4 + y^5", kept], [kept, "x^4 + y^5"]):
            target = ideal(xyz, *texts)
            assert limited_series(target, 4) == limited_series(ideal(xyz, kept), 4)
            assert limited_series(target, 4) == _reference_series(target, 4)

    def test_heaviest_oracle_ideal(self):
        """The slowest of the hs_oracle ideals: two 2x2 minors in 8
        variables, one with linear terms, at k_max = 10."""
        ring = PolyRing(("y_5_4", "y_7_2", "y_5_2", "y_7_4", "y_1_6", "y_3_4", "y_1_4", "y_3_6"))
        target = ideal(ring, "y_5_4*y_7_2 - y_5_2*y_7_4", "y_1_6*y_3_4 - y_1_4*y_3_6 - y_3_4 + y_3_6")
        assert limited_series(target, 10) == [1, 8, 35, 112, 294, 672, 1386, 2640, 4719, 8008]

    def test_column_budget_is_inclusive(self, xyz, monkeypatch):
        """The budget is read at each call: a series of exactly the budget's
        columns runs, and one column more raises."""
        from richmult import localmult

        target = ideal(xyz, "x*y - z^3", "y^2 + x*z")
        k_max = 6
        ncols = comb(k_max - 1 + 3, 3)
        monkeypatch.setattr(localmult, "_MAX_COLUMNS", ncols)
        series = limited_series(target, k_max)
        assert series == _reference_series(target, k_max)
        monkeypatch.setattr(localmult, "_MAX_COLUMNS", ncols - 1)
        with pytest.raises(OracleBudgetError, match=f"{ncols} columns exceed the budget of {ncols - 1}"):
            limited_series(target, k_max)

    def test_budget_checked_before_enumeration(self):
        """comb(41, 12), about 7.9e9 columns: enumerating them first would
        not return, so an immediate error shows the check comes first."""
        ring = PolyRing(tuple(f"x{i}" for i in range(12)))
        target = ideal(ring, "x0 - x1^2")
        with pytest.raises(OracleBudgetError, match=f"{comb(41, 12)} columns"):
            limited_series(target, 30)


class TestFit:
    def test_constant_series(self):
        assert fit_leading_coefficient([2, 2, 2, 2], 0) == 2

    def test_linear_growth(self):
        assert fit_leading_coefficient([1, 2, 3, 4, 5], 1) == 1

    def test_quadratic(self):
        values = [k * k for k in range(1, 8)]
        assert fit_leading_coefficient(values, 2) == 2

    def test_unstable_returns_none(self):
        assert fit_leading_coefficient([1, 2, 4, 8, 16], 1) is None

    def test_too_short_returns_none(self):
        assert fit_leading_coefficient([1, 2], 2) is None


class TestOracleAgainstTangentCone:
    @pytest.mark.parametrize(
        "texts",
        [
            ("y - x^2",),
            ("y^2 - x^2 - x^3",),
            ("y^2 - x^3",),
            ("x^2", "x*y", "y^2"),
            ("y^3 - x^3 - x^4",),
        ],
    )
    def test_plane_examples(self, xy, texts):
        target = ideal(xy, *texts)
        dim = ideal_dimension(target)
        assert limited_multiplicity(target, dim) == multiplicity_at_origin(target)

    def test_quadric_cone_in_four_variables(self):
        ring = PolyRing(("a", "b", "c", "d"))
        target = ideal(ring, "a*d - b*c")
        dim = ideal_dimension(target)
        assert dim == 3
        assert limited_multiplicity(target, dim) == 2
        assert multiplicity_at_origin(target) == 2

    def test_translated_cone(self):
        # Multiplicity 2 at a singular point reached after translation.
        ring = PolyRing(("a", "b", "c", "d"))
        f = parse_polynomial(ring, "a*d - b*c")
        shifted = f.shift([1, 0, 0, 0], ring)  # smooth point of the same cone
        target = PolyIdeal(ring, [shifted])
        assert multiplicity_at_origin(target) == 1
        assert limited_multiplicity(target, ideal_dimension(target)) == 1

    @pytest.mark.skipif(
        not os.environ.get("RICHMULT_SLOW_TESTS"), reason="set RICHMULT_SLOW_TESTS=1 to run G(3,6)"
    )
    def test_g36_fixed_point_ideals(self):
        """Every distinct nonzero Schubert, opposite and Richardson ideal at
        the T-fixed points of G(3,6), translated to the origin: the series
        and the tangent cone give the same multiplicity."""
        shape = GrassShape(3, 6)
        found = {}
        for w, v, tau in enumerate_instances(shape):
            chart = build_chart(shape, tau)
            for side in (schubert_ideal(chart, w), opposite_ideal(chart, v), richardson_ideal(chart, w, v)):
                moved = translate_to_origin(side, chart.origin())
                if not moved.is_zero_ideal():
                    found.setdefault(moved.canonical_key(), moved)
        assert len(found) == 960
        bad = [
            key for key, target in found.items()
            if limited_multiplicity(target, ideal_dimension(target)) != multiplicity_at_origin(target)
        ]
        assert bad == []

    def test_window_widens_then_raises(self, xy, monkeypatch):
        """The window runs to k = dim + 4, 6, 8, 10 and then gives up."""
        from richmult import localmult

        windows = []

        def series(target, k_max):
            windows.append(k_max)
            return hilbert_samuel_series(target, k_max)

        monkeypatch.setattr(localmult, "hilbert_samuel_series", series)
        monkeypatch.setattr(localmult, "fit_leading_coefficient", lambda values, dim: None)
        with pytest.raises(RuntimeError, match="not stabilized by k=11: "):
            limited_multiplicity(ideal(xy, "y^2 - x^3"), 1)
        assert windows == [5, 7, 9, 11]
