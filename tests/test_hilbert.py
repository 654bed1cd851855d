"""Hilbert series numerators, dimensions, degrees, with counting oracles."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from richmult.engine import KernelInconsistencyError, StratumSide
from richmult.groebner import PolyIdeal
from richmult.hilbert import (
    hilbert_data,
    ideal_dimension,
    ideal_hilbert_data,
    minimalize_monomials,
)
from richmult.poly import PolyRing, mono_divides

from polytext import parse_polynomial


def projective_degree(ideal):
    """The degree of the projective variety of a homogeneous ideal, as a
    stratum side reads it: one Hilbert numerator, after the cone check."""
    return StratumSide(ideal, "cone", {}).degree


def monomials_of_degree(nvars, deg):
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def brute_force_hilbert_function(gens, nvars, max_deg):
    """#standard monomials per degree, by direct enumeration."""
    counts = []
    for d in range(max_deg + 1):
        counts.append(
            sum(
                1
                for e in monomials_of_degree(nvars, d)
                if not any(mono_divides(g, e) for g in gens)
            )
        )
    return counts


def series_counts_from_numerator(data, max_deg):
    """Expand numerator / (1-t)^dimension to compare against counting."""
    coeffs = [0] * (max_deg + 1)
    for i, c in enumerate(data.numerator):
        if i <= max_deg:
            coeffs[i] = c
    out = list(coeffs)
    for _ in range(data.dimension):
        acc = 0
        for i in range(max_deg + 1):
            acc += out[i]
            out[i] = acc
    return out


class TestNumerator:
    def test_zero_ideal(self):
        data = hilbert_data([], 5)
        assert data.numerator == (1,)
        assert data.dimension == 5
        assert data.degree == 1

    def test_single_square(self):
        data = hilbert_data([(2,)], 1)
        assert data.numerator == (1, 1)
        assert data.dimension == 0
        assert data.degree == 2

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            hilbert_data([(0, 0)], 2)

    def test_zero_numerator_is_not_divided(self, monkeypatch):
        # Dividing a zero numerator by (1 - t) never ends in a nonzero
        # quotient; it must raise instead of producing degree 1.
        from richmult import hilbert

        monkeypatch.setattr(hilbert, "hilbert_numerator", lambda gens, nvars: (0, 0))
        with pytest.raises(ValueError, match="zero Hilbert numerator"):
            hilbert.hilbert_data([(1, 1)], 2)

    def test_minimalize(self):
        gens = [(2, 0), (2, 1), (0, 3), (1, 3)]
        assert minimalize_monomials(gens) == [(2, 0), (0, 3)]

    @pytest.mark.parametrize(
        "gens,nvars",
        [
            ([(1, 1, 0), (0, 1, 1)], 3),
            ([(2, 0, 0), (1, 1, 0), (0, 2, 1)], 3),
            ([(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)], 4),
            ([(3, 0), (1, 1)], 2),
        ],
    )
    def test_against_counting(self, gens, nvars):
        data = hilbert_data(gens, nvars)
        expected = brute_force_hilbert_function(gens, nvars, 8)
        assert series_counts_from_numerator(data, 8) == expected

    def test_random_monomial_ideals_match_counting(self):
        rng = random.Random(20240817)
        for _ in range(20):
            nvars = rng.randrange(2, 5)
            gens = [
                tuple(rng.randrange(0, 3) for _ in range(nvars))
                for _ in range(rng.randrange(1, 5))
            ]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            data = hilbert_data(gens, nvars)
            expected = brute_force_hilbert_function(gens, nvars, 7)
            assert series_counts_from_numerator(data, 7) == expected


class TestMinorsIdeal:
    """Leading ideal of the three 2x2 minors in six chart variables."""

    def setup_method(self):
        self.ring = PolyRing(("a", "b", "c", "d", "e", "f"))
        # Same shape as the opposite-stratum quadrics: rows (a,b),(c,d),(e,f).
        gens = [
            parse_polynomial(self.ring, t)
            for t in ("a*d - b*c", "a*f - b*e", "c*f - d*e")
        ]
        self.ideal = PolyIdeal(self.ring, gens)

    def test_dimension_and_degree(self):
        data = ideal_hilbert_data(self.ideal)
        assert data.dimension == 4
        assert data.degree == 3

    def test_counting_oracle_to_degree_eight(self):
        lead = self.ideal.leading_exponents()
        counts = brute_force_hilbert_function(lead, 6, 8)
        # Differences of the Hilbert function of a dimension-4 graded
        # quotient stabilize at a cubic; its third difference is the degree.
        diffs = counts
        for _ in range(3):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert diffs[-1] == diffs[-2] == 3
        data = ideal_hilbert_data(self.ideal)
        assert series_counts_from_numerator(data, 8) == counts


class TestProjectiveDegree:
    def test_quadric_hypersurface(self):
        ring = PolyRing(("x", "y", "z"))
        ideal = PolyIdeal(ring, [parse_polynomial(ring, "x*y - z^2")])
        assert projective_degree(ideal) == 2

    def test_linear_ideal(self):
        ring = PolyRing(("x", "y", "z"))
        ideal = PolyIdeal(ring, [parse_polynomial(ring, "x + y")])
        assert projective_degree(ideal) == 1

    def test_rejects_inhomogeneous(self):
        ring = PolyRing(("x", "y"))
        with pytest.raises(KernelInconsistencyError, match="not a cone over the origin"):
            projective_degree(PolyIdeal(ring, [parse_polynomial(ring, "x^2 - y")]))

    def test_bezout_product_on_disjoint_variables(self):
        ring = PolyRing(("x", "y", "u", "v"))
        f = parse_polynomial(ring, "x^2*y - y^3")
        g = parse_polynomial(ring, "u^3 - u*v^2")
        deg_f = projective_degree(PolyIdeal(ring, [f]))
        deg_g = projective_degree(PolyIdeal(ring, [g]))
        both = projective_degree(PolyIdeal(ring, [f, g]))
        assert both == deg_f * deg_g == 9

    def test_cone_degree_by_random_linear_slices(self):
        """Cut the minors cone by dim-many random affine hyperplanes and
        count solutions with multiplicity; must equal the degree."""
        ring = PolyRing(("a", "b", "c", "d", "e", "f"))
        gens = [
            parse_polynomial(ring, t)
            for t in ("a*d - b*c", "a*f - b*e", "c*f - d*e")
        ]
        cone = PolyIdeal(ring, gens)
        data = ideal_hilbert_data(cone)
        rng = random.Random(99)
        for _ in range(2):
            cut = list(gens)
            for _ in range(data.dimension):
                coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(6)]
                const = Fraction(rng.randrange(1, 10))
                cut.append(
                    sum(
                        (c * ring.var(i) for i, c in enumerate(coeffs)),
                        ring.const(const),
                    )
                )
            sliced = PolyIdeal(ring, cut)
            assert ideal_dimension(sliced) == 0
            assert ideal_hilbert_data(sliced).degree == data.degree == 3
