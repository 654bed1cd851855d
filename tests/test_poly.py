"""Polynomial arithmetic, term orders, text round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richmult.poly import (
    CONE,
    GREVLEX,
    Polynomial,
    PolyRing,
)

from polytext import parse_polynomial


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


def poly(ring, text):
    return parse_polynomial(ring, text)


class TestArithmetic:
    def test_add_cancel(self, ring):
        f = poly(ring, "x^2 + y")
        g = poly(ring, "-x^2 + z")
        assert str(f + g) == "y + z"

    def test_mul(self, ring):
        f = poly(ring, "x + y")
        assert str(f * f) == "x^2 + 2*x*y + y^2"

    def test_cube(self, ring):
        f = poly(ring, "x - 1")
        assert f * f * f == poly(ring, "x^3 - 3*x^2 + 3*x - 1")

    def test_scalar(self, ring):
        f = poly(ring, "x")
        assert str(Fraction(1, 2) * f) == "1/2*x"
        assert (0 * f).is_zero()

    def test_evaluate(self, ring):
        f = poly(ring, "x^2*y - 3*z + 1")
        assert f.evaluate([Fraction(2), Fraction(1, 2), Fraction(1)]) == Fraction(0)


class TestOrders:
    def test_grevlex_ranks_y_squared_above_xz(self):
        ring_grevlex = PolyRing(("x", "y", "z"), GREVLEX)
        # x*z vs y^2: grevlex ranks y^2 higher (z in the last slot loses).
        f1 = parse_polynomial(ring_grevlex, "x*z + y^2")
        assert ring_grevlex.names[f1.leading_exps().index(2)] == "y"

    def test_degree_dominates(self, ring):
        f = poly(ring, "x + y^2")
        assert f.leading_exps() == (0, 2, 0)

    def test_cone_order_ranks_t_power(self):
        base = PolyRing(("x", "y"))
        hring = base.homogenized()
        assert hring.order == CONE
        # Within one total degree, the higher t-power wins even against the
        # lexicographically larger x-part.
        t2 = (2, 0, 0)
        xy = (0, 1, 1)
        tx = (1, 1, 0)
        assert hring.key(t2) > hring.key(xy)
        assert hring.key(t2) > hring.key(tx) > hring.key(xy)

    def test_reserved_name(self):
        with pytest.raises(ValueError):
            PolyRing(("t", "x"))


class TestStructure:
    def test_homogenize_round_trip(self, ring):
        f = poly(ring, "x^2*y - z + 3")
        hring = ring.homogenized()
        h = f.homogenize(hring)
        assert h.is_homogeneous()
        assert h == parse_polynomial(hring, "x^2*y - t^2*z + 3*t^3")

    def test_primitive(self, ring):
        f = poly(ring, "4*x - 6*y") * Fraction(-1, 2)
        assert str(f.primitive()) == "2*x - 3*y"

    def test_shift_substitution_identity(self, ring):
        # g(z) == (shift of g by m)(z - m) for random rationals.
        import random

        rng = random.Random(7)
        for _ in range(25):
            f = Polynomial(
                ring,
                {
                    (rng.randrange(3), rng.randrange(2), rng.randrange(2)):
                        Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
                    for _ in range(4)
                },
            )
            m = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(3)]
            z = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(3)]
            shifted = f.shift(m, ring)
            assert shifted.evaluate([a - b for a, b in zip(z, m)]) == f.evaluate(z)


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda c: c != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


def _reference_shift(f, offsets, ring):
    """The term-by-term shift that ``Polynomial.shift`` replaced: each power
    (x_i + o_i)^k multiplied out, each term added to a running sum."""
    offsets = [Fraction(o) for o in offsets]
    out = ring.zero()
    for e, c in f.terms.items():
        term = Polynomial(ring, {tuple(0 if offsets[i] else k for i, k in enumerate(e)): c})
        for i, k in enumerate(e):
            if k and offsets[i]:
                term = term * (ring.var(i) + ring.const(offsets[i])) ** k
        out = out + term
    return out


@given(
    st.dictionaries(exponents, coeffs, min_size=0, max_size=6),
    st.one_of(st.just((0, 0, 0)), st.tuples(coeffs | st.just(0), coeffs | st.just(0), coeffs)),
)
@settings(max_examples=200, deadline=None)
def test_shift_matches_reference(terms, offsets):
    """Same terms as the reference shift, into the same or a renamed ring,
    zero offsets included."""
    ring = PolyRing(("x", "y", "z"))
    f = ring.from_terms(terms)
    for into in (ring, PolyRing(("u", "v", "w"))):
        got = f.shift(offsets, into)
        assert got.ring == into
        assert got.terms == _reference_shift(f, offsets, into).terms


@given(st.dictionaries(exponents, coeffs, min_size=0, max_size=6))
@settings(max_examples=120, deadline=None)
def test_text_round_trip(terms):
    ring = PolyRing(("x", "y", "z"))
    f = ring.from_terms(terms)
    assert parse_polynomial(ring, str(f)) == f


def test_parse_rejects_unknown_variable():
    ring = PolyRing(("x",))
    with pytest.raises(ValueError):
        parse_polynomial(ring, "x + q")
