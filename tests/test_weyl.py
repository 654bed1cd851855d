"""Coset combinatorics: Bruhat order, chart index sets, cell indices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richmult.charts import AffinePoint, build_chart
from richmult.weyl import (
    CosetRep,
    GrassShape,
    RootIndex,
    ShapeMismatchError,
    all_coset_reps,
    bruhat_leq,
    chart_index_set,
    format_coset,
    parse_coset,
    positive_root_indices,
    w0_dual,
)


def rep(d, n, *entries):
    return CosetRep(GrassShape(d, n), tuple(entries))


def minimal_rep(shape):
    """The lowest stratum label, the first of the lexicographic list."""
    return all_coset_reps(shape)[0]


def maximal_rep(shape):
    """The highest stratum label, the last of the lexicographic list."""
    return all_coset_reps(shape)[-1]


class TestShapes:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrassShape(3, 3)
        with pytest.raises(ValueError):
            GrassShape(0, 4)
        assert GrassShape(2, 4).dim == 4
        assert GrassShape(3, 7).dim == 12

    def test_coset_validation(self):
        with pytest.raises(ValueError):
            rep(2, 4, 2, 2)
        with pytest.raises(ValueError):
            rep(2, 4, 0, 3)
        with pytest.raises(ValueError):
            rep(2, 4, 1, 5)
        with pytest.raises(ValueError):
            rep(3, 7, 1, 2)

    def test_length(self):
        assert rep(3, 7, 2, 5, 6).length() == 7
        assert minimal_rep(GrassShape(3, 7)) == rep(3, 7, 1, 2, 3)
        assert minimal_rep(GrassShape(3, 7)).length() == 0
        assert maximal_rep(GrassShape(3, 7)) == rep(3, 7, 5, 6, 7)
        assert maximal_rep(GrassShape(3, 7)).length() == 12


class TestBruhat:
    def test_nested_strata_comparable(self):
        # 125 <= 356 componentwise: the intersection stratum is nonempty.
        assert bruhat_leq(rep(3, 7, 1, 2, 5), rep(3, 7, 3, 5, 6))

    def test_reflexive(self):
        a = rep(3, 7, 2, 5, 6)
        assert bruhat_leq(a, a)

    def test_componentwise_failure(self):
        assert not bruhat_leq(rep(3, 7, 1, 3, 5), rep(3, 7, 2, 3, 4))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bruhat_leq(rep(2, 4, 1, 2), rep(2, 5, 1, 2))

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 6)])
    def test_partial_order_axioms(self, d, n):
        reps = all_coset_reps(GrassShape(d, n))
        for a in reps:
            assert bruhat_leq(a, a)
            for b in reps:
                if bruhat_leq(a, b) and bruhat_leq(b, a):
                    assert a == b
                for c in reps:
                    if bruhat_leq(a, b) and bruhat_leq(b, c):
                        assert bruhat_leq(a, c)


class TestChartIndices:
    def test_g37_index_set(self):
        shape = GrassShape(3, 7)
        got = chart_index_set(shape, rep(3, 7, 2, 5, 6))
        expected = {
            (1, 2), (1, 5), (1, 6), (3, 2), (3, 5), (3, 6),
            (4, 2), (4, 5), (4, 6), (7, 2), (7, 5), (7, 6),
        }
        assert {tuple(ix) for ix in got} == expected
        assert list(got) == sorted(got)

    def test_small_chart(self):
        got = chart_index_set(GrassShape(2, 4), rep(2, 4, 1, 2))
        assert [tuple(ix) for ix in got] == [(3, 1), (3, 2), (4, 1), (4, 2)]

    @given(st.integers(1, 5), st.integers(2, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cardinality(self, d, n, data):
        if d >= n:
            d, n = n - 1, max(n, d + 1)
        shape = GrassShape(d, n)
        reps = all_coset_reps(shape)
        tau = data.draw(st.sampled_from(reps))
        assert len(chart_index_set(shape, tau)) == shape.dim

    def test_positive_indices_g37(self):
        shape = GrassShape(3, 7)
        got = positive_root_indices(shape, rep(3, 7, 2, 5, 6))
        assert {tuple(ix) for ix in got} == {(3, 2), (4, 2), (7, 2), (7, 5), (7, 6)}

    def test_positive_extremes(self):
        shape = GrassShape(2, 5)
        assert positive_root_indices(shape, maximal_rep(shape)) == ()
        tau = minimal_rep(shape)
        assert set(positive_root_indices(shape, tau)) == set(chart_index_set(shape, tau))

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 6)])
    def test_complement_size_is_length(self, d, n):
        shape = GrassShape(d, n)
        for tau in all_coset_reps(shape):
            pos = positive_root_indices(shape, tau)
            full = chart_index_set(shape, tau)
            assert set(pos) <= set(full)
            # Inversion-count oracle: pairs p in tau, q not in tau, q < p.
            inversions = sum(
                1
                for p in tau.entries
                for q in range(1, n + 1)
                if q not in tau.entries and q < p
            )
            assert len(full) - len(pos) == inversions
            assert inversions == tau.length()


class TestSerialization:
    def test_digit_form(self):
        assert format_coset(rep(3, 7, 2, 5, 6)) == "256"
        assert parse_coset(GrassShape(3, 7), "256") == rep(3, 7, 2, 5, 6)

    def test_comma_form(self):
        shape = GrassShape(2, 12)
        r = CosetRep(shape, (2, 11))
        assert format_coset(r) == "2,11"
        assert parse_coset(shape, "2,11") == r

    def test_root_index(self):
        assert str(RootIndex(7, 5)) == "7.5"
        chart = build_chart(GrassShape(3, 7), rep(3, 7, 2, 5, 6))
        point = AffinePoint.from_json_dict(chart, {"7.5": "3"})
        assert dict(zip(chart.indices, point.coords))[RootIndex(7, 5)] == 3
        assert point.to_json_dict()["7.5"] == "3"


class TestLongestElement:
    def test_demo_label(self):
        assert w0_dual(rep(3, 7, 1, 2, 5)) == rep(3, 7, 3, 6, 7)
        assert w0_dual(minimal_rep(GrassShape(2, 5))) == maximal_rep(GrassShape(2, 5))

    @pytest.mark.parametrize("d,n", [(1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
    def test_involution_reversing_bruhat_order(self, d, n):
        """w0 is its own inverse, reverses the Bruhat order, takes length l
        to d(n-d) - l, and maps the chart index set of tau onto that of
        w0·tau by (q, p) -> (n+1-q, n+1-p), reversing its order."""
        shape = GrassShape(d, n)
        reps = all_coset_reps(shape)
        for a in reps:
            dual = w0_dual(a)
            assert w0_dual(dual) == a
            assert dual.length() == shape.dim - a.length()
            assert chart_index_set(shape, dual) == tuple(
                RootIndex(n + 1 - ix.q, n + 1 - ix.p) for ix in reversed(chart_index_set(shape, a))
            )
            for b in reps:
                assert bruhat_leq(a, b) == bruhat_leq(w0_dual(b), dual)
