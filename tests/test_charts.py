"""Chart layout, stratum ideals, translations, actions, cone detection.

The membership oracle used throughout is the rank table of the point's
matrix: the column span V lies in the stratum of w iff
dim(V /\\ span(e_1..e_j)) >= #{k : w_k <= j} for every j, computed by
exact Gaussian elimination independent of any ideal machinery.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richmult.charts import (
    AffinePoint,
    PointNotOnChartError,
    _det,
    _echelon,
    _minor_generators,
    build_chart,
    format_ideal,
    is_cone_over_origin,
    opposite_ideal,
    point_from_matrix,
    richardson_ideal,
    schubert_ideal,
    translate_to_origin,
    w0_relabel,
)
from richmult.groebner import PolyIdeal, dedupe_normalized, normal_form, reduced_groebner_basis
from richmult.hilbert import ideal_dimension
from richmult.poly import Polynomial, PolyRing
from richmult.weyl import CosetRep, GrassShape, RootIndex, all_coset_reps, bruhat_leq, w0_dual

from paper_statements import c_action, scale_action
from polytext import parse_ideal, parse_polynomial

DEMO_SHAPE = GrassShape(3, 7)
DEMO_TAU = CosetRep(DEMO_SHAPE, (2, 5, 6))
DEMO_W = CosetRep(DEMO_SHAPE, (3, 5, 6))
DEMO_V = CosetRep(DEMO_SHAPE, (1, 2, 5))
DEMO_MATRIX = [
    (1, 0, 1),
    (1, 0, 0),
    (0, 0, -1),
    (0, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 0, 0),
]


def rep(shape, *entries):
    return CosetRep(shape, tuple(entries))


def vanishes(ideal, coords) -> bool:
    """Whether every generator of the ideal is zero at the coordinates."""
    return all(g.evaluate(coords) == 0 for g in ideal.gens)


def in_cell(chart, x) -> bool:
    """Whether x, a point of the chart, lies in its cell: every
    positive-root coordinate is zero."""
    assert x.chart == chart
    return all(c == 0 for ix, c in zip(chart.indices, x.coords) if ix in chart.positive)


def cell_of_point(shape, matrix) -> CosetRep:
    """The cell of the matrix's column span, whose chart
    ``point_from_matrix`` puts the point on."""
    return point_from_matrix(shape, matrix).chart.tau


def rank(rows):
    """Leftmost-column elimination over Fraction: the engine's Jacobian
    rank before :func:`_echelon`, kept here as its reference."""
    work = [[Fraction(v) for v in row] for row in rows if any(row)]
    r = 0
    col = 0
    width = len(work[0]) if work else 0
    while work and col < width:
        pivot = next((i for i, row in enumerate(work) if row[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        top = work.pop(pivot)
        r += 1
        work = [
            [a - (row[col] / top[col]) * b for a, b in zip(row, top)]
            if row[col] != 0 else row
            for row in work
        ]
        col += 1
    return r


def matrix_of_point(point):
    rows = []
    for prow in point.chart.matrix():
        rows.append([entry.evaluate(point.coords) for entry in prow])
    return rows


def schubert_member_oracle(shape, w, matrix):
    """Rank-table membership test, independent of the ideal generators."""
    for j in range(1, shape.n + 1):
        needed = sum(1 for e in w.entries if e <= j)
        below = matrix[j:]
        got = shape.d - (rank(below) if below else 0)
        if got < needed:
            return False
    return True


def opposite_member_oracle(shape, v, matrix):
    for j in range(1, shape.n + 1):
        needed = sum(1 for e in v.entries if e >= j)
        above = matrix[: j - 1]
        got = shape.d - (rank(above) if above else 0)
        if got < needed:
            return False
    return True


class TestChartLayout:
    def test_demo_matrix_layout(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        matrix = chart.matrix()
        assert [str(e) for e in matrix[0]] == ["x_1_2", "x_1_5", "x_1_6"]
        assert [str(e) for e in matrix[1]] == ["1", "0", "0"]
        assert [str(e) for e in matrix[4]] == ["0", "1", "0"]
        assert [str(e) for e in matrix[5]] == ["0", "0", "1"]
        assert [str(e) for e in matrix[6]] == ["x_7_2", "x_7_5", "x_7_6"]

    def test_small_chart_layout(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 1, 2))
        matrix = chart.matrix()
        assert [[str(e) for e in row] for row in matrix] == [
            ["1", "0"],
            ["0", "1"],
            ["x_3_1", "x_3_2"],
            ["x_4_1", "x_4_2"],
        ]

    def test_origin_is_fixed_point(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        matrix = matrix_of_point(chart.origin())
        for k, p in enumerate(DEMO_TAU.entries):
            column = [matrix[r][k] for r in range(DEMO_SHAPE.n)]
            assert column == [Fraction(int(r + 1 == p)) for r in range(DEMO_SHAPE.n)]


class TestCellOfPoint:
    def test_fixed_point_columns(self):
        shape = GrassShape(2, 4)
        matrix = [(0, 0), (1, 0), (0, 0), (0, 1)]
        assert cell_of_point(shape, matrix) == rep(shape, 2, 4)

    def test_demo_point(self):
        assert cell_of_point(DEMO_SHAPE, DEMO_MATRIX) == DEMO_TAU

    def test_dense_random_matrix_lands_in_top_cell(self):
        rng = random.Random(5)
        shape = GrassShape(2, 5)
        matrix = [
            [Fraction(rng.randrange(1, 30)), Fraction(rng.randrange(1, 30))]
            for _ in range(5)
        ]
        matrix[0][0] += 1  # keep generic
        tau = cell_of_point(shape, matrix)
        # Oracle: jumps of the rank table dim(V /\ E_j).
        dims = []
        for j in range(shape.n + 1):
            below = matrix[j:]
            dims.append(shape.d - (rank(below) if below else 0))
        jumps = tuple(j for j in range(1, shape.n + 1) if dims[j] > dims[j - 1])
        assert tau.entries == jumps

    def test_rank_table_oracle_on_seeded_matrices(self):
        rng = random.Random(11)
        shape = GrassShape(2, 4)
        for _ in range(40):
            matrix = [
                [Fraction(rng.randrange(-2, 3)) for _ in range(2)] for _ in range(4)
            ]
            if rank(matrix) < 2:
                continue
            tau = cell_of_point(shape, matrix)
            dims = []
            for j in range(shape.n + 1):
                below = matrix[j:]
                dims.append(shape.d - (rank(below) if below else 0))
            jumps = tuple(j for j in range(1, shape.n + 1) if dims[j] > dims[j - 1])
            assert tau.entries == jumps

    def test_rejects_rank_deficient(self):
        shape = GrassShape(2, 4)
        with pytest.raises(ValueError):
            cell_of_point(shape, [(1, 2), (2, 4), (1, 2), (3, 6)])

    def test_demo_coordinates(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        assert point.chart.tau == DEMO_TAU
        expected = {"1.2": "1", "1.6": "1", "3.6": "-1"}
        got = {k: v for k, v in point.to_json_dict().items() if v != "0"}
        assert got == expected


def _reference_cell_and_point(shape, matrix):
    """cell_of_point and point_from_matrix by the earlier code: bottom-up
    column reduction for the cell, then the pivot-row block inverted by
    Gauss-Jordan and multiplied in.  Each result is the cell's entries or
    the point's coordinates, or the ValueError's message."""
    n, d = shape.n, shape.d
    rows = [list(r) for r in matrix]
    if len(rows) != n or any(len(r) != d for r in rows):
        message = f"expected an {n} x {d} matrix"
        return message, message
    cols = [[Fraction(rows[r][c]) for r in range(n)] for c in range(d)]
    work = [list(col) for col in cols]
    pivot_rows, used = [], []
    for r in range(n - 1, -1, -1):
        pick = next((c for c in range(d) if c not in used and work[c][r] != 0), None)
        if pick is None:
            continue
        used.append(pick)
        pivot_rows.append(r + 1)
        for c in range(d):
            if c != pick and work[c][r] != 0:
                factor = work[c][r] / work[pick][r]
                work[c] = [a - factor * b for a, b in zip(work[c], work[pick])]
    if len(pivot_rows) != d:
        message = "matrix does not have full column rank"
        return message, message
    tau = CosetRep(shape, tuple(sorted(pivot_rows)))
    block = [[cols[c][p - 1] for c in range(d)] for p in tau.entries]
    aug = [row + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(block)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[d:] for row in aug]
    normalized = [
        [sum(cols[c][r] * inverse[c][k] for c in range(d)) for k in range(d)]
        for r in range(n)
    ]
    chart = build_chart(shape, tau)
    coords = {ix: normalized[ix.q - 1][tau.entries.index(ix.p)] for ix in chart.indices}
    return tau.entries, chart.point(coords).to_json_dict()


RATIONALS = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
)


@st.composite
def rational_rows(draw):
    """0-8 rows of 1-12 rationals, mostly zero, with zero rows and
    repeated or rescaled rows among them."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "repeat" and rows:
            scale = draw(RATIONALS)
            rows.append([scale * a for a in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols)))
    return rows


@st.composite
def matrix_inputs(draw):
    """A shape G(d, n) with n <= 8, d <= 4 and a matrix of rationals for
    it, its columns sometimes rescaled copies of earlier ones and the
    matrix sometimes of the wrong size."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, min(4, n - 1)))
    columns = []
    for _ in range(d):
        if columns and draw(st.integers(0, 4)) == 0:
            scale = draw(RATIONALS)
            columns.append([scale * a for a in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(RATIONALS, min_size=n, max_size=n)))
    matrix = [list(row) for row in zip(*columns)]
    defect = draw(st.sampled_from([None] * 8 + ["row", "entry"]))
    if defect == "row":
        matrix.pop()
    elif defect == "entry":
        matrix[draw(st.integers(0, n - 1))].pop()
    return GrassShape(d, n), matrix


class TestEchelon:
    @given(rational_rows())
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_reference(self, rows):
        """The basis has one vector per unit of rank; each vector is 1 at
        its pivot, its last entry, and lies in the rows' span; the rows
        are left as they were."""
        before = [list(row) for row in rows]
        basis = _echelon(rows)
        assert rows == before
        assert len(basis) == rank(rows)
        width = len(rows[0]) if rows else 0
        for p, vec in basis.items():
            assert len(vec) == p + 1 and vec[p] == 1
        padded = [vec + [Fraction(0)] * (width - len(vec)) for vec in basis.values()]
        assert rank(rows + padded) == len(basis)

    @given(matrix_inputs())
    @settings(max_examples=200, deadline=None)
    def test_cell_and_point_match_inversion_reference(self, case):
        shape, matrix = case
        cell, point = _reference_cell_and_point(shape, matrix)

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        assert outcome(lambda: cell_of_point(shape, matrix).entries) == cell
        assert outcome(lambda: point_from_matrix(shape, matrix).to_json_dict()) == point


class TestInCell:
    def test_origin(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        assert in_cell(chart, chart.origin())

    def test_demo_point(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        assert in_cell(point.chart, point)

    def test_positive_coordinate_breaks_cell(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        coords = dict(zip(point.chart.indices, point.coords))
        coords[RootIndex(7, 2)] = Fraction(1)
        moved = point.chart.point(coords)
        assert not in_cell(point.chart, moved)


class TestSchubertIdeal:
    def test_demo_generators(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = schubert_ideal(chart, DEMO_W)
        assert format_ideal(ideal) == "x_4_2\nx_7_2\nx_7_5\nx_7_6\n"

    def test_maximal_w_gives_whole_chart(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 1, 2))
        assert schubert_ideal(chart, rep(shape, 3, 4)).is_zero_ideal()

    def test_unit_marker_when_cell_outside(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 3, 4))
        ideal = schubert_ideal(chart, rep(shape, 2, 3))
        assert ideal.is_unit()

    def test_grid_consistency_against_rank_oracle(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 1, 2))
        w = rep(shape, 1, 3)
        ideal = schubert_ideal(chart, w)
        values = [Fraction(v) for v in (-1, 0, 1)]
        import itertools

        for combo in itertools.product(values, repeat=4):
            point = AffinePoint(chart, combo)
            by_ideal = vanishes(ideal, point.coords)
            by_rank = schubert_member_oracle(shape, w, matrix_of_point(point))
            assert by_ideal == by_rank, combo


class TestOppositeIdeal:
    def test_demo_generators(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = opposite_ideal(chart, DEMO_V)
        assert format_ideal(ideal) == (
            "x_1_6*x_3_5 - x_1_5*x_3_6\n"
            "x_1_6*x_4_5 - x_1_5*x_4_6\n"
            "x_3_6*x_4_5 - x_3_5*x_4_6\n"
        )

    def test_minimal_v_gives_whole_chart(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 3, 4))
        assert opposite_ideal(chart, rep(shape, 1, 2)).is_zero_ideal()

    def test_unit_marker(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 1, 2))
        assert opposite_ideal(chart, rep(shape, 1, 3)).is_unit()

    def test_three_by_three_minor_in_ideal(self):
        """The full 3x3 minor of rows {1,3,4} reduces to zero, realized by
        the syzygy x_4_2*g1 - x_3_2*g2 + x_1_2*g3."""
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = opposite_ideal(chart, DEMO_V)
        ring = chart.ring
        g1, g2, g3 = ideal.gens
        x12 = ring.var(ring.names.index("x_1_2"))
        x32 = ring.var(ring.names.index("x_3_2"))
        x42 = ring.var(ring.names.index("x_4_2"))
        syzygy = x42 * g1 - x32 * g2 + x12 * g3
        matrix = chart.matrix()
        minor_rows = [matrix[0], matrix[2], matrix[3]]
        det = (
            minor_rows[0][0] * (minor_rows[1][1] * minor_rows[2][2] - minor_rows[1][2] * minor_rows[2][1])
            - minor_rows[0][1] * (minor_rows[1][0] * minor_rows[2][2] - minor_rows[1][2] * minor_rows[2][0])
            + minor_rows[0][2] * (minor_rows[1][0] * minor_rows[2][1] - minor_rows[1][1] * minor_rows[2][0])
        )
        assert syzygy == det or syzygy == -det
        assert normal_form(det, ideal.groebner()).is_zero()

    def test_grid_consistency_against_rank_oracle(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 3, 4))
        v = rep(shape, 2, 4)
        ideal = opposite_ideal(chart, v)
        values = [Fraction(x) for x in (-1, 0, 1)]
        import itertools

        for combo in itertools.product(values, repeat=4):
            point = AffinePoint(chart, combo)
            assert vanishes(ideal, point.coords) == opposite_member_oracle(
                shape, v, matrix_of_point(point)
            ), combo


def direct_opposite_ideal(chart, v):
    """The opposite ideal built from minors on the chart itself: for each
    essential position j of v (j = v_k with k = 1 or v_{k-1} < v_k - 1),
    the minors of size d - #{k : v_k >= j} + 1 of rows 1..j-1.  This was
    ``opposite_ideal`` before it became a relabelled Schubert ideal; it is
    kept here as its reference."""
    if not bruhat_leq(v, chart.tau):
        return PolyIdeal.unit_marker(chart.ring)
    matrix, d, entries = chart.matrix(), chart.shape.d, v.entries
    gens = []
    for k, j in enumerate(entries):
        if k and entries[k - 1] >= j - 1:
            continue
        bound = d - sum(1 for e in entries if e >= j)
        gens.extend(_minor_generators(matrix[: j - 1], bound + 1, chart.ring))
    return PolyIdeal.of_basis(chart.ring, reduced_groebner_basis(dedupe_normalized(gens)))


def relabelling_mismatches(shape):
    """The (tau, v) of the shape on which ``opposite_ideal`` and the direct
    minor builder differ in generators (terms, in order) or kept basis."""
    reps = all_coset_reps(shape)
    bad = []
    for tau in reps:
        chart = build_chart(shape, tau)
        for v in reps:
            got, want = opposite_ideal(chart, v), direct_opposite_ideal(chart, v)
            if [g.terms for g in got.gens] != [g.terms for g in want.gens] or [
                g.terms for g in got.groebner()
            ] != [g.terms for g in want.groebner()]:
                bad.append((tau, v))
    return bad


def explicit_point_mismatches(shape):
    """A check that builds no minor.  For rho <= tau the matrix whose column
    k is e_{rho_k} + e_{tau_k} (e_{tau_k} alone when the two agree) spans a
    point of the cell of tau in the opposite cell of rho, so the opposite
    side of v vanishes there exactly when v <= rho.  Returns the
    (tau, rho, v) where it does not."""
    reps = all_coset_reps(shape)
    bad = []
    for tau in reps:
        chart = build_chart(shape, tau)
        sides = {v: opposite_ideal(chart, v) for v in reps if bruhat_leq(v, tau)}
        for rho in sides:
            matrix = [[0] * shape.d for _ in range(shape.n)]
            for k, (r, t) in enumerate(zip(rho.entries, tau.entries)):
                matrix[r - 1][k] = matrix[t - 1][k] = 1
            point = point_from_matrix(shape, matrix)
            assert point.chart == chart
            for v, ideal in sides.items():
                if vanishes(ideal, point.coords) != bruhat_leq(v, rho):
                    bad.append((tau, rho, v))
    return bad


def transposed_relabelling(real):
    """``w0_relabel`` with the chart's first two coordinates swapped."""

    def relabel(chart, ideal):
        source = list(range(chart.ring.nvars))
        source[0], source[1] = source[1], source[0]
        return real(chart, ideal).permuted(source, chart.ring)

    return relabel


class TestW0Relabelling:
    """Opposite ideals are Schubert ideals of the chart of w0·tau, relabelled;
    checked against the direct minor builder and, without minors, against
    explicit points of every opposite cell."""

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 6), (3, 7)])
    def test_equals_direct_builder(self, d, n):
        assert relabelling_mismatches(GrassShape(d, n)) == []

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 6)])
    def test_vanishes_at_explicit_points_exactly_below_rho(self, d, n):
        assert explicit_point_mismatches(GrassShape(d, n)) == []

    def test_transposed_coordinate_pair_is_caught(self, monkeypatch):
        """A relabelling with one transposed coordinate pair fails both the
        reference comparison and the explicit points."""
        from richmult import charts

        monkeypatch.setattr(charts, "w0_relabel", transposed_relabelling(charts.w0_relabel))
        shape = GrassShape(2, 4)
        assert relabelling_mismatches(shape)
        assert explicit_point_mismatches(shape)

    def test_rejects_an_ideal_of_another_chart(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 1, 3))
        with pytest.raises(PointNotOnChartError, match="w0"):
            w0_relabel(chart, schubert_ideal(chart, rep(shape, 2, 4)))
        dual = build_chart(shape, w0_dual(chart.tau))
        assert w0_relabel(chart, schubert_ideal(dual, rep(shape, 2, 4))).ring == chart.ring


def plucker_coordinates(chart) -> dict:
    """p_I for every d-subset I: the d x d minor on rows I of the chart
    matrix."""
    matrix = chart.matrix()
    return {
        subset: _det([matrix[i - 1] for i in subset.entries])
        for subset in all_coset_reps(chart.shape)
    }


def plucker_ideal(chart, plucker, rep, opposite=False):
    """A second builder of the stratum ideals, from standard monomial theory:
    X_w is cut out of the Grassmannian by p_I = 0 for every d-subset I not
    <= w, and X^v by p_I = 0 for every I not >= v; ``plucker`` holds the
    chart's p_I.  It shares no code with ``descent_positions``, the row
    windows or ``w0_relabel``."""
    return PolyIdeal(chart.ring, [
        p for subset, p in plucker.items()
        if not (bruhat_leq(rep, subset) if opposite else bruhat_leq(subset, rep))
    ])


def plucker_mismatches(shape, monkeypatch) -> tuple[int, list]:
    """The number of stratum sides of the shape the engine uses (X_w on the
    chart of tau <= w, X^v on that of v <= tau), and those of them on which
    ``schubert_ideal`` or ``opposite_ideal`` and the Plücker builder have
    different reduced bases.  ``opposite_ideal`` relabels a Schubert ideal
    of the dual chart, which it reads through ``charts.schubert_ideal``:
    for the call that is memoized by (tau, w), so each is built once."""
    from richmult import charts

    built, build = {}, charts.schubert_ideal

    def schubert(chart, w):
        if (chart.tau, w) not in built:
            built[chart.tau, w] = build(chart, w)
        return built[chart.tau, w]

    monkeypatch.setattr(charts, "schubert_ideal", schubert)
    reps = all_coset_reps(shape)
    sides, bad = 0, []
    for tau in reps:
        chart = build_chart(shape, tau)
        plucker = plucker_coordinates(chart)
        for rep in reps:
            for variety, builder, on_chart in (
                ("Schubert", charts.schubert_ideal, bruhat_leq(tau, rep)),
                ("opposite", charts.opposite_ideal, bruhat_leq(rep, tau)),
            ):
                if not on_chart:
                    continue
                sides += 1
                got = [g.terms for g in builder(chart, rep).groebner()]
                want = [g.terms for g in plucker_ideal(chart, plucker, rep, variety == "opposite").groebner()]
                if got != want:
                    bad.append((tau, rep, variety))
    return sides, bad


class TestPluckerBuilder:
    """The minor builder's Schubert and opposite ideals have the reduced
    bases of the Plücker-vanishing ideals on every side."""

    @pytest.mark.parametrize("d,n,sides", [
        (2, 4, 40), (2, 5, 100), (3, 6, 350),
        pytest.param(3, 7, 980, marks=pytest.mark.skipif(
            not os.environ.get("RICHMULT_SLOW_TESTS"), reason="set RICHMULT_SLOW_TESTS=1 to run G(3,7)"
        )),
    ])
    def test_equals_minor_builder(self, monkeypatch, d, n, sides):
        assert plucker_mismatches(GrassShape(d, n), monkeypatch) == (sides, [])

    def test_dropped_descent_position_is_caught(self, monkeypatch):
        """A minor builder that forgets the last descent position of w (so of
        w0·v too, for the opposite side) fails the comparison."""
        from richmult import charts

        real = charts.descent_positions
        monkeypatch.setattr(charts, "descent_positions", lambda w: real(w)[:-1])
        bad = plucker_mismatches(GrassShape(2, 4), monkeypatch)[1]
        assert {variety for _, _, variety in bad} == {"Schubert", "opposite"}


class TestRichardsonIdeal:
    def test_union_of_generators(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        rich = richardson_ideal(chart, DEMO_W, DEMO_V)
        texts = {str(g) for g in rich.gens}
        for part in (schubert_ideal(chart, DEMO_W), opposite_ideal(chart, DEMO_V)):
            assert {str(g) for g in part.gens} <= texts

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (2, 6), (3, 6)])
    def test_sum_is_what_buchberger_gives(self, d, n):
        """On every instance v <= tau <= w the sum of the two sides has
        the deduplicated union of their generators, in order, and keeps
        the reduced basis Buchberger computes from that union."""
        shape = GrassShape(d, n)
        reps = all_coset_reps(shape)
        for tau in reps:
            chart = build_chart(shape, tau)
            sides_v = [opposite_ideal(chart, v) for v in reps if bruhat_leq(v, tau)]
            for iw in (schubert_ideal(chart, w) for w in reps if bruhat_leq(tau, w)):
                for iv in sides_v:
                    union = dedupe_normalized(iw.gens + iv.gens)
                    total = iw + iv
                    assert [str(g) for g in total.gens] == [str(g) for g in union]
                    assert [str(g) for g in total.groebner()] == [
                        str(g) for g in reduced_groebner_basis(union)
                    ]

    def test_tau_tau_tau_is_reduced_origin(self):
        shape = GrassShape(2, 4)
        tau = rep(shape, 1, 3)
        chart = build_chart(shape, tau)
        ideal = richardson_ideal(chart, tau, tau)
        # Zero-dimensional and homogeneous, hence supported at the origin
        # alone; the cell's fixed point is the unique rational solution.
        assert ideal_dimension(ideal) == 0
        assert is_cone_over_origin(ideal)
        assert vanishes(ideal, chart.origin().coords)

    def test_extremes_give_zero_ideal(self):
        shape = GrassShape(2, 4)
        chart = build_chart(shape, rep(shape, 2, 3))
        rich = richardson_ideal(chart, rep(shape, 3, 4), rep(shape, 1, 2))
        assert rich.is_zero_ideal()

    def test_membership_iff_both_factors(self):
        shape = GrassShape(2, 4)
        tau = rep(shape, 1, 3)
        chart = build_chart(shape, tau)
        w, v = rep(shape, 2, 4), rep(shape, 1, 2)
        iw, iv = schubert_ideal(chart, w), opposite_ideal(chart, v)
        rich = richardson_ideal(chart, w, v)
        rng = random.Random(3)
        for _ in range(60):
            coords = tuple(Fraction(rng.randrange(-2, 3)) for _ in chart.indices)
            point = AffinePoint(chart, coords)
            assert vanishes(rich, point.coords) == (
                vanishes(iw, point.coords) and vanishes(iv, point.coords)
            )


class TestTranslation:
    def test_demo_y_equations(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = opposite_ideal(point.chart, DEMO_V)
        translated = translate_to_origin(ideal, point)
        assert format_ideal(translated) == (
            "y_1_6*y_3_5 - y_1_5*y_3_6 + y_1_5 + y_3_5\n"
            "y_1_6*y_4_5 - y_1_5*y_4_6 + y_4_5\n"
            "y_3_6*y_4_5 - y_3_5*y_4_6 - y_4_5\n"
        )

    def test_schubert_equations_unchanged(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = schubert_ideal(point.chart, DEMO_W)
        translated = translate_to_origin(ideal, point)
        assert format_ideal(translated) == "y_4_2\ny_7_2\ny_7_5\ny_7_6\n"

    def test_zero_translation_is_identity(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = opposite_ideal(chart, DEMO_V)
        translated = translate_to_origin(ideal, chart.origin())
        assert [str(g).replace("y_", "x_") for g in translated.gens] == [
            str(g) for g in ideal.gens
        ]

    def test_translation_to_origin_only_rehomes(self):
        """At the origin translation moves the generators into the y-ring
        and leaves their terms as they are."""
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        iw, iv = schubert_ideal(chart, DEMO_W), opposite_ideal(chart, DEMO_V)
        for ideal in (iw, iv, iw + iv):
            assert ideal.gens
            translated = translate_to_origin(ideal, chart.origin())
            assert translated.ring == chart.yring
            assert [g.terms for g in translated.gens] == [
                Polynomial(chart.yring, g.terms).primitive().terms for g in ideal.gens
            ]

    def test_translated_ideal_is_refused(self):
        """A translated ideal lives on the chart's y-coordinates, so
        translating it again raises instead of moving it a second time."""
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        moved = translate_to_origin(opposite_ideal(point.chart, DEMO_V), point)
        with pytest.raises(PointNotOnChartError, match="different charts"):
            translate_to_origin(moved, point)

    def test_substitution_identity(self):
        """g(z) equals the m-shifted generator evaluated at z - m."""
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = opposite_ideal(chart, DEMO_V)
        rng = random.Random(17)
        N = len(chart.indices)
        for _ in range(10):
            m = AffinePoint(
                chart, tuple(Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(N))
            )
            z = [Fraction(rng.randrange(-2, 3)) for _ in range(N)]
            shifted_z = [a - b for a, b in zip(z, m.coords)]
            for g in ideal.gens:
                raw_shift = g.shift(m.coords, chart.yring)
                assert raw_shift.evaluate(shifted_z) == g.evaluate(z)
            # The normalized translated ideal has the same vanishing locus.
            translated = translate_to_origin(ideal, m)
            assert vanishes(translated, shifted_z) == vanishes(ideal, z)


class TestActions:
    def setup_method(self):
        self.shape = GrassShape(2, 4)
        self.tau = rep(self.shape, 1, 3)
        self.chart = build_chart(self.shape, self.tau)
        self.w = rep(self.shape, 2, 4)
        self.ideal = schubert_ideal(self.chart, self.w)

    def test_zero_coefficient_is_identity(self):
        x = self.chart.point({RootIndex(2, 1): 1, RootIndex(4, 3): 2})
        m = self.chart.origin()
        assert c_action(0, x, m) == x

    def test_full_step_reaches_origin(self):
        x = self.chart.point({RootIndex(2, 1): 1, RootIndex(4, 3): 2})
        assert c_action(1, x, x).is_origin()

    def test_group_law(self):
        rng = random.Random(23)
        N = len(self.chart.indices)
        for _ in range(30):
            x = AffinePoint(self.chart, tuple(Fraction(rng.randrange(-4, 5)) for _ in range(N)))
            m = AffinePoint(self.chart, tuple(Fraction(rng.randrange(-4, 5)) for _ in range(N)))
            a = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            b = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            assert c_action(a, c_action(b, x, m), m) == c_action(a + b, x, m)

    def test_invariance_of_schubert_trace(self):
        """Points of the w-stratum stay on it under the action centered at
        a cell point of the stratum (100 seeded samples)."""
        from richmult.engine import sample_points

        grid = [Fraction(v) for v in (-1, 0, 1)]
        on_variety = sample_points(self.ideal, self.chart, grid, cell_only=False, limit=30)
        cell_pts = [
            p for p in sample_points(self.ideal, self.chart, grid, cell_only=True, limit=10)
        ]
        rng = random.Random(41)
        checked = 0
        while checked < 100:
            x = on_variety[rng.randrange(len(on_variety))]
            m = cell_pts[rng.randrange(len(cell_pts))]
            xi = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            moved = c_action(xi, x, m)
            assert vanishes(self.ideal, moved.coords)
            checked += 1

    def test_scale_identity_and_zero(self):
        x = self.chart.point({RootIndex(2, 1): 1, RootIndex(4, 3): 2})
        assert scale_action(1, x) == x
        assert scale_action(0, x).is_origin()

    def test_scaling_preserves_all_three_traces(self):
        shape = GrassShape(2, 4)
        tau = rep(shape, 1, 3)
        chart = build_chart(shape, tau)
        w, v = rep(shape, 2, 4), rep(shape, 1, 2)
        from richmult.engine import sample_points

        rich = richardson_ideal(chart, w, v)
        grid = [Fraction(u) for u in (-1, 0, 1)]
        rng = random.Random(13)
        for ideal in (schubert_ideal(chart, w), opposite_ideal(chart, v), rich):
            for point in sample_points(ideal, chart, grid, cell_only=False, limit=15):
                xi = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                assert vanishes(ideal, scale_action(xi, point).coords)


class TestConeDetection:
    def test_translated_opposite_at_demo_point_is_not_cone(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = opposite_ideal(point.chart, DEMO_V)
        assert not is_cone_over_origin(translate_to_origin(ideal, point))

    def test_translated_schubert_at_demo_point_is_cone(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = schubert_ideal(point.chart, DEMO_W)
        assert is_cone_over_origin(translate_to_origin(ideal, point))

    def test_translated_opposite_cone_has_linear_part(self):
        from test_groebner import _reference_tangent_cone

        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = opposite_ideal(point.chart, DEMO_V)
        cone = _reference_tangent_cone(translate_to_origin(ideal, point))
        degrees = sorted(g.total_degree() for g in cone.gens)
        assert degrees[0] == 1
        assert all(g.is_homogeneous() for g in cone.gens)

    def test_linear_forms_are_cones(self):
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        ring = chart.ring
        ideal = PolyIdeal(ring, [parse_polynomial(ring, "x_3_1 + 2*x_4_2")])
        assert is_cone_over_origin(ideal)

    def test_zero_ideal_is_cone(self):
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        assert is_cone_over_origin(PolyIdeal(chart.ring, [])) is True

    def test_unit_ideal_rejected(self):
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        with pytest.raises(ValueError):
            is_cone_over_origin(PolyIdeal.unit_marker(chart.ring))

    def test_hidden_homogeneity(self):
        # Generators are inhomogeneous but the ideal is homogeneous:
        # (x + x^2, x^2) = (x).
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        ring = chart.ring
        gens = [parse_polynomial(ring, "x_3_1 + x_3_1^2"), parse_polynomial(ring, "x_3_1^2")]
        assert is_cone_over_origin(PolyIdeal(ring, gens))

    # Every shape with chart dimension at most 8.
    SMALL_SHAPES = (
        [(1, n) for n in range(2, 10)]
        + [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6)]
        + [(5, 6), (6, 7), (7, 8), (8, 9)]
    )

    @pytest.mark.parametrize("d,n", SMALL_SHAPES)
    def test_untranslated_ideals_are_cones(self, d, n):
        shape = GrassShape(d, n)
        reps = all_coset_reps(shape)
        for tau in reps:
            chart = build_chart(shape, tau)
            for w in reps:
                if bruhat_leq(tau, w):
                    assert is_cone_over_origin(schubert_ideal(chart, w))
            for v in reps:
                if bruhat_leq(v, tau):
                    assert is_cone_over_origin(opposite_ideal(chart, v))

    @pytest.mark.parametrize("d,n", [(2, 6), (4, 6), (3, 5)])
    def test_richardson_traces_are_cones(self, d, n):
        from richmult.engine import enumerate_instances

        shape = GrassShape(d, n)
        for (w, v, tau) in enumerate_instances(shape)[::7]:
            chart = build_chart(shape, tau)
            ideal = richardson_ideal(chart, w, v)
            if not ideal.is_zero_ideal():
                assert is_cone_over_origin(ideal)


def _reference_is_cone(ideal):
    """Homogeneity by definition, the earlier cone check: every
    homogeneous component of every reduced-basis element lies in the
    ideal."""
    if ideal.is_unit():
        raise ValueError("unit ideal")
    basis = ideal.groebner()
    for g in basis:
        parts = {}
        for e, c in g.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        for terms in parts.values():
            if not normal_form(ideal.ring.from_terms(terms), basis).is_zero():
                return False
    return True


@st.composite
def small_ideals(draw):
    """1-3 generators in 2-3 variables: forms, inhomogeneous polynomials
    (a constant term among them), and forms disguised by adding a
    multiple of another generator, which keeps the ideal."""
    n = draw(st.integers(2, 3))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)))
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def polynomial(degrees):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            deg = draw(st.sampled_from(degrees))
            parts = draw(st.lists(st.integers(0, n - 1), min_size=deg, max_size=deg))
            terms[tuple(parts.count(i) for i in range(n))] = draw(coeffs)
        return ring.from_terms(terms)

    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(polynomial([draw(st.integers(1, 3))]))
        else:
            gens.append(polynomial([0, 1, 2, 3] if draw(st.integers(0, 5)) == 0 else [1, 2, 3]))
    if len(gens) > 1 and draw(st.booleans()):
        gens[0] = gens[0] + polynomial([0, 1]) * gens[1]
    return PolyIdeal(ring, gens)


class TestConeDefinition:
    @given(small_ideals())
    @settings(max_examples=200, deadline=None)
    def test_matches_component_membership(self, ideal):
        if ideal.is_unit():
            with pytest.raises(ValueError, match="unit ideal"):
                is_cone_over_origin(ideal)
        else:
            assert is_cone_over_origin(ideal) == _reference_is_cone(ideal)


class TestTextFormats:
    def test_ideal_round_trip(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        ideal = opposite_ideal(chart, DEMO_V)
        text = format_ideal(ideal)
        parsed = parse_ideal(chart.ring, text)
        assert [str(g) for g in parsed.gens] == [str(g) for g in ideal.gens]

    def test_zero_and_unit(self):
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        assert format_ideal(PolyIdeal(chart.ring, [])) == "0\n"
        assert format_ideal(PolyIdeal.unit_marker(chart.ring)) == "1\n"

    def test_point_json_round_trip(self):
        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        data = point.to_json_dict()
        back = AffinePoint.from_json_dict(point.chart, data)
        assert back == point
