"""Chart layout, stratum ideals, translations, actions, cone detection.

The membership oracle used throughout is the rank table of the point's
matrix: the column span V lies in the stratum of w iff
dim(V /\\ span(e_1..e_j)) >= #{k : w_k <= j} for every j, computed by
exact Gaussian elimination independent of any ideal machinery.
"""

import random
from fractions import Fraction

import pytest

from richmult.charts import (
    AffinePoint,
    build_chart,
    c_action,
    cell_of_point,
    evaluate_ideal,
    format_ideal,
    in_cell,
    intersection_ideal,
    is_cone_over_origin,
    opposite_ideal,
    parse_ideal,
    point_from_matrix,
    richardson_ideal,
    scale_action,
    schubert_ideal,
    translate_to_origin,
)
from richmult.groebner import PolyIdeal, normal_form
from richmult.hilbert import ideal_dimension
from richmult.poly import Polynomial, parse_polynomial
from richmult.weyl import CosetRep, GrassShape, all_coset_reps, bruhat_leq

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


def rank(rows):
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
        coords[(7, 2)] = Fraction(1)
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
            by_ideal = evaluate_ideal(ideal, point)
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
        x12 = ring.var_named("x_1_2")
        x32 = ring.var_named("x_3_2")
        x42 = ring.var_named("x_4_2")
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
            assert evaluate_ideal(ideal, point) == opposite_member_oracle(
                shape, v, matrix_of_point(point)
            ), combo


class TestRichardsonIdeal:
    def test_union_of_generators(self):
        chart = build_chart(DEMO_SHAPE, DEMO_TAU)
        rich = richardson_ideal(chart, DEMO_W, DEMO_V)
        texts = {str(g) for g in rich.gens}
        for part in (schubert_ideal(chart, DEMO_W), opposite_ideal(chart, DEMO_V)):
            assert {str(g) for g in part.gens} <= texts

    def test_tau_tau_tau_is_reduced_origin(self):
        shape = GrassShape(2, 4)
        tau = rep(shape, 1, 3)
        chart = build_chart(shape, tau)
        ideal = richardson_ideal(chart, tau, tau)
        # Zero-dimensional and homogeneous, hence supported at the origin
        # alone; the cell's fixed point is the unique rational solution.
        assert ideal_dimension(ideal) == 0
        assert is_cone_over_origin(ideal)
        assert evaluate_ideal(ideal, chart.origin())

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
            assert evaluate_ideal(rich, point) == (
                evaluate_ideal(iw, point) and evaluate_ideal(iv, point)
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
        for ideal in (iw, iv, intersection_ideal(iw, iv)):
            assert ideal.gens
            translated = translate_to_origin(ideal, chart.origin())
            assert translated.ring == chart.yring
            assert [g.terms for g in translated.gens] == [
                Polynomial(chart.yring, g.terms).primitive().terms for g in ideal.gens
            ]

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
            assert translated.vanishes_at(shifted_z) == ideal.vanishes_at(z)


class TestActions:
    def setup_method(self):
        self.shape = GrassShape(2, 4)
        self.tau = rep(self.shape, 1, 3)
        self.chart = build_chart(self.shape, self.tau)
        self.w = rep(self.shape, 2, 4)
        self.ideal = schubert_ideal(self.chart, self.w)

    def test_zero_coefficient_is_identity(self):
        x = self.chart.point({(2, 1): 1, (4, 3): 2})
        m = self.chart.origin()
        assert c_action(0, x, m) == x

    def test_full_step_reaches_origin(self):
        x = self.chart.point({(2, 1): 1, (4, 3): 2})
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
            assert evaluate_ideal(self.ideal, moved)
            checked += 1

    def test_scale_identity_and_zero(self):
        x = self.chart.point({(2, 1): 1, (4, 3): 2})
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
                assert evaluate_ideal(ideal, scale_action(xi, point))


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
        from richmult.localmult import tangent_cone

        point = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        ideal = opposite_ideal(point.chart, DEMO_V)
        cone = tangent_cone(translate_to_origin(ideal, point))
        degrees = sorted(g.total_degree() for g in cone.gens)
        assert degrees[0] == 1
        assert all(g.is_homogeneous() for g in cone.gens)

    def test_linear_forms_are_cones(self):
        chart = build_chart(GrassShape(2, 4), rep(GrassShape(2, 4), 1, 2))
        ring = chart.ring
        ideal = PolyIdeal(ring, [parse_polynomial(ring, "x_3_1 + 2*x_4_2")])
        assert is_cone_over_origin(ideal)

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
