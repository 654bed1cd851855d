"""Fast path vs oracle, degrees, smoothness, sampling, the sweep harness."""

from fractions import Fraction

import pytest

from richmult.charts import (
    AffinePoint,
    build_chart,
    opposite_ideal,
    point_from_matrix,
    richardson_ideal,
    schubert_ideal,
    translate_to_origin,
)
from richmult.engine import (
    KernelInconsistencyError,
    MembershipError,
    PreconditionError,
    SweepConfig,
    build_report,
    degree_product_check,
    enumerate_instances,
    jacobian_corank,
    mult_opposite_at,
    mult_richardson_fast,
    mult_richardson_oracle,
    mult_schubert_at,
    sample_points,
    verify_theorem,
)
from richmult.groebner import PolyIdeal
from richmult.hilbert import ideal_dimension
from richmult.localmult import hilbert_samuel_multiplicity
from richmult.weyl import CosetRep, GrassShape, parse_coset

G24 = GrassShape(2, 4)
DEMO_SHAPE = GrassShape(3, 7)
DEMO_MATRIX = [
    (1, 0, 1), (1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]


def rep(shape, *entries):
    return CosetRep(shape, tuple(entries))


def count_side_builds(monkeypatch) -> dict:
    """Count the stratum ideal builds the engine makes from now on."""
    from richmult import engine

    builds = {"schubert_ideal": 0, "opposite_ideal": 0}
    for name in builds:
        def counted(*args, _build=getattr(engine, name), _name=name):
            builds[_name] += 1
            return _build(*args)

        monkeypatch.setattr(engine, name, counted)
    return builds


class TestSchubertMultiplicity:
    def test_maximal_w_is_smooth(self):
        assert mult_schubert_at(G24, rep(G24, 3, 4), rep(G24, 1, 2)) == 1

    def test_demo_point_is_smooth(self):
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        w = rep(DEMO_SHAPE, 3, 5, 6)
        assert mult_schubert_at(DEMO_SHAPE, w, m.chart.tau, m) == 1

    def test_fixed_point_matches_series_oracle(self):
        w, tau = rep(G24, 2, 4), rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = translate_to_origin(schubert_ideal(chart, w), chart.origin())
        expected = hilbert_samuel_multiplicity(ideal, ideal_dimension(ideal))
        assert mult_schubert_at(G24, w, tau) == expected == 2

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            mult_schubert_at(G24, rep(G24, 1, 3), rep(G24, 2, 4))

    def test_cell_membership_enforced(self):
        tau = rep(G24, 1, 3)
        chart = build_chart(G24, tau)
        off_cell = chart.point({(2, 1): 1})
        with pytest.raises(MembershipError):
            mult_schubert_at(G24, rep(G24, 2, 4), tau, off_cell)


class TestOppositeMultiplicity:
    def test_minimal_v_is_smooth(self):
        assert mult_opposite_at(G24, rep(G24, 1, 2), rep(G24, 3, 4)) == 1

    def test_fixed_point_equals_cone_degree(self):
        from richmult.hilbert import projective_degree

        v, tau = rep(G24, 1, 3), rep(G24, 2, 4)
        chart = build_chart(G24, tau)
        ideal = opposite_ideal(chart, v)
        assert mult_opposite_at(G24, v, tau) == projective_degree(ideal)

    def test_demo_point_oracle_value(self):
        # The twelve-variable ideal only mentions six variables, which the
        # series oracle strips off as a free smooth factor internally.
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        v = rep(DEMO_SHAPE, 1, 2, 5)
        mu = mult_opposite_at(DEMO_SHAPE, v, m.chart.tau, m)
        ideal = translate_to_origin(opposite_ideal(m.chart, v), m)
        assert mu == hilbert_samuel_multiplicity(ideal, ideal_dimension(ideal))

    def test_membership_enforced(self):
        tau = rep(G24, 2, 4)
        chart = build_chart(G24, tau)
        bad = chart.point({(1, 2): 1, (3, 2): 1, (1, 4): 1})
        with pytest.raises(MembershipError):
            mult_opposite_at(G24, rep(G24, 1, 3), tau, bad)


class TestRichardson:
    def test_product_of_ones(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 2), rep(G24, 1, 3)
        assert mult_richardson_fast(G24, w, v, tau) == 1
        assert mult_richardson_oracle(G24, w, v, tau) == 1

    def test_fixed_point_agreement_everywhere(self):
        for (w, v, tau) in enumerate_instances(G24):
            fast = mult_richardson_fast(G24, w, v, tau)
            oracle = mult_richardson_oracle(G24, w, v, tau)
            assert fast == oracle

    def test_degenerate_to_schubert(self):
        w, tau = rep(G24, 2, 4), rep(G24, 1, 2)
        v = rep(G24, 1, 2)
        assert mult_richardson_oracle(G24, w, v, tau) == mult_schubert_at(G24, w, tau)

    def test_double_singularity_product(self):
        shape = GrassShape(3, 7)
        w, v, tau = rep(shape, 4, 6, 7), rep(shape, 1, 2, 4), rep(shape, 2, 4, 6)
        assert mult_schubert_at(shape, w, tau) == 2
        assert mult_opposite_at(shape, v, tau) == 2
        assert mult_richardson_fast(shape, w, v, tau) == 4
        assert mult_richardson_oracle(shape, w, v, tau) == 4

    def test_demo_instance(self):
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        w, v = rep(DEMO_SHAPE, 3, 5, 6), rep(DEMO_SHAPE, 1, 2, 5)
        fast = mult_richardson_fast(DEMO_SHAPE, w, v, m.chart.tau, m)
        oracle = mult_richardson_oracle(DEMO_SHAPE, w, v, m.chart.tau, m)
        assert fast == oracle


class TestDegrees:
    def test_minimal_v(self):
        w, v, tau = rep(G24, 2, 4), rep(G24, 1, 2), rep(G24, 1, 2)
        deg_w, deg_v, deg_wv, ok = degree_product_check(G24, w, v, tau)
        assert deg_v == 1 and deg_wv == deg_w and ok

    def test_trivial_instance(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 2), rep(G24, 2, 3)
        assert degree_product_check(G24, w, v, tau) == (1, 1, 1, True)

    def test_g24_instance(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 3), rep(G24, 1, 3)
        deg_w, deg_v, deg_wv, ok = degree_product_check(G24, w, v, tau)
        assert ok and deg_wv == deg_w * deg_v

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            degree_product_check(G24, rep(G24, 1, 3), rep(G24, 1, 2), rep(G24, 2, 4))


class TestJacobian:
    def test_linear_ideal_smooth(self):
        tau = rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = schubert_ideal(chart, rep(G24, 1, 4))
        assert jacobian_corank(ideal, chart.origin()) == 0

    def test_nodal_cone_singular(self):
        tau = rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = schubert_ideal(chart, rep(G24, 2, 4))
        assert jacobian_corank(ideal, chart.origin()) > 0

    def test_corank_zero_iff_multiplicity_one(self):
        for (w, v, tau) in enumerate_instances(G24):
            chart = build_chart(G24, tau)
            ideal = richardson_ideal(chart, w, v)
            corank = jacobian_corank(ideal, chart.origin())
            mu = mult_richardson_oracle(G24, w, v, tau)
            assert (corank == 0) == (mu == 1)

    def test_negative_corank_raises(self, monkeypatch):
        from richmult import engine

        chart = build_chart(G24, rep(G24, 1, 2))
        ideal = schubert_ideal(chart, rep(G24, 1, 4))
        monkeypatch.setattr(engine, "ideal_dimension", lambda ideal: ideal.ring.nvars)
        with pytest.raises(KernelInconsistencyError, match="tangent space"):
            jacobian_corank(ideal, chart.origin())


    def test_report_smoothness_equals_direct_corank(self):
        """The reports' smoothness flags, read from the two sides' stacked
        Jacobian rows, equal the corank taken directly on each ideal."""
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        reports = verify_theorem(G24, SweepConfig(grid=grid)).reports
        ideals = {}
        for r in reports:
            if (r.w, r.v, r.tau) not in ideals:
                w, v, tau = (parse_coset(G24, label) for label in (r.w, r.v, r.tau))
                chart = build_chart(G24, tau)
                ideals[r.w, r.v, r.tau] = (
                    chart,
                    schubert_ideal(chart, w),
                    opposite_ideal(chart, v),
                    richardson_ideal(chart, w, v),
                )
            chart, *three = ideals[r.w, r.v, r.tau]
            m = AffinePoint.from_json_dict(chart, r.point)
            direct = tuple(jacobian_corank(ideal, m) == 0 for ideal in three)
            assert (r.smooth_w, r.smooth_v, r.smooth_wv) == direct
        assert {r.smooth_wv for r in reports} == {True, False}


class TestScalingInvariance:
    def test_multiplicity_constant_along_scaling_orbit(self):
        """Nonzero scalings of a cell point stay on every stratum trace and
        carry the same multiplicities (the chart's torus action)."""
        from richmult.charts import scale_action

        shape = GrassShape(3, 6)
        w = rep(shape, 1, 4, 6)
        v = rep(shape, 1, 2, 4)
        tau = rep(shape, 1, 3, 4)
        chart = build_chart(shape, tau)
        rich = richardson_ideal(chart, w, v)
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        pts = [
            p for p in sample_points(rich, chart, grid, cell_only=True, limit=8)
            if not p.is_origin()
        ]
        assert pts
        for m in pts[:3]:
            base = (
                mult_schubert_at(shape, w, tau, m),
                mult_opposite_at(shape, v, tau, m),
                mult_richardson_oracle(shape, w, v, tau, m),
            )
            for xi in (Fraction(2), Fraction(-1, 2)):
                scaled = scale_action(xi, m)
                assert (
                    mult_schubert_at(shape, w, tau, scaled),
                    mult_opposite_at(shape, v, tau, scaled),
                    mult_richardson_oracle(shape, w, v, tau, scaled),
                ) == base


class TestSampling:
    def test_zero_ideal_full_grid(self):
        shape = GrassShape(1, 3)
        chart = build_chart(shape, rep(shape, 1))
        points = sample_points(PolyIdeal(chart.ring, []), chart, (Fraction(0), Fraction(1)))
        assert len(points) == 4

    def test_demo_point_found_by_grid(self):
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        chart = m.chart
        rich = richardson_ideal(chart, rep(DEMO_SHAPE, 3, 5, 6), rep(DEMO_SHAPE, 1, 2, 5))
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        points = sample_points(rich, chart, grid, cell_only=True, limit=100000)
        assert m in points

    def test_all_points_vanish(self):
        tau = rep(G24, 1, 3)
        chart = build_chart(G24, tau)
        ideal = richardson_ideal(chart, rep(G24, 2, 4), rep(G24, 1, 2))
        for p in sample_points(ideal, chart, (Fraction(-1), Fraction(0), Fraction(1))):
            assert ideal.vanishes_at(p.coords)

    def test_limit_respected(self):
        shape = GrassShape(1, 3)
        chart = build_chart(shape, rep(shape, 1))
        points = sample_points(
            PolyIdeal(chart.ring, []), chart, (Fraction(0), Fraction(1)), limit=3
        )
        assert len(points) == 3

    def test_grid_must_be_distinct(self):
        chart = build_chart(G24, rep(G24, 1, 2))
        with pytest.raises(ValueError):
            sample_points(PolyIdeal(chart.ring, []), chart, (Fraction(0), Fraction(0)))


class TestReports:
    def test_fixed_point_report_consistency(self):
        report = build_report(G24, rep(G24, 2, 4), rep(G24, 1, 2), rep(G24, 1, 2))
        assert report.mu_wv_fast == report.mu_w * report.mu_v
        assert report.agreement
        assert report.cone_richardson_over_origin
        assert report.degree_product_ok
        assert report.smooth_wv == (report.smooth_w and report.smooth_v)

    def test_smooth_iff_multiplicity_one(self):
        report = build_report(G24, rep(G24, 2, 4), rep(G24, 1, 2), rep(G24, 1, 2))
        assert report.mu_wv_fast > 1 and not report.smooth_wv

    def test_report_round_trips_as_dict(self):
        from richmult.engine import MultiplicityReport

        report = build_report(G24, rep(G24, 3, 4), rep(G24, 1, 2), rep(G24, 1, 3))
        assert MultiplicityReport.from_dict(report.to_dict()) == report


class TestSweep:
    def test_fixed_points_all_agree(self):
        result = verify_theorem(G24, SweepConfig(grid=(Fraction(0),), point_cap=1))
        assert result.failed == 0
        assert result.checked == len(enumerate_instances(G24))
        assert result.summary_line() == f"checked={result.checked} agreed={result.checked} failed=0"

    def test_truncation_marker(self):
        result = verify_theorem(
            G24, SweepConfig(grid=(Fraction(0),), point_cap=1, max_instances=5)
        )
        assert result.truncated
        assert "truncated=yes" in result.summary_line()

    def test_instance_ideals_built_once(self, monkeypatch):
        """The stratum ideals of one (w, v, tau) are built once for all of
        its points, and the hoisted reports equal per-point ones."""
        from richmult import engine

        shape = GrassShape(2, 5)
        w, v, tau = rep(shape, 2, 5), rep(shape, 1, 3), rep(shape, 2, 4)
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        chart = build_chart(shape, tau)
        points = [chart.origin()] + [
            p for p in sample_points(richardson_ideal(chart, w, v), chart, grid, cell_only=True)
            if not p.is_origin()
        ]
        assert len(points) == 9

        builds = count_side_builds(monkeypatch)
        reports = engine._instance_reports(shape, w, v, tau, SweepConfig(grid=grid))
        assert builds == {"schubert_ideal": 1, "opposite_ideal": 1}
        assert reports == [build_report(shape, w, v, tau, m) for m in points]

    def test_sides_built_once_per_chart(self, monkeypatch):
        """Over a whole sweep each Schubert ideal is built once per
        (tau, w) and each opposite ideal once per (tau, v), not once per
        instance."""
        shape = GrassShape(2, 5)
        instances = enumerate_instances(shape)
        builds = count_side_builds(monkeypatch)
        result = verify_theorem(shape, SweepConfig(grid=(Fraction(0),), point_cap=1))
        assert result.failed == 0 and result.checked == len(instances) == 175
        assert builds == {
            "schubert_ideal": len({(tau, w) for w, v, tau in instances}),
            "opposite_ideal": len({(tau, v) for w, v, tau in instances}),
        } == {"schubert_ideal": 50, "opposite_ideal": 50}

    def test_budget_rejects_large_shape(self):
        with pytest.raises(ValueError):
            verify_theorem(GrassShape(4, 8), SweepConfig())

    def test_workers_do_not_change_results(self):
        config1 = SweepConfig(grid=(Fraction(-1), Fraction(0), Fraction(1)), point_cap=4)
        config2 = SweepConfig(
            grid=(Fraction(-1), Fraction(0), Fraction(1)), point_cap=4, workers=2
        )
        serial = verify_theorem(G24, config1)
        parallel = verify_theorem(G24, config2)
        assert [r.to_dict() for r in serial.reports] == [
            r.to_dict() for r in parallel.reports
        ]
