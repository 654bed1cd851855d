"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Criteria 2-6 and 8 share the sweep fixtures below; everything
is deterministic (fixed grids, fixed seeds, no tolerances anywhere).
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from richmult.charts import (
    build_chart,
    is_cone_over_origin,
    opposite_ideal,
    point_from_matrix,
    richardson_ideal,
    schubert_ideal,
    translate_to_origin,
)
from richmult.engine import (
    SweepConfig,
    build_report,
    enumerate_instances,
    sample_points,
    verify_theorem,
)
from richmult.groebner import reduced_groebner_basis
from richmult.hilbert import ideal_dimension
from richmult.localmult import (
    OracleBudgetError,
    hilbert_samuel_multiplicity,
    multiplicity_at_origin,
)
from richmult.quadric import (
    QuadricShape,
    mult_opposite_quadric,
    mult_schubert_quadric,
    q_eval,
    quadric_report,
    sample_quadric_points,
    schubert_member,
    singular_locus_index,
    verify_b_matrix,
    verify_disjoint_sing,
)
from richmult.weyl import CosetRep, GrassShape, parse_coset

GRID5 = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))
ORIGIN_ONLY = (Fraction(0),)

DEMO_SHAPE = GrassShape(3, 7)
DEMO_MATRIX = [
    (1, 0, 1), (1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]

# The five selected non-fixed-point instances (plus the worked G(3,7) demo
# and a doubly singular showcase handled separately): chosen to include
# quadratic generators and points of multiplicity > 1.
SELECTED_INSTANCES = [
    (2, 5, "35", "12", "13", 200),
    (2, 5, "35", "13", "23", 200),
    (2, 5, "25", "13", "14", 200),
    (3, 6, "146", "124", "134", 200),
    (3, 6, "246", "134", "234", 200),
]

SHOWCASE = (3, 7, "467", "124", "246", 12)  # doubly singular: 2 x 2 = 4


def _pass(num, message):
    print(f"[criterion {num}] PASS: {message}")


@pytest.fixture(scope="module")
def fixed_point_sweeps():
    """Criterion 2 data: every (v <= tau <= w) in G(2,4) and G(2,5) at the
    fixed point of the chart."""
    out = {}
    for d, n in ((2, 4), (2, 5)):
        shape = GrassShape(d, n)
        out[(d, n)] = verify_theorem(
            shape, SweepConfig(grid=ORIGIN_ONLY, point_cap=1)
        )
    return out


@pytest.fixture(scope="module")
def grid_sweep_g24():
    """Criterion 3 data, part one: all G(2,4) triples over the 5-value grid."""
    return verify_theorem(GrassShape(2, 4), SweepConfig(grid=GRID5, point_cap=200))


@pytest.fixture(scope="module")
def selected_instance_reports():
    """Criterion 3 data, part two: the selected instances, the worked
    G(3,7) demo point, and the doubly singular showcase."""
    collected = []

    def run_instance(d, n, w_text, v_text, tau_text, cap, grid):
        shape = GrassShape(d, n)
        w = parse_coset(shape, w_text)
        v = parse_coset(shape, v_text)
        tau = parse_coset(shape, tau_text)
        chart = build_chart(shape, tau)
        ideal = richardson_ideal(chart, w, v)
        points = [chart.origin()]
        points += [
            p
            for p in sample_points(ideal, chart, grid, cell_only=True, limit=cap)
            if not p.is_origin()
        ]
        reports = [build_report(shape, w, v, tau, m) for m in points]
        collected.append((shape, w, v, tau, points, reports))

    for d, n, w_text, v_text, tau_text, cap in SELECTED_INSTANCES:
        run_instance(d, n, w_text, v_text, tau_text, cap, GRID5)
    d, n, w_text, v_text, tau_text, cap = SHOWCASE
    run_instance(d, n, w_text, v_text, tau_text, cap, (Fraction(-1), Fraction(0), Fraction(1)))

    # The worked G(3,7) demo point.
    m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
    w = CosetRep(DEMO_SHAPE, (3, 5, 6))
    v = CosetRep(DEMO_SHAPE, (1, 2, 5))
    reports = [build_report(DEMO_SHAPE, w, v, m.chart.tau, m)]
    collected.append((DEMO_SHAPE, w, v, m.chart.tau, [m], reports))
    return collected


@pytest.fixture(scope="module")
def all_reports(fixed_point_sweeps, grid_sweep_g24, selected_instance_reports):
    reports = []
    for result in fixed_point_sweeps.values():
        reports.extend(result.reports)
    reports.extend(grid_sweep_g24.reports)
    for *_rest, instance_reports in selected_instance_reports:
        reports.extend(instance_reports)
    return reports


class TestCriterion1:
    def test_golden_equations_reproduced(self, capsys, tmp_path):
        """cmd_equations reproduces the three displayed systems exactly."""
        from richmult.cli import main

        point_file = tmp_path / "m.json"
        point_file.write_text(json.dumps({"matrix": [list(r) for r in DEMO_MATRIX]}))
        start = time.time()
        code = main([
            "equations", "--d", "3", "--n", "7",
            "--w", "356", "--v", "125", "--point", str(point_file),
        ])
        elapsed = time.time() - start
        out = capsys.readouterr().out
        assert code == 0
        schubert_block = "x_4_2\nx_7_2\nx_7_5\nx_7_6\n"
        opposite_block = (
            "x_1_6*x_3_5 - x_1_5*x_3_6\n"
            "x_1_6*x_4_5 - x_1_5*x_4_6\n"
            "x_3_6*x_4_5 - x_3_5*x_4_6\n"
        )
        translated_block = (
            "y_1_6*y_3_5 - y_1_5*y_3_6 + y_1_5 + y_3_5\n"
            "y_1_6*y_4_5 - y_1_5*y_4_6 + y_4_5\n"
            "y_3_6*y_4_5 - y_3_5*y_4_6 - y_4_5\n"
        )
        assert schubert_block in out
        assert opposite_block in out
        assert translated_block in out
        assert elapsed < 1.0
        _pass(1, f"golden equation systems reproduced byte-exactly in {elapsed:.3f}s")


class TestCriterion2:
    def test_product_formula_at_fixed_points(self, fixed_point_sweeps):
        start = time.time()
        total = 0
        for (d, n), result in fixed_point_sweeps.items():
            shape = GrassShape(d, n)
            assert result.checked == len(enumerate_instances(shape))
            assert result.failed == 0
            for r in result.reports:
                assert r.mu_wv_fast == r.mu_w * r.mu_v
                assert r.mu_wv_fast == r.mu_wv_oracle
            total += result.checked
        elapsed = time.time() - start
        assert elapsed < 300
        _pass(2, f"fast = oracle at {total} fixed-point instances, zero failures")


class TestCriterion3:
    def test_product_formula_at_grid_points(
        self, grid_sweep_g24, selected_instance_reports
    ):
        assert grid_sweep_g24.failed == 0
        non_fixed = sum(
            1 for r in grid_sweep_g24.reports if any(v != "0" for v in r.point.values())
        )
        checked = grid_sweep_g24.checked
        for shape, w, v, tau, points, reports in selected_instance_reports:
            assert len(points) >= 1
            for r in reports:
                assert r.agreement, (str(shape), r.w, r.v, r.tau, r.point)
            checked += len(reports)
            non_fixed += sum(
                1 for r in reports if any(val != "0" for val in r.point.values())
            )
        assert non_fixed > 50
        _pass(3, f"fast = oracle at {checked} reports ({non_fixed} non-fixed points)")

    def test_showcase_reaches_multiplicity_four(self, selected_instance_reports):
        for shape, w, v, tau, points, reports in selected_instance_reports:
            if (shape.d, shape.n, str(w)) == (3, 7, "467"):
                assert reports[0].mu_w == 2 and reports[0].mu_v == 2
                assert reports[0].mu_wv_fast == reports[0].mu_wv_oracle == 4
                return
        pytest.fail("showcase instance missing")


class TestCriterion4:
    def test_degree_identity(self, fixed_point_sweeps, all_reports):
        count = 0
        for result in fixed_point_sweeps.values():
            for r in result.reports:
                assert r.deg_zwv == r.deg_zw * r.deg_zv
                assert r.degree_product_ok
                count += 1
        for r in all_reports:
            if r.degree_product_ok is not None:
                assert r.degree_product_ok
        _pass(4, f"deg Zwv = deg Zw * deg Zv on {count} criterion-2 triples")


class TestCriterion5:
    def test_cone_properties(self, fixed_point_sweeps, all_reports):
        # All three untranslated chart ideals are homogeneous at every
        # criterion-2 triple.
        checked = 0
        for (d, n) in fixed_point_sweeps:
            shape = GrassShape(d, n)
            for (w, v, tau) in enumerate_instances(shape):
                chart = build_chart(shape, tau)
                iw = schubert_ideal(chart, w)
                iv = opposite_ideal(chart, v)
                iwv = richardson_ideal(chart, w, v)
                for ideal in (iw, iv, iwv):
                    if not ideal.is_zero_ideal():
                        assert is_cone_over_origin(ideal)
                checked += 1
        # Translated Schubert ideals stay homogeneous at every sampled cell
        # point of criteria 2-3.
        for r in all_reports:
            if r.cone_schubert_over_point is not None:
                assert r.cone_schubert_over_point
            if r.cone_richardson_over_origin is not None:
                assert r.cone_richardson_over_origin
        # The demo instance: the opposite trace is NOT a cone over the point.
        demo = [
            r for r in all_reports
            if (r.d, r.n, r.w, r.v) == (3, 7, "356", "125")
            and any(vv != "0" for vv in r.point.values())
        ]
        assert demo and all(r.cone_opposite_over_point is False for r in demo)
        _pass(5, f"cone flags verified on {checked} triples; demo non-cone confirmed")


class TestCriterion6:
    def test_smoothness_equivalence(self, all_reports):
        for r in all_reports:
            mu_one = r.mu_wv_oracle == 1
            assert mu_one == r.smooth_wv
            assert r.smooth_wv == (r.smooth_w and r.smooth_v)
            assert (r.mu_w == 1) == r.smooth_w
            assert (r.mu_v == 1) == r.smooth_v
        _pass(6, f"multiplicity-1 iff corank-0 on {len(all_reports)} reports")


class TestCriterion7:
    def test_quadric_appendix(self):
        start = time.time()
        rng = random.Random(977)
        grid_checked = 0
        for n in (2, 3, 4):
            shape = QuadricShape(n)
            N = shape.ncoords
            valid = [k for k in range(1, N + 1) if k != n + 1]
            cap = 2000 if n <= 3 else 25
            for i in valid:
                for x in sample_quadric_points(shape, i, 1, (-1, 0, 1), limit=cap):
                    report = quadric_report(shape, i, 1, x)
                    assert mult_schubert_quadric(shape, i, x) == report.mu_wv_oracle
                    grid_checked += 1
            for j in valid:
                for x in sample_quadric_points(shape, N, j, (-1, 0, 1), limit=cap):
                    report = quadric_report(shape, N, j, x)
                    assert mult_opposite_quadric(shape, j, x) == report.mu_wv_oracle
                    grid_checked += 1
            # Singular locus against the Jacobian criterion on small grids.
            for i in valid:
                sing = singular_locus_index(shape, i)
                if i < n + 1:
                    assert sing is None
                    continue
                width = min(i, 6 if n == 4 else i)
                for combo in product((-1, 0, 1), repeat=width):
                    x = tuple(Fraction(c) for c in combo) + (Fraction(0),) * (N - width)
                    if all(c == 0 for c in x) or q_eval(shape, x) != 0:
                        continue
                    grad = []
                    for b in range(1, i + 1):
                        mirror = 2 * n + 2 - b
                        if b == n + 1:
                            grad.append(2 * x[n])
                        elif mirror <= i:
                            grad.append(2 * x[mirror - 1])
                        else:
                            grad.append(Fraction(0))
                    jac_singular = all(g == 0 for g in grad)
                    named = sing is not None and schubert_member(shape, sing, x)
                    assert jac_singular == named
            # Disjoint singular loci for every index pair.
            for i in valid:
                for j in valid:
                    if j <= i:
                        assert verify_disjoint_sing(
                            shape, i, j, grid=(-1, 0, 1) if n == 2 else None
                        )
            # The explicit group element: 100 random null points per (n, i).
            for i in valid:
                for _ in range(100):
                    x = _random_cell_point(shape, i, rng)
                    assert verify_b_matrix(shape, i, x)
        elapsed = time.time() - start
        assert elapsed < 300
        _pass(7, f"quadric closed forms, loci and b-matrix verified "
                 f"({grid_checked} grid multiplicities) in {elapsed:.0f}s")


def _random_cell_point(shape, i, rng):
    n, N = shape.n, shape.ncoords
    vec = [Fraction(0)] * N
    vec[i - 1] = Fraction(1)
    for a in range(1, i):
        vec[a - 1] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
    if i > n + 1:
        mirror = 2 * n + 2 - i
        vec[mirror - 1] = Fraction(0)
        vec[mirror - 1] = -q_eval(shape, vec) / 2
    assert q_eval(shape, vec) == 0
    return tuple(vec)


class TestCriterion8:
    def test_series_oracle_and_idempotence(
        self, fixed_point_sweeps, grid_sweep_g24, selected_instance_reports
    ):
        """The Hilbert-Samuel leading coefficient reproduces the tangent-cone
        multiplicity for every distinct ideal arising in criteria 2-3, and
        reduced bases are idempotent.  After the unused variables are
        dropped, no such ideal exceeds the column budget."""
        start = time.time()
        seen = set()
        verified = 0
        skipped = []

        def check(ideal):
            nonlocal verified
            key = ideal.canonical_key()
            if key in seen:
                return
            seen.add(key)
            dim = ideal_dimension(ideal)
            try:
                fitted = hilbert_samuel_multiplicity(ideal, dim)
            except OracleBudgetError:
                skipped.append((ideal.ring.nvars, dim))
                return
            assert fitted == multiplicity_at_origin(ideal)
            verified += 1

        def check_instance(shape, w, v, tau, points):
            chart = build_chart(shape, tau)
            iw = schubert_ideal(chart, w)
            iv = opposite_ideal(chart, v)
            iwv = richardson_ideal(chart, w, v)
            for m in points:
                for ideal in (iw, iv, iwv):
                    if not ideal.is_zero_ideal():
                        check(translate_to_origin(ideal, m))

        for (d, n), result in fixed_point_sweeps.items():
            shape = GrassShape(d, n)
            for (w, v, tau) in enumerate_instances(shape):
                chart = build_chart(shape, tau)
                check_instance(shape, w, v, tau, [chart.origin()])

        g24 = GrassShape(2, 4)
        for (w, v, tau) in enumerate_instances(g24):
            chart = build_chart(g24, tau)
            ideal = richardson_ideal(chart, w, v)
            points = [chart.origin()] + [
                p
                for p in sample_points(ideal, chart, GRID5, cell_only=True, limit=200)
                if not p.is_origin()
            ]
            check_instance(g24, w, v, tau, points)

        for shape, w, v, tau, points, _reports in selected_instance_reports:
            check_instance(shape, w, v, tau, points)

        # Nothing in criteria 2-3 may exceed the oracle budget once the
        # unused-variable reduction has been applied.
        assert skipped == [], skipped

        # Groebner idempotence on a sample of the ideals seen above.
        sample_count = 0
        for (d, n) in fixed_point_sweeps:
            shape = GrassShape(d, n)
            for (w, v, tau) in enumerate_instances(shape)[::7]:
                chart = build_chart(shape, tau)
                basis = richardson_ideal(chart, w, v).groebner()
                again = reduced_groebner_basis(list(basis))
                assert [str(g) for g in again] == [str(g) for g in basis]
                sample_count += 1

        elapsed = time.time() - start
        _pass(
            8,
            f"series oracle matched tangent cones on {verified} distinct ideals, "
            f"none skipped; {sample_count} idempotence checks; {elapsed:.0f}s",
        )
