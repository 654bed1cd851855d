"""Fast path vs oracle, degrees, smoothness, sampling, the sweep harness."""

import itertools
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richmult.charts import (
    AffinePoint,
    PointNotOnChartError,
    build_chart,
    opposite_ideal,
    point_from_matrix,
    richardson_ideal,
    schubert_ideal,
    translate_to_origin,
    w0_relabel,
)
from richmult.engine import (
    DEFAULT_GRID,
    ChartContext,
    KernelInconsistencyError,
    MembershipError,
    PreconditionError,
    SweepConfig,
    StratumInstance,
    StratumSide,
    SweepResult,
    build_report,
    enumerate_instances,
    sample_points,
    verify_theorem,
)
from richmult.groebner import PolyIdeal, reduced_groebner_basis
from richmult.hilbert import ideal_dimension
from richmult.localmult import hilbert_samuel_multiplicity, multiplicity_at_origin
from richmult.weyl import (
    CosetRep, GrassShape, RootIndex, all_coset_reps, bruhat_leq, parse_coset, w0_dual,
)
from richmult.poly import Polynomial

G24 = GrassShape(2, 4)
DEMO_SHAPE = GrassShape(3, 7)
DEMO_MATRIX = [
    (1, 0, 1), (1, 0, 0), (0, 0, -1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
]


def rep(shape, *entries):
    return CosetRep(shape, tuple(entries))


def minimal_rep(shape) -> CosetRep:
    """The lowest stratum label, the first of the lexicographic list."""
    return all_coset_reps(shape)[0]


def maximal_rep(shape) -> CosetRep:
    """The highest stratum label, the last of the lexicographic list."""
    return all_coset_reps(shape)[-1]


def vanishes(ideal, coords) -> bool:
    """Whether every generator of the ideal is zero at the coordinates."""
    return all(g.evaluate(coords) == 0 for g in ideal.gens)


def in_cell(chart, x) -> bool:
    """Whether x, a point of the chart, lies in its cell: every
    positive-root coordinate is zero."""
    assert x.chart == chart
    return all(c == 0 for ix, c in zip(chart.indices, x.coords) if ix in chart.positive)


def count_engine_calls(monkeypatch, *names) -> dict:
    """Count the engine's calls to the named functions from now on."""
    from richmult import engine

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _call=getattr(engine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


def product_walk(
    ideal: PolyIdeal,
    chart,
    grid,
    cell_only: bool = False,
    limit: int = 200,
) -> list[AffinePoint]:
    """The grid walk as it was before it pruned: every candidate of
    ``itertools.product(grid, repeat=len(free))``, each checked against
    every generator, truncated at limit.  ``sample_points`` must return
    exactly its list."""
    if limit < 1:
        raise ValueError("the point cap must be positive")
    grid = tuple(Fraction(g) for g in grid)
    if len(set(grid)) != len(grid):
        raise ValueError("grid values must be distinct")
    N = len(chart.indices)
    if cell_only:
        free = [i for i, ix in enumerate(chart.indices) if ix not in chart.positive]
    else:
        free = list(range(N))
    points = []
    zero = Fraction(0)
    for combo in itertools.product(grid, repeat=len(free)):
        coords = [zero] * N
        for pos, val in zip(free, combo):
            coords[pos] = val
        if all(g.evaluate(coords) == 0 for g in ideal.gens):
            points.append(AffinePoint(chart, tuple(coords)))
            if len(points) >= limit:
                break
    return points


@cache
def walk_cases(shape: GrassShape) -> list:
    """(chart, ideal) for every distinct opposite-side ideal of the shape on
    every chart, and on G(2,4) and G(2,5) every Richardson ideal too."""
    cosets = all_coset_reps(shape)
    cases = {}
    for tau in cosets:
        chart = build_chart(shape, tau)
        for v in (c for c in cosets if bruhat_leq(c, tau)):
            ideals = [opposite_ideal(chart, v)]
            if shape.n <= 5:
                ideals += [richardson_ideal(chart, w, v) for w in cosets if bruhat_leq(tau, w)]
            for ideal in ideals:
                cases.setdefault((tau, ideal.gens), (chart, ideal))
    return list(cases.values())


WALK_GRIDS = {
    "-1,0,1": (-1, 0, 1),
    "1,0,-1": (1, 0, -1),
    "0": (0,),
    "1/2,-1,0": (Fraction(1, 2), -1, 0),
    "-2,-1,0,1,2": (-2, -1, 0, 1, 2),
}


def count_side_builds(monkeypatch) -> dict:
    """Count the stratum ideal builds the engine makes from now on: the
    Schubert ideals it builds and the ones it relabels into opposite
    sides."""
    return count_engine_calls(monkeypatch, "schubert_ideal", "w0_relabel")


class TestSchubertMultiplicity:
    """The Schubert side of an instance whose opposite side is the whole
    chart (v minimal)."""

    def test_maximal_w_is_smooth(self):
        tau = rep(G24, 1, 2)
        inst = StratumInstance(ChartContext(G24, tau), rep(G24, 3, 4), minimal_rep(G24))
        assert inst.side_w.at(inst.context.chart.origin()).mult == 1

    def test_demo_point_is_smooth(self):
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        w = rep(DEMO_SHAPE, 3, 5, 6)
        inst = StratumInstance(ChartContext(DEMO_SHAPE, m.chart.tau), w, minimal_rep(DEMO_SHAPE))
        assert inst.side_w.at(m).mult == 1

    def test_fixed_point_matches_series_oracle(self):
        w, tau = rep(G24, 2, 4), rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = translate_to_origin(schubert_ideal(chart, w), chart.origin())
        expected = hilbert_samuel_multiplicity(ideal, ideal_dimension(ideal))
        inst = StratumInstance(ChartContext(G24, tau), w, minimal_rep(G24))
        assert inst.side_w.at(chart.origin()).mult == expected == 2

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            StratumInstance(ChartContext(G24, rep(G24, 2, 4)), rep(G24, 1, 3), minimal_rep(G24))

    def test_off_cell_points_taken_and_membership_enforced(self):
        """A point of the chart off the cell is answered when it lies on
        X_w, with the series value; one off X_w is refused."""
        w, tau = rep(G24, 2, 4), rep(G24, 1, 3)
        chart = build_chart(G24, tau)
        off_cell = chart.point({RootIndex(2, 1): 1})
        assert not in_cell(chart, off_cell)
        ideal = translate_to_origin(schubert_ideal(chart, w), off_cell)
        expected = hilbert_samuel_multiplicity(ideal, ideal_dimension(ideal))
        inst = StratumInstance(ChartContext(G24, tau), w, minimal_rep(G24))
        assert inst.side_w.at(off_cell).mult == expected == 1
        with pytest.raises(MembershipError):
            inst.side_w.at(chart.point({RootIndex(4, 1): 1}))


# v = 24 is not below tau = 13; the Schubert side alone (tau <= w) is fine.
NOT_NESTED = (rep(G24, 3, 4), rep(G24, 2, 4), rep(G24, 1, 3))


def fast_and_oracle(shape, w, v, tau, m=None) -> tuple[int, int]:
    """The product of the two sides' multiplicities at m (the fixed point
    when None) and the oracle's, the tangent-cone multiplicity of the sum
    of the translated sides, from a fresh instance of (w, v, tau)."""
    inst = StratumInstance(ChartContext(shape, tau), w, v)
    m = inst.resolve_point(m)
    fast = inst.side_w.at(m).mult * inst.side_v.at(m).mult
    return fast, multiplicity_at_origin(inst.oracle_ideal(m))


# Each query keyed by what it computes.
ENTRY_POINTS = {
    "build_report": lambda w, v, tau: build_report(G24, w, v, tau),
    "degree_product_check": lambda w, v, tau: StratumInstance(ChartContext(G24, tau), w, v).degrees,
    "mult_opposite_at": lambda w, v, tau: fast_and_oracle(G24, maximal_rep(G24), v, tau),
    "mult_richardson_fast": lambda w, v, tau: fast_and_oracle(G24, w, v, tau)[0],
    "mult_richardson_oracle": lambda w, v, tau: fast_and_oracle(G24, w, v, tau)[1],
    "StratumInstance": lambda w, v, tau: StratumInstance(ChartContext(G24, tau), w, v),
}


class TestGates:
    """A stratum triple is checked where the instance is built, a point
    where a side takes it."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_triple_not_nested_fails_before_any_side(self, monkeypatch, name):
        builds = count_side_builds(monkeypatch)
        with pytest.raises(PreconditionError, match="require v <= tau <= w: 24, 13, 34"):
            ENTRY_POINTS[name](*NOT_NESTED)
        assert builds == {"schubert_ideal": 0, "w0_relabel": 0}

    def test_schubert_query_names_the_triple(self, monkeypatch):
        builds = count_side_builds(monkeypatch)
        with pytest.raises(PreconditionError, match="require v <= tau <= w: 12, 24, 13"):
            StratumInstance(ChartContext(G24, rep(G24, 2, 4)), rep(G24, 1, 3), minimal_rep(G24))
        assert builds == {"schubert_ideal": 0, "w0_relabel": 0}

    @pytest.mark.parametrize("query", [
        lambda inst, m: inst.side_w.at(m).mult * inst.side_v.at(m).mult,
        lambda inst, m: multiplicity_at_origin(inst.oracle_ideal(m)),
    ], ids=["mult_richardson_fast", "mult_richardson_oracle"])
    def test_point_of_another_chart_refused_by_the_side(self, query):
        there = build_chart(G24, rep(G24, 1, 4)).origin()
        inst = StratumInstance(ChartContext(G24, rep(G24, 2, 4)), rep(G24, 3, 4), rep(G24, 1, 2))
        with pytest.raises(PointNotOnChartError):
            query(inst, there)


def off_cell_points(inst: StratumInstance) -> list:
    """The points off the cell with coordinates in -1, 0, 1 on the
    instance's intersection."""
    chart = inst.context.chart
    grid = (Fraction(-1), Fraction(0), Fraction(1))
    walk = sample_points(inst.iwv, chart, grid, limit=3 ** len(chart.indices))
    return [m for m in walk if not in_cell(chart, m)]


@cache
def g24_off_cell_points() -> tuple:
    """(instance, point) for every off-cell point of every G(2,4)
    instance, served from one context per tau."""
    contexts: dict = {}
    out = []
    for w, v, tau in enumerate_instances(G24):
        inst = StratumInstance(contexts.setdefault(tau, ChartContext(G24, tau)), w, v)
        out.extend((inst, m) for m in off_cell_points(inst))
    return tuple(out)


class TestOffCellPoints:
    """The fast path, the oracle and the report take every point of the
    chart on the variety, in the cell or not, and agree there."""

    def test_reports_agree_at_every_off_cell_point(self):
        points = g24_off_cell_points()
        assert len(points) == 628
        for inst, m in points:
            assert inst.report(m).agreement

    def test_fast_oracle_and_series_agree(self):
        """At a sample of the G(2,4) points, and at the six off-cell points
        of G(2,5) where X_35 is singular on the chart of 13 (every
        off-cell point of G(2,4) is smooth on both sides)."""
        g25 = GrassShape(2, 5)
        w, v, tau = (parse_coset(g25, t) for t in ("35", "12", "13"))
        inst = StratumInstance(ChartContext(g25, tau), w, v)
        singular = [(inst, m) for m in off_cell_points(inst) if inst.side_w.at(m).mult == 2]
        assert len(singular) == 6
        for inst, m in singular + list(g24_off_cell_points()[::37]):
            w, v = inst.w, inst.v
            fresh = StratumInstance(ChartContext(inst.context.shape, inst.context.tau), w, v)
            fast = fresh.side_w.at(m).mult * fresh.side_v.at(m).mult
            assert fast == multiplicity_at_origin(fresh.oracle_ideal(m))
            report = inst.report(m)
            chart = inst.context.chart
            for ideal, mu in ((schubert_ideal(chart, w), report.mu_w),
                              (opposite_ideal(chart, v), report.mu_v),
                              (richardson_ideal(chart, w, v), fast)):
                moved = translate_to_origin(ideal, m)
                assert hilbert_samuel_multiplicity(moved, ideal_dimension(moved)) == mu


class TestOppositeMultiplicity:
    """The opposite side of an instance whose Schubert side is the whole
    chart (w maximal)."""

    def test_minimal_v_is_smooth(self):
        tau = rep(G24, 3, 4)
        inst = StratumInstance(ChartContext(G24, tau), maximal_rep(G24), rep(G24, 1, 2))
        assert inst.side_v.at(inst.context.chart.origin()).mult == 1

    def test_fixed_point_equals_cone_degree(self):
        v, tau = rep(G24, 1, 3), rep(G24, 2, 4)
        chart = build_chart(G24, tau)
        ideal = opposite_ideal(chart, v)
        inst = StratumInstance(ChartContext(G24, tau), maximal_rep(G24), v)
        assert inst.side_v.at(chart.origin()).mult == StratumSide(ideal, "opposite", {}).degree

    def test_demo_point_oracle_value(self):
        # The twelve-variable ideal only mentions six variables, which the
        # series oracle strips off as a free smooth factor internally.
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        v = rep(DEMO_SHAPE, 1, 2, 5)
        inst = StratumInstance(ChartContext(DEMO_SHAPE, m.chart.tau), maximal_rep(DEMO_SHAPE), v)
        mu = inst.side_v.at(m).mult
        ideal = translate_to_origin(opposite_ideal(m.chart, v), m)
        assert mu == hilbert_samuel_multiplicity(ideal, ideal_dimension(ideal))

    def test_membership_enforced(self):
        tau = rep(G24, 2, 4)
        chart = build_chart(G24, tau)
        bad = chart.point({RootIndex(1, 2): 1, RootIndex(3, 2): 1, RootIndex(1, 4): 1})
        inst = StratumInstance(ChartContext(G24, tau), maximal_rep(G24), rep(G24, 1, 3))
        with pytest.raises(MembershipError):
            inst.side_v.at(bad)


class TestRichardson:
    def test_product_of_ones(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 2), rep(G24, 1, 3)
        assert fast_and_oracle(G24, w, v, tau) == (1, 1)

    def test_fixed_point_agreement_everywhere(self):
        for (w, v, tau) in enumerate_instances(G24):
            fast, oracle = fast_and_oracle(G24, w, v, tau)
            assert fast == oracle

    def test_degenerate_to_schubert(self):
        w, tau = rep(G24, 2, 4), rep(G24, 1, 2)
        v = rep(G24, 1, 2)
        inst = StratumInstance(ChartContext(G24, tau), w, v)
        origin = inst.context.chart.origin()
        assert multiplicity_at_origin(inst.oracle_ideal(origin)) == inst.side_w.at(origin).mult

    def test_double_singularity_product(self):
        shape = GrassShape(3, 7)
        w, v, tau = rep(shape, 4, 6, 7), rep(shape, 1, 2, 4), rep(shape, 2, 4, 6)
        inst = StratumInstance(ChartContext(shape, tau), w, v)
        origin = inst.context.chart.origin()
        assert inst.side_w.at(origin).mult == 2
        assert inst.side_v.at(origin).mult == 2
        assert fast_and_oracle(shape, w, v, tau) == (4, 4)

    def test_demo_instance(self):
        m = point_from_matrix(DEMO_SHAPE, DEMO_MATRIX)
        w, v = rep(DEMO_SHAPE, 3, 5, 6), rep(DEMO_SHAPE, 1, 2, 5)
        fast, oracle = fast_and_oracle(DEMO_SHAPE, w, v, m.chart.tau, m)
        assert fast == oracle


class TestDegrees:
    def test_minimal_v(self):
        w, v, tau = rep(G24, 2, 4), rep(G24, 1, 2), rep(G24, 1, 2)
        deg_w, deg_v, deg_wv, ok = StratumInstance(ChartContext(G24, tau), w, v).degrees
        assert deg_v == 1 and deg_wv == deg_w and ok

    def test_trivial_instance(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 2), rep(G24, 2, 3)
        assert StratumInstance(ChartContext(G24, tau), w, v).degrees == (1, 1, 1, True)

    def test_g24_instance(self):
        w, v, tau = rep(G24, 3, 4), rep(G24, 1, 3), rep(G24, 1, 3)
        deg_w, deg_v, deg_wv, ok = StratumInstance(ChartContext(G24, tau), w, v).degrees
        assert ok and deg_wv == deg_w * deg_v

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            StratumInstance(ChartContext(G24, rep(G24, 2, 4)), rep(G24, 1, 3), rep(G24, 1, 2))


def reference_jacobian(ideal: PolyIdeal, m: AffinePoint) -> list[list[Fraction]]:
    """The Jacobian of the generators at m, one row per generator, each
    partial derivative taken term by term and evaluated at m.  It does not
    go through ``Polynomial.shift``, which the engine's rows do."""
    rows = []
    for g in ideal.gens:
        row = [Fraction(0)] * ideal.ring.nvars
        for e, c in g.terms.items():
            for i, k in enumerate(e):
                if k:
                    value = c * k
                    for j, (x, kj) in enumerate(zip(m.coords, e)):
                        value *= x ** (kj - (j == i))
                    row[i] += value
        rows.append(row)
    return rows


def rank(rows: list[list[Fraction]]) -> int:
    """The rank over Q, by plain Gaussian elimination."""
    rows = [list(row) for row in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for i in range(found + 1, len(rows)):
            factor = rows[i][col] / rows[found][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[found])]
        found += 1
    return found


def reference_corank(ideal: PolyIdeal, m: AffinePoint, dim: int) -> int:
    return ideal.ring.nvars - rank(reference_jacobian(ideal, m)) - dim


def side_smooth(ideal: PolyIdeal, m: AffinePoint) -> bool:
    """Whether a fresh stratum side of the ideal calls m smooth: its
    Jacobian rows at m have corank 0."""
    return StratumSide(ideal, "variety", {}).at(m).smooth


class TestJacobian:
    def test_linear_ideal_smooth(self):
        tau = rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = schubert_ideal(chart, rep(G24, 1, 4))
        assert reference_corank(ideal, chart.origin(), ideal_dimension(ideal)) == 0
        assert side_smooth(ideal, chart.origin())

    def test_nodal_cone_singular(self):
        tau = rep(G24, 1, 2)
        chart = build_chart(G24, tau)
        ideal = schubert_ideal(chart, rep(G24, 2, 4))
        assert reference_corank(ideal, chart.origin(), ideal_dimension(ideal)) > 0
        assert not side_smooth(ideal, chart.origin())

    def test_corank_zero_iff_multiplicity_one(self):
        for (w, v, tau) in enumerate_instances(G24):
            chart = build_chart(G24, tau)
            ideal = richardson_ideal(chart, w, v)
            corank = reference_corank(ideal, chart.origin(), ideal_dimension(ideal))
            _, mu = fast_and_oracle(G24, w, v, tau)
            assert side_smooth(ideal, chart.origin()) == (corank == 0) == (mu == 1)

    def test_negative_corank_raises(self):
        chart = build_chart(G24, rep(G24, 1, 2))
        side = StratumSide(schubert_ideal(chart, rep(G24, 1, 4)), "Schubert", {})
        side.dimension = chart.ring.nvars  # a variety as large as the chart
        with pytest.raises(KernelInconsistencyError, match="tangent space"):
            side.at(chart.origin())


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
            direct = tuple(
                reference_corank(ideal, m, ideal_dimension(ideal)) == 0 for ideal in three
            )
            assert direct == tuple(side_smooth(ideal, m) for ideal in three)
            assert (r.smooth_w, r.smooth_v, r.smooth_wv) == direct
        assert {r.smooth_wv for r in reports} == {True, False}

    def test_point_of_another_chart_raises(self):
        """Two charts of G(2,4) have four coordinates each, so only the
        chart check tells their points apart."""
        ideal = schubert_ideal(build_chart(G24, rep(G24, 1, 3)), rep(G24, 2, 4))
        other = build_chart(G24, rep(G24, 2, 4))
        for m in (other.origin(), other.point({other.indices[3]: 1})):
            with pytest.raises(PointNotOnChartError):
                StratumSide(ideal, "Schubert", {}).at(m)


class TestScalingInvariance:
    def test_multiplicity_constant_along_scaling_orbit(self):
        """Nonzero scalings of a cell point stay on every stratum trace and
        carry the same multiplicities (the chart's torus action)."""
        from paper_statements import scale_action

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

        def mults(m):
            inst = StratumInstance(ChartContext(shape, tau), w, v)
            mu_w, mu_v = inst.side_w.at(m).mult, inst.side_v.at(m).mult
            return mu_w, mu_v, multiplicity_at_origin(inst.oracle_ideal(m))

        for m in pts[:3]:
            base = mults(m)
            for xi in (Fraction(2), Fraction(-1, 2)):
                assert mults(scale_action(xi, m)) == base


@cache
def torus_cases() -> list:
    """(shape, w, v, tau, m) for every instance of G(2,4) and G(2,5) and
    the nonzero points m among its first eight -1,0,1 cell points."""
    grid = (Fraction(-1), Fraction(0), Fraction(1))
    cases = []
    for shape in (G24, GrassShape(2, 5)):
        for w, v, tau in enumerate_instances(shape):
            chart = build_chart(shape, tau)
            rich = richardson_ideal(chart, w, v)
            points = sample_points(rich, chart, grid, cell_only=True, limit=8)
            cases.extend((shape, w, v, tau, m) for m in points if not m.is_origin())
    return cases


HEIGHT = 10**12
signed_rationals = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from((1, -1)), st.integers(1, HEIGHT), st.integers(1, HEIGHT),
)


class TestTorusInvariance:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_report_invariant_under_torus(self, data):
        """The torus scales row q by t_q; on the chart x_{q,p} becomes
        (t_q / t_p) * x_{q,p}.  Every stratum variety is torus-stable, so
        multiplicities and smoothness at m and t.m agree."""
        shape, w, v, tau, m = data.draw(st.sampled_from(torus_cases()))
        t = [None] + [data.draw(signed_rationals) for _ in range(shape.n)]
        moved = m.chart.point({ix: t[ix.q] / t[ix.p] * c for ix, c in zip(m.chart.indices, m.coords)})
        keys = ("mu_w", "mu_v", "mu_wv_oracle", "smooth_w", "smooth_v", "smooth_wv")
        base, image = (build_report(shape, w, v, tau, p).to_dict() for p in (m, moved))
        assert {k: image[k] for k in keys} == {k: base[k] for k in keys}


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
            assert vanishes(ideal, p.coords)

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

    @pytest.mark.parametrize("limit", [0, -5])
    def test_cap_must_be_positive(self, limit):
        shape = GrassShape(1, 3)
        chart = build_chart(shape, rep(shape, 1))
        with pytest.raises(ValueError, match="the point cap must be positive"):
            sample_points(PolyIdeal(chart.ring, []), chart, (Fraction(0), Fraction(1)), limit=limit)

    @pytest.mark.parametrize("shape", [G24, GrassShape(2, 5)], ids=str)
    def test_cell_only_walk_finds_the_cell_points(self, shape):
        """With cell_only the walk varies only the cell's coordinates, so it
        finds the uncapped walk's points that lie in the cell, in the same
        order, on every chart and for the zero and a Richardson ideal."""
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        cosets = all_coset_reps(shape)
        for tau in cosets:
            chart = build_chart(shape, tau)
            w = next((c for c in cosets if c != tau and bruhat_leq(tau, c)), tau)
            v = next((c for c in reversed(cosets) if c != tau and bruhat_leq(c, tau)), tau)
            everything = len(grid) ** len(chart.indices)
            for ideal in (PolyIdeal(chart.ring, []), richardson_ideal(chart, w, v)):
                walk = sample_points(ideal, chart, grid, limit=everything)
                cell = sample_points(ideal, chart, grid, cell_only=True, limit=everything)
                assert cell and cell == [p for p in walk if in_cell(chart, p)]


    @pytest.mark.parametrize("grid", list(WALK_GRIDS.values()), ids=list(WALK_GRIDS))
    @pytest.mark.parametrize("shape", [G24, GrassShape(2, 5), GrassShape(3, 6)], ids=str)
    def test_walk_is_the_product_walk(self, shape, grid):
        """The pruned walk returns the product walk's list, points and
        order, on every case of ``walk_cases``, in both modes and at the
        limits 1, 5, 50 and all.  The product walk truncated at a limit is
        its full list cut there.  Walks of more than 3**6 candidates are
        left out: a full G(3,6) walk of the product reference on a 3-value
        grid takes about 16 s per grid over the 175 opposite sides."""
        grid = tuple(Fraction(g) for g in grid)
        walked = 0
        for chart, ideal in walk_cases(shape):
            for cell_only in (False, True):
                free = len(chart.indices) - (len(chart.positive) if cell_only else 0)
                everything = len(grid) ** free
                if everything > 3**6:
                    continue
                reference = product_walk(ideal, chart, grid, cell_only, limit=everything)
                for limit in (1, 5, 50, everything):
                    walk = sample_points(ideal, chart, grid, cell_only=cell_only, limit=limit)
                    assert walk == reference[:limit], (chart.tau, ideal, cell_only, limit)
                walked += 1
        assert walked

    def test_walk_edge_cases(self):
        """No free coordinate (the cell of the minimal coset is its fixed
        point), the zero ideal, a constant generator, and generators with
        no free variable, nonzero and zero on the cell: the pruned walk
        returns the product walk's list in both modes."""
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        low = build_chart(G24, minimal_rep(G24))
        mid = build_chart(G24, rep(G24, 1, 3))
        slice_var = mid.ring.var(
            next(i for i, ix in enumerate(mid.indices) if ix in mid.positive)
        )
        cell_var = mid.ring.var(
            next(i for i, ix in enumerate(mid.indices) if ix not in mid.positive)
        )
        zero, unit = PolyIdeal(low.ring, []), PolyIdeal.unit_marker(mid.ring)
        off_cell = PolyIdeal(low.ring, [low.ring.var(0) * low.ring.var(1) - 1])
        slice_nonzero = PolyIdeal(mid.ring, [cell_var * (cell_var - 1), slice_var - 1])
        slice_zero = PolyIdeal(mid.ring, [slice_var, cell_var * (cell_var + 1)])
        cases = [
            (low, zero), (low, off_cell), (mid, PolyIdeal(mid.ring, [])), (mid, unit),
            (mid, slice_nonzero), (mid, slice_zero),
        ]
        assert all(ix in low.positive for ix in low.indices)
        for chart, ideal in cases:
            for cell_only in (False, True):
                for limit in (1, 5, 50, 3 ** len(chart.indices)):
                    walk = sample_points(ideal, chart, grid, cell_only=cell_only, limit=limit)
                    assert walk == product_walk(ideal, chart, grid, cell_only, limit)
        assert sample_points(zero, low, grid, cell_only=True) == [low.origin()]
        assert sample_points(off_cell, low, grid, cell_only=True) == []
        assert sample_points(unit, mid, grid) == []
        assert sample_points(slice_nonzero, mid, grid, cell_only=True) == []

    @pytest.mark.parametrize("v, found", [("4678", 3), ("5678", 1)])
    def test_walk_reaches_the_g48_top_chart(self, v, found):
        """The cell of the top chart of G(4,8) has 16 coordinates, so the
        product walk would try 3**16 (about 4.3e7) candidates here; the
        pruned walk drops each prefix off the opposite side at once."""
        shape = GrassShape(4, 8)
        chart = build_chart(shape, maximal_rep(shape))
        ideal = opposite_ideal(chart, parse_coset(shape, v))
        assert not chart.positive and len(chart.indices) == 16
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        points = sample_points(ideal, chart, grid, cell_only=True, limit=5)
        assert len(points) == found
        assert all(vanishes(ideal, p.coords) for p in points)

    def test_walk_evaluates_per_prefix(self, monkeypatch):
        """An uncapped walk of the G(3,6) opposite side of 246 on the top
        chart evaluates a generator 216 times; the product walk makes
        31,662 calls there, at least one per each of the 3**9 candidates."""
        shape = GrassShape(3, 6)
        chart = build_chart(shape, maximal_rep(shape))
        ideal = opposite_ideal(chart, parse_coset(shape, "246"))
        calls = [0]
        evaluate = Polynomial.evaluate

        def counted(self, values):
            calls[0] += 1
            return evaluate(self, values)

        monkeypatch.setattr(Polynomial, "evaluate", counted)
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        points = sample_points(ideal, chart, grid, cell_only=True, limit=3**9)
        assert len(points) == 33 and calls[0] == 216


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
        assert MultiplicityReport(**json.loads(json.dumps(report.to_dict()))) == report


class TestSupportKeyedPoints:
    """A side keys its points by their coordinates at the variables its
    generators use."""

    def instance(self):
        """(35, 13, 34): the opposite side is singular at the fixed point
        and its support moves at the cell points."""
        shape = GrassShape(2, 5)
        context = ChartContext(shape, rep(shape, 3, 4))
        return StratumInstance(context, rep(shape, 3, 5), rep(shape, 1, 3))

    def cell_points(self, inst):
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        points = sample_points(inst.iwv, inst.context.chart, grid, cell_only=True)
        assert len(points) == 33 and sum(m.is_origin() for m in points) == 1
        return points

    def test_schubert_side_serves_cell_points_from_one_entry(self):
        inst = self.instance()
        points = self.cell_points(inst)
        first = inst.side_w.at(inst.context.chart.origin())
        assert all(inst.side_w.at(m) is first for m in points)
        assert len({id(inst.side_v.at(m)) for m in points}) == 33

    def test_fields_equal_a_fresh_side(self):
        inst = self.instance()
        for m in self.cell_points(inst):
            for side in (inst.side_w, inst.side_v):
                kept = side.at(m)
                fresh = StratumSide(side.ideal, side.variety, {}).at(m)
                assert [g.terms for g in kept.moved.gens] == [g.terms for g in fresh.moved.gens]
                assert kept.moved.groebner() == fresh.moved.groebner()
                assert kept.mult == fresh.mult
                assert kept.cone_over_point == fresh.cone_over_point
                assert kept.jacobian_rows == fresh.jacobian_rows

    def test_point_moved_in_the_support_is_checked(self):
        """Once the memo holds the origin, a point that differs from it in a
        support coordinate has its own key and its own membership check."""
        inst = self.instance()
        side, chart = inst.side_w, inst.context.chart
        assert side.at(chart.origin()).mult == 1
        assert side.support and all(chart.indices[i] in chart.positive for i in side.support)
        coords = list(chart.origin().coords)
        coords[side.support[0]] = Fraction(1)
        moved = AffinePoint(chart, tuple(coords))
        assert not vanishes(side.ideal, moved.coords)
        with pytest.raises(MembershipError, match="Schubert"):
            side.at(moved)


class TestSweep:
    def test_fixed_points_all_agree(self):
        result = verify_theorem(G24, SweepConfig(grid=(Fraction(0),), point_cap=1))
        assert result.failed == 0
        assert result.checked == len(enumerate_instances(G24))
        assert result.summary_line() == f"checked={result.checked} agreed={result.checked} failed=0"

    def test_tallies_come_from_the_reports(self):
        report = build_report(G24, rep(G24, 2, 4), rep(G24, 1, 2), rep(G24, 1, 2))
        result = SweepResult([report, replace(report, agreement=False)])
        assert (result.checked, result.agreed, result.failed) == (2, 1, 1)
        assert result.summary_line() == "checked=2 agreed=1 failed=1"

    def test_truncation_marker(self):
        result = verify_theorem(
            G24, SweepConfig(grid=(Fraction(0),), point_cap=1, max_instances=5)
        )
        assert result.truncated
        assert "truncated=yes" in result.summary_line()

    def test_instance_ideals_built_once(self, monkeypatch):
        """The stratum ideals of one (w, v, tau) are built once for all of
        its points: the Schubert ideals of w on the chart of tau and of
        w0·v on the chart of w0·tau, and the one relabelling that makes
        the latter the opposite side.  The hoisted reports equal
        per-point ones."""
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
        reports = engine._orbit_reports(shape, [(tau, [(w, v)])], SweepConfig(grid=grid))
        assert builds == {"schubert_ideal": 2, "w0_relabel": 1}
        assert reports == [build_report(shape, w, v, tau, m) for m in points]

    def test_sides_built_once_per_chart(self, monkeypatch):
        """Over a whole sweep each Schubert ideal is built once per (tau, w),
        and each opposite side is the relabelled Schubert ideal of
        (w0·tau, w0·v), relabelled once per (tau, v) and never built: the
        two charts of a w0-orbit share their Schubert ideals.  So
        Buchberger runs once per Bruhat pair tau <= w, and no relabelled
        basis needs a run of its own."""
        from richmult import charts, groebner

        shape = GrassShape(2, 5)
        instances = enumerate_instances(shape)
        builds = count_side_builds(monkeypatch)
        runs = {"charts": 0, "groebner": 0}
        real = groebner.reduced_groebner_basis
        for module in (charts, groebner):
            def counted(gens, _name=module.__name__.rsplit(".", 1)[1]):
                runs[_name] += 1
                return real(gens)

            monkeypatch.setattr(module, "reduced_groebner_basis", counted)
        result = verify_theorem(shape, SweepConfig(grid=(Fraction(0),), point_cap=1))
        assert result.failed == 0 and result.checked == len(instances) == 175
        schubert_pairs = {(tau, w) for w, v, tau in instances}
        assert schubert_pairs == {(w0_dual(tau), w0_dual(v)) for w, v, tau in instances}
        assert builds == {
            "schubert_ideal": len(schubert_pairs),
            "w0_relabel": len({(tau, v) for w, v, tau in instances}),
        } == {"schubert_ideal": 50, "w0_relabel": 50}
        assert runs == {"charts": 50, "groebner": 0}

    def test_sides_translated_once_per_point(self, monkeypatch):
        """Over a whole sweep each side is translated once per point; the
        translated intersection is assembled from the translated sides."""
        shape = GrassShape(2, 5)
        calls = count_engine_calls(monkeypatch, "translate_to_origin")
        result = verify_theorem(shape, SweepConfig(grid=(Fraction(0),)))
        assert result.failed == 0 and result.checked == 175
        assert calls == {"translate_to_origin": 50 + 50}

    def test_translated_sides_give_the_translated_intersection(self):
        """At every report point the sum of the two translated sides has
        the generator terms, in order, and the basis of the translated
        intersection."""
        grid = (Fraction(-1), Fraction(0), Fraction(1))
        reports = verify_theorem(G24, SweepConfig(grid=grid)).reports
        assert any(c != "0" for r in reports for c in r.point.values())
        for r in reports:
            w, v, tau = (parse_coset(G24, label) for label in (r.w, r.v, r.tau))
            chart = build_chart(G24, tau)
            iw, iv = schubert_ideal(chart, w), opposite_ideal(chart, v)
            m = AffinePoint.from_json_dict(chart, r.point)
            assembled = translate_to_origin(iw, m) + translate_to_origin(iv, m)
            direct = translate_to_origin(iw + iv, m)
            assert assembled.ring == direct.ring
            assert [g.terms for g in assembled.gens] == [g.terms for g in direct.gens]
            assert [g.terms for g in assembled.groebner()] == [g.terms for g in direct.groebner()]

    def test_kept_bases_are_the_translated_ideals_bases(self):
        """At every report point of the G(2,4) 5-value grid, the basis each
        translated side and the oracle's ideal keep is the reduced basis
        of the translated generators."""
        reports = verify_theorem(G24, SweepConfig()).reports
        assert len(reports) == 930
        contexts, checked = {}, set()
        for r in reports:
            w, v, tau = (parse_coset(G24, label) for label in (r.w, r.v, r.tau))
            context = contexts.setdefault(tau, ChartContext(G24, tau))
            inst = StratumInstance(context, w, v)
            m = AffinePoint.from_json_dict(context.chart, r.point)
            moved = [inst.oracle_ideal(m)]
            direct = [translate_to_origin(inst.iwv, m)]
            for side in (inst.side_w, inst.side_v):
                if (id(side), m.coords) not in checked:
                    checked.add((id(side), m.coords))
                    moved.append(side.at(m).moved)
                    direct.append(moved[-1])
            for ideal, fresh in zip(moved, direct):
                expected = reduced_groebner_basis(fresh.gens)
                assert [str(g) for g in ideal.groebner()] == [str(g) for g in expected]

    def test_no_basis_run_on_a_translated_ideal(self, monkeypatch):
        """In a G(2,5) sweep Buchberger runs for Schubert side builds
        (charts, once per Bruhat pair) and for tangent cones, never on an intersection (no ideal's
        ``groebner()`` computes a basis) and never on a translated ideal."""
        from richmult import charts, groebner, localmult

        shape = GrassShape(2, 5)
        calls = {module: [] for module in ("charts", "groebner", "localmult")}
        real = groebner.reduced_groebner_basis
        for module in (charts, groebner, localmult):
            def counted(gens, _runs=calls[module.__name__.rsplit(".", 1)[1]]):
                _runs.append(gens[0].ring.names[0] if gens else None)
                return real(gens)

            monkeypatch.setattr(module, "reduced_groebner_basis", counted)
        result = verify_theorem(shape, SweepConfig(grid=(Fraction(-1), Fraction(0), Fraction(1))))
        assert result.failed == 0 and result.checked > len(enumerate_instances(shape))
        assert len(calls["charts"]) == 50
        assert len(calls["groebner"]) == 0
        # A zero ideal's basis is computed from no generators, so no ring.
        assert all(name is None or name.startswith("x_") for name in calls["charts"])
        assert calls["localmult"]

    def test_back_to_back_sweeps_start_cold(self, monkeypatch):
        """The engine keeps no module-level memo, so a second sweep in the
        same process takes every tangent cone again and gives the same
        reports.  Each sweep walks the grid once per (tau, v), translates
        each side once per support key and takes one tangent cone per side
        point and per pair of side points with two nonzero sides: the 10
        zero-ideal sides among the side points each take their own, a
        trivial cone."""
        shape = GrassShape(2, 5)
        config = SweepConfig(grid=(Fraction(-1), Fraction(0), Fraction(1)), point_cap=50)
        calls = count_engine_calls(
            monkeypatch, "multiplicity_at_origin", "sample_points", "translate_to_origin"
        )
        first = verify_theorem(shape, config)
        opposite_sides = len({(tau, v) for w, v, tau in enumerate_instances(shape)})
        once = {
            "multiplicity_at_origin": 401, "sample_points": opposite_sides,
            "translate_to_origin": 236,
        }
        assert opposite_sides == 50 and calls == once
        second = verify_theorem(shape, config)
        assert calls == {name: 2 * count for name, count in once.items()}
        assert first.checked == 1856 and second.reports == first.reports

    @pytest.mark.parametrize("shape, grid, cap", [
        (G24, (-1, 0, 1), 200),
        (G24, DEFAULT_GRID, 200),
        (GrassShape(2, 5), (-1, 0, 1), 50),
    ], ids=["G(2,4) 3-value", "G(2,4) 5-value", "G(2,5) 3-value cap 50"])
    def test_shared_walk_is_the_instance_walk(self, shape, grid, cap):
        """On every instance the cell-only walk of the opposite side finds
        the points the walk of the intersection finds, in the same order:
        the sweep walks once per (tau, v) and shares them across w."""
        grid = tuple(Fraction(g) for g in grid)
        contexts = {}
        for w, v, tau in enumerate_instances(shape):
            context = contexts.setdefault(tau, ChartContext(shape, tau))
            inst = StratumInstance(context, w, v)
            walk = sample_points(inst.side_v.ideal, context.chart, grid, cell_only=True, limit=cap)
            assert walk == sample_points(inst.iwv, context.chart, grid, cell_only=True, limit=cap)

    def test_orbit_contexts_share_schubert_ideals(self, monkeypatch):
        """The context of w0·tau built with ``dual`` takes the charts of its
        partner and its Schubert ideals: after the chart of 13 has its
        opposite sides, the chart of 24 = w0·13 builds no Schubert ideal
        for the w those used.  A partner of another tau is refused."""
        first = ChartContext(G24, rep(G24, 1, 3))
        opposite = {v: first.side(v, "opposite") for v in (rep(G24, 1, 2), rep(G24, 1, 3))}
        builds = count_side_builds(monkeypatch)
        second = ChartContext(G24, rep(G24, 2, 4), dual=first)
        assert (second.chart, second.dual_chart) == (first.dual_chart, first.chart)
        for v, side in opposite.items():
            assert second.side(w0_dual(v), "Schubert").ideal.gens == (
                w0_relabel(second.chart, side.ideal).gens
            )
        assert builds == {"schubert_ideal": 0, "w0_relabel": 0}
        with pytest.raises(ValueError, match="14 is not w0·13"):
            ChartContext(G24, rep(G24, 1, 3), dual=ChartContext(G24, rep(G24, 1, 4)))

    def test_side_rejects_a_point_of_another_chart(self):
        """A side answers points of its own chart only, also once its memo
        holds a point with the same coordinates."""
        here = ChartContext(G24, rep(G24, 2, 4))
        there = build_chart(G24, rep(G24, 1, 4))
        side = here.side(rep(G24, 2, 4), "Schubert")
        assert there.origin().coords == here.chart.origin().coords
        with pytest.raises(PointNotOnChartError):
            side.at(there.origin())
        assert side.at(here.chart.origin()).mult == 1
        with pytest.raises(PointNotOnChartError):
            side.at(there.origin())

    def test_pool_has_no_more_workers_than_charts(self, monkeypatch):
        """A sweep opens its pool with at most one worker per task, a
        w0-orbit of charts (G(2,4) has 6 charts in 4 orbits), and none for
        a single chart."""
        import concurrent.futures

        opened = []

        class RecordingPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        config = SweepConfig(grid=(Fraction(0),), workers=8)
        pooled = verify_theorem(G24, config)
        assert opened == [4]
        assert pooled.reports == verify_theorem(G24, replace(config, workers=1)).reports
        assert verify_theorem(G24, replace(config, max_instances=1)).checked == 1
        assert verify_theorem(G24, replace(config, max_instances=0)).checked == 0
        assert opened == [4]

    def test_sweep_config_fields(self):
        """A sweep has four settings; a cap above the default reaches the
        worker pool unchanged."""
        assert [f.name for f in fields(SweepConfig)] == [
            "grid", "point_cap", "max_instances", "workers"
        ]
        serial = verify_theorem(G24, SweepConfig(grid=(Fraction(0),), point_cap=300))
        parallel = verify_theorem(
            G24, SweepConfig(grid=(Fraction(0),), point_cap=300, workers=2)
        )
        assert serial.reports == parallel.reports and serial.checked == 50

    def test_budget_rejects_large_shape(self):
        with pytest.raises(ValueError):
            verify_theorem(GrassShape(4, 8), SweepConfig())

    @pytest.mark.parametrize("settings, match", [
        ({"grid": tuple(Fraction(k) for k in range(6))}, "grid has 6 values"),
        ({"point_cap": 0}, "point_cap must be positive"),
        ({"max_instances": -1}, "max_instances must not be negative"),
        ({"workers": 0}, "workers must be positive"),
        ({"workers": -2}, "workers must be positive"),
    ])
    def test_config_rejects_out_of_bounds(self, settings, match):
        with pytest.raises(ValueError, match=match):
            SweepConfig(**settings)

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


class TestPairMemo:
    """The oracle multiplicity and the intersection's Jacobian corank of a
    report depend only on its instance and its pair of side points, and a
    side's corank only on its side point, so a sweep computes each once
    per distinct pair or side point, in both families.  A pair with a
    zero side takes no tangent cone: its oracle ideal is the other side's
    translated ideal."""

    @staticmethod
    def count(monkeypatch, sweep) -> tuple[int, int, int, int, int, int]:
        """Reports of the sweep, distinct (instance, side-point pair)s they
        read (a side point keyed by the point's coordinates at the side's
        support), those of them with two nonzero sides, distinct side
        points, oracle ``multiplicity_at_origin`` calls and ``_corank``
        calls."""
        from richmult import engine

        pairs, sides, calls = set(), set(), {"oracle": 0, "corank": 0}
        nonzero = set()
        real_at, real_mult, real_corank = (
            StratumInstance.at, engine.multiplicity_at_origin, engine._corank
        )

        def at(inst, m):
            keys = tuple(tuple(m.coords[k] for k in side.support) for side in (inst.side_w, inst.side_v))
            pair = (inst.context.tau, inst.w, inst.v, keys)
            pairs.add(pair)
            sides.update(zip((inst.context.tau,) * 2, ("w", "v"), (inst.w, inst.v), keys))
            if inst.side_w.ideal.gens and inst.side_v.ideal.gens:
                nonzero.add(pair)
            return real_at(inst, m)

        def mult(ideal, *table):
            calls["oracle"] += sys._getframe(1).f_code is real_at.__code__
            return real_mult(ideal, *table)

        def corank(*args):
            calls["corank"] += 1
            return real_corank(*args)

        monkeypatch.setattr(StratumInstance, "at", at)
        monkeypatch.setattr(engine, "multiplicity_at_origin", mult)
        monkeypatch.setattr(engine, "_corank", corank)
        reports = sweep()
        return len(reports), len(pairs), len(nonzero), len(sides), calls["oracle"], calls["corank"]

    def test_grassmannian_sweep(self, monkeypatch):
        grid = tuple(Fraction(g) for g in (-1, 0, 1))
        reports, pairs, nonzero, sides, oracle, corank = self.count(
            monkeypatch, lambda: verify_theorem(G24, SweepConfig(grid=grid)).reports
        )
        assert (oracle, corank) == (nonzero, pairs + sides)
        assert (reports, pairs, nonzero, sides) == (326, 82, 16, 72)

    def test_quadric_sweep(self, monkeypatch):
        from richmult.quadric import QuadricShape, quadric_sweep

        reports, pairs, nonzero, sides, oracle, corank = self.count(
            monkeypatch, lambda: quadric_sweep(QuadricShape(2))
        )
        assert (oracle, corank) == (nonzero, pairs + sides)
        assert (reports, pairs, nonzero, sides) == (44, 24, 4, 24)

    def test_memo_keeps_the_reports(self):
        """Reports read from the memo, twice per point, equal the reports of
        a fresh instance."""
        context = ChartContext(G24, rep(G24, 2, 4))
        inst = StratumInstance(context, rep(G24, 3, 4), rep(G24, 1, 3))
        points = sample_points(inst.side_v.ideal, context.chart, DEFAULT_GRID, cell_only=True)
        assert len(points) > 1
        for m in points + points:
            fresh = StratumInstance(ChartContext(G24, context.tau), inst.w, inst.v)
            assert inst.report(m) == fresh.report(m)


class TestHilbertTable:
    """A sweep reads every Hilbert numerator through one table, so it
    computes each numerator of a monomial ideal once, and the next sweep
    starts with an empty table."""

    @staticmethod
    def numerators(monkeypatch) -> list:
        """Count the Hilbert numerators computed from now on."""
        from richmult import hilbert

        calls = []
        real = hilbert.hilbert_numerator

        def counted(gens, nvars):
            calls.append(nvars)
            return real(gens, nvars)

        monkeypatch.setattr(hilbert, "hilbert_numerator", counted)
        return calls

    @pytest.mark.parametrize("sweep, count", [
        (lambda: verify_theorem(GrassShape(3, 6), SweepConfig(grid=(Fraction(0),), point_cap=1)), 175),
        (lambda: verify_theorem(GrassShape(2, 5), SweepConfig(
            grid=tuple(map(Fraction, (-1, 0, 1))), point_cap=50)), 55),
        (lambda: _quadric_sweep_of(4, (-2, Fraction(-1, 2), 0, 1, Fraction(3, 2)), 200), 45),
    ], ids=["G(3,6) --grid=0", "G(2,5) -1,0,1 cap 50", "quadric --qn 4"])
    def test_each_numerator_once_per_sweep(self, monkeypatch, sweep, count):
        calls = self.numerators(monkeypatch)
        sweep()
        assert len(calls) == count
        sweep()
        assert len(calls) == 2 * count

    def test_table_entries_equal_fresh_data(self, monkeypatch):
        """Every context of a one-process sweep holds the same table, and
        after the sweep each entry is the fresh Hilbert data of its key."""
        from richmult.hilbert import hilbert_data

        tables = {}
        real_init = ChartContext.__init__

        def init(context, *args, **kwargs):
            real_init(context, *args, **kwargs)
            tables[id(context.hilberts)] = context.hilberts

        monkeypatch.setattr(ChartContext, "__init__", init)
        grid = tuple(map(Fraction, (-1, 0, 1)))
        assert verify_theorem(GrassShape(2, 5), SweepConfig(grid=grid, point_cap=50)).failed == 0
        [table] = tables.values()
        assert len(table) == 55
        for (gens, nvars), data in table.items():
            assert data == hilbert_data(sorted(gens), nvars)


def _quadric_sweep_of(n, grid, cap):
    from richmult.quadric import QuadricShape, quadric_sweep

    return quadric_sweep(QuadricShape(n), grid=grid, cap=cap)


def _grid_sweep(shape, grid):
    return lambda: verify_theorem(shape, SweepConfig(grid=tuple(map(Fraction, grid)))).reports


def _quadric_sweep(n):
    def sweep():
        from richmult.quadric import QuadricShape, quadric_sweep

        return quadric_sweep(QuadricShape(n))

    return sweep


ZERO_SIDE_SWEEPS = pytest.mark.parametrize("sweep", [
    _grid_sweep(G24, (-1, 0, 1)), _grid_sweep(GrassShape(2, 5), (0,)), _quadric_sweep(2),
], ids=["G(2,4) -1,0,1", "G(2,5) --grid=0", "quadric --qn 2"])


class TestReferenceJacobian:
    """A side point's Jacobian rows are its translated generators'
    degree-one coefficients; these tests hold them against the reference
    Jacobian, which differentiates the generators' term dicts."""

    @ZERO_SIDE_SWEEPS
    def test_rows_give_the_reference_corank(self, monkeypatch, sweep):
        """At every report point, the coranks of each side point's rows, of
        the stacked pair rows, and of the rows of fresh sides of the
        directly built Schubert, opposite and Richardson ideals all equal
        the corank of the reference Jacobian, and so do the smoothness
        flags."""
        points, real_at = {}, StratumInstance.at

        def at(inst, m):
            points.setdefault((id(inst), m), (inst, m))
            return real_at(inst, m)

        monkeypatch.setattr(StratumInstance, "at", at)
        sweep()
        monkeypatch.undo()
        ideals = {}
        for inst, m in points.values():
            context = inst.context
            key = context.tau, inst.w, inst.v
            if key not in ideals:
                family = context.family
                chart = family.build_chart(context.shape, context.tau)
                dual = family.build_chart(context.shape, family.w0_dual(context.tau))
                iw = family.schubert_ideal(chart, inst.w)
                iv = family.w0_relabel(chart, family.schubert_ideal(dual, family.w0_dual(inst.v)))
                three = (iw, iv, iw + iv)
                ideals[key] = [(ideal, ideal_dimension(ideal)) for ideal in three]
            at_w, at_v, _, smooth_wv = inst.at(m)
            expected = [reference_corank(ideal, m, dim) for ideal, dim in ideals[key]]
            nvars = m.chart.ring.nvars
            row_sets = (at_w.jacobian_rows, at_v.jacobian_rows, at_w.jacobian_rows + at_v.jacobian_rows)
            assert [nvars - rank(rows) - dim for rows, (_, dim) in zip(row_sets, ideals[key])] == expected
            fresh = [StratumSide(ideal, "direct", {}).at(m) for ideal, _ in ideals[key]]
            assert [nvars - rank(p.jacobian_rows) - dim for p, (_, dim) in zip(fresh, ideals[key])] == expected
            assert (at_w.smooth, at_v.smooth, smooth_wv) == tuple(c == 0 for c in expected)
        assert points

    def test_side_points_evaluate_no_polynomial(self, monkeypatch):
        """A side point is read off its translated ideal: in a G(3,6)
        fixed-point sweep ``StratumSide.at`` evaluates no polynomial."""
        inside, counts = [0], {"at": 0, "evaluate": 0}
        real_at, real_evaluate = StratumSide.at, Polynomial.evaluate

        def at(side, m):
            counts["at"] += 1
            inside[0] += 1
            try:
                return real_at(side, m)
            finally:
                inside[0] -= 1

        def evaluate(poly, values):
            counts["evaluate"] += inside[0] > 0
            return real_evaluate(poly, values)

        monkeypatch.setattr(StratumSide, "at", at)
        monkeypatch.setattr(Polynomial, "evaluate", evaluate)
        result = verify_theorem(GrassShape(3, 6), SweepConfig(grid=(Fraction(0),)))
        assert result.checked == 980 and counts["at"] > 0
        assert counts["evaluate"] == 0


class TestZeroSideRule:
    """When one side's ideal has no generators, ``StratumInstance.at``
    takes the other side's multiplicity as the oracle value instead of a
    tangent cone of the sum.  Every report of such an instance is checked
    against a fresh tangent cone of its oracle ideal."""

    @staticmethod
    def check(monkeypatch, sweep) -> tuple[int, list, int]:
        """Reports of the sweep, the (instance, point) pairs with a zero side
        whose oracle value (the report's ``mu_wv_oracle``) differs from a
        fresh ``multiplicity_at_origin`` of the oracle ideal, and the largest
        nonzero side's multiplicity among the pairs with a zero side."""
        calls, bad, top = 0, [], 0
        real_at = StratumInstance.at

        def at(inst, m):
            nonlocal calls, top
            at_w, at_v, oracle, smooth = real_at(inst, m)
            calls += 1
            zero_w = inst.side_w.ideal.is_zero_ideal()
            if zero_w or inst.side_v.ideal.is_zero_ideal():
                top = max(top, at_v.mult if zero_w else at_w.mult)
                if oracle != multiplicity_at_origin(inst.oracle_ideal(m)):
                    bad.append((inst.context.tau, inst.w, inst.v, m))
            return at_w, at_v, oracle, smooth

        monkeypatch.setattr(StratumInstance, "at", at)
        reports = sweep()
        assert calls == len(reports)
        return len(reports), bad, top

    @ZERO_SIDE_SWEEPS
    def test_oracle_equals_a_fresh_tangent_cone(self, monkeypatch, sweep):
        reports, bad, top = self.check(monkeypatch, sweep)
        assert reports and bad == [] and top > 1

    @ZERO_SIDE_SWEEPS
    def test_planted_zero_side_mult_is_caught(self, monkeypatch, sweep):
        """A rule that takes the zero side's multiplicity (always 1) fails
        wherever the nonzero side is singular."""
        real_at = StratumInstance.at

        def planted(inst, m):
            at_w, at_v, oracle, smooth = real_at(inst, m)
            if inst.side_w.ideal.is_zero_ideal():
                oracle = at_w.mult
            elif inst.side_v.ideal.is_zero_ideal():
                oracle = at_v.mult
            return at_w, at_v, oracle, smooth

        monkeypatch.setattr(StratumInstance, "at", planted)
        assert self.check(monkeypatch, sweep)[1]
