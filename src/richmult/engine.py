"""Multiplicities of points on stratum varieties: fast path and oracle.

The fast path multiplies the two one-sided multiplicities; the oracle
computes the tangent-cone degree of the intersection ideal directly.  The
sweep harness enumerates nested stratum triples, samples rational cell
points from a grid, and emits one report per point with degree, cone and
smoothness verdicts.

The sweep's unit of work is a chart.  The Schubert side of an instance
(w, v, tau) depends only on (tau, w) and the opposite side only on
(tau, v), so a :class:`ChartContext` builds each :class:`StratumSide`
once (its ideal, dimension, degree, symbolic Jacobian, and per point its
multiplicity, cone flag and Jacobian rows) and every
:class:`StratumInstance` on the chart shares it; an instance adds only
what needs both sides.  Instances are grouped by tau and the groups run
largest cell first.  Each group is served from one context that is
dropped when the group ends, and ``workers > 1`` maps the groups over a
process pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .charts import (
    AffinePoint,
    Chart,
    build_chart,
    evaluate_ideal,
    in_cell,
    intersection_ideal,
    is_cone_over_origin,
    opposite_ideal,
    schubert_ideal,
    translate_to_origin,
)
from .groebner import PolyIdeal
from .hilbert import ideal_dimension, projective_degree
from .localmult import multiplicity_at_origin
from .weyl import (
    CosetRep,
    GrassShape,
    all_coset_reps,
    bruhat_leq,
    format_coset,
    maximal_rep,
    minimal_rep,
)

DEFAULT_GRID = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2))


class PreconditionError(ValueError):
    """A Bruhat-order precondition does not hold."""


class MembershipError(ValueError):
    """The supplied point does not lie on the required variety."""


class KernelInconsistencyError(RuntimeError):
    """Cross-checks that must hold by theory failed; do not trust results."""


@dataclass(frozen=True)
class EngineBudget:
    """Desk-scale guard rails; exceeding them raises or truncates
    explicitly rather than silently degrading."""

    max_variables: int = 12
    max_grid_values: int = 5
    point_cap: int = 200
    max_instances: Optional[int] = None


# Multiplicities keyed by the canonical reduced basis of the translated
# ideal; the same ideal recurs across points and instances.  A pure cache:
# safe to clear at any time, per-process under multiprocessing.
_MULT_CACHE: dict = {}


def clear_caches():
    _MULT_CACHE.clear()


def _mult_of(ideal: PolyIdeal) -> int:
    key = ideal.canonical_key()
    value = _MULT_CACHE.get(key)
    if value is None:
        value = multiplicity_at_origin(ideal)
        _MULT_CACHE[key] = value
    return value


def _translate(ideal: PolyIdeal, m: AffinePoint, variety: str) -> PolyIdeal:
    """The ideal moved so that m becomes the origin; m must lie on its
    variety."""
    if ideal.is_unit() or not evaluate_ideal(ideal, m):
        raise MembershipError(f"point is not on the {variety} variety")
    return translate_to_origin(ideal, m)


def _instance(shape: GrassShape, w: CosetRep, v: CosetRep, tau: CosetRep) -> "StratumInstance":
    return StratumInstance(ChartContext(shape, tau), w, v)


def mult_schubert_at(
    shape: GrassShape, w: CosetRep, tau: CosetRep, m: Optional[AffinePoint] = None
) -> int:
    """Multiplicity of a cell point m on the Schubert variety of w.

    Requires m in the cell of tau and tau <= w.  The result is also
    computed at the fixed point and the two must agree (the variety is
    translation-invariant along the cell); disagreement raises."""
    # The opposite variety of the minimal coset is the whole space.
    inst = _instance(shape, w, minimal_rep(shape), tau)
    return inst.schubert_point(inst.resolve_point(m)).mult


def mult_opposite_at(
    shape: GrassShape, v: CosetRep, tau: CosetRep, m: Optional[AffinePoint] = None
) -> int:
    """Multiplicity of m on the opposite stratum variety of v; membership
    is checked by evaluating the generators at m."""
    # The Schubert variety of the maximal coset is the whole space.
    inst = _instance(shape, maximal_rep(shape), v, tau)
    return inst.side_v.at(inst.resolve_point(m)).mult


def mult_richardson_fast(
    shape: GrassShape,
    w: CosetRep,
    v: CosetRep,
    tau: CosetRep,
    m: Optional[AffinePoint] = None,
) -> int:
    """Product of the two one-sided multiplicities (a point on both sides
    lies on the intersection)."""
    if not bruhat_leq(v, w):
        raise PreconditionError(f"require v <= w: {format_coset(v)} vs {format_coset(w)}")
    inst = _instance(shape, w, v, tau)
    m = inst.resolve_point(m)
    return inst.schubert_point(m).mult * inst.side_v.at(m).mult


def mult_richardson_oracle(
    shape: GrassShape,
    w: CosetRep,
    v: CosetRep,
    tau: CosetRep,
    m: Optional[AffinePoint] = None,
) -> int:
    """Tangent-cone multiplicity of the intersection ideal at m, computed
    without the product shortcut."""
    inst = _instance(shape, w, v, tau)
    return _mult_of(inst.richardson_at(inst.resolve_point(m)))


def degree_product_check(
    shape: GrassShape, w: CosetRep, v: CosetRep, tau: CosetRep
) -> tuple[int, int, int, bool]:
    """Projective degrees of the three cone ideals on the chart and whether
    deg(intersection) = deg * deg."""
    return _instance(shape, w, v, tau).degrees


def jacobian_corank(ideal: PolyIdeal, m: AffinePoint, dim: Optional[int] = None) -> int:
    """Tangent-space dimension at m minus the variety's dimension (0 at a
    smooth point of the varieties considered here).  ``dim`` is the
    variety's dimension, computed from the ideal when not given.  The
    tangent space can never be smaller than the variety, so a negative
    value raises."""
    if not evaluate_ideal(ideal, m):
        raise MembershipError("point is not on the variety")
    if dim is None:
        dim = ideal_dimension(ideal)
    return _corank(_jacobian_rows(_gradient(ideal), m), ideal.ring.nvars, dim, m)


def _gradient(ideal: PolyIdeal) -> list[list]:
    """The symbolic Jacobian: one row of partial derivatives per generator."""
    return [[g.derivative(i) for i in range(ideal.ring.nvars)] for g in ideal.gens]


def _jacobian_rows(gradient: list[list], m: AffinePoint) -> list[list[Fraction]]:
    return [[d.evaluate(m.coords) for d in row] for row in gradient]


def _corank(rows: list[list[Fraction]], nvars: int, dim: int, m: AffinePoint) -> int:
    """Corank of the Jacobian rows at m against a variety of dimension dim;
    a tangent space smaller than the variety raises."""
    tangent_dim = nvars - _matrix_rank(rows)
    if tangent_dim < dim:
        raise KernelInconsistencyError(
            f"tangent space of dimension {tangent_dim} at {m} is smaller than "
            f"the variety's dimension {dim}"
        )
    return tangent_dim - dim


def _matrix_rank(rows: list[list[Fraction]]) -> int:
    work = [list(r) for r in rows if any(c != 0 for c in r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while work and col < ncols:
        pivot = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        row = work.pop(pivot)
        rank += 1
        work = [
            [a - (r[col] / row[col]) * b for a, b in zip(r, row)] if r[col] != 0 else r
            for r in work
        ]
        col += 1
    return rank


def sample_points(
    ideal: PolyIdeal,
    chart: Chart,
    grid: Sequence[Fraction],
    cell_only: bool = False,
    limit: int = 200,
) -> list[AffinePoint]:
    """Deterministic enumeration of grid points satisfying all generators
    (and lying in the cell when cell_only), truncated at limit."""
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
        point = AffinePoint(chart, tuple(coords))
        if cell_only and not in_cell(chart, point):
            continue
        if ideal.vanishes_at(point.coords):
            points.append(point)
            if len(points) >= limit:
                break
    return points


# ---------------------------------------------------------------------------
# Reports and the sweep harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityReport:
    """Flat, JSON-ready record of one (w, v, tau, point) verification."""

    family: str
    d: int
    n: int
    tau: str
    w: str
    v: str
    point: dict
    mu_w: int
    mu_v: int
    mu_wv_fast: int
    mu_wv_oracle: int
    deg_zw: Optional[int]
    deg_zv: Optional[int]
    deg_zwv: Optional[int]
    degree_product_ok: Optional[bool]
    cone_schubert_over_point: Optional[bool]
    cone_opposite_over_point: Optional[bool]
    cone_richardson_over_origin: Optional[bool]
    smooth_w: bool
    smooth_v: bool
    smooth_wv: bool
    agreement: bool

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["point"] = dict(self.point)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MultiplicityReport":
        return cls(**data)

    def sort_key(self):
        return (
            self.family,
            self.d,
            self.n,
            self.w,
            self.v,
            self.tau,
            sorted(self.point.items()),
        )


class SidePoint(NamedTuple):
    """One stratum side at one point: the multiplicity there, whether the
    translated ideal is a cone over the point, and the Jacobian rows of
    the side's generators evaluated at the point."""

    mult: int
    cone_over_point: bool
    jacobian_rows: list


class StratumSide:
    """One stratum variety on one chart: the Schubert variety of w or the
    opposite variety of v.  It holds the chart ideal and, each computed on
    first use and kept, its dimension, its projective degree, its symbolic
    Jacobian, and per point a :class:`SidePoint`.  Nothing in it depends
    on the other side, so every instance of the chart shares it."""

    def __init__(self, ideal: PolyIdeal, variety: str):
        self.ideal = ideal
        self.variety = variety
        self._points: dict = {}

    @cached_property
    def dimension(self) -> int:
        return ideal_dimension(self.ideal)

    @cached_property
    def degree(self) -> int:
        return projective_degree(self.ideal)

    @cached_property
    def gradient(self) -> list[list]:
        return _gradient(self.ideal)

    def at(self, m: AffinePoint) -> SidePoint:
        """The side at m, built on first use; m must lie on the variety."""
        point = self._points.get(m.coords)
        if point is None:
            moved = _translate(self.ideal, m, self.variety)
            point = SidePoint(
                mult=_mult_of(moved),
                cone_over_point=is_cone_over_origin(moved),
                jacobian_rows=_jacobian_rows(self.gradient, m),
            )
            self._points[m.coords] = point
        return point


class ChartContext:
    """The chart of tau with every stratum side built on it, each once per
    w or v: the sweep's unit of work.  Sides live as long as the context."""

    def __init__(self, shape: GrassShape, tau: CosetRep):
        self.shape = shape
        self.tau = tau
        self.chart = build_chart(shape, tau)
        self._sides: dict = {}

    def side(self, build, rep: CosetRep, variety: str) -> StratumSide:
        """The side of rep whose ideal build(chart, rep) makes (the Schubert
        or the opposite one), built on first use."""
        side = self._sides.get((variety, rep))
        if side is None:
            side = self._sides[variety, rep] = StratumSide(build(self.chart, rep), variety)
        return side


class StratumInstance:
    """What verifying one stratum triple (w, v, tau) needs beyond its two
    sides, which it takes from the chart's context: the intersection
    ideal and, each computed on first use and kept, the dimension check
    against Bruhat lengths, the degree identity and the cone flag of the
    intersection."""

    def __init__(self, context: ChartContext, w: CosetRep, v: CosetRep):
        self.context = context
        self.w = w
        self.v = v
        self.side_w = context.side(schubert_ideal, w, "Schubert")
        self.side_v = context.side(opposite_ideal, v, "opposite")
        self.iwv = intersection_ideal(self.side_w.ideal, self.side_v.ideal)

    @cached_property
    def dimensions(self) -> tuple[int, int, int]:
        """Dimensions of the three varieties.  The Groebner dimensions must
        match the combinatorial ones; a mismatch would mean the minor
        generators do not cut the expected varieties."""
        if self.iwv.is_unit():
            raise PreconditionError("empty intersection on this chart")
        lw, lv = self.w.length(), self.v.length()
        expected = (lw, self.context.shape.dim - lv, lw - lv)
        actual = (self.side_w.dimension, self.side_v.dimension, ideal_dimension(self.iwv))
        for dim, exp, label in zip(actual, expected, ("w", "v", "wv")):
            if dim != exp:
                raise KernelInconsistencyError(
                    f"dimension of {label}-ideal is {dim}, expected {exp}"
                )
        return expected

    @cached_property
    def degrees(self) -> tuple[int, int, int, bool]:
        """Projective degrees of the three cone ideals and whether
        deg(intersection) = deg * deg."""
        v, tau, w = self.v, self.context.tau, self.w
        if not (bruhat_leq(v, tau) and bruhat_leq(tau, w)):
            raise PreconditionError(
                f"require v <= tau <= w: {format_coset(v)}, {format_coset(tau)}, {format_coset(w)}"
            )
        deg_w, deg_v = self.side_w.degree, self.side_v.degree
        deg_wv = projective_degree(self.iwv)
        return deg_w, deg_v, deg_wv, deg_wv == deg_w * deg_v

    @cached_property
    def cone_richardson_over_origin(self) -> bool:
        return self.iwv.is_zero_ideal() or is_cone_over_origin(self.iwv)

    def resolve_point(self, m: Optional[AffinePoint]) -> AffinePoint:
        """m itself, or the fixed point when m is None."""
        if m is None:
            return self.context.chart.origin()
        if m.chart != self.context.chart:
            raise MembershipError("point lies on a different chart")
        return m

    def schubert_point(self, m: AffinePoint) -> SidePoint:
        """The Schubert side at m, a cell point on X_w.  Its multiplicity
        must equal the one at the fixed point (the variety is
        translation-invariant along the cell)."""
        tau, chart = self.context.tau, self.context.chart
        if not bruhat_leq(tau, self.w):
            raise PreconditionError(
                f"require tau <= w: {format_coset(tau)} vs {format_coset(self.w)}"
            )
        if not in_cell(chart, m):
            raise MembershipError(f"point {m} is not in the cell of {format_coset(tau)}")
        point = self.side_w.at(m)
        fixed = self.side_w.at(chart.origin()).mult
        if point.mult != fixed:
            raise KernelInconsistencyError(
                f"translation invariance violated: {point.mult} != {fixed}"
            )
        return point

    def richardson_at(self, m: AffinePoint) -> PolyIdeal:
        return _translate(self.iwv, m, "intersection")

    def report(self, m: Optional[AffinePoint] = None) -> MultiplicityReport:
        """Full verification record for one point."""
        m = self.resolve_point(m)
        dim_w, dim_v, dim_wv = self.dimensions
        at_w = self.schubert_point(m)
        at_v = self.side_v.at(m)
        mu_fast = at_w.mult * at_v.mult
        mu_oracle = _mult_of(self.richardson_at(m))
        deg_w, deg_v, deg_wv, deg_ok = self.degrees
        nvars = self.context.chart.ring.nvars
        # The intersection's generators are the union of the two sides'
        # (deduplicated, already primitive), so its Jacobian has the same
        # rank as the two sides' rows stacked.
        rows_wv = at_w.jacobian_rows + at_v.jacobian_rows
        return MultiplicityReport(
            family="grassmannian",
            d=self.context.shape.d,
            n=self.context.shape.n,
            tau=format_coset(self.context.tau),
            w=format_coset(self.w),
            v=format_coset(self.v),
            point=m.to_json_dict(),
            mu_w=at_w.mult,
            mu_v=at_v.mult,
            mu_wv_fast=mu_fast,
            mu_wv_oracle=mu_oracle,
            deg_zw=deg_w,
            deg_zv=deg_v,
            deg_zwv=deg_wv,
            degree_product_ok=deg_ok,
            cone_schubert_over_point=at_w.cone_over_point,
            cone_opposite_over_point=at_v.cone_over_point,
            cone_richardson_over_origin=self.cone_richardson_over_origin,
            smooth_w=_corank(at_w.jacobian_rows, nvars, dim_w, m) == 0,
            smooth_v=_corank(at_v.jacobian_rows, nvars, dim_v, m) == 0,
            smooth_wv=_corank(rows_wv, nvars, dim_wv, m) == 0,
            agreement=mu_fast == mu_oracle,
        )


def build_report(
    shape: GrassShape,
    w: CosetRep,
    v: CosetRep,
    tau: CosetRep,
    m: Optional[AffinePoint] = None,
) -> MultiplicityReport:
    """Full verification record for one point of one stratum triple."""
    return _instance(shape, w, v, tau).report(m)


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple = DEFAULT_GRID
    point_cap: int = 200
    max_instances: Optional[int] = None
    workers: int = 1
    budget: EngineBudget = EngineBudget()

    def __post_init__(self):
        if len(self.grid) > self.budget.max_grid_values:
            raise ValueError(
                f"grid has {len(self.grid)} values, budget allows "
                f"{self.budget.max_grid_values}"
            )
        if self.point_cap < 1:
            raise ValueError("point_cap must be positive")
        if self.point_cap > self.budget.point_cap:
            raise ValueError(
                f"point_cap {self.point_cap} exceeds the budget of "
                f"{self.budget.point_cap}"
            )
        if (
            self.budget.max_instances is not None
            and (self.max_instances is None or self.max_instances > self.budget.max_instances)
        ):
            raise ValueError("max_instances exceeds the budget")


@dataclass
class SweepResult:
    reports: list
    checked: int
    agreed: int
    failed: int
    truncated: bool

    def summary_line(self) -> str:
        line = f"checked={self.checked} agreed={self.agreed} failed={self.failed}"
        if self.truncated:
            line += " truncated=yes"
        return line


def enumerate_instances(shape: GrassShape) -> list[tuple[CosetRep, CosetRep, CosetRep]]:
    """All (w, v, tau) with v <= tau <= w, in lexicographic order."""
    reps = all_coset_reps(shape)
    out = []
    for w in reps:
        for v in reps:
            if not bruhat_leq(v, w):
                continue
            for tau in reps:
                if bruhat_leq(v, tau) and bruhat_leq(tau, w):
                    out.append((w, v, tau))
    out.sort(key=lambda t: (t[0].entries, t[1].entries, t[2].entries))
    return out


def _instance_reports(
    shape: GrassShape,
    w: CosetRep,
    v: CosetRep,
    tau: CosetRep,
    config: SweepConfig,
) -> list[MultiplicityReport]:
    return _chart_reports(shape, tau, [(w, v)], config)


def _chart_reports(
    shape: GrassShape,
    tau: CosetRep,
    pairs: list[tuple[CosetRep, CosetRep]],
    config: SweepConfig,
) -> list[MultiplicityReport]:
    """Reports at the fixed point and the sampled cell points of every
    (w, v) on the chart of tau, all served from one context, which is
    dropped on return."""
    context = ChartContext(shape, tau)
    origin = context.chart.origin()
    reports = []
    for w, v in pairs:
        inst = StratumInstance(context, w, v)
        sampled = sample_points(
            inst.iwv, context.chart, config.grid, cell_only=True, limit=config.point_cap
        )
        points = [origin] + [p for p in sampled if not p.is_origin()]
        reports.extend(inst.report(m) for m in points)
    return reports


def verify_theorem(shape: GrassShape, config: SweepConfig = SweepConfig()) -> SweepResult:
    """Run the product-formula verification over every stratum triple of
    the shape; returns sorted reports and tallies."""
    if shape.dim > config.budget.max_variables:
        raise ValueError(
            f"{shape} has {shape.dim} chart variables, budget allows "
            f"{config.budget.max_variables}"
        )
    instances = enumerate_instances(shape)
    truncated = False
    if config.max_instances is not None and len(instances) > config.max_instances:
        instances = instances[: config.max_instances]
        truncated = True

    by_chart: dict = {}
    for w, v, tau in instances:
        by_chart.setdefault(tau, []).append((w, v))
    # Largest cells first, where the sampled points are: a pool then
    # starts its longest tasks first instead of ending on them.
    taus = sorted(by_chart, key=lambda tau: tau.length(), reverse=True)

    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            batches = list(pool.map(
                _chart_reports,
                itertools.repeat(shape),
                taus,
                [by_chart[tau] for tau in taus],
                itertools.repeat(config),
            ))
    else:
        batches = [_chart_reports(shape, tau, by_chart[tau], config) for tau in taus]
    reports = [r for batch in batches for r in batch]
    reports.sort(key=MultiplicityReport.sort_key)
    agreed = sum(1 for r in reports if r.agreement)
    return SweepResult(
        reports=reports,
        checked=len(reports),
        agreed=agreed,
        failed=len(reports) - agreed,
        truncated=truncated,
    )
