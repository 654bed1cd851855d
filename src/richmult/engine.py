"""Multiplicities of points on stratum varieties: fast path and oracle.

The fast path multiplies the two one-sided multiplicities; the oracle
computes the tangent-cone degree of the intersection ideal directly.  One
engine serves both families, Grassmannians G(d,n) and the odd quadric.  A
shape's family supplies ``build_chart``, ``schubert_ideal``,
``w0_relabel``, ``w0_dual`` and ``bruhat_leq``, read through module
globals at each call (``_family``); the quadric's are in ``quadric``,
which builds its reports from the instances here.  Each input is checked
once, where it enters: a triple by :class:`StratumInstance`, a point by
:meth:`StratumSide.at`.

A :class:`ChartContext` holds the chart of tau and builds each
:class:`StratumSide` once (its ideal, dimension, degree, and per point
its translated ideal and what is read off it: membership, multiplicity,
cone flag, Jacobian rows and smoothness); every :class:`StratumInstance`
on the chart shares it and adds only what needs both sides.  Only Schubert
ideals are built: X^v = w0·X_{w0·v}, so the opposite side of v on the chart of tau is the
Schubert ideal of w0·v on the chart of w0·tau, relabelled.  The two
contexts of a w0-orbit {tau, w0·tau} share one table of Schubert ideals,
each built once and used twice.  The chart splits: a Schubert ideal uses
only the slice coordinates (the chart's positive roots) and an opposite
ideal only the cell coordinates.  The context checks this certificate on
the kept basis of every side, relabelled or not, and raises
``KernelInconsistencyError`` on a violation.  So the intersection is the
sum of the two sides (``PolyIdeal.__add__``) with their merged reduced
bases, every translated ideal keeps the translated basis of its source
(``PolyIdeal.translated``), and the oracle's ideal at a point is the sum
of the two translated sides.  Apart from the one cone-order run of a
multiplicity (``multiplicity_at_origin``), Buchberger runs once per
Schubert side: never on an opposite side whose relabelled basis
passes its leading-term certificate (``PolyIdeal.permuted``), never on an
intersection, never at a point.  The package keeps no module-level
state, so every sweep starts cold.  A sweep keeps one table of Hilbert
data, keyed by (frozenset of leading monomials, number of variables),
which all its chart contexts share (``hilbert.hilbert_data``): every
side's and intersection's numerator and every tangent-cone degree at a
point is read through it, so each numerator is computed once per sweep.
At a fixed point a translated side has its side's leading monomials and
the oracle's ideal those of the intersection, so a fixed-point sweep
computes only the numerators of its distinct side and intersection
ideals.  A pooled task keeps a table of its own; the table goes when
the sweep ends.  An instance keeps its oracle
multiplicity and the intersection's smoothness per pair of side points,
which fixes both (:class:`StratumInstance`); when one side's ideal has
no generators the oracle's ideal is the other side's translated ideal,
and the oracle reads that side's multiplicity.

The split also saves per-point work.  A side keys its points by their
coordinates at the variables its generators use, so a Schubert side
answers every cell point from its fixed-point entry.  And a cell point
lies on every X_w with w >= tau, so the cell points of X_w^v are those of
X^v: the Grassmannian sweep walks the grid once per (tau, v), depth first
(:func:`sample_points` drops a prefix off the variety with all its
completions), and shares the points across every w of that v.  It groups
the instances by tau and the charts by w0-orbit, runs the orbits largest
cell first, drops an orbit's contexts when it ends, and with
``workers > 1`` maps the orbits over a process pool.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

# The Grassmannian's family functions are read through this module (_family).
from .charts import (
    AffinePoint,
    Chart,
    PointNotOnChartError,
    _echelon,
    build_chart,
    is_cone_over_origin,
    schubert_ideal,
    translate_to_origin,
    w0_relabel,
)
from .groebner import PolyIdeal, _support
from .hilbert import HilbertData, ideal_hilbert_data, require_cone
from .localmult import multiplicity_at_origin
from .report import MultiplicityReport
from .weyl import (
    CosetRep,
    GrassShape,
    all_coset_reps,
    bruhat_leq,
    format_coset,
    w0_dual,
)

DEFAULT_GRID = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2))


class PreconditionError(ValueError):
    """A Bruhat-order precondition does not hold."""


class MembershipError(ValueError):
    """The supplied point does not lie on the required variety."""


class KernelInconsistencyError(RuntimeError):
    """Cross-checks that must hold by theory failed; do not trust results."""


# Desk-scale guard rails: a sweep over more chart variables or grid
# values than these raises instead of running for hours.
MAX_VARIABLES = 12
MAX_GRID_VALUES = 5


def _family(shape):
    """The module whose globals hold the family functions of a shape
    (``build_chart``, ``schubert_ideal``, ``w0_relabel``, ``w0_dual`` and
    ``bruhat_leq``), read on every call: this one, which binds the
    Grassmannian's from ``charts`` and ``weyl``, or the module that
    defines the shape, such as ``quadric``."""
    return sys.modules[__name__ if isinstance(shape, GrassShape) else type(shape).__module__]


def _corank(rows: list[list[Fraction]], nvars: int, dim: int, m) -> int:
    """Corank of the Jacobian rows at m against a variety of dimension dim;
    a tangent space smaller than the variety raises."""
    tangent_dim = nvars - len(_echelon(rows))
    if tangent_dim < dim:
        raise KernelInconsistencyError(
            f"tangent space of dimension {tangent_dim} at {m} is smaller than "
            f"the variety's dimension {dim}"
        )
    return tangent_dim - dim


def sample_points(
    ideal: PolyIdeal,
    chart: Chart,
    grid: Sequence[Fraction],
    cell_only: bool = False,
    limit: int = 200,
) -> list[AffinePoint]:
    """The grid points on which every generator vanishes, truncated at
    limit.  With cell_only only the coordinates outside the chart's
    positive roots vary (the others stay zero), so every point lies in the
    cell.

    The points come in ``itertools.product(grid, repeat=len(free))`` order:
    the free coordinates in chart order, the first varying slowest, each
    through the grid in grid order.  They are found depth first, one free
    coordinate per level.  A generator is checked at the level where its
    last free variable gets its value, and a prefix on which one is
    nonzero is dropped with every completion: the generator reads no
    later coordinate, so it stays nonzero on all of them.  A generator
    with no free variable is checked once, before the walk.  So each
    generator is evaluated once per prefix that reaches its level, not
    once per candidate, and the walk skips only non-points: it returns
    the product walk's points in the product walk's order."""
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
    level_of = {pos: level for level, pos in enumerate(free)}
    checks: list[list] = [[] for _ in free]
    coords = [Fraction(0)] * N
    for g in ideal.gens:
        levels = [level_of[i] for i in _support([g]) if i in level_of]
        if levels:
            checks[max(levels)].append(g)
        elif g.evaluate(coords):
            return []
    points: list[AffinePoint] = []

    def walk(level: int) -> bool:
        """Extend the prefix set below ``level``; True once at the limit."""
        if level == len(free):
            points.append(AffinePoint(chart, tuple(coords)))
            return len(points) >= limit
        pos, gens = free[level], checks[level]
        for value in grid:
            coords[pos] = value
            if all(g.evaluate(coords) == 0 for g in gens) and walk(level + 1):
                return True
        return False

    walk(0)
    return points


# ---------------------------------------------------------------------------
# Reports and the sweep harness
# ---------------------------------------------------------------------------


class SidePoint(NamedTuple):
    """One stratum side at one point: the side's ideal translated so that
    the point is the origin (keeping the side's reduced basis, translated
    by ``translate_to_origin``; the oracle's ideal is the sum of the two
    sides'), the multiplicity there, whether the translated ideal is a
    cone over the point, the Jacobian rows at the point (each translated
    generator's degree-one coefficients), and whether their corank there
    is 0.  All of it is read off the one translation."""

    moved: PolyIdeal
    mult: int
    cone_over_point: bool
    jacobian_rows: list
    smooth: bool


class StratumSide:
    """One stratum variety on one chart, of either family: the Schubert
    variety of w or the opposite variety of v.  It holds the chart ideal
    and, each computed on first use and kept, its Hilbert data (one
    numerator for its dimension and degree) and per point a
    :class:`SidePoint`.  Nothing in it depends on the other
    side, so every instance of the chart shares it.

    Points are keyed by their coordinates at ``support``, the variables
    the generators use: the translated ideal, the multiplicity, the cone
    flag, the Jacobian rows and smoothness depend on nothing else.  By
    the chart's split a Schubert side's support is slice coordinates only,
    which are zero at every cell point, so one entry serves them all."""

    def __init__(self, ideal: PolyIdeal, variety: str, hilberts: dict):
        self.ideal = ideal
        self.variety = variety
        self.hilberts = hilberts
        self._points: dict = {}

    @cached_property
    def support(self) -> list[int]:
        """Positions of the chart variables the side's generators use."""
        return sorted(_support(self.ideal.gens))

    @cached_property
    def hilbert(self) -> HilbertData:
        return ideal_hilbert_data(self.ideal, self.hilberts)

    @cached_property
    def dimension(self) -> int:
        return self.hilbert.dimension

    @cached_property
    def degree(self) -> int:
        require_cone(self.ideal)
        return self.hilbert.degree

    def at(self, m: AffinePoint) -> SidePoint:
        """The side at m, built on first use: the engine's only point check,
        of the chart (on every call) and then of membership (once per
        support key; points with one key are on the variety together or
        off it together).

        Every fact of a new entry is read off one translation of the ideal
        to m (``translate_to_origin``).  A translated generator is g(y + m)
        times a nonzero scale c: its constant term is c·g(m), so m is on
        the variety exactly when no translated generator has one (else
        ``MembershipError``), and its degree-one coefficients are c times
        the gradient of g at m, so the rows have the rank of the Jacobian
        at m."""
        if m.chart.ring != self.ideal.ring:
            raise PointNotOnChartError("ideal and point live on different charts")
        key = tuple(m.coords[i] for i in self.support)
        point = self._points.get(key)
        if point is None:
            moved = translate_to_origin(self.ideal, m)
            if any(g.constant_term() for g in moved.gens):
                raise MembershipError(f"point is not on the {self.variety} variety")
            rows = []
            for g in moved.gens:
                row = [Fraction(0)] * self.ideal.ring.nvars
                for e, c in g.terms.items():
                    if sum(e) == 1:
                        row[e.index(1)] = c
                rows.append(row)
            point = SidePoint(
                moved=moved,
                mult=multiplicity_at_origin(moved, self.hilberts),
                cone_over_point=is_cone_over_origin(moved),
                jacobian_rows=rows,
                smooth=_corank(rows, self.ideal.ring.nvars, self.dimension, m) == 0,
            )
            self._points[key] = point
        return point


class ChartContext:
    """The chart of tau with every stratum side built on it, each once per
    w or v: the sweep's unit of work, with the context of w0·tau.  Sides
    live as long as the context.  The shape's ``family`` module supplies
    the chart and the ideals.

    Only Schubert ideals are built.  The opposite side of v is the
    Schubert ideal of w0·v on ``dual_chart``, the chart of w0·tau,
    relabelled onto this chart (``w0_relabel``).  The Schubert ideals of
    both charts sit in one table, keyed by (chart, w), which the context
    of w0·tau shares when it is built with ``dual`` set to this one: each
    Schubert ideal is then built once and serves twice, as a Schubert side
    on its own chart and, relabelled, as an opposite side on the other.
    When tau = w0·tau the two charts are one.

    ``hilberts`` is the table of Hilbert data (``hilbert.hilbert_data``)
    through which every side and instance of the context reads its
    numerators: the side ideals', the intersections' and the tangent
    cones' at points.  A context built with ``dual`` shares the dual's
    table, as it shares the Schubert ideals; any other gets the table
    passed, or a new one."""

    def __init__(
        self,
        shape: GrassShape,
        tau: CosetRep,
        dual: Optional["ChartContext"] = None,
        hilberts: Optional[dict] = None,
    ):
        self.shape = shape
        self.tau = tau
        self.family = family = _family(shape)
        if dual is None:
            self.chart = family.build_chart(shape, tau)
            dual_tau = family.w0_dual(tau)
            self.dual_chart = self.chart if dual_tau == tau else family.build_chart(shape, dual_tau)
            self._schubert: dict = {}
            self.hilberts = {} if hilberts is None else hilberts
        else:
            if dual.dual_chart.tau != tau:
                raise ValueError(f"{dual.tau} is not w0·{tau}")
            self.chart, self.dual_chart = dual.dual_chart, dual.chart
            self._schubert = dual._schubert
            self.hilberts = dual.hilberts
        self._sides: dict = {}

    def _schubert_ideal(self, chart: Chart, w: CosetRep) -> PolyIdeal:
        ideal = self._schubert.get((chart.tau, w))
        if ideal is None:
            ideal = self._schubert[chart.tau, w] = self.family.schubert_ideal(chart, w)
        return ideal

    def side(self, rep: CosetRep, variety: str) -> StratumSide:
        """The side of rep, "Schubert" or "opposite", built on first use.

        The split certificate: the kept basis of a Schubert side may use
        only the chart's positive-root (slice) coordinates, that of an
        opposite side none of them.  It checks every side as it will be
        used, a relabelled opposite side too, and a violation raises
        ``KernelInconsistencyError``.  The check reads the basis's terms
        and runs no Groebner work."""
        side = self._sides.get((variety, rep))
        if side is None:
            chart, family = self.chart, self.family
            if variety == "Schubert":
                ideal = self._schubert_ideal(chart, rep)
            else:
                dual_side = self._schubert_ideal(self.dual_chart, family.w0_dual(rep))
                ideal = family.w0_relabel(chart, dual_side)
            stray = [chart.ring.names[i] for i in sorted(_support(ideal.groebner()))
                     if (chart.indices[i] in chart.positive) != (variety == "Schubert")]
            if stray:
                raise KernelInconsistencyError(
                    f"the chart of {self.tau} does not split: the {variety} side "
                    f"of {rep} uses the other side's coordinates {', '.join(stray)}"
                )
            side = self._sides[variety, rep] = StratumSide(ideal, variety, self.hilberts)
        return side


class StratumInstance:
    """What verifying one stratum triple (w, v, tau) needs beyond its two
    sides, which it takes from the chart's context: the intersection
    ideal and, each computed on first use and kept, its Hilbert data, the
    dimension check against Bruhat lengths, the degree identity, the cone
    flag of the intersection, and per pair of side points the oracle
    multiplicity and the intersection's smoothness (:meth:`at`).  It is
    the engine's only Bruhat check: unless v <= tau <= w it raises
    ``PreconditionError`` before it builds any side.

    The pair memo is exact: the oracle's ideal at m is the sum of the two
    sides' translated ideals, and the intersection's Jacobian rows at m
    are the two sides' rows stacked, read against the intersection's
    dimension, so no other part of m enters.  It is keyed by the ids of
    the two :class:`SidePoint`s: each side keeps its points, and the
    instance its sides, for as long as the memo lives.

    When one side is its whole chart (its ideal has no generators, as for
    X_w with w the top element or X^v with v the bottom one), the oracle's
    ideal is the other side's translated ideal, so the oracle multiplicity
    is that side's ``mult`` and the pair computes none of its own."""

    def __init__(self, context: ChartContext, w: CosetRep, v: CosetRep):
        tau, leq = context.tau, context.family.bruhat_leq
        if not (leq(v, tau) and leq(tau, w)):
            raise PreconditionError(f"require v <= tau <= w: {v}, {tau}, {w}")
        self.context = context
        self.w = w
        self.v = v
        self.side_w = context.side(w, "Schubert")
        self.side_v = context.side(v, "opposite")
        self.iwv = self.side_w.ideal + self.side_v.ideal
        self._pairs: dict = {}

    @cached_property
    def hilbert(self) -> HilbertData:
        return ideal_hilbert_data(self.iwv, self.context.hilberts)

    @cached_property
    def dimensions(self) -> tuple[int, int, int]:
        """Dimensions of the three varieties.  The Groebner dimensions must
        match the combinatorial ones; a mismatch would mean the minor
        generators do not cut the expected varieties.  The instance's gate
        puts the fixed point on both sides, so a unit intersection is a
        kernel fault."""
        if self.iwv.is_unit():
            raise KernelInconsistencyError("empty intersection although v <= tau <= w")
        lw, lv = self.w.length(), self.v.length()
        expected = (lw, self.context.shape.dim - lv, lw - lv)
        actual = (self.side_w.dimension, self.side_v.dimension, self.hilbert.dimension)
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
        deg_w, deg_v = self.side_w.degree, self.side_v.degree
        require_cone(self.iwv)
        deg_wv = self.hilbert.degree
        return deg_w, deg_v, deg_wv, deg_wv == deg_w * deg_v

    @cached_property
    def cone_richardson_over_origin(self) -> bool:
        return is_cone_over_origin(self.iwv)

    def resolve_point(self, m: Optional[AffinePoint]) -> AffinePoint:
        """m itself, or the fixed point when m is None; the sides check m."""
        return self.context.chart.origin() if m is None else m

    def oracle_ideal(self, m: AffinePoint) -> PolyIdeal:
        """The intersection ideal translated so that m is the origin: the
        sum of the two sides' checked translations, which keeps their
        merged bases (no shift and no Buchberger run here); m must lie on
        both sides, which their ``at`` checks."""
        return self.side_w.at(m).moved + self.side_v.at(m).moved

    def at(self, m: AffinePoint) -> tuple[SidePoint, SidePoint, int, bool]:
        """The two sides at m, the oracle multiplicity and the intersection's
        Jacobian smoothness there, the last two once per pair of side
        points (see the class docstring)."""
        dim_wv = self.dimensions[2]
        at_w, at_v = self.side_w.at(m), self.side_v.at(m)
        key = id(at_w), id(at_v)
        verdicts = self._pairs.get(key)
        if verdicts is None:
            if self.side_w.ideal.is_zero_ideal():
                mult = at_v.mult
            elif self.side_v.ideal.is_zero_ideal():
                mult = at_w.mult
            else:
                mult = multiplicity_at_origin(self.oracle_ideal(m), self.context.hilberts)
            rows = at_w.jacobian_rows + at_v.jacobian_rows
            verdicts = self._pairs[key] = (
                mult, _corank(rows, self.context.chart.ring.nvars, dim_wv, m) == 0
            )
        return at_w, at_v, *verdicts

    def report(self, m: Optional[AffinePoint] = None) -> MultiplicityReport:
        """The Grassmannian's report for one point (``quadric._report`` the quadric's)."""
        m = self.resolve_point(m)
        at_w, at_v, mu_oracle, smooth_wv = self.at(m)
        mu_fast = at_w.mult * at_v.mult
        deg_w, deg_v, deg_wv, deg_ok = self.degrees
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
            smooth_w=at_w.smooth,
            smooth_v=at_v.smooth,
            smooth_wv=smooth_wv,
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
    return StratumInstance(ChartContext(shape, tau), w, v).report(m)


@dataclass(frozen=True)
class SweepConfig:
    grid: tuple = DEFAULT_GRID
    point_cap: int = 200
    max_instances: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if len(self.grid) > MAX_GRID_VALUES:
            raise ValueError(
                f"grid has {len(self.grid)} values, budget allows {MAX_GRID_VALUES}"
            )
        if self.point_cap < 1:
            raise ValueError("point_cap must be positive")
        if self.max_instances is not None and self.max_instances < 0:
            raise ValueError("max_instances must not be negative")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass
class SweepResult:
    reports: list
    truncated: bool = False

    @property
    def checked(self) -> int:
        return len(self.reports)

    @property
    def agreed(self) -> int:
        return sum(1 for r in self.reports if r.agreement)

    @property
    def failed(self) -> int:
        return self.checked - self.agreed

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


def _chart_reports(
    context: ChartContext, pairs: list[tuple[CosetRep, CosetRep]], config: SweepConfig
) -> list[MultiplicityReport]:
    """Reports at the fixed point and the sampled cell points of every
    (w, v) on the context's chart.  The grid is walked once per v, on the
    opposite side's ideal: a cell point has zero slice coordinates, so it
    lies on every X_w with w >= tau, and X_w^v and X^v have the same cell
    points, found in the same order."""
    origin = context.chart.origin()
    walks: dict = {}
    reports = []
    for w, v in pairs:
        inst = StratumInstance(context, w, v)
        points = walks.get(v)
        if points is None:
            sampled = sample_points(
                inst.side_v.ideal, context.chart, config.grid, cell_only=True,
                limit=config.point_cap,
            )
            points = walks[v] = [origin] + [p for p in sampled if not p.is_origin()]
        reports.extend(inst.report(m) for m in points)
    return reports


def _orbit_reports(
    shape: GrassShape,
    charts: list[tuple[CosetRep, list[tuple[CosetRep, CosetRep]]]],
    config: SweepConfig,
    hilberts: Optional[dict] = None,
) -> list[MultiplicityReport]:
    """Reports of one w0-orbit: ``charts`` holds (tau, pairs) for tau and,
    when it has pairs too and differs, for w0·tau.  The second context
    shares the first's Schubert ideals, so each is built once for both
    charts; all of it is dropped on return, apart from the table of
    Hilbert data, which is ``hilberts`` when given and else the orbit's
    own."""
    reports: list = []
    context = None
    for tau, pairs in charts:
        context = ChartContext(shape, tau, dual=context, hilberts=hilberts)
        reports.extend(_chart_reports(context, pairs, config))
    return reports


def verify_theorem(shape: GrassShape, config: SweepConfig = SweepConfig()) -> SweepResult:
    """Run the product-formula verification over every stratum triple of
    the shape; returns sorted reports and tallies."""
    if shape.dim > MAX_VARIABLES:
        raise ValueError(
            f"{shape} has {shape.dim} chart variables, budget allows {MAX_VARIABLES}"
        )
    instances = enumerate_instances(shape)
    truncated = False
    if config.max_instances is not None and len(instances) > config.max_instances:
        instances = instances[: config.max_instances]
        truncated = True

    by_chart: dict = {}
    for w, v, tau in instances:
        by_chart.setdefault(tau, []).append((w, v))
    # One task per w0-orbit {tau, w0·tau}, the larger cell first.  Largest
    # cells first, where the sampled points are: a pool then starts its
    # longest tasks first instead of ending on them.
    orbits: dict = {}
    for tau in sorted(by_chart, key=lambda tau: tau.length(), reverse=True):
        orbits.setdefault(min(tau.entries, w0_dual(tau).entries), []).append((tau, by_chart[tau]))
    tasks = list(orbits.values())

    # A forked pool starts all its workers at once: no more than there are
    # tasks.  Each pooled task keeps its own table of Hilbert data; in one
    # process the sweep keeps one for all its orbits.
    workers = min(config.workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(
                _orbit_reports, itertools.repeat(shape), tasks, itertools.repeat(config)
            ))
    else:
        hilberts: dict = {}
        batches = [_orbit_reports(shape, charts, config, hilberts) for charts in tasks]
    reports = [r for batch in batches for r in batch]
    reports.sort(key=MultiplicityReport.sort_key)
    return SweepResult(reports, truncated)
