"""Stratum varieties of the odd-dimensional quadric SO(2n+1)/P_1.

The quadric lives in P^{2n} with the form Q(x) = x_{n+1}^2 +
2*sum_{a=1}^{n} x_a x_{2n+2-a}.  Stratum varieties are coordinate-window
slices X_i (top coordinates zero) and X^j (bottom coordinates zero); a
point's multiplicity on either is 2 exactly when a window of its
coordinates vanishes, else 1 (:func:`_window_mult`).  The quadric is an
engine family: its T-fixed charts, Schubert ideals and order are defined
here, and a report is the engine's :class:`StratumInstance` on the chart
of the point's last nonzero coordinate.  Each report checks the closed
forms against the sides' tangent-cone multiplicities, the oracle, and
smoothness from the Jacobian corank (each stratum is a reduced quadric in
a linear space, smooth exactly where its multiplicity is 1).  A sweep
checks each sample and builds its chart point once, for its j, for every
pair it serves, and the sampler evaluates Q on integers
(:func:`sample_quadric_points`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

# w0_relabel serves the quadric's charts too: the engine reads it here.
from .charts import AffinePoint, Chart, _coordinate_names, w0_relabel
from .engine import ChartContext, KernelInconsistencyError, StratumInstance
from .groebner import PolyIdeal, reduced_groebner_basis
from .poly import PolyRing
from .report import MultiplicityReport
from .weyl import RootIndex


class QuadricMembershipError(ValueError):
    pass


@dataclass(frozen=True)
class QuadricShape:
    """Ambient data: the quadric has projective dimension 2n - 1 in P^{2n}."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def ncoords(self) -> int:
        return 2 * self.n + 1

    @property
    def dim(self) -> int:
        """Dimension 2n - 1 of the quadric, i.e. of every chart."""
        return 2 * self.n - 1


def check_schubert_index(shape: QuadricShape, i: int):
    if not 1 <= i <= shape.ncoords or i == shape.n + 1:
        raise ValueError(f"index must lie in [1, {shape.ncoords}] minus {shape.n + 1}")


def check_index_pair(shape: QuadricShape, i: int, j: int):
    """i and j both name strata, and j <= i (else X_i and X^j are disjoint)."""
    check_schubert_index(shape, i)
    check_schubert_index(shape, j)
    if j > i:
        raise ValueError("need j <= i for a nonempty intersection")


def _coords(shape: QuadricShape, x: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(v) for v in x)
    if len(vec) != shape.ncoords:
        raise ValueError(f"expected {shape.ncoords} coordinates, got {len(vec)}")
    return vec


def _form(n: int, vec: Sequence):
    total = vec[n] * vec[n]  # x_{n+1} is index n, 0-based
    for a in range(1, n + 1):
        total += 2 * vec[a - 1] * vec[2 * n + 1 - a]
    return total


def _window_mult(vec: Sequence[Fraction], lo: int, hi: int) -> int:
    """Both closed forms: 2 exactly when the window x_lo .. x_hi is longer
    than one coordinate and vanishes, else 1."""
    return 2 if lo < hi and not any(vec[lo - 1:hi]) else 1


# ---------------------------------------------------------------------------
# The quadric as an engine family: T-fixed charts and stratum ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadricIndex:
    """A stratum label k in [1, 2n+1] minus n+1, which also names the
    T-fixed point e_k: the quadric's coset representative in the engine.
    X_k has dimension ``length()``: k - 1 up to n, k - 2 from n+2 on."""

    shape: QuadricShape
    k: int

    def __post_init__(self):
        check_schubert_index(self.shape, self.k)

    def length(self) -> int:
        return self.k - 1 if self.k <= self.shape.n else self.k - 2

    def __str__(self):
        return str(self.k)


def bruhat_leq(a: QuadricIndex, b: QuadricIndex) -> bool:
    """The Bruhat order of the strata, a chain: X_a lies in X_b exactly
    when a <= b."""
    return a.k <= b.k


def w0_dual(rep: QuadricIndex) -> QuadricIndex:
    """The label of w0·e_k = e_{2n+2-k}; it reverses the order."""
    return QuadricIndex(rep.shape, 2 * rep.shape.n + 2 - rep.k)


def build_chart(shape: QuadricShape, tau: QuadricIndex) -> Chart:
    """The chart of the T-fixed point e_c, c = tau.k: x_c = 1, and Q = 0
    solved for x_{c'} (c' = 2n+2-c), which Q holds only in 2*x_c*x_{c'}.
    The other 2n-1 coordinates x_a/x_c are free, indexed (a, c) in
    increasing a: those with a > c are the slice, those with a < c the
    cell, as on a Grassmannian chart."""
    c = tau.k
    indices = tuple(RootIndex(a, c) for a in range(1, shape.ncoords + 1)
                    if a not in (c, 2 * shape.n + 2 - c))
    rings = (PolyRing(_coordinate_names(prefix, indices)) for prefix in "xy")
    return Chart(shape, tau, indices, tuple(ix for ix in indices if ix.q > c), *rings)


def schubert_ideal(chart: Chart, w: QuadricIndex) -> PolyIdeal:
    """Ideal of X_i, i = w.k, on the chart of e_c: the x_a with a > i
    and, when c' > i, Q at x_c = 1 and x_{c'} = 0 with those x_a set to 0
    (x_{c'} vanishes on X_i, and Q = 0 solves for it).  The unit marker
    when the chart misses X_i (c > i)."""
    ring, n, c, i = chart.ring, chart.shape.n, chart.tau.k, w.k
    if c > i:
        return PolyIdeal.unit_marker(ring)
    x = [ring.zero()] * chart.shape.ncoords
    x[c - 1] = ring.one()
    gens = []
    for pos, ix in enumerate(chart.indices):
        if ix.q > i:
            gens.append(ring.var(pos))
        else:
            x[ix.q - 1] = ring.var(pos)
    if 2 * n + 2 - c > i:
        gens.append(_form(n, x))
    return PolyIdeal.of_basis(ring, reduced_groebner_basis([g for g in gens if not g.is_zero()]))


def _point(shape: QuadricShape, contexts: dict, i: int, j: int, x: Sequence,
           hilberts: Optional[dict] = None):
    """x checked once as a point of X_i and X^j: the index pair, the
    coordinates, nonzero, Q(x) = 0 and both support windows.  Returns x's
    coordinates, x's point on the chart of e_c, c the last nonzero
    coordinate of x (a cell point there), and the report's point dict.
    ``contexts`` keeps the chart contexts by c, each built on first use;
    the two of a w0-orbit share their Schubert ideals.  A context built
    here reads its Hilbert data through ``hilberts`` when given."""
    check_index_pair(shape, i, j)
    vec = _coords(shape, x)
    if not any(vec):
        raise ValueError("projective point cannot be zero")
    if _form(shape.n, vec) != 0 or any(vec[i:]) or any(vec[:j - 1]):
        raise QuadricMembershipError(f"point is not on X_{i} and X^{j}")
    c = max(a for a, v in enumerate(vec, 1) if v)
    if c not in contexts:
        dual = contexts.get(2 * shape.n + 2 - c)
        contexts[c] = ChartContext(shape, QuadricIndex(shape, c), dual=dual, hilberts=hilberts)
    chart = contexts[c].chart
    m = AffinePoint(chart, tuple(vec[ix.q - 1] / vec[c - 1] for ix in chart.indices))
    return vec, m, {f"x{k + 1}": str(v) for k, v in enumerate(vec)}


def _instance(shape: QuadricShape, contexts: dict, i: int, j: int, m: AffinePoint):
    """The engine's instance of (i, j) on the chart of the checked point m."""
    return StratumInstance(contexts[m.chart.tau.k], QuadricIndex(shape, i), QuadricIndex(shape, j))


def sample_quadric_points(
    shape: QuadricShape, i: int, j: int, grid, limit: int = 100
) -> list[tuple]:
    """Deterministic projective representatives on the intersection of X_i
    and X^j: support inside [j, i], last nonzero coordinate scaled to 1,
    earlier window coordinates from the grid, Q = 0.

    Q is evaluated on integers: with D the lcm of the grid's denominators
    each candidate x is tested as D·x, whose last nonzero coordinate is D,
    and Q(D·x) = D²·Q(x) vanishes exactly when Q(x) does."""
    check_index_pair(shape, i, j)
    if limit < 1:
        raise ValueError("the point cap must be positive")
    grid = tuple(map(Fraction, grid))
    if len(set(grid)) != len(grid):
        raise ValueError("grid values must be distinct")
    from math import lcm
    scale = lcm(*(g.denominator for g in grid))
    values = [g.numerator * (scale // g.denominator) for g in grid]
    out: list[tuple] = []
    for c in range(j, i + 1):
        head, tail = (0,) * (j - 1), (scale,) + (0,) * (shape.ncoords - c)
        for combo in product(values, repeat=c - j):
            scaled = head + combo + tail
            if _form(shape.n, scaled) == 0:
                out.append(tuple(Fraction(v, scale) for v in scaled))
                if len(out) >= limit:
                    return out
    return out


def quadric_sweep(shape: QuadricShape, grid=(-1, 0, 1), cap: int = 50) -> list:
    """Reports for every index pair j <= i over grid points of the
    intersection, in deterministic order; each chart context and each
    instance is built once.

    The points of (i, j) are those of (2n+1, j) whose last nonzero
    coordinate is at most i, in the same order, and the cap keeps a
    prefix; so the grid is walked once per j, and each sample is checked
    once, on X_{2n+1} and X^j, the filter being the window of X_i.  All
    the chart contexts read their Hilbert data through one table, so each
    numerator is computed once per call."""
    contexts, instances, reports, hilberts = {}, {}, [], {}
    valid, top = [k for k in range(1, shape.ncoords + 1) if k != shape.n + 1], shape.ncoords
    samples = {j: sample_quadric_points(shape, top, j, grid, limit=cap) for j in valid}
    points = {j: [_point(shape, contexts, top, j, x, hilberts) for x in samples[j]] for j in valid}
    for i in valid:
        for j in valid:
            if j > i:
                continue
            for vec, m, point in points[j]:
                if not any(vec[i:]):
                    key = i, j, m.chart.tau.k
                    inst = instances.get(key)
                    if inst is None:
                        inst = instances[key] = _instance(shape, contexts, i, j, m)
                    reports.append(_report(shape, inst, i, j, vec, m, point))
    return reports


def quadric_report(shape: QuadricShape, i: int, j: int, x: Sequence) -> MultiplicityReport:
    """MultiplicityReport for a point of the intersection X_i and X^j,
    cross-checking the closed forms against the engine."""
    contexts: dict = {}
    vec, m, point = _point(shape, contexts, i, j, x)
    return _report(shape, _instance(shape, contexts, i, j, m), i, j, vec, m, point)


def _report(shape: QuadricShape, inst: StratumInstance, i: int, j: int, vec: tuple,
            m: AffinePoint, point: dict) -> MultiplicityReport:
    """The report of the instance of (i, j) at a point that ``_point``
    checked.  The oracle is the tangent cone of the sum of the two
    translated sides; the closed forms must equal the sides' tangent-cone
    multiplicities and give the Jacobian smoothness verdicts."""
    at_i, at_j, oracle, smooth_ij = inst.at(m)
    mu_i = _window_mult(vec, 2 * shape.n + 2 - i, i)
    mu_j = _window_mult(vec, j, 2 * shape.n + 2 - j)
    fast = mu_i * mu_j
    smooth = (at_i.smooth, at_j.smooth, smooth_ij)
    # Smooth is multiplicity 1 on each stratum; the singular loci are disjoint.
    if (mu_i, mu_j) != (at_i.mult, at_j.mult) or fast > 2 or smooth != (
        mu_i == 1, mu_j == 1, fast == 1
    ):
        raise KernelInconsistencyError(
            f"closed forms mu_i={mu_i}, mu_j={mu_j} contradict the sides' multiplicities "
            f"{at_i.mult}, {at_j.mult}, disjoint singular loci or the Jacobian "
            f"smoothness verdicts {smooth} at {point}"
        )
    return MultiplicityReport(
        family="quadric",
        d=1,
        n=shape.n,
        tau="",
        w=str(i),
        v=str(j),
        point=dict(point),  # the sample's dict serves all its reports
        mu_w=mu_i,
        mu_v=mu_j,
        mu_wv_fast=fast,
        mu_wv_oracle=oracle,
        deg_zw=None,
        deg_zv=None,
        deg_zwv=None,
        degree_product_ok=None,
        cone_schubert_over_point=None,
        cone_opposite_over_point=None,
        cone_richardson_over_origin=None,
        smooth_w=smooth[0],
        smooth_v=smooth[1],
        smooth_wv=smooth[2],
        agreement=fast == oracle,
    )
