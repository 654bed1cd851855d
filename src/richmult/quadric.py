"""Stratum varieties of the odd-dimensional quadric SO(2n+1)/P_1.

The quadric lives in P^{2n} with the form Q(x) = x_{n+1}^2 +
2*sum_{a=1}^{n} x_a x_{2n+2-a}.  Stratum varieties are coordinate-window
slices X_i (top coordinates zero) and X^j (bottom coordinates zero); their
point multiplicities have a two-case closed form which this module
implements.  Each report checks it on the point's affine chart, built once
per sweep, against the tangent-cone oracle and against smoothness from the
Jacobian corank (each stratum is a reduced quadric in a linear space,
smooth exactly where its multiplicity is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .charts import translate_to_origin
from .engine import KernelInconsistencyError, StratumSide, _corank, _jacobian_rows, _mult_of
from .groebner import PolyIdeal, reduced_groebner_basis
from .poly import PolyRing
from .report import MultiplicityReport


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


def q_eval(shape: QuadricShape, x: Sequence) -> Fraction:
    """The quadratic form x_{n+1}^2 + 2*sum x_a x_{2n+2-a}."""
    return _form(shape.n, _coords(shape, x))


def _form(n: int, vec: Sequence):
    total = vec[n] * vec[n]  # x_{n+1} is index n, 0-based
    for a in range(1, n + 1):
        total += 2 * vec[a - 1] * vec[2 * n + 1 - a]
    return total


def schubert_member(shape: QuadricShape, i: int, x: Sequence) -> bool:
    """x in X_i: coordinates above i vanish and Q(x) = 0."""
    check_schubert_index(shape, i)
    vec = _coords(shape, x)
    if all(v == 0 for v in vec):
        raise ValueError("projective point cannot be zero")
    return all(vec[a] == 0 for a in range(i, shape.ncoords)) and _form(shape.n, vec) == 0


def opposite_member(shape: QuadricShape, j: int, x: Sequence) -> bool:
    """x in X^j: coordinates below j vanish and Q(x) = 0."""
    check_schubert_index(shape, j)
    vec = _coords(shape, x)
    if all(v == 0 for v in vec):
        raise ValueError("projective point cannot be zero")
    return all(vec[a] == 0 for a in range(j - 1)) and _form(shape.n, vec) == 0


def mult_schubert_quadric(shape: QuadricShape, i: int, x: Sequence) -> int:
    """Closed-form multiplicity of x on X_i: 2 exactly when i > n+1 and the
    window x_{2n+2-i} .. x_i vanishes, else 1."""
    if not schubert_member(shape, i, x):
        raise QuadricMembershipError(f"point is not on X_{i}")
    return _window_mult(_coords(shape, x), 2 * shape.n + 2 - i, i)


def mult_opposite_quadric(shape: QuadricShape, j: int, x: Sequence) -> int:
    """Mirror-image closed form: 2 exactly when j < n+1 and the window
    x_j .. x_{2n+2-j} vanishes, else 1."""
    if not opposite_member(shape, j, x):
        raise QuadricMembershipError(f"point is not on X^{j}")
    return _window_mult(_coords(shape, x), j, 2 * shape.n + 2 - j)


def _window_mult(vec: Sequence[Fraction], lo: int, hi: int) -> int:
    """Both closed forms: 2 exactly when the window x_lo .. x_hi is longer
    than one coordinate and vanishes, else 1."""
    return 2 if lo < hi and not any(vec[lo - 1:hi]) else 1


def singular_locus_index(shape: QuadricShape, i: int) -> Optional[int]:
    """Index of the stratum equal to the singular locus of X_i: 2n+1-i for
    i > n+1, None (empty locus) otherwise.  For i = 2n+1 the full quadric
    is smooth and the formula's index degenerates to the empty stratum."""
    check_schubert_index(shape, i)
    if i < shape.n + 1 or 2 * shape.n + 1 - i < 1:
        return None
    return 2 * shape.n + 1 - i


def singular_locus_opposite_index(shape: QuadricShape, j: int) -> Optional[int]:
    """Singular locus of X^j: the stratum X^{2n+3-j} for j < n+1, empty for
    j = 1 (the full quadric) and for the smooth range j > n+1."""
    check_schubert_index(shape, j)
    if j > shape.n + 1 or 2 * shape.n + 3 - j > shape.ncoords:
        return None
    return 2 * shape.n + 3 - j


def b_matrix(shape: QuadricShape, i: int, x: Sequence) -> list[list[Fraction]]:
    """The upper-triangular group element carrying the fixed point e_i to
    the cell point x = [x_1 : ... : x_{i-1} : 1 : 0 : ... : 0].

    Columns: b_j = e_j for low j, b_i = x, and a single correction term
    b_j = e_j - x_{2n+2-j} e_{2n+2-i} for the remaining j.  The result
    preserves the anti-diagonal form, has determinant 1 and satisfies
    b e_i = x.
    """
    check_schubert_index(shape, i)
    vec = _coords(shape, x)
    N = shape.ncoords
    if vec[i - 1] != 1 or any(vec[a] != 0 for a in range(i, N)):
        raise ValueError("point must be normalized to [x_1:..:x_{i-1}:1:0:..:0]")
    if q_eval(shape, vec) != 0:
        raise QuadricMembershipError("point is not on the quadric")
    mirror = 2 * shape.n + 2 - i
    columns = []
    for j in range(1, N + 1):
        if j == i:
            col = list(vec)
        elif j <= mirror:
            col = [Fraction(int(r == j)) for r in range(1, N + 1)]
        else:
            col = [Fraction(int(r == j)) for r in range(1, N + 1)]
            col[mirror - 1] -= vec[2 * shape.n + 2 - j - 1]
        columns.append(col)
    return [[columns[c][r] for c in range(N)] for r in range(N)]


def verify_b_matrix(shape: QuadricShape, i: int, x: Sequence) -> bool:
    """Check the three postconditions of :func:`b_matrix` exactly."""
    b = b_matrix(shape, i, x)
    vec = _coords(shape, x)
    N = shape.ncoords
    if any(b[r][c] != 0 for r in range(N) for c in range(N) if r > c):
        return False
    if any(b[r][i - 1] != vec[r] for r in range(N)):
        return False
    # b^T E b = E with E the anti-diagonal identity; det = 1 follows from
    # triangularity with unit diagonal, which the form check pins down.
    for j in range(N):
        for k in range(N):
            value = sum(b[r][j] * b[N - 1 - r][k] for r in range(N))
            expected = Fraction(int(j + k == N - 1))
            if value != expected:
                return False
    if any(b[r][r] != 1 for r in range(N)):
        return False
    return True


def verify_disjoint_sing(shape: QuadricShape, i: int, j: int, grid=None) -> bool:
    """Singular loci of X_i and X^j never meet when j <= i: checked by
    index arithmetic and, if a grid is supplied, by exhaustive search."""
    check_index_pair(shape, i, j)
    sing_i = singular_locus_index(shape, i)
    sing_j = singular_locus_opposite_index(shape, j)
    if sing_i is not None and sing_j is not None:
        # Supports [1, 2n+1-i] and [2n+3-j, 2n+1] overlap only when
        # 2n+3-j <= 2n+1-i, i.e. i <= j-2, impossible under j <= i.
        if 2 * shape.n + 3 - j <= 2 * shape.n + 1 - i:
            return False
    if grid is not None:
        for x in _grid_points(shape, grid):
            if not schubert_member(shape, i, x) or not opposite_member(shape, j, x):
                continue
            sing_on_i = mult_schubert_quadric(shape, i, x) == 2
            sing_on_j = mult_opposite_quadric(shape, j, x) == 2
            if sing_on_i and sing_on_j:
                return False
    return True


def _grid_points(shape: QuadricShape, grid):
    for combo in product(grid, repeat=shape.ncoords):
        if any(c != 0 for c in combo):
            yield tuple(Fraction(c) for c in combo)


def richardson_mult_quadric(shape: QuadricShape, i: int, j: int, x: Sequence) -> int:
    """Product of the two closed forms; always at most 2 because the two
    singular loci are disjoint."""
    check_index_pair(shape, i, j)
    if not (schubert_member(shape, i, x) and opposite_member(shape, j, x)):
        raise QuadricMembershipError("point is not on the intersection")
    mu = mult_schubert_quadric(shape, i, x) * mult_opposite_quadric(shape, j, x)
    if mu > 2:
        raise RuntimeError(
            "singular on both one-sided varieties: impossible on a quadric"
        )
    return mu


# ---------------------------------------------------------------------------
# Cross-check against the general kernel on an affine chart
# ---------------------------------------------------------------------------


class QuadricChart:
    """The affine chart x_c = 1 in the other coordinates u_a, with the ideal
    of X_i ∩ X^j on it built once per (i, j), on its reduced basis, as a
    :class:`StratumSide`, so that its translations keep a basis; X_i
    is (i, 1) and X^j is (2n+1, j).  The ideal is the unit marker where c
    lies outside [j, i] and the chart misses the variety."""

    def __init__(self, shape: QuadricShape, c: int):
        self.c = c
        self.indices = [a for a in range(1, shape.ncoords + 1) if a != c]
        self.ring = PolyRing([f"u{a}" for a in self.indices])
        x = [self.ring.var(pos) for pos in range(len(self.indices))]
        self.q = _form(shape.n, x[: c - 1] + [self.ring.one()] + x[c - 1 :])  # x_c = 1
        self.mults: dict = {}
        self._sides: dict = {}

    def side(self, i: int, j: int) -> StratumSide:
        if (i, j) not in self._sides:
            ideal = PolyIdeal.unit_marker(self.ring)
            if j <= self.c <= i:
                gens = [self.ring.var(pos) for pos, a in enumerate(self.indices) if a > i or a < j]
                ideal = PolyIdeal.of_basis(self.ring, reduced_groebner_basis(gens + [self.q]))
            self._sides[i, j] = StratumSide(ideal, "quadric stratum", self.mults)
        return self._sides[i, j]


def _on_chart(charts: dict, shape: QuadricShape, vec: tuple) -> tuple[QuadricChart, tuple]:
    """The chart x_c = 1 of a coerced point, c its last nonzero coordinate,
    from the table or added to it, and the point's coordinates there."""
    c = max((a for a, v in enumerate(vec, 1) if v != 0), default=0)
    if not c:
        raise ValueError("projective point cannot be zero")
    if c not in charts:
        charts[c] = QuadricChart(shape, c)
    return charts[c], tuple(v / vec[c - 1] for a, v in enumerate(vec, 1) if a != c)


def _oracle(side: StratumSide, coords: tuple) -> int:
    """Tangent-cone multiplicity of the side's ideal at a point of its chart."""
    if not side.ideal.vanishes_at(coords):
        raise QuadricMembershipError("point is not on the variety")
    return _mult_of(translate_to_origin(side.ideal, coords), side.mults)


def mult_oracle(
    shape: QuadricShape, x: Sequence, i: Optional[int] = None, j: Optional[int] = None
) -> int:
    """Tangent-cone multiplicity at the point of the chart ideal of X_i, of
    X^j, of their intersection, or of the quadric when neither is given."""
    i, j = shape.ncoords if i is None else i, 1 if j is None else j
    check_index_pair(shape, i, j)
    chart, coords = _on_chart({}, shape, _coords(shape, x))
    return _oracle(chart.side(i, j), coords)


def sample_quadric_points(
    shape: QuadricShape, i: int, j: int, grid, limit: int = 100
) -> list[tuple]:
    """Deterministic projective representatives on the intersection of X_i
    and X^j: support inside [j, i], last nonzero coordinate scaled to 1,
    earlier window coordinates from the grid, Q = 0."""
    check_index_pair(shape, i, j)
    if limit < 1:
        raise ValueError("the point cap must be positive")
    out: list[tuple] = []
    zero = (Fraction(0),)
    for c in range(j, i + 1):
        for combo in product(grid, repeat=c - j):
            vec = zero * (j - 1) + tuple(map(Fraction, combo + (1,))) + zero * (shape.ncoords - c)
            if _form(shape.n, vec) == 0:
                out.append(vec)
                if len(out) >= limit:
                    return out
    return out


def quadric_sweep(shape: QuadricShape, grid=(-1, 0, 1), cap: int = 50) -> list:
    """Reports for every index pair j <= i over grid points of the
    intersection, in deterministic order; each chart is built once.

    The points of (i, j) are those of (2n+1, j) whose last nonzero
    coordinate is at most i, in the same order, and the cap keeps a
    prefix; so the grid is walked once per j."""
    charts: dict = {}
    reports = []
    valid = [k for k in range(1, shape.ncoords + 1) if k != shape.n + 1]
    samples = {j: sample_quadric_points(shape, shape.ncoords, j, grid, limit=cap) for j in valid}
    for i in valid:
        for j in valid:
            if j > i:
                continue
            for x in samples[j]:
                if not any(x[i:]):
                    reports.append(_report(shape, charts, i, j, x))
    return reports


def quadric_report(shape: QuadricShape, i: int, j: int, x: Sequence) -> MultiplicityReport:
    """MultiplicityReport for a point of the intersection X_i and X^j,
    cross-checking the closed forms against the oracle and the Jacobian."""
    check_index_pair(shape, i, j)
    return _report(shape, {}, i, j, x)


def _report(shape: QuadricShape, charts: dict, i: int, j: int, x: Sequence) -> MultiplicityReport:
    """The report of a checked index pair (i, j), its chart from ``charts``."""
    vec = _coords(shape, x)
    chart, coords = _on_chart(charts, shape, vec)
    side_i, side_j, side_ij = chart.side(i, 1), chart.side(shape.ncoords, j), chart.side(i, j)
    oracle = _oracle(side_ij, coords)
    mu_i = _window_mult(vec, 2 * shape.n + 2 - i, i)
    mu_j = _window_mult(vec, j, 2 * shape.n + 2 - j)
    fast = mu_i * mu_j
    point = {f"x{k + 1}": str(c) for k, c in enumerate(vec)}
    rows_i = _jacobian_rows(side_i.gradient, coords)
    rows_j = _jacobian_rows(side_j.gradient, coords)
    # The two sides' generators generate the intersection's ideal, and at a
    # point of the variety any generating set's Jacobian rows span the same
    # space, so the sides' rows stacked give the intersection's rank.
    smooth = tuple(
        _corank(rows, chart.ring.nvars, side.dimension, point) == 0
        for rows, side in ((rows_i, side_i), (rows_j, side_j), (rows_i + rows_j, side_ij))
    )
    # Smooth is multiplicity 1 on each stratum; the singular loci are disjoint.
    if fast > 2 or smooth != (mu_i == 1, mu_j == 1, fast == 1):
        raise KernelInconsistencyError(
            f"closed forms mu_i={mu_i}, mu_j={mu_j} contradict disjoint singular "
            f"loci or the Jacobian smoothness verdicts {smooth} at {point}"
        )
    return MultiplicityReport(
        family="quadric",
        d=1,
        n=shape.n,
        tau="",
        w=str(i),
        v=str(j),
        point=point,
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
