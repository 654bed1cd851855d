"""Stratum varieties of the odd-dimensional quadric SO(2n+1)/P_1.

The quadric lives in P^{2n} with the form Q(x) = x_{n+1}^2 +
2*sum_{a=1}^{n} x_a x_{2n+2-a}.  Stratum varieties are coordinate-window
slices X_i (top coordinates zero) and X^j (bottom coordinates zero); their
point multiplicities have a two-case closed form which this module
implements and cross-checks against the general tangent-cone machinery on
an affine chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .groebner import PolyIdeal
from .localmult import multiplicity_at_origin
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


def _coords(shape: QuadricShape, x: Sequence) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(v) for v in x)
    if len(vec) != shape.ncoords:
        raise ValueError(f"expected {shape.ncoords} coordinates, got {len(vec)}")
    return vec


def q_eval(shape: QuadricShape, x: Sequence) -> Fraction:
    """The quadratic form x_{n+1}^2 + 2*sum x_a x_{2n+2-a}."""
    vec = _coords(shape, x)
    n = shape.n
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
    return all(vec[a] == 0 for a in range(i, shape.ncoords)) and q_eval(shape, vec) == 0


def opposite_member(shape: QuadricShape, j: int, x: Sequence) -> bool:
    """x in X^j: coordinates below j vanish and Q(x) = 0."""
    check_schubert_index(shape, j)
    vec = _coords(shape, x)
    if all(v == 0 for v in vec):
        raise ValueError("projective point cannot be zero")
    return all(vec[a] == 0 for a in range(j - 1)) and q_eval(shape, vec) == 0


def mult_schubert_quadric(shape: QuadricShape, i: int, x: Sequence) -> int:
    """Closed-form multiplicity of x on X_i: 2 exactly when i > n+1 and the
    window x_i .. x_{2n+2-i} vanishes, else 1."""
    if not schubert_member(shape, i, x):
        raise QuadricMembershipError(f"point is not on X_{i}")
    vec = _coords(shape, x)
    if i < shape.n + 1:
        return 1
    window = range(2 * shape.n + 2 - i, i + 1)
    return 2 if all(vec[a - 1] == 0 for a in window) else 1


def mult_opposite_quadric(shape: QuadricShape, j: int, x: Sequence) -> int:
    """Mirror-image closed form: 2 exactly when j < n+1 and the window
    x_j .. x_{2n+2-j} vanishes, else 1."""
    if not opposite_member(shape, j, x):
        raise QuadricMembershipError(f"point is not on X^{j}")
    vec = _coords(shape, x)
    if j > shape.n + 1:
        return 1
    window = range(j, 2 * shape.n + 2 - j + 1)
    return 2 if all(vec[a - 1] == 0 for a in window) else 1


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
    check_schubert_index(shape, i)
    check_schubert_index(shape, j)
    if j > i:
        raise ValueError("need j <= i for a nonempty intersection")
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
    from itertools import product

    for combo in product(grid, repeat=shape.ncoords):
        if any(c != 0 for c in combo):
            yield tuple(Fraction(c) for c in combo)


def richardson_mult_quadric(shape: QuadricShape, i: int, j: int, x: Sequence) -> int:
    """Product of the two closed forms; always at most 2 because the two
    singular loci are disjoint."""
    if j > i:
        raise ValueError("need j <= i")
    if not (schubert_member(shape, i, x) and opposite_member(shape, j, x)):
        raise QuadricMembershipError("point is not on the intersection")
    product = mult_schubert_quadric(shape, i, x) * mult_opposite_quadric(shape, j, x)
    if product > 2:
        raise RuntimeError(
            "singular on both one-sided varieties: impossible on a quadric"
        )
    return product


# ---------------------------------------------------------------------------
# Cross-check against the general kernel on an affine chart
# ---------------------------------------------------------------------------


def normalize_on_chart(shape: QuadricShape, x: Sequence) -> tuple[int, tuple]:
    """Scale a projective point so its last nonzero coordinate is 1; that
    coordinate indexes the affine chart used for the oracle."""
    vec = _coords(shape, x)
    c = max(a for a in range(shape.ncoords) if vec[a] != 0) + 1
    scale = vec[c - 1]
    return c, tuple(v / scale for v in vec)


def _chart_ring(shape: QuadricShape, c: int) -> PolyRing:
    names = tuple(f"u{a}" for a in range(1, shape.ncoords + 1) if a != c)
    return PolyRing(names)


def _chart_q(shape: QuadricShape, ring: PolyRing, c: int):
    """Q with x_c = 1 in the chart variables."""
    n = shape.n
    idx = {}
    pos = 0
    for a in range(1, shape.ncoords + 1):
        if a != c:
            idx[a] = pos
            pos += 1

    def coord(a):
        return ring.one() if a == c else ring.var(idx[a])

    total = coord(n + 1) * coord(n + 1)
    for a in range(1, n + 1):
        total = total + 2 * coord(a) * coord(2 * n + 2 - a)
    return total


def stratum_chart_ideal(
    shape: QuadricShape,
    x: Sequence,
    i: Optional[int] = None,
    j: Optional[int] = None,
) -> tuple[PolyIdeal, tuple]:
    """Affine-chart ideal of X_i, X^j or their intersection, together with
    the chart coordinates of the (normalized) point."""
    c, vec = normalize_on_chart(shape, x)
    if i is not None and any(vec[a] != 0 for a in range(i, shape.ncoords)):
        raise QuadricMembershipError(f"point is not on X_{i}")
    if j is not None and any(vec[a] != 0 for a in range(j - 1)):
        raise QuadricMembershipError(f"point is not on X^{j}")
    ring = _chart_ring(shape, c)
    gens = []
    pos = 0
    chart_coords = []
    for a in range(1, shape.ncoords + 1):
        if a == c:
            continue
        if i is not None and a > i:
            gens.append(ring.var(pos))
        if j is not None and a < j:
            gens.append(ring.var(pos))
        chart_coords.append(vec[a - 1])
        pos += 1
    gens.append(_chart_q(shape, ring, c))
    return PolyIdeal(ring, gens), tuple(chart_coords)


def mult_oracle(
    shape: QuadricShape,
    x: Sequence,
    i: Optional[int] = None,
    j: Optional[int] = None,
) -> int:
    """Tangent-cone multiplicity of the chart ideal at the point."""
    ideal, coords = stratum_chart_ideal(shape, x, i=i, j=j)
    if not ideal.vanishes_at(coords):
        raise QuadricMembershipError("point is not on the variety")
    shifted = [g.shift(coords) for g in ideal.gens]
    translated = PolyIdeal(ideal.ring, [g for g in shifted if not g.is_zero()])
    return multiplicity_at_origin(translated)


def sample_quadric_points(
    shape: QuadricShape, i: int, j: int, grid, limit: int = 100
) -> list[tuple]:
    """Deterministic projective representatives on the intersection of X_i
    and X^j: support inside [j, i], last nonzero coordinate scaled to 1,
    earlier window coordinates from the grid, Q = 0."""
    from itertools import product as iproduct

    check_schubert_index(shape, i)
    check_schubert_index(shape, j)
    if j > i:
        raise ValueError("need j <= i")
    out: list[tuple] = []
    N = shape.ncoords
    for c in range(j, i + 1):
        for combo in iproduct(grid, repeat=c - j):
            vec = [Fraction(0)] * N
            for offset, val in enumerate(combo):
                vec[j - 1 + offset] = Fraction(val)
            vec[c - 1] = Fraction(1)
            if q_eval(shape, vec) == 0:
                out.append(tuple(vec))
                if len(out) >= limit:
                    return out
    return out


def quadric_sweep(shape: QuadricShape, grid=(-1, 0, 1), cap: int = 50) -> list:
    """Reports for every index pair j <= i over grid points of the
    intersection, in deterministic order."""
    reports = []
    valid = [k for k in range(1, shape.ncoords + 1) if k != shape.n + 1]
    for i in valid:
        for j in valid:
            if j > i:
                continue
            for x in sample_quadric_points(shape, i, j, grid, limit=cap):
                reports.append(quadric_report(shape, i, j, x))
    return reports


def quadric_report(shape: QuadricShape, i: int, j: int, x: Sequence) -> MultiplicityReport:
    """MultiplicityReport for a point of the intersection X_i and X^j,
    cross-checking the closed forms against the chart-ideal oracle."""
    vec = _coords(shape, x)
    mu_i = mult_schubert_quadric(shape, i, vec)
    mu_j = mult_opposite_quadric(shape, j, vec)
    fast = richardson_mult_quadric(shape, i, j, vec)
    oracle = mult_oracle(shape, vec, i=i, j=j)
    return MultiplicityReport(
        family="quadric",
        d=1,
        n=shape.n,
        tau="",
        w=str(i),
        v=str(j),
        point={f"x{k + 1}": str(c) for k, c in enumerate(vec)},
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
        smooth_w=mu_i == 1,
        smooth_v=mu_j == 1,
        smooth_wv=fast == 1,
        agreement=fast == oracle,
    )
