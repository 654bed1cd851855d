"""Checkable statements of the paper that the verifier does not run.

The odd quadric's membership tests and per-side closed forms, its
singular loci, the b-matrix of the cell point and the disjointness of the
singular loci; and the additive and scaling actions on a chart.  The
tests call them; the program's own quadric formulas (``_form``,
``_coords``, ``_window_mult`` and the index checks) are imported, not
copied, so each formula exists once.
"""

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from richmult.charts import AffinePoint, PointNotOnChartError
from richmult.quadric import (
    QuadricMembershipError,
    QuadricShape,
    _coords,
    _form,
    _window_mult,
    check_index_pair,
    check_schubert_index,
)


def q_eval(shape: QuadricShape, x: Sequence) -> Fraction:
    """The quadratic form x_{n+1}^2 + 2*sum x_a x_{2n+2-a}."""
    return _form(shape.n, _coords(shape, x))


def schubert_member(shape: QuadricShape, i: int, x: Sequence) -> bool:
    """x in X_i: coordinates above i vanish and Q(x) = 0."""
    return _member(shape, i, x, range(i, shape.ncoords))


def opposite_member(shape: QuadricShape, j: int, x: Sequence) -> bool:
    """x in X^j: coordinates below j vanish and Q(x) = 0."""
    return _member(shape, j, x, range(j - 1))


def _member(shape: QuadricShape, k: int, x: Sequence, zero: range) -> bool:
    check_schubert_index(shape, k)
    vec = _coords(shape, x)
    if not any(vec):
        raise ValueError("projective point cannot be zero")
    return not any(vec[a] for a in zero) and _form(shape.n, vec) == 0


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
        col = list(vec) if j == i else [Fraction(int(r == j)) for r in range(1, N + 1)]
        if j != i and j > mirror:
            col[mirror - 1] -= vec[2 * shape.n + 1 - j]
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
    # Entry (j, k) sums b[r][j] * b[N-1-r][k] over the nonzero entries of
    # column j whose mirrored row is nonzero in column k.
    columns = [{r: b[r][c] for r in range(N) if b[r][c]} for c in range(N)]
    mirrored = [{N - 1 - r: v for r, v in col.items()} for col in columns]
    for j, col in enumerate(columns):
        for k, other in enumerate(mirrored):
            value = sum(v * other[r] for r, v in col.items() if r in other)
            if value != int(j + k == N - 1):
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


def c_action(xi: Fraction, x: AffinePoint, m: AffinePoint) -> AffinePoint:
    """The additive-group action moving x by -xi times m, coordinatewise."""
    if x.chart != m.chart:
        raise PointNotOnChartError("points on different charts")
    xi = Fraction(xi)
    return AffinePoint(
        x.chart, tuple(a - xi * b for a, b in zip(x.coords, m.coords))
    )


def scale_action(xi: Fraction, x: AffinePoint) -> AffinePoint:
    xi = Fraction(xi)
    return AffinePoint(x.chart, tuple(xi * a for a in x.coords))
