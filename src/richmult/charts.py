"""Affine charts on G(d,n) and the stratum ideals restricted to them.

A chart is an n x d matrix whose rows at the pivot positions form the
identity and whose remaining entries are the chart coordinates x_q_p.
Schubert ideals are generated by minors expressing rank conditions on
bottom row blocks; rank conditions are emitted only at the essential
column positions, and the reduced basis replaces the minors.

Opposite ideals are not built from minors.  The longest element w0
reverses the rows, so X^v = w0·X_{w0·v}: the opposite ideal of v on the
chart of tau is the Schubert ideal of w0·v on the chart of w0·tau with
each coordinate (q, p) renamed to (n+1-q, n+1-p) (:func:`w0_relabel`).
The renaming keeps the reduced basis whenever a leading-term certificate
holds (``PolyIdeal.permuted``), so the Buchberger run is the Schubert
ideal's.

One exact elimination, :func:`_echelon`, serves every rank question: a
matrix point's cell is the set of pivots of its columns' echelon basis,
its chart coordinates are read off that basis once back-substituted, and
the engine's Jacobian ranks are the basis's length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .groebner import PolyIdeal, dedupe_normalized, reduced_groebner_basis
from .poly import Polynomial, PolyRing
from .weyl import (
    CosetRep,
    GrassShape,
    RootIndex,
    bruhat_leq,
    chart_index_set,
    descent_positions,
    positive_root_indices,
    w0_dual,
)


class PointNotOnChartError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """The affine neighbourhood of the fixed point indexed by tau.  A
    quadric's chart (``quadric.build_chart``) has the same fields."""

    shape: GrassShape
    tau: CosetRep
    indices: tuple[RootIndex, ...]
    positive: tuple[RootIndex, ...]
    ring: PolyRing = field(compare=False)
    yring: PolyRing = field(compare=False)

    def origin(self) -> "AffinePoint":
        return AffinePoint(self, (Fraction(0),) * len(self.indices))

    def matrix(self) -> list[list[Polynomial]]:
        """The symbolic n x d chart matrix (columns ordered by pivot)."""
        n, d = self.shape.n, self.shape.d
        pivot_of_col = self.tau.entries
        rows = []
        var_pos = {ix: i for i, ix in enumerate(self.indices)}
        for r in range(1, n + 1):
            row = []
            for k in range(d):
                p = pivot_of_col[k]
                if r in self.tau.entries:
                    row.append(self.ring.one() if r == p else self.ring.zero())
                else:
                    row.append(self.ring.var(var_pos[RootIndex(r, p)]))
            rows.append(row)
        return rows

    def point(self, coords: dict) -> "AffinePoint":
        """The point whose coordinates are given by a mapping RootIndex ->
        rational; an index the mapping leaves out reads 0.  A key that is
        not an index of the chart raises ``PointNotOnChartError``."""
        unknown = set(coords) - set(self.indices)
        if unknown:
            names = ", ".join(str(ix) for ix in sorted(unknown))
            raise PointNotOnChartError(f"indices not on chart: {names}")
        return AffinePoint(self, tuple(Fraction(coords.get(ix, 0)) for ix in self.indices))


@dataclass(frozen=True)
class AffinePoint:
    """A rational point of a chart, stored in the chart's index order."""

    chart: Chart
    coords: tuple[Fraction, ...]

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_json_dict(self) -> dict:
        return {str(ix): str(c) for ix, c in zip(self.chart.indices, self.coords)}

    @classmethod
    def from_json_dict(cls, chart: Chart, data: dict) -> "AffinePoint":
        coords = {}
        for key, val in data.items():
            q, dot, p = key.partition(".")
            if not (dot and q.isdecimal() and p.isdecimal()):
                raise ValueError(f"coordinate key {key!r} is not of the form q.p")
            ix = RootIndex(int(q), int(p))
            if ix in coords:
                raise ValueError(f"coordinate {ix} is given twice")
            coords[ix] = Fraction(str(val))
        return chart.point(coords)

    def __str__(self):
        inside = ", ".join(
            f"{ix}={c}" for ix, c in zip(self.chart.indices, self.coords) if c != 0
        )
        return "{" + inside + "}" if inside else "origin"


def _coordinate_names(prefix: str, indices) -> tuple[str, ...]:
    return tuple(f"{prefix}_{ix.q}_{ix.p}" for ix in indices)


def build_chart(shape: GrassShape, tau: CosetRep) -> Chart:
    indices = chart_index_set(shape, tau)
    return Chart(
        shape=shape,
        tau=tau,
        indices=indices,
        positive=positive_root_indices(shape, tau),
        ring=PolyRing(_coordinate_names("x", indices)),
        yring=PolyRing(_coordinate_names("y", indices)),
    )


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    # Laplace expansion along the row with the most constant entries.
    best = max(range(size), key=lambda r: sum(m.is_constant() for m in matrix[r]))
    rest_rows = [matrix[r] for r in range(size) if r != best]
    total = None
    for c in range(size):
        entry = matrix[best][c]
        if entry.is_zero():
            continue
        minor = _det([[row[cc] for cc in range(size) if cc != c] for row in rest_rows])
        if minor.is_zero():
            continue
        term = entry * minor
        if (best + c) % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return matrix[0][0].ring.zero()
    return total


def _minor_generators(
    matrix_rows: list[list[Polynomial]], size: int, ring: PolyRing
) -> list[Polynomial]:
    gens = []
    nrows = len(matrix_rows)
    ncols = len(matrix_rows[0]) if matrix_rows else 0
    if size > min(nrows, ncols):
        return gens
    for rsub in combinations(range(nrows), size):
        for csub in combinations(range(ncols), size):
            sub = [[matrix_rows[r][c] for c in csub] for r in rsub]
            m = _det(sub)
            if not m.is_zero():
                gens.append(m)
    return gens


def schubert_ideal(chart: Chart, w: CosetRep) -> PolyIdeal:
    """Ideal of the Schubert variety indexed by w on the chart.

    For each essential position j of w the rows j+1..n of the chart matrix
    must have rank at most d - #{k : w_k <= j}; the unit-ideal marker is
    returned when the chart's cell misses the variety (tau not <= w).
    """
    if not bruhat_leq(chart.tau, w):
        return PolyIdeal.unit_marker(chart.ring)
    matrix = chart.matrix()
    d, n = chart.shape.d, chart.shape.n
    gens: list[Polynomial] = []
    for j in descent_positions(w):
        bound = d - sum(1 for e in w.entries if e <= j)
        rows = matrix[j:]
        gens.extend(_minor_generators(rows, bound + 1, chart.ring))
    return PolyIdeal.of_basis(chart.ring, reduced_groebner_basis(dedupe_normalized(gens)))


def w0_relabel(chart: Chart, ideal: PolyIdeal) -> PolyIdeal:
    """An ideal of the chart of w0·tau carried to ``chart``, the chart of
    tau, by renaming each coordinate (q, p) to (N+1-q, N+1-p): w0 reverses
    the N = ``shape.ncoords`` ambient coordinates, on a quadric too.

    Reversing the rows and the columns of the chart matrix of w0·tau and
    renaming its coordinates so gives the chart matrix of tau, so a rank
    condition on rows j+1..n there is one on rows 1..n-j here.  The
    renaming is a variable permutation; the result keeps the reduced
    basis of ``chart``'s order (``PolyIdeal.permuted``, certified or
    recomputed).  The renaming reverses the order of the coordinates, so
    coordinate j here is coordinate N-1-j of the chart of w0·tau."""
    top = chart.shape.ncoords + 1
    dual = [RootIndex(top - ix.q, top - ix.p) for ix in reversed(chart.indices)]
    if ideal.ring.names != _coordinate_names("x", dual):
        raise PointNotOnChartError("the ideal does not live on the chart of w0·tau")
    return ideal.permuted(range(len(dual) - 1, -1, -1), chart.ring)


def opposite_ideal(chart: Chart, v: CosetRep) -> PolyIdeal:
    """Ideal of the opposite Schubert variety indexed by v on the chart:
    the Schubert ideal of w0·v on the chart of w0·tau, relabelled by
    :func:`w0_relabel`.  It is the ideal of the rank conditions that for
    each essential position j of v rows 1..j-1 have rank at most
    d - #{k : v_k >= j}.  The unit-ideal marker is returned when the
    chart's cell misses the variety (v not <= tau, exactly when
    w0·tau not <= w0·v)."""
    dual = build_chart(chart.shape, w0_dual(chart.tau))
    return w0_relabel(chart, schubert_ideal(dual, w0_dual(v)))


def richardson_ideal(chart: Chart, w: CosetRep, v: CosetRep) -> PolyIdeal:
    """Ideal of the intersection of the two stratum varieties: the sum of
    the Schubert and the opposite ideal, whose bases use disjoint
    variables."""
    return schubert_ideal(chart, w) + opposite_ideal(chart, v)


def translate_to_origin(ideal: PolyIdeal, m: AffinePoint) -> PolyIdeal:
    """Substitute x = y + m, mapping the chart point m to the origin: an
    ideal of the x-coordinates of m's chart becomes one of its
    y-coordinates.  An ideal of any other ring, an already translated one
    too, raises ``PointNotOnChartError``.

    The generators are the input's, shifted and made primitive.  The
    result keeps a reduced basis exactly when the input is built on one
    (stratum ideals and their sums are): the input's basis, translated
    without a Buchberger run.  Translation never starts one."""
    if ideal.ring != m.chart.ring:
        raise PointNotOnChartError("ideal and point live on different charts")
    return ideal.translated(m.coords, m.chart.yring)


def is_cone_over_origin(ideal: PolyIdeal) -> bool:
    """Whether the ideal is homogeneous as an ideal, which holds exactly
    when its reduced Groebner basis is."""
    if ideal.is_unit():
        raise ValueError("unit ideal: empty variety has no cone semantics")
    return all(g.is_homogeneous() for g in ideal.groebner())


# ---------------------------------------------------------------------------
# Exact elimination and matrix input
# ---------------------------------------------------------------------------


def _echelon(vectors) -> dict[int, list[Fraction]]:
    """An echelon basis of the span of lists of Fractions, keyed by pivot.

    Each vector is reduced against the basis found so far, last position
    first; a nonzero remainder is kept, scaled to 1, under its last
    nonzero position, its pivot.  A basis vector stops at its pivot (the
    entries after it are zero).  The pivots are the lowest positions of
    the span's vectors, and their number is the span's dimension.  Zero
    entries are skipped, because Jacobian rows are mostly zero."""
    basis: dict[int, list[Fraction]] = {}
    for vec in vectors:
        p = len(vec)
        while p:
            p -= 1
            c = vec[p]
            if not c:
                continue
            row = basis.get(p)
            if row is None:
                vec = vec[: p + 1]
                if c != 1:
                    inv = Fraction(1) / c
                    vec = [a * inv if a else a for a in vec]
                basis[p] = vec
                break
            vec = [a - c * b if b else a for a, b in zip(vec, row)]
    return basis


def _column_echelon(shape: GrassShape, matrix: Sequence[Sequence]):
    """The cell of an n x d matrix's column span and the echelon basis of
    the span, whose pivots are the cell's entries minus one."""
    n, d = shape.n, shape.d
    rows = [list(r) for r in matrix]
    if len(rows) != n or any(len(r) != d for r in rows):
        raise ValueError(f"expected an {n} x {d} matrix")
    basis = _echelon([[Fraction(rows[r][c]) for r in range(n)] for c in range(d)])
    if len(basis) != d:
        raise ValueError("matrix does not have full column rank")
    return CosetRep(shape, tuple(sorted(p + 1 for p in basis))), basis


def point_from_matrix(shape: GrassShape, matrix: Sequence[Sequence]) -> AffinePoint:
    """Convert a rank-d matrix (columns spanning the subspace) to chart
    coordinates on the chart of the cell containing it."""
    tau, basis = _column_echelon(shape, matrix)
    pivots = sorted(basis)
    # Back-substitute so each basis vector is 0 at the other pivot rows:
    # the columns then hold the identity at the pivot rows.
    for k, p in enumerate(pivots):
        vec = basis[p]
        for q in pivots[:k]:
            c = vec[q]
            if c:
                for r, b in enumerate(basis[q]):
                    vec[r] -= c * b
    chart = build_chart(shape, tau)
    coords = {}
    for ix in chart.indices:
        vec = basis[ix.p - 1]
        coords[ix] = vec[ix.q - 1] if ix.q <= len(vec) else Fraction(0)
    return chart.point(coords)


# ---------------------------------------------------------------------------
# Ideal text format
# ---------------------------------------------------------------------------


def format_ideal(ideal: PolyIdeal) -> str:
    """One generator per line in the canonical normalization (content-free,
    positive leading coefficient, lines ordered by decreasing leading
    monomial).  The zero ideal prints "0"; the unit marker prints "1"."""
    if ideal.is_zero_ideal():
        return "0\n"
    gens = sorted(
        (g.primitive() for g in ideal.gens),
        key=lambda g: ideal.ring.key(g.leading_exps()),
        reverse=True,
    )
    return "".join(str(g) + "\n" for g in gens)
