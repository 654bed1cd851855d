"""Type-A coset combinatorics for Grassmannians.

Strata of G(d,n) are indexed by strictly increasing d-tuples in [1, n]
(minimal coset representatives).  This module provides the Bruhat order on
those tuples, the chart index set labelling the coordinates of the affine
open set around a torus-fixed point, the subset of indices whose
vanishing cuts out the Schubert cell inside that chart, and the action of
the longest element w0, which swaps each chart with the chart of w0·tau
and Schubert varieties with opposite ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple


class ShapeMismatchError(ValueError):
    """Raised when coset representatives of different shapes are combined."""


@dataclass(frozen=True)
class GrassShape:
    """The pair (d, n) with 1 <= d < n describing G(d,n)."""

    d: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and isinstance(self.n, int)):
            raise TypeError("d and n must be integers")
        if not 1 <= self.d < self.n:
            raise ValueError(f"need 1 <= d < n, got d={self.d}, n={self.n}")

    @property
    def dim(self) -> int:
        """Dimension d(n-d) of the Grassmannian, i.e. of every chart."""
        return self.d * (self.n - self.d)

    @property
    def ncoords(self) -> int:
        """The n coordinates of the ambient space, which w0 reverses."""
        return self.n

    def __str__(self):
        return f"G({self.d},{self.n})"


@dataclass(frozen=True)
class CosetRep:
    """A stratum label: strictly increasing d-tuple of integers in [1, n].

    >>> s = GrassShape(3, 7)
    >>> CosetRep(s, (2, 5, 6)).length()
    7
    """

    shape: GrassShape
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        d, n = self.shape.d, self.shape.n
        if len(self.entries) != d:
            raise ValueError(f"expected {d} entries, got {self.entries}")
        if any(not 1 <= e <= n for e in self.entries):
            raise ValueError(f"entries must lie in [1, {n}]: {self.entries}")
        if any(a >= b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries must be strictly increasing: {self.entries}")

    def length(self) -> int:
        """Weyl-group length: number of pairs (q, p) with p in the tuple,
        q outside it and q < p."""
        return sum(e - k - 1 for k, e in enumerate(self.entries))

    def __str__(self):
        return format_coset(self)


class RootIndex(NamedTuple):
    """Chart coordinate label (q, p): q a non-pivot row, p a pivot row.

    The labelled coordinate sits in row q of the pivot column p; the
    underlying root is positive exactly when p < q.
    """

    q: int
    p: int

    def __str__(self):
        return f"{self.q}.{self.p}"


def format_coset(rep: CosetRep) -> str:
    """Digit string for n <= 9, comma-separated otherwise."""
    if rep.shape.n <= 9:
        return "".join(str(e) for e in rep.entries)
    return ",".join(str(e) for e in rep.entries)


def parse_coset(shape: GrassShape, text: str) -> CosetRep:
    """Inverse of :func:`format_coset`; accepts both forms for any n."""
    text = text.strip()
    if "," in text:
        parts = [int(p) for p in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse coset representative {text!r}")
        parts = [int(c) for c in text]
    return CosetRep(shape, tuple(parts))


def _check_same_shape(a: CosetRep, b: CosetRep):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def bruhat_leq(a: CosetRep, b: CosetRep) -> bool:
    """Bruhat order on increasing tuples: a <= b iff a_k <= b_k for all k.

    >>> s = GrassShape(3, 7)
    >>> bruhat_leq(CosetRep(s, (1, 2, 5)), CosetRep(s, (3, 5, 6)))
    True
    """
    _check_same_shape(a, b)
    return all(x <= y for x, y in zip(a.entries, b.entries))


def all_coset_reps(shape: GrassShape) -> list[CosetRep]:
    """All strata labels of the shape, in lexicographic order."""
    return [CosetRep(shape, c) for c in combinations(range(1, shape.n + 1), shape.d)]


def chart_index_set(shape: GrassShape, tau: CosetRep) -> tuple[RootIndex, ...]:
    """All (q, p) with p a pivot of tau and q a non-pivot, sorted by (q, p).

    This ordering is the canonical variable order of every ideal built on
    the chart; the cardinality is always d(n-d).
    """
    if tau.shape != shape:
        raise ShapeMismatchError(f"{tau} does not belong to {shape}")
    pivots = set(tau.entries)
    out = [
        RootIndex(q, p)
        for q in range(1, shape.n + 1)
        if q not in pivots
        for p in tau.entries
    ]
    out.sort()
    return tuple(out)


def positive_root_indices(shape: GrassShape, tau: CosetRep) -> tuple[RootIndex, ...]:
    """The chart indices labelling positive roots (p < q); their common
    vanishing defines the Schubert cell inside the chart."""
    return tuple(ix for ix in chart_index_set(shape, tau) if ix.p < ix.q)


def descent_positions(w: CosetRep) -> list[int]:
    """Column positions j where the rank condition of the Schubert variety
    indexed by w is essential: j = w_k with w_{k+1} > w_k + 1, or k = d."""
    entries = w.entries
    d = len(entries)
    out = []
    for k, e in enumerate(entries):
        if k == d - 1 or entries[k + 1] > e + 1:
            out.append(e)
    return out


def w0_dual(rep: CosetRep) -> CosetRep:
    """The label of w0·rep, where w0 reverses [1, n]: the sorted entries
    n+1-e.  It reverses the Bruhat order (a <= b exactly when
    w0_dual(b) <= w0_dual(a)) and is its own inverse.

    >>> w0_dual(CosetRep(GrassShape(3, 7), (1, 2, 5)))
    CosetRep(shape=GrassShape(d=3, n=7), entries=(3, 6, 7))
    """
    n = rep.shape.n
    return CosetRep(rep.shape, tuple(n + 1 - e for e in reversed(rep.entries)))
