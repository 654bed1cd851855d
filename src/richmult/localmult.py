"""Multiplicity at the origin: tangent cones and a Hilbert-Samuel oracle.

The tangent cone of an ideal vanishing at the origin is computed by the
homogenization route: take a reduced Groebner basis under the ring's graded
order, homogenize it with the reserved variable t (which then generates the
full homogenized ideal), recompute a reduced basis under an order that
ranks the t-degree above everything else within each total degree, set
t = 1 and keep lowest-degree forms.  The multiplicity at the origin is the
degree of the resulting homogeneous ideal.

The independent cross-check computes dim_Q k[x]/(I + m^k) by sparse exact
Gaussian elimination on truncated multiples of the generators, and fits
the leading coefficient of the eventual polynomial in k by finite
differences.  It shares no code path with the tangent-cone computation
beyond polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .groebner import PolyIdeal, dedupe_normalized, interreduce, reduced_groebner_basis
from .hilbert import ideal_hilbert_data
from .poly import PolyRing, mono_deg, mono_mul


class OriginNotOnVarietyError(ValueError):
    """A generator has a nonzero constant term."""


class OracleBudgetError(RuntimeError):
    """The Hilbert-Samuel elimination would exceed the configured size."""


def _check_vanishes_at_origin(ideal: PolyIdeal):
    for g in ideal.gens:
        if g.constant_term() != 0:
            raise OriginNotOnVarietyError(
                f"generator has constant term {g.constant_term()}: {g}"
            )


def tangent_cone(ideal: PolyIdeal) -> PolyIdeal:
    """Homogeneous ideal of lowest-degree forms of the input ideal."""
    _check_vanishes_at_origin(ideal)
    ring = ideal.ring
    basis = list(ideal.groebner())
    if not basis:
        return PolyIdeal(ring, [])
    if any(g.is_constant() for g in basis):
        raise OriginNotOnVarietyError("unit ideal has no tangent cone")
    if all(g.is_homogeneous() for g in basis):
        gens = [g.primitive() for g in basis]
        return PolyIdeal(ring, gens)
    hring = ring.homogenized()
    homogenized = [g.homogenize(hring) for g in basis]
    hbasis = reduced_groebner_basis(homogenized)
    gens = dedupe_normalized(h.dehomogenize(ring).lowest_form() for h in hbasis)
    return PolyIdeal(ring, interreduce(gens))


def multiplicity_at_origin(ideal: PolyIdeal) -> int:
    """Degree of the projectivized tangent cone at the origin (1 at a
    smooth point)."""
    cone = tangent_cone(ideal)
    if cone.is_zero_ideal():
        return 1
    return ideal_hilbert_data(cone).degree


# ---------------------------------------------------------------------------
# Hilbert-Samuel oracle
# ---------------------------------------------------------------------------


def _monomials_up_to(nvars: int, max_deg: int):
    """All exponent tuples of total degree <= max_deg, by degree then
    reverse-lexicographically (deterministic)."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for take in range(remaining + 1):
            rec(prefix + (take,), remaining - take, slots - 1)

    for d in range(max_deg + 1):
        rec((), d, nvars)
    return out


def hilbert_samuel_series(
    ideal: PolyIdeal, k_max: int, max_columns: int = 400_000
) -> list[int]:
    """[dim k[x]/(I + m^k) for k = 1..k_max], by exact linear algebra.

    Columns are the monomials of degree < k_max ordered by degree; rows are
    the truncations of monomial multiples of the generators.  One leftmost-
    pivot elimination yields every k at once: the rank of the degree-< k
    truncation equals the number of pivots in columns of degree < k.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_vanishes_at_origin(ideal)
    ring = ideal.ring
    n = ring.nvars
    if not ideal.gens:
        # No relations: the quotient dimension is the monomial count itself.
        return [comb(k - 1 + n, n) for k in range(1, k_max + 1)]
    ncols = comb(k_max - 1 + n, n)
    if ncols > max_columns:
        raise OracleBudgetError(
            f"{ncols} columns exceed the budget of {max_columns}"
        )
    mons = _monomials_up_to(n, k_max - 1)
    col_of = {e: i for i, e in enumerate(mons)}
    mons_per_deg = [0] * k_max
    for e in mons:
        mons_per_deg[mono_deg(e)] += 1

    gens = ideal.gens
    if gens and all(len(g.terms) == 1 for g in gens):
        # Monomial ideal: the rows are unit vectors, so the rank in degree
        # < k is the number of monomials divisible by some generator.
        gen_exps = [next(iter(g.terms)) for g in gens]
        pivots_per_deg = [0] * k_max
        for e in mons:
            if any(all(x <= y for x, y in zip(ge, e)) for ge in gen_exps):
                pivots_per_deg[mono_deg(e)] += 1
        return _accumulate_series(mons_per_deg, pivots_per_deg, k_max)

    pivots: dict[int, dict[int, Fraction]] = {}
    pivot_deg = [0] * k_max

    for g in gens:
        terms = g.terms
        mindeg = g.min_degree()
        for alpha in _monomials_up_to(n, k_max - 1 - mindeg):
            row: dict[int, Fraction] = {}
            for e, c in terms.items():
                prod = mono_mul(alpha, e)
                if mono_deg(prod) < k_max:
                    col = col_of[prod]
                    s = row.get(col)
                    row[col] = c if s is None else s + c
            row = {c: v for c, v in row.items() if v}
            while row:
                lead = min(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    coeff = row.pop(lead)
                    if coeff != 1:
                        row = {c: v / coeff for c, v in row.items()}
                    pivots[lead] = row
                    pivot_deg[mono_deg(mons[lead])] += 1
                    break
                factor = row.pop(lead)
                for c, v in pivot.items():
                    s = row.get(c)
                    if s is None:
                        row[c] = -factor * v
                    else:
                        s = s - factor * v
                        if s:
                            row[c] = s
                        else:
                            del row[c]
    return _accumulate_series(mons_per_deg, pivot_deg, k_max)


def _accumulate_series(mons_per_deg, pivots_per_deg, k_max):
    series = []
    total = 0
    for d in range(k_max):
        total += mons_per_deg[d] - pivots_per_deg[d]
        series.append(total)
    return series


def fit_leading_coefficient(values: Sequence[int], dim: int) -> Optional[int]:
    """Normalized top coefficient of the degree-`dim` polynomial the values
    eventually agree with: the stabilized `dim`-th forward difference.
    Returns None if the tail has not stabilized."""
    diffs = list(values)
    for _ in range(dim):
        if len(diffs) < 2:
            return None
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if len(diffs) < 2:
        return None
    window = diffs[-3:] if len(diffs) >= 3 else diffs[-2:]
    if any(x != window[0] for x in window):
        return None
    return window[0]


def _restrict_to_used_variables(ideal: PolyIdeal, local_dim: int):
    """Drop variables no generator mentions.  The discarded variables are a
    free smooth factor of the local ring, which changes the dimension by
    their number and leaves the multiplicity alone."""
    ring = ideal.ring
    used = sorted(
        {i for g in ideal.gens for e in g.terms for i, k in enumerate(e) if k}
    )
    if len(used) == ring.nvars:
        return ideal, local_dim
    free = ring.nvars - len(used)
    subring = PolyRing(tuple(ring.names[i] for i in used), ring.order)
    gens = [
        subring.from_terms({tuple(e[i] for i in used): c for e, c in g.terms.items()})
        for g in ideal.gens
    ]
    return PolyIdeal(subring, gens), local_dim - free


def hilbert_samuel_multiplicity(
    ideal: PolyIdeal,
    local_dim: int,
    max_columns: int = 400_000,
    extra: int = 3,
    max_extra: int = 9,
) -> int:
    """Multiplicity at the origin via the Hilbert-Samuel function, fitted
    by finite differences; extends the window until stable."""
    if ideal.gens:
        ideal, local_dim = _restrict_to_used_variables(ideal, local_dim)
        if local_dim < 0:
            raise ValueError("local dimension below the free-variable count")
    while True:
        k_max = local_dim + 1 + extra
        series = hilbert_samuel_series(ideal, k_max, max_columns=max_columns)
        fitted = fit_leading_coefficient(series, local_dim)
        if fitted is not None:
            return fitted
        if extra >= max_extra:
            raise RuntimeError(
                f"Hilbert-Samuel function not stabilized by k={k_max}: {series}"
            )
        extra += 2
