"""Hilbert series of monomial ideals; dimension and degree extraction.

The numerator N(t) of the series N(t)/(1-t)^k of k[x_1..x_k]/M is computed
by pivot splitting: N(M) = N(M + (p)) + t^deg(p) * N(M : p) with a single
variable as pivot.  Writing N(t) = (1-t)^s * Q(t) with Q(1) != 0, the
quotient has Krull dimension k - s and degree Q(1).

The data depend only on the monomial ideal and the number of variables.
So a caller that meets one monomial ideal many times, as a sweep does,
passes a table (a dict) to :func:`hilbert_data` and each numerator is
computed once per table; a lookup returns exactly what a fresh call would.
"""

from __future__ import annotations

from typing import Iterable, Optional

from dataclasses import dataclass
from itertools import accumulate

from .groebner import PolyIdeal
from .poly import Exps, minimalize_monomials, mono_deg


def _poly_mul(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


def _poly_add_shifted(a: tuple, b: tuple, shift: int) -> tuple:
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def hilbert_numerator(gens: Iterable[Exps], nvars: int) -> tuple[int, ...]:
    """Coefficients of N(t) for the monomial ideal generated by gens."""

    def recurse(mons: list) -> tuple:
        if not mons:
            return (1,)
        if any(mono_deg(e) == 0 for e in mons):
            return (0,)  # unit ideal: zero quotient
        purity = [sum(1 for x in e if x) for e in mons]
        if all(p == 1 for p in purity):
            # Pairwise coprime pure powers: complete intersection.
            result = (1,)
            for e in mons:
                d = mono_deg(e)
                factor = [0] * (d + 1)
                factor[0] = 1
                factor[d] = -1
                result = _poly_mul(result, tuple(factor))
            return result
        # Pivot on the most shared variable of a mixed generator, so the
        # split strictly shrinks both branches.
        counts = [0] * nvars
        for e, pure in zip(mons, purity):
            if pure > 1:
                for i, x in enumerate(e):
                    if x:
                        counts[i] += 1
        pivot = max(range(nvars), key=lambda i: counts[i])
        # M + (x_pivot): drop generators divisible by the pivot.
        plus = [e for e in mons if e[pivot] == 0]
        plus.append(tuple(1 if i == pivot else 0 for i in range(nvars)))
        # M : x_pivot.
        colon = minimalize_monomials(
            tuple(x - 1 if i == pivot and x else x for i, x in enumerate(e))
            for e in mons
        )
        return _poly_add_shifted(recurse(plus), recurse(colon), 1)

    return recurse(minimalize_monomials(gens))


@dataclass(frozen=True)
class HilbertData:
    """Reduced series numerator plus the dimension/degree it encodes: the
    series of the quotient is numerator(t) / (1-t)^dimension with
    numerator(1) = degree != 0."""

    numerator: tuple[int, ...]
    nvars: int
    dimension: int
    degree: int


def hilbert_data(gens: Iterable[Exps], nvars: int, table: Optional[dict] = None) -> HilbertData:
    """Hilbert data of the monomial ideal generated by gens.  With a table
    they are read from it, keyed by (frozenset(gens), nvars), and computed
    and stored there on a miss."""
    if table is not None:
        key = frozenset(gens), nvars
        data = table.get(key)
        if data is None:
            data = table[key] = hilbert_data(key[0], nvars)
        return data
    raw = hilbert_numerator(gens, nvars)
    if raw == (0,):
        raise ValueError("unit ideal has no Hilbert data")
    reduced = list(raw)
    strips = 0
    while sum(reduced) == 0:
        if not any(reduced):
            raise ValueError(f"zero Hilbert numerator {raw}")
        # Divide by (1 - t): the quotient's coefficients are the partial
        # sums; the last partial sum is the remainder N(1) = 0.
        reduced = list(accumulate(reduced))[:-1]
        strips += 1
    while len(reduced) > 1 and reduced[-1] == 0:
        reduced.pop()
    degree = sum(reduced)
    if degree <= 0:
        raise ValueError(f"non-positive degree from numerator {raw}")
    return HilbertData(
        numerator=tuple(reduced),
        nvars=nvars,
        dimension=nvars - strips,
        degree=degree,
    )


def ideal_hilbert_data(ideal: PolyIdeal, table: Optional[dict] = None) -> HilbertData:
    """Hilbert data of the leading-term ideal of a polynomial ideal, read
    through ``table`` when one is given (:func:`hilbert_data`)."""
    if ideal.is_unit():
        raise ValueError("unit ideal has no Hilbert data")
    return hilbert_data(ideal.leading_exponents(), ideal.ring.nvars, table)


def ideal_dimension(ideal: PolyIdeal) -> int:
    """Affine Krull dimension of ring/I (for graded orders this equals the
    dimension of the leading-term quotient)."""
    return ideal_hilbert_data(ideal).dimension
