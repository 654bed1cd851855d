"""Multiplicity at the origin: the tangent-cone degree and a Hilbert-Samuel
oracle.

The multiplicity of an ideal vanishing at the origin is the degree of its
tangent cone, read off one Groebner basis by the homogenization route:
take a reduced basis under the ring's graded order, homogenize it with the
reserved variable t (which then generates the full homogenized ideal),
recompute a reduced basis under an order that ranks the t-degree above
everything else within each total degree, and drop t from its leading
monomials.  Those generate the leading ideal of the cone, whose degree is
the cone's.  A homogeneous basis is its own cone and needs no second run.
A caller that meets one cone many times, as a sweep does, passes a table
of Hilbert data, so that each cone's numerator is computed once.

The independent cross-check computes dim_Q k[x]/(I + m^k) by sparse exact
Gaussian elimination on truncated multiples of the generators, and fits
the leading coefficient of the eventual polynomial in k by finite
differences.  Each column is a monomial's integer code, whose top field is
the degree, so integer order on codes is a graded monomial order and the
code of a product is the sum of its factors' codes.  A row's lead is thus
its multiplier's code plus its generator's least code, known before the
row is built.  Rows are eliminated fraction-free over the integers.  A row
whose multiplier is a pivot of the earlier generators' rows is skipped
before it is built: it adds nothing to the row space.  The rows of one
multiplier degree whose leads are free are recorded there at once, by set
algebra, and a recorded row is built only when a later row reads it.  An
ideal of one generator needs no elimination: its pivots are counted in
closed form.  It shares no code path with the tangent-cone degree beyond
polynomial arithmetic.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import comb, gcd, lcm
from typing import Optional, Sequence

from .groebner import PolyIdeal, _support, reduced_groebner_basis
from .hilbert import hilbert_data
from .poly import PolyRing, mono_deg


class OriginNotOnVarietyError(ValueError):
    """A generator has a nonzero constant term."""


class OracleBudgetError(RuntimeError):
    """The Hilbert-Samuel elimination would exceed the configured size."""


# The Hilbert-Samuel oracle's column budget, and its window: the series
# runs to k = local_dim + 1 + extra, with extra = 3, 5, 7, 9 until stable.
_MAX_COLUMNS = 400_000
_FIRST_EXTRA = 3
_MAX_EXTRA = 9


def _check_vanishes_at_origin(ideal: PolyIdeal):
    for g in ideal.gens:
        if g.constant_term() != 0:
            raise OriginNotOnVarietyError(
                f"generator has constant term {g.constant_term()}: {g}"
            )


def multiplicity_at_origin(ideal: PolyIdeal, table: Optional[dict] = None) -> int:
    """Degree of the projectivized tangent cone at the origin (1 at a
    smooth point), read off one cone-order basis.

    1. Lazard: homogenize the reduced basis with t and compute the reduced
       basis of the homogenized ideal under the cone order.  There a
       homogenized element's leading monomial is a power of t times the
       grevlex leader of the element's lowest-degree part, so setting t = 1
       gives a standard basis of the ideal for the local degree order.
    2. The leading ideal of a standard basis for that order is the grevlex
       leading ideal of the tangent cone, the ideal of lowest forms.  Its
       generators are the leading monomials with t dropped.  A homogeneous
       basis is its own cone, and its leading monomials serve as they are.
    3. Macaulay: the cone and its leading ideal have the same Hilbert
       function, so the cone's degree is that of the monomial ideal.  The
       zero ideal has the numerator 1 and so degree 1.

    Every generator vanishes at the origin, so the ideal lies in the
    maximal ideal and no leading monomial is 1.  With a table the
    numerator of step 3 is read through it (``hilbert.hilbert_data``)."""
    _check_vanishes_at_origin(ideal)
    ring = ideal.ring
    basis = ideal.groebner()
    if all(g.is_homogeneous() for g in basis):
        leads = [g.leading_exps() for g in basis]
    else:
        hring = ring.homogenized()
        hbasis = reduced_groebner_basis([g.homogenize(hring) for g in basis])
        leads = [h.leading_exps()[1:] for h in hbasis]
    return hilbert_data(leads, ring.nvars, table).degree


# ---------------------------------------------------------------------------
# Hilbert-Samuel oracle
# ---------------------------------------------------------------------------


def hilbert_samuel_series(ideal: PolyIdeal, k_max: int) -> list[int]:
    """[dim k[x]/(I + m^k) for k = 1..k_max], by exact linear algebra.
    More columns than ``_MAX_COLUMNS``, the budget read at each call,
    raise ``OracleBudgetError``.

    Columns are the monomials of degree < k_max graded by degree; rows are
    the truncations of monomial multiples of the generators.  One leftmost-
    pivot elimination yields every k at once: the rank of the degree-< k
    truncation equals the number of pivots in columns of degree < k.

    A monomial's column is its code: x^e is packed into the integer
    sum(e_i * (k_max**i + k_max**n)), which is deg(e) * k_max**n plus the
    base-k_max number whose digits are the exponents.  Below degree k_max
    no exponent reaches k_max, so the digits are exact and their number is
    below k_max**n: codes compare by degree, then by the exponents of
    x_{n-1}, x_{n-2}, ... (lex).  When a product has degree < k_max, adding
    its factors' codes adds exponents that stay below k_max, so the sum
    never carries and is the product's code; when it has degree >= k_max,
    the sum is at least k_max**(n + 1), so one comparison truncates.  Since
    multiplying by x^a adds one code to both sides of a comparison, integer
    order on codes is a monomial order, graded by degree.

    Rows hold integers: each generator's terms of degree < k_max are scaled
    to coprime integers, which leaves the row space unchanged; each pivot
    row is stored primitive with a positive lead p, and a row with lead f
    is reduced as row * (p/g) - (f/g) * pivot with g = gcd(p, f).

    Neither choice can change the result.  The set of leading positions of
    a row space does not depend on how the space is reduced, nor on the
    order in which the rows are eliminated, and the rank of the degree-< k
    truncation counts those positions in the degree-< k columns.  So the
    series depends only on the columns being graded by degree, not on
    their order within a degree or on the arithmetic used.

    Nor can recording rows before they are built.  In a monomial order
    with lowest degree first, the lead of x^a * g is x^a times g's least
    term, which truncation never drops; so its column is the code of x^a
    plus g's least code, the first of g's sorted terms.  The rows of g are
    taken one degree of x^a at a time.  Those whose lead column is free are
    recorded there at once as (g's least code, g), the pivots an eager
    elimination makes of them; a record's multiplier is its column minus
    that code.  Then the rows whose lead column was taken are built and
    reduced in ascending order.  Taking the free rows first is only another
    order of elimination, so the pivot set is unchanged.  A record is
    built, primitive with a positive lead, when a reduction reaches it.

    Nor can skipping rows that add nothing to the row space (the F5
    criterion, Faugere 2002).  Before the rows of generator g are
    eliminated, the pivot columns left by the earlier generators are
    marked, and the row x^a * g is skipped when the column of x^a is
    marked.  A marked column is the lowest column of some h in the span of
    the earlier rows, which is the ideal they generate mod m^k_max; scale h
    so that x^a has coefficient 1.  Then x^a * g = (x^a - h) * g + h * g.
    Here h * g lies in the earlier ideal, so in the span of the earlier
    rows, and x^a - h is a combination of monomials x^c whose columns come
    after that of x^a.  By downward induction on the column, the rows kept
    span the same space, so the pivot set is unchanged.  Only the earlier
    generators' pivots may be marked, so the marks are a copy taken before
    g's first row: for a pivot of g's own rows, h * g is not known to lie
    in the span of the other rows.

    An ideal of one generator is counted without elimination: its rows
    are independent (comment below).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_vanishes_at_origin(ideal)
    n = ideal.ring.nvars
    if not ideal.gens:
        # No relations: the quotient dimension is the monomial count itself.
        return _series([0] * k_max, n)
    ncols = comb(k_max - 1 + n, n)
    if ncols > _MAX_COLUMNS:
        raise OracleBudgetError(f"{ncols} columns exceed the budget of {_MAX_COLUMNS}")
    top = k_max**n
    weights = [k_max**i + top for i in range(n)]
    limit = k_max * top
    # Each generator as integer terms (code, coefficient) of degree < k_max,
    # least code first; higher terms never reach a column.
    gens = []
    for g in ideal.gens:
        scale = lcm(*(c.denominator for c in g.terms.values()))
        terms = sorted(
            (sum(x * w for x, w in zip(e, weights)), c.numerator * (scale // c.denominator))
            for e, c in g.terms.items()
            if c and mono_deg(e) < k_max
        )
        if terms:
            content = gcd(*(c for _, c in terms))
            gens.append([(code, c // content) for code, c in terms])
    pivot_deg = [0] * k_max

    if len(gens) < 2:
        # One generator g of lowest degree d: k[x] is a domain, so a
        # nonzero h * g has lowest form h_low * g_d of degree deg(h_low) + d.
        # The rows x^a * g with deg(a) < k - d are thus independent mod
        # m^k, and the rank in degree < k is the number of such x^a: the
        # pivots of degree d + e are the comb(e + n - 1, n - 1) monomials of
        # degree e, and no row needs building.  With no generator left
        # below degree k_max there are no pivots at all.
        for terms in gens:
            d = terms[0][0] // top
            for e in range(k_max - d):
                pivot_deg[d + e] = comb(e + n - 1, n - 1)
        return _series(pivot_deg, n)

    # mults[e]: the codes of the monomials of degree e, as far as the
    # generator of least lowest degree multiplies.  Level e + 1 takes x_i
    # times the level-e monomials whose highest variable is at most i, so
    # it reaches each monomial once; 1 counts as having highest variable 0.
    level = [[0]] + [[]] * (n - 1)
    mults = [[0]]
    for _ in range(1, k_max - min(terms[0][0] for terms in gens) // top):
        level = [list(map(w.__add__, chain.from_iterable(level[: i + 1])))
                 for i, w in enumerate(weights)]
        mults.append(list(chain.from_iterable(level)))

    def row_of(a, terms):
        room = limit - a
        return {a + code: c for code, c in terms if code < room}

    def store(lead, row):
        content = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
        if content != 1:
            row = {col: v // content for col, v in row.items()}
        pivots[lead] = pivot = (row.pop(lead), row)
        return pivot

    # Column -> (lead, rest of the row), or, while unread, the record
    # (generator's least code, terms) of the row with that lead.
    pivots: dict[int, tuple] = {}
    for terms in gens:
        # The earlier generators' pivots, copied: the current generator's
        # row with a multiplier among them is redundant.
        marked = pivots.copy()
        low = terms[0][0]
        record = (low, terms)
        d = low // top
        for e in range(k_max - d):
            # The leads of the degree-e rows kept, each with the record of
            # its row; those whose column is taken are reduced below, and the
            # free ones are recorded at once.
            free = {a + low: record for a in mults[e] if a not in marked}
            taken = sorted(free.keys() & pivots.keys())
            for lead in taken:
                del free[lead]
            pivots.update(free)
            pivot_deg[d + e] += len(free)
            for start in taken:
                row = row_of(start - low, terms)
                while row:
                    lead = min(row)
                    pivot = pivots.get(lead)
                    if pivot is None:
                        store(lead, row)
                        pivot_deg[lead // top] += 1
                        break
                    p, rest = pivot
                    if type(rest) is list:
                        p, rest = store(lead, row_of(lead - p, rest))
                    f = row.pop(lead)
                    g = gcd(p, f)
                    if g != p:
                        scale = p // g
                        row = {col: v * scale for col, v in row.items()}
                    q = f // g
                    for col, v in rest.items():
                        s = row.get(col, 0) - q * v
                        if s:
                            row[col] = s
                        else:
                            del row[col]
    return _series(pivot_deg, n)


def _series(pivot_deg, n):
    """Monomials of degree < k minus pivots of degree < k, for k = 1.."""
    return [comb(k + n, n) - rank for k, rank in enumerate(accumulate(pivot_deg))]


def fit_leading_coefficient(values: Sequence[int], dim: int) -> Optional[int]:
    """Normalized top coefficient of the degree-`dim` polynomial the values
    eventually agree with: the stabilized `dim`-th forward difference.
    Returns None if the tail has not stabilized.

    The rule accepts once the last three `dim`-th differences agree (the
    last two when only two exist).  With values[i] = H(i + 1) for i < K,
    those differences read H(k) for k >= K - dim - 2.  The answer is right
    when H is a polynomial from the point where that tail starts, that is,
    when K - dim - 2 is at least the regularity index of H.  A series whose
    differences agree on the window before the regularity index and change
    after it would fool the rule; whether an ideal can do that is open.
    """
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
    used = sorted(_support(ideal.gens))
    if len(used) == ring.nvars:
        return ideal, local_dim
    free = ring.nvars - len(used)
    subring = PolyRing(tuple(ring.names[i] for i in used), ring.order)
    gens = [
        subring.from_terms({tuple(e[i] for i in used): c for e, c in g.terms.items()})
        for g in ideal.gens
    ]
    return PolyIdeal(subring, gens), local_dim - free


def hilbert_samuel_multiplicity(ideal: PolyIdeal, local_dim: int) -> int:
    """Multiplicity at the origin via the Hilbert-Samuel function, fitted
    by finite differences; extends the window until stable."""
    if ideal.gens:
        ideal, local_dim = _restrict_to_used_variables(ideal, local_dim)
        if local_dim < 0:
            raise ValueError("local dimension below the free-variable count")
    for extra in range(_FIRST_EXTRA, _MAX_EXTRA + 1, 2):
        k_max = local_dim + 1 + extra
        series = hilbert_samuel_series(ideal, k_max)
        fitted = fit_leading_coefficient(series, local_dim)
        if fitted is not None:
            return fitted
    raise RuntimeError(f"Hilbert-Samuel function not stabilized by k={k_max}: {series}")
