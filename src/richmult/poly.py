"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are dense exponent tuples (the rings here have at most ~13
variables); polynomials map exponent tuples to nonzero Fractions.  Term
orders are graded and realized as sort keys, so the leading term of a
polynomial is a plain ``max``.

The name ``t`` is reserved for the homogenization variable and rejected in
user rings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

GREVLEX = "grevlex"
GRLEX = "grlex"
# Graded order on a homogenized ring: total degree first, then the
# homogenization variable's exponent (higher wins), grevlex on the rest.
# Within each total degree the t-power dominates, which is what makes
# leading terms of homogenized polynomials pick out lowest-degree forms.
CONE = "cone-grevlex"

HOMOGENIZATION_VARIABLE = "t"

Exps = tuple  # exponent tuple, one slot per ring variable


def mono_mul(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exps, b: Exps) -> Exps:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Exps) -> int:
    return sum(a)


class PolyRing:
    """A polynomial ring: variable names plus a graded term order."""

    __slots__ = ("names", "order", "nvars", "_index", "_zero_exps", "_key")

    def __init__(self, names: Sequence[str], order: str = GREVLEX, _internal: bool = False):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if not _internal and HOMOGENIZATION_VARIABLE in names:
            raise ValueError(f"variable name {HOMOGENIZATION_VARIABLE!r} is reserved")
        if order not in (GREVLEX, GRLEX, CONE):
            raise ValueError(f"unknown term order {order!r}")
        if order == CONE and (not _internal or names[0] != HOMOGENIZATION_VARIABLE):
            raise ValueError("cone order is only for homogenized rings")
        self.names = names
        self.order = order
        self.nvars = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self._zero_exps = (0,) * self.nvars
        if order == GREVLEX:
            self._key = self._key_grevlex
        elif order == GRLEX:
            self._key = self._key_grlex
        else:
            self._key = self._key_cone

    # Sort keys: larger key = larger monomial.  Variables earlier in
    # `names` are the larger ones.
    def _key_grevlex(self, e: Exps):
        return (sum(e), tuple(-x for x in reversed(e)))

    def _key_grlex(self, e: Exps):
        return (sum(e), e)

    def _key_cone(self, e: Exps):
        return (sum(e), e[0], tuple(-x for x in reversed(e[1:])))

    def key(self, e: Exps):
        return self._key(e)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.order))

    def __repr__(self):
        return f"PolyRing({list(self.names)}, order={self.order!r})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self._zero_exps: c})

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def var_named(self, name: str) -> "Polynomial":
        return self.var(self._index[name])

    def from_terms(self, terms: Mapping[Exps, Fraction]) -> "Polynomial":
        clean = {e: Fraction(c) for e, c in terms.items() if c != 0}
        return Polynomial(self, clean)

    def homogenized(self) -> "PolyRing":
        """The same ring with the reserved variable t prepended, under the
        cone order (t-degree dominant within each total degree)."""
        return PolyRing((HOMOGENIZATION_VARIABLE,) + self.names, CONE, _internal=True)


class Polynomial:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lead = None

    # -- basic predicates ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_deg(e) == 0 for e in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(self.ring._zero_exps, Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(mono_deg(e) for e in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(mono_deg(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {mono_deg(e) for e in self.terms}
        return len(degs) == 1

    # -- leading data ----------------------------------------------------
    def leading_exps(self) -> Exps:
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            self._lead = max(self.terms, key=self.ring.key)
        return self._lead

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_exps()]

    def sorted_terms(self) -> list:
        """Terms in descending order of the ring's term order."""
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e)
            if s is None:
                res[e] = c
            else:
                s = s + c
                if s:
                    res[e] = s
                else:
                    del res[e]
        return Polynomial(self.ring, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        res: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = res.get(e)
                if s is None:
                    res[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        res[e] = s
                    else:
                        del res[e]
        return Polynomial(self.ring, res)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return self.ring.const(other)

    # -- structure ---------------------------------------------------------
    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part."""
        parts: dict = {}
        for e, c in self.terms.items():
            parts.setdefault(mono_deg(e), {})[e] = c
        return {d: Polynomial(self.ring, te) for d, te in sorted(parts.items())}

    def lowest_form(self) -> "Polynomial":
        """The homogeneous component of minimal degree."""
        if not self.terms:
            return self
        d0 = self.min_degree()
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if mono_deg(e) == d0}
        )

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.ring.nvars:
            raise ValueError("value count mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(values, e):
                if k:
                    v *= x**k
            total += v
        return total

    def shift(self, offsets: Sequence[Fraction], target: Optional[PolyRing] = None) -> "Polynomial":
        """Substitute x_i -> x_i + offsets[i], optionally landing in a ring
        with different names (same order and arity)."""
        ring = target if target is not None else self.ring
        if ring.nvars != self.ring.nvars:
            raise ValueError("ring arity mismatch")
        offsets = [Fraction(o) for o in offsets]
        out = ring.zero()
        for e, c in self.terms.items():
            # Powers of coordinates with a zero offset stay as they are.
            term = Polynomial(ring, {tuple(0 if offsets[i] else k for i, k in enumerate(e)): c})
            for i, k in enumerate(e):
                if k and offsets[i]:
                    factor = ring.var(i) + ring.const(offsets[i])
                    term = term * factor**k
            out = out + term
        return out

    def derivative(self, i: int) -> "Polynomial":
        res: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = list(e)
                e2[i] = k - 1
                e2 = tuple(e2)
                res[e2] = res.get(e2, Fraction(0)) + c * k
        return Polynomial(self.ring, {e: c for e, c in res.items() if c})

    # -- normal forms of the coefficients ---------------------------------
    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return Polynomial(self.ring, {e: c / lc for e, c in self.terms.items()})

    def primitive(self) -> "Polynomial":
        """Remove rational content and make the leading coefficient positive;
        the result has coprime integer coefficients."""
        if not self.terms:
            return self
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        factor = Fraction(den, num)
        if self.leading_coeff() < 0:
            factor = -factor
        return Polynomial(self.ring, {e: c * factor for e, c in self.terms.items()})

    # -- homogenization ----------------------------------------------------
    def homogenize(self, target: PolyRing) -> "Polynomial":
        """Homogenize with the target ring's first variable (the reserved t)."""
        if target.nvars != self.ring.nvars + 1:
            raise ValueError("target is not the homogenized ring")
        if not self.terms:
            return target.zero()
        deg = self.total_degree()
        return Polynomial(
            target, {(deg - mono_deg(e),) + e: c for e, c in self.terms.items()}
        )

    def dehomogenize(self, target: PolyRing) -> "Polynomial":
        """Set the first variable to 1, dropping it."""
        if target.nvars != self.ring.nvars - 1:
            raise ValueError("target arity mismatch")
        res: dict = {}
        for e, c in self.terms.items():
            e2 = e[1:]
            s = res.get(e2)
            res[e2] = c if s is None else s + c
        return Polynomial(target, {e: c for e, c in res.items() if c})

    # -- display -----------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e)
                if k
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<{self}>"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Parse the textual format produced by ``str(poly)``.

    Grammar: sum of terms, each a '*'-separated product of rationals and
    powers ``name^k``.  Unary minus is allowed at the start and after
    '+'/'-'.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()

    result = ring.zero()
    sign = 1
    factor_coeff: Optional[Fraction] = None
    factor_exps: Optional[list] = None

    def flush():
        nonlocal result, sign, factor_coeff, factor_exps
        if factor_coeff is None:
            return
        if factor_coeff != 0:
            result = result + Polynomial(
                ring, {tuple(factor_exps): Fraction(sign) * factor_coeff}
            )
        sign = 1
        factor_coeff = None
        factor_exps = None

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.group("op") in ("+", "-"):
            flush()
            if tok.group("op") == "-":
                sign = -sign
            i += 1
            continue
        if tok.group("op") == "*":
            i += 1
            continue
        if factor_coeff is None:
            factor_coeff = Fraction(1)
            factor_exps = [0] * ring.nvars
        if tok.group("num"):
            factor_coeff *= Fraction(tok.group("num"))
            i += 1
            continue
        if tok.group("name"):
            name = tok.group("name")
            if name not in ring._index:
                raise ValueError(f"unknown variable {name!r}")
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1].group("op") == "^":
                num = tokens[i + 2].group("num")
                if num is None or "/" in num:
                    raise ValueError("exponent must be a nonnegative integer")
                power = int(num)
                i += 2
            factor_exps[ring._index[name]] += power
            i += 1
            continue
        raise ValueError(f"unexpected token {tok.group(0)!r}")
    flush()
    return result
