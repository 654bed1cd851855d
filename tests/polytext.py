"""The text format of ``str(Polynomial)`` and ``charts.format_ideal`` read
back, for tests: ``richmult`` prints polynomials and ideals but never
parses them."""

import re
from fractions import Fraction
from typing import Optional

from richmult.groebner import PolyIdeal
from richmult.poly import Polynomial, PolyRing


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
    index = {name: i for i, name in enumerate(ring.names)}
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
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            power = 1
            if i + 2 < len(tokens) and tokens[i + 1].group("op") == "^":
                num = tokens[i + 2].group("num")
                if num is None or "/" in num:
                    raise ValueError("exponent must be a nonnegative integer")
                power = int(num)
                i += 2
            factor_exps[index[name]] += power
            i += 1
            continue
        raise ValueError(f"unexpected token {tok.group(0)!r}")
    flush()
    return result


def parse_ideal(ring: PolyRing, text: str) -> PolyIdeal:
    """One generator per line, as ``format_ideal`` prints them; "0" and
    blank lines add none."""
    gens = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "0":
            continue
        gens.append(parse_polynomial(ring, line))
    return PolyIdeal(ring, gens)
