"""The flat, JSON-ready record of one verification, shared by the
Grassmannian engine, the quadric family and the command line, and the
writer of its JSON files.

:func:`reports_json` writes the command line's JSON reports with the
bytes of ``json.dumps([r.to_dict() for r in reports], indent=2) + "\\n"``.
With ``indent`` set, CPython runs its pure-Python encoder, so the writer
fills templates instead: the fields before ``point`` and those after it
are each one ``%`` template, built from the dataclass fields at import,
and every scalar is encoded by its exact type, strings by the stdlib's C
``ensure_ascii`` encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional


@dataclass(frozen=True)
class MultiplicityReport:
    """Flat, JSON-ready record of one (w, v, tau, point) verification."""

    family: str
    d: int
    n: int
    tau: str
    w: str
    v: str
    point: dict
    mu_w: int
    mu_v: int
    mu_wv_fast: int
    mu_wv_oracle: int
    deg_zw: Optional[int]
    deg_zv: Optional[int]
    deg_zwv: Optional[int]
    degree_product_ok: Optional[bool]
    cone_schubert_over_point: Optional[bool]
    cone_opposite_over_point: Optional[bool]
    cone_richardson_over_origin: Optional[bool]
    smooth_w: bool
    smooth_v: bool
    smooth_wv: bool
    agreement: bool

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["point"] = dict(self.point)
        return out

    def sort_key(self):
        return (
            self.family,
            self.d,
            self.n,
            self.w,
            self.v,
            self.tau,
            sorted(self.point.items()),
        )


_NAMES = [f.name for f in fields(MultiplicityReport)]
_HEAD = _NAMES[:_NAMES.index("point")]
_TAIL = _NAMES[_NAMES.index("point") + 1:]
# Field names are ASCII identifiers, which JSON writes between quotes as
# they are.
_HEAD_TEMPLATE = "  {\n" + "".join(f'    "{name}": %s,\n' for name in _HEAD) + '    "point": '
_TAIL_TEMPLATE = "".join(f',\n    "{name}": %s' for name in _TAIL) + "\n  }"


def _scalar(value, encode_str) -> str:
    """One field or point value as ``json.dumps`` writes it; a type it
    would not write raises TypeError, as it does."""
    kind = type(value)
    if kind is str:
        return encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def reports_json(reports) -> str:
    """The reports as ``json.dumps([r.to_dict() for r in reports],
    indent=2) + "\\n"`` writes them, byte for byte.  Point keys must be
    strings.

    Sweeps repeat the fields before and after ``point`` from report to
    report, so each distinct tuple of them is encoded once per call.  A
    tuple is keyed by its values and their types: ``1 == True`` and both
    hash alike, but JSON writes them differently."""
    # Imported here, not at module level: ``import richmult`` loads no json.
    from json.encoder import encode_basestring_ascii as encode_str

    if not reports:
        return "[]\n"
    head_of, tail_of = attrgetter(*_HEAD), attrgetter(*_TAIL)
    heads: dict = {}
    tails: dict = {}

    def encoded(values, template, texts):
        key = values, tuple(map(type, values))
        text = texts.get(key)
        if text is None:
            text = texts[key] = template % tuple(_scalar(v, encode_str) for v in values)
        return text

    items = []
    for r in reports:
        if r.point:
            body = ",\n      ".join(
                f"{encode_str(k)}: {_scalar(v, encode_str)}" for k, v in r.point.items()
            )
            point = "{\n      " + body + "\n    }"
        else:
            point = "{}"
        items.append(
            encoded(head_of(r), _HEAD_TEMPLATE, heads) + point
            + encoded(tail_of(r), _TAIL_TEMPLATE, tails)
        )
    return "[\n" + ",\n".join(items) + "\n]\n"
