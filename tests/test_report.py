"""The JSON report writer against the stdlib encoder it replaces."""

import json
import typing
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from richmult.report import MultiplicityReport, reports_json


def stdlib_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


TEXT = st.text(st.sampled_from('a1.-/"\\ \n\x00é中\U0001f600'), max_size=5) | st.text(max_size=3)
SCALARS = {
    str: TEXT,
    int: st.integers(-3, 3) | st.integers(),
    bool: st.booleans(),
    dict: st.dictionaries(TEXT, TEXT | st.integers() | st.booleans() | st.none(), max_size=4),
}
HINTS = typing.get_type_hints(MultiplicityReport)
NAMES = [f.name for f in fields(MultiplicityReport)]
SLOTS = [name for name in NAMES if name != "point"]


def field_values(hint):
    """Values of a field's annotated type; an Optional field is sometimes None."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if args:
        return st.none() | SCALARS[args[0]]
    return SCALARS[hint]


REPORTS = st.builds(MultiplicityReport, **{name: field_values(HINTS[name]) for name in NAMES})


@st.composite
def report_lists(draw):
    """Lists of reports, some repeated with one slot set to 1 in one copy
    and to True in the other, the rest of the fields equal."""
    out = []
    for r in draw(st.lists(REPORTS, max_size=4)):
        out.append(r)
        if draw(st.booleans()):
            name = draw(st.sampled_from(SLOTS))
            out += [replace(r, **{name: 1}), replace(r, **{name: True})]
    return draw(st.permutations(out))


FIXED = MultiplicityReport(
    family="grassmannian", d=2, n=4, tau="12", w="24", v="12",
    point={"3.1": "0", "3.2": "-1/2"}, mu_w=2, mu_v=1, mu_wv_fast=2, mu_wv_oracle=2,
    deg_zw=2, deg_zv=1, deg_zwv=None, degree_product_ok=None,
    cone_schubert_over_point=True, cone_opposite_over_point=True,
    cone_richardson_over_origin=False, smooth_w=False, smooth_v=True, smooth_wv=False,
    agreement=True,
)


@settings(max_examples=150, deadline=None)
@given(report_lists())
@example([FIXED, replace(FIXED, deg_zv=True)])
@example([replace(FIXED, d=1), replace(FIXED, d=True, point={})])
@example([])
def test_writes_the_bytes_of_the_stdlib_encoder(reports):
    assert reports_json(reports) == stdlib_json(reports)


@pytest.mark.parametrize("reports", [
    [replace(FIXED, mu_w=Fraction(1, 2))],
    [replace(FIXED, mu_v=1), replace(FIXED, mu_v=Fraction(1))],
    [replace(FIXED, d=2), replace(FIXED, d=Fraction(2))],
    [replace(FIXED, point={"3.1": Fraction(0)})],
], ids=["a Fraction", "Fraction(1) after 1", "Fraction(2) in the head", "in the point"])
def test_a_fraction_raises_type_error(reports):
    """``json.dumps`` refuses a Fraction, and so does the writer, also
    where it equals and hashes like a value already written in its slot."""
    with pytest.raises(TypeError):
        stdlib_json(reports)
    with pytest.raises(TypeError):
        reports_json(reports)
