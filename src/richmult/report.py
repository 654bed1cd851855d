"""The flat, JSON-ready record of one verification, shared by the
Grassmannian engine, the quadric family and the command line."""

from __future__ import annotations

from dataclasses import dataclass, fields
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
