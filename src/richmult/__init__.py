"""Exact multiplicities of points on stratum varieties of Grassmannians
and odd quadrics, with an independent tangent-cone verification path."""

from .weyl import (
    CosetRep,
    GrassShape,
    RootIndex,
    bruhat_leq,
    chart_index_set,
    positive_root_indices,
)
from .poly import Polynomial, PolyRing
from .groebner import PolyIdeal, normal_form, reduced_groebner_basis
from .hilbert import HilbertData, hilbert_data, ideal_dimension
from .localmult import (
    hilbert_samuel_multiplicity,
    hilbert_samuel_series,
    multiplicity_at_origin,
)
from .charts import (
    AffinePoint,
    Chart,
    build_chart,
    is_cone_over_origin,
    opposite_ideal,
    point_from_matrix,
    richardson_ideal,
    schubert_ideal,
    translate_to_origin,
)
from .engine import (
    ChartContext,
    StratumInstance,
    SweepConfig,
    SweepResult,
    build_report,
    sample_points,
    verify_theorem,
)
from .quadric import (
    QuadricIndex,
    QuadricShape,
    quadric_report,
    quadric_sweep,
)
from .report import MultiplicityReport

__version__ = "0.1.0"
