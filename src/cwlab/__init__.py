"""cwlab: exact zero-counting over finite fields, with congruence and bound checkers."""

from .counting import CountReport, count_zeros, count_zeros_ext, counts_over_parallel_class
from .errors import CwlabError
from .fields import FieldSpec, build_field, embed_subfield
from .geometry import DimensionEstimate, estimate_dimension, linear_factor_test
from .laws import (
    CheckScope, LawReport, check_congruence, covering_bound_report, homogenization_identity,
    lower_bound_audit, saturated_set_check, saturated_set_exhaustive,
)
from .polynomials import MultiPoly, PolySystem, parse_poly, restrict_to_subspace
from .subspaces import AffineSubspace, PointSet, affine_span

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "CheckScope",
    "CountReport",
    "CwlabError",
    "DimensionEstimate",
    "FieldSpec",
    "LawReport",
    "MultiPoly",
    "PointSet",
    "PolySystem",
    "affine_span",
    "build_field",
    "check_congruence",
    "count_zeros",
    "count_zeros_ext",
    "counts_over_parallel_class",
    "covering_bound_report",
    "embed_subfield",
    "estimate_dimension",
    "homogenization_identity",
    "linear_factor_test",
    "lower_bound_audit",
    "parse_poly",
    "restrict_to_subspace",
    "saturated_set_check",
    "saturated_set_exhaustive",
]
