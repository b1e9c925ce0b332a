"""Invariants, completions and Picard data of forms of the affine line.

Exact computations over imperfect rational function fields F_p(t_1, ..., t_r):
p-power root towers, skew polynomial presentations of forms of the additive
group, weighted projective completions with genus oracles, and assembled
Picard-group reports.
"""

from .field import (
    BasisTooLarge,
    DivisionByZero,
    FieldDesc,
    FieldMismatch,
    MPoly,
    RatFunc,
    UnknownVariable,
    ZeroInput,
    compositum_degree,
    power_level,
)
from .forms import (
    FormPresentation,
    InvalidSubstitution,
    NValue,
    NotSeparable,
    PlaneModel,
    VariableClash,
    equation_holds,
    find_rational_point,
    generic_fiber_torsor,
    make_form,
    plane_model_residual,
    rationality_level,
    rewrite_plane_model,
    splitting_level,
)
from .picard import (
    InvariantReport,
    NotIrreducible,
    P1ComplementData,
    invariant_report,
    pic_p1_complement,
)
from .wproj import (
    InfinityData,
    TrivialTau,
    WeightedCurve,
    cech_h1_dim,
    genus_from_formula,
    hilbert_dim,
    is_regular_at_infinity,
    naive_completion,
    residue_from_plane_model,
)

__all__ = [
    "BasisTooLarge",
    "CatalogueResult",
    "DivisionByZero",
    "FieldDesc",
    "FieldMismatch",
    "FormPresentation",
    "InfinityData",
    "InvalidSubstitution",
    "InvariantReport",
    "MPoly",
    "NValue",
    "NotIrreducible",
    "NotSeparable",
    "P1ComplementData",
    "PlaneModel",
    "RatFunc",
    "TrivialTau",
    "UnknownVariable",
    "VariableClash",
    "WeightedCurve",
    "ZeroInput",
    "cech_h1_dim",
    "compositum_degree",
    "equation_holds",
    "find_rational_point",
    "generic_fiber_torsor",
    "genus_from_formula",
    "hilbert_dim",
    "invariant_report",
    "is_regular_at_infinity",
    "make_form",
    "naive_completion",
    "pic_p1_complement",
    "plane_model_residual",
    "power_level",
    "rationality_level",
    "residue_from_plane_model",
    "rewrite_plane_model",
    "run_catalogue",
    "splitting_level",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("CatalogueResult", "run_catalogue"):  # loaded when first named: analyze never reads it
        from . import catalogue
        return getattr(catalogue, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
