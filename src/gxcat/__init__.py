"""gxcat: exact computations with graded fusion rings, group cohomology,
twisted doubles, and pointed crossed braided data.

The names below are resolved on first use (PEP 562), so ``import gxcat``
loads no submodule and no numpy; ``gxcat.fusion`` and the other layers
are imported by the first access that needs them.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "exact": ("CertReal", "QuadReal", "scalar_eq"),
    "errors": ("CorpusError", "FusionError", "GroupError", "InvariantError", "ResourceLimit"),
    "groups": (
        "ConjugacyData",
        "FiniteGroup",
        "LinearCharacter",
        "abelian_characters",
        "build_group",
        "conjugacy_data",
        "cyclic",
        "dihedral",
        "orbit_labels",
        "product",
        "quaternion8",
        "symmetric",
    ),
    "chartab": ("character_table", "irrep_dims", "projective_irrep_dims", "rep_fusion_data"),
    "cohomology": (
        "CohomologyGroup",
        "TorsionCocycle",
        "coboundary",
        "cohomology_group",
        "is_coboundary",
        "is_cocycle",
        "transgress",
        "u1_cohomology",
    ),
    "fusion": (
        "GradedFusionRing",
        "RingGAction",
        "SectorReport",
        "global_dim",
        "invertible_sector_obstruction",
        "pf_dims",
        "picard",
        "pointed_ring",
        "sector_dims",
        "tensor_power",
        "trivial_action",
        "validate_action",
        "validate_ring",
    ),
    "gauging": (
        "CrossedProductResult",
        "EquivariantizationResult",
        "crossed_product",
        "equivariantize",
        "orbit_stabilizer",
        "perm_orbifold_picard",
        "roundtrip_check",
    ),
    "pointed": (
        "DoubleData",
        "KirillovMatrix",
        "PointedGXData",
        "double_semion_pointed",
        "enumerate_holomorphic",
        "holomorphic_crossed",
        "kirillov_S",
        "pointed_deequivariantize",
        "toric_code_pointed",
        "twisted_double",
        "validate_pointed",
    ),
    "corpus": ("CorpusEntry", "corpus_list", "load_entry"),
    "cyclo": (),
    "snf": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
