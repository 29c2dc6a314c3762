"""gxcat: exact computations with graded fusion rings, group cohomology,
twisted doubles, and pointed crossed braided data."""

from .exact import CertReal, QuadReal, scalar_eq
from .groups import (
    ConjugacyData,
    FiniteGroup,
    GroupError,
    InvariantError,
    LinearCharacter,
    abelian_characters,
    build_group,
    conjugacy_data,
    cyclic,
    dihedral,
    product,
    quaternion8,
    symmetric,
)
from .chartab import character_table, irrep_dims, projective_irrep_dims, rep_fusion_data
from .cohomology import (
    CohomologyGroup,
    ResourceLimit,
    TorsionCocycle,
    brute_force_order,
    coboundary,
    cohomology_group,
    is_coboundary,
    is_cocycle,
    transgress,
    u1_cohomology,
)
from .fusion import (
    FusionError,
    GradedFusionRing,
    RingGAction,
    SectorReport,
    global_dim,
    invertible_sector_obstruction,
    pf_dims,
    picard,
    pointed_ring,
    sector_dims,
    tensor_power,
    trivial_action,
    validate_action,
    validate_ring,
)
from .gauging import (
    CrossedProductResult,
    EquivariantizationResult,
    crossed_product,
    equivariantize,
    orbit_stabilizer,
    perm_orbifold_picard,
    roundtrip_check,
)
from .pointed import (
    DoubleData,
    KirillovMatrix,
    PointedGXData,
    double_semion_pointed,
    enumerate_holomorphic,
    holomorphic_crossed,
    kirillov_S,
    pointed_deequivariantize,
    symmetric_pointed,
    toric_code_pointed,
    twisted_double,
    validate_pointed,
)
from .corpus import CorpusEntry, CorpusError, corpus_list, load_entry

__version__ = "0.1.0"
