"""Parsimonious linear interpolation of vertex functionals on finite
distributive lattices, with a signed (bipolar) extension and reference-level
aggregation on products of chains.

Everything is exact: values are ``fractions.Fraction`` throughout, and every
evaluation has an independent Moebius-form dual path it can be checked
against.
"""

from .errors import (
    BaseMismatch,
    ChoqlatError,
    ContradictoryValue,
    CycleDetected,
    DuplicateLabel,
    FileFormatError,
    InvalidDimensions,
    NegativeScore,
    NotALattice,
    NotAnElement,
    NotComparable,
    NotComplemented,
    NotDistributive,
    NotInBipolarExtension,
    NotInTile,
    NotMonotone,
    NotNonincreasing,
    NotNormalized,
    NotRegularMosaic,
    NotZeroOne,
    OutOfScale,
    ProfileNotInAnyTile,
    RedundantCover,
    SignConstraintViolated,
    SizeLimitExceeded,
    UnknownLabel,
    ValueOutOfRange,
)
from .poset import (
    Component,
    Poset,
    all_downsets,
    connected_components,
    downset_key,
    is_downset,
    linear_extension,
)
from .birkhoff import (
    BipolarElement,
    BirkhoffForm,
    DownsetLattice,
    bipolar_cover_pairs,
    bipolar_extension,
    explicit_poset,
    verify_distributive,
)
from .moebius import (
    GeneralizedCapacity,
    bipolar_moebius_function,
    bipolar_moebius_transform,
    bipolar_unanimity,
    bipolar_zeta_transform,
    lattice_moebius,
    moebius_transform,
    rota_moebius,
    unanimity,
    zeta_transform,
)
from .interpolation import (
    ChainDecomposition,
    Evaluation,
    Profile,
    choquet_classical,
    evaluate,
    moebius_form_eval,
    natural_extension,
    triangulate,
    zero_one_maxmin,
)
from .bipolar import (
    BipolarCapacity,
    BipolarProfile,
    Tile,
    admissible_vertex_pairs,
    bicapacity_choquet,
    bipolar_join_irreducibles,
    bipolar_leq,
    bipolar_moebius_form_eval,
    bipolar_natural_extension,
    embed_profile,
    evaluate_bipolar,
    is_regular_mosaic,
    psi,
    psi_inverse,
    select_tile,
    tile,
    tile_union,
)
from .kary import (
    GridSteps,
    LevelIndexing,
    ReferenceScale,
    bipolar_level_profile,
    build_kary_base,
    downset_to_node,
    grid_shape,
    grid_steps,
    interpolate_point,
    interpolate_signed_point,
    label_parts,
    level_label,
    level_profile,
    locate_point,
    locate_signed_point,
    node_to_downset,
)
from .rationals import as_fraction

__version__ = "0.1.0"
