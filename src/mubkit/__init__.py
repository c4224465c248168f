"""mubkit: exact mutually orthogonal extraordinary supersquares and
mutually unbiased bases for multi-qubit systems."""

from .gf2n import (
    DEFAULT_POLYS,
    Field,
    FieldBasis,
    FieldElement,
    default_selfdual_basis,
    dual_basis,
    field_for_dimension,
    is_selfdual,
)
from .phasespace import (
    Point,
    Subgroup,
    all_points,
    det,
    enumerate_extraordinary_subgroups,
    is_extraordinary,
    line,
    trace_zero_subgroup,
    zero_point,
)
from .squares import (
    CompleteSet,
    CompleteSetReport,
    SearchResult,
    Square,
    SquareKind,
    SquareReport,
    Supersquare,
    are_orthogonal,
    classify,
    complete_set_templates,
    is_physical_striation,
    is_supersquare,
    perturb_supersquare,
    render_ascii,
    search_complete_sets,
    supersquare_from_subgroup,
    type_I_set,
    type_II_set_d4,
    type_II_set_d8,
    type_III_set_d8,
    type_IV_set_d8,
    verify_complete_set,
    verify_square,
    verify_squares,
)
from .pauli import (
    GaussInt,
    PauliWord,
    trace_condition,
)
from .mub import (
    BIPARTITIONS,
    ConstructionError,
    EntanglementStructure,
    MubBasis,
    MubSet,
    Separability,
    UnnormalizedState,
    apply_correspondence,
    build_mub_set,
    certify_bases,
    classify_basis,
    common_eigenbasis,
    is_unbiased_pair,
    rank_profile,
    schmidt_rank,
    separability,
    structure,
)

__version__ = "0.1.0"
