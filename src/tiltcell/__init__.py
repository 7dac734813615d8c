"""Exact computation of standard and cellular bases for endomorphism
algebras of tilting modules over split quasi-hereditary algebras."""

from .linalg import Field, Matrix, Subspace
from .algebra import (
    AlgebraPresentation,
    ModuleRep,
    Morphism,
    algebra_radical,
    cokernel,
    composition_multiplicity,
    direct_sum,
    hom_space,
    is_isomorphic,
    krull_schmidt,
    module_head,
    module_radical,
    module_socle,
    simples_and_split_check,
)
from .highest_weight import (
    Registry,
    WeightPoset,
    delta_filtration,
    ext1_dim,
    ext1_with_classes,
    ext1_witness_factor,
    ext2_dim,
    filtration_multiplicity,
    nabla_filtration,
    verify_standard_category,
)
from .tilting import (
    TiltingRegistry,
    TiltingTriple,
    indecomposable_tilting,
    is_tilting,
    tilting_support,
    universal_extension,
)
from .standard_basis import (
    HomFiltration,
    OppositeDatum,
    StandardBasisDatum,
    build_standard_basis,
    hom_filtration,
    change_of_basis_unitriangular,
    extend_through_tilting,
    hom_filtration_from_datum,
    hom_filtration_oracle,
    lift_through_tilting,
    phi_weight,
    structure_coefficients,
    verify_standard_axioms,
)
from .cells import (
    CellData,
    cell_module,
    cell_simple_module,
    classify_simples,
    co_cell_module,
    gram_matrix,
    is_semisimple_endalgebra,
)
from .duality import (
    AntiInvolution,
    DualityDatum,
    build_cellular_basis,
    check_standard_duality,
    dualize_module,
    fixed_point_data,
    fixed_point_for_tilting,
    fixed_point_iso,
    induced_involution,
)
from .docio import InputDocument, catalog_document, catalog_names, load_document, parse_document

__version__ = "0.1.0"
