"""Exact computation of standard and cellular bases for endomorphism
algebras of tilting modules over split quasi-hereditary algebras."""

from .linalg import Field, Matrix, Subspace
from .algebra import (
    AlgebraPresentation,
    ModuleRep,
    Morphism,
    algebra_radical,
    direct_sum,
    hom_space,
    krull_schmidt,
    module_head,
    module_radical,
    module_socle,
    simples_and_split_check,
)
from .highest_weight import (
    Registry,
    WeightPoset,
    ext1_dim,
    ext1_with_classes,
    ext2_dim,
    filtration_multiplicity,
    verify_standard_category,
)
from .tilting import (
    TiltingRegistry,
    TiltingTriple,
    indecomposable_tilting,
    tilting_summands,
    tilting_support,
    universal_extension,
)
from .standard_basis import (
    StandardBasisDatum,
    build_standard_basis,
    change_of_basis_unitriangular,
    extend_through_tilting,
    lift_through_tilting,
    structure_coefficients,
    verify_standard_axioms,
)
from .cells import (
    CellData,
    cell_module,
    classify_simples,
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
