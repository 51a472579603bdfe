"""Racks, quandles, their free products, quasimorphisms, and exact certificates."""

from .words import AbelianWord, GroupWord, WordParseError, abelianize, parse_abelian, parse_word
from .racks import (
    ComponentPartition,
    FiniteRack,
    GroupTable,
    RackValidationError,
    builtin_racks,
    components,
    conjugation_rack,
    cyclic_group,
    dihedral_quandle,
    is_generating,
    is_homomorphism,
    load_rack,
    rack_from_dict,
    rack_to_dict,
    symmetric_group,
    trivial_rack,
    validate_rack,
)
from .adjoint import (
    AdjointPresentation,
    FreeRackFactorModel,
    TrivialRackModel,
    express_generator,
    presentation,
    trivial_rack_model,
    verify_expression,
)
from .free_product import (
    FreeProductElement,
    FreeProductRack,
    SyllableWord,
    conjugate_form,
    equal,
    factorize,
    free_quandle,
    free_rack,
    parse_element,
    rack_op,
    reduce_element,
    render_element,
    trivial_product,
)
from .sampling import SamplerConfig, enumerate_syllable_words, make_rng, sample_element
from .quasimorphism import (
    Bounded2CocycleReport,
    HomogeneousEstimate,
    LambdaFamily,
    Sigma,
    bounded_2cocycle_check,
    brooks_qm,
    check_cocycle_diag,
    exponent_sum_hom,
    family_from_dict,
    family_to_dict,
    find_unboundedness_witness,
    group_defect_estimate,
    homogeneous_rack_qm,
    homogenize,
    homogenize_doubling,
    iota_family,
    rack_defect_estimate,
    rack_qm,
    rolli_qm,
    sign_family,
    v0_dim,
    witness_growth_table,
    zero_family,
)
from .cochain import (
    Coboundary,
    coboundary,
    coboundary_products_vanish,
    cohomology_dims,
    quandle_coboundary,
)
from .certify import (
    GrowthReport,
    IndependenceCertificate,
    boundedness_refutation,
    independence_certificate,
)
from .linalg import exact_rank

__version__ = "0.1.0"
