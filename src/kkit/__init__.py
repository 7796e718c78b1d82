"""Local classification of convex bodies from plane sections.

Given a convex body (gauge oracle) and a connected open region of k-planes,
decide whether every section in the region comes from an ellipsoid, from a
cylinder, or from neither, and reconstruct the witness: the quadratic form or
the generatrix.  A second pipeline verifies pairwise linear equivalence of
sections before classifying.
"""

from .banach import (
    EquivalenceWitness,
    RTensor,
    TangencyReport,
    banach_classify,
    linear_equivalent_sections,
    quadratic_field,
    verify_R_tangency,
)
from .bodies import (
    Body,
    Cylinder,
    Ellipsoid,
    Intersection,
    LinearImage,
    PBall,
    Polytope,
    SectionBody,
    SectionSample,
    section_samples,
)
from .classifier import (
    ClassificationReport,
    ClassifyOptions,
    ConstantLine,
    Injective,
    PhiSample,
    ProjectiveDual,
    classify,
    fit_projective_dual,
    injectivity_test,
    phi_map,
    reduce_pair,
    support_check,
    tangent_field_fit,
)
from .contracting import (
    ContractionCertificate,
    DirectionSearchResult,
    cylinder_contains,
    find_contracting_direction,
    is_contracting,
    shared_generatrix_cylinder,
)
from .linalg import GrassmannChart, Subspace, random_subspace, sphere_directions
from .quadform import (
    SymmetricForm,
    assemble_form,
    compatible_basis,
    fit_section_quadric,
    reconstruct_global_form,
    verify_form,
)

__version__ = "0.1.0"

__all__ = [
    "Body",
    "Cylinder",
    "Ellipsoid",
    "Intersection",
    "LinearImage",
    "PBall",
    "Polytope",
    "SectionBody",
    "SectionSample",
    "section_samples",
    "Subspace",
    "GrassmannChart",
    "random_subspace",
    "sphere_directions",
    "ContractionCertificate",
    "DirectionSearchResult",
    "is_contracting",
    "cylinder_contains",
    "find_contracting_direction",
    "shared_generatrix_cylinder",
    "SymmetricForm",
    "assemble_form",
    "verify_form",
    "fit_section_quadric",
    "compatible_basis",
    "reconstruct_global_form",
    "ClassificationReport",
    "ClassifyOptions",
    "ConstantLine",
    "Injective",
    "PhiSample",
    "ProjectiveDual",
    "classify",
    "reduce_pair",
    "phi_map",
    "injectivity_test",
    "fit_projective_dual",
    "support_check",
    "tangent_field_fit",
    "RTensor",
    "EquivalenceWitness",
    "TangencyReport",
    "quadratic_field",
    "linear_equivalent_sections",
    "verify_R_tangency",
    "banach_classify",
    "__version__",
]
