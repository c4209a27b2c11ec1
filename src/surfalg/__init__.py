"""Weighted surface algebras from triangulated surfaces.

Build the algebra of a directed triangulated surface (or an abstract
triangulation quiver), compute its invariants over an exact field, and
verify periodicity of its simple and bimodule resolutions by exact
linear algebra.
"""

from .fields import PrimeField, RationalField, QQ, field_from_json
from .quiver import (
    GData,
    QuiverValidationError,
    TriangulationQuiver,
    border,
    diagnose,
    g_structure,
    is_tetrahedral,
    quiver_isomorphisms,
    tetrahedral_reference,
    validate,
)
from .surface import (
    DirectedTriangulation,
    quiver_from_surface,
    surface_from_quiver,
    validate_surface,
)
from .algebra import (
    AlgebraTable,
    Presentation,
    build_algebra,
    cartan_matrix,
    defining_relations,
    dimension_report,
    dual_basis,
    gram_matrix,
    scaling_isomorphism_check,
    symmetrizing_form,
    tetrahedral_parameters,
    tetrahedral_scaling,
    verify_symmetrizing_form,
)
from .modules import (
    ModuleMap,
    RightModule,
    hom_space,
    module_iso,
    projective_module,
    simple_module,
    syzygy,
    uniserial_module,
    uniserial_period_check,
    uniserial_period_checks,
    verify_simple_resolution,
)
from .bimodule import bimodule_dims, verify_bimodule_periodicity
from .reptype import (
    bipartite_walk_report,
    classify_growth,
    is_walk,
    nonpolynomial_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraTable",
    "DirectedTriangulation",
    "GData",
    "ModuleMap",
    "Presentation",
    "PrimeField",
    "QQ",
    "QuiverValidationError",
    "RationalField",
    "RightModule",
    "TriangulationQuiver",
    "bimodule_dims",
    "bipartite_walk_report",
    "border",
    "build_algebra",
    "cartan_matrix",
    "classify_growth",
    "defining_relations",
    "diagnose",
    "dimension_report",
    "dual_basis",
    "field_from_json",
    "g_structure",
    "gram_matrix",
    "hom_space",
    "is_tetrahedral",
    "is_walk",
    "module_iso",
    "nonpolynomial_witness",
    "projective_module",
    "quiver_from_surface",
    "quiver_isomorphisms",
    "scaling_isomorphism_check",
    "simple_module",
    "surface_from_quiver",
    "symmetrizing_form",
    "syzygy",
    "tetrahedral_parameters",
    "tetrahedral_reference",
    "tetrahedral_scaling",
    "uniserial_module",
    "uniserial_period_check",
    "uniserial_period_checks",
    "validate",
    "validate_surface",
    "verify_bimodule_periodicity",
    "verify_simple_resolution",
    "verify_symmetrizing_form",
    "__version__",
]
