"""koszulcat: exact-arithmetic homological algebra for monoids in functor categories.

Desk-scale computer algebra over Q or F_p: validated symmetric monoidal
category presentations, monoids and modules given by bilinear pairings,
Koszul complexes with regularity certificates, Hochschild cohomology of
polynomial monoids, and split syzygy resolutions.  Every theorem-level claim
is emitted as a replayable certificate.
"""

from .category import (
    CategoryPresentation,
    Representation,
    day_convolution,
    day_tensor,
    identity_representation,
    validate_presentation,
    validate_representation,
)
from .field import Field, QQ
from .hochschild import (
    build_enveloping,
    certify_tensor_idempotent,
    hochschild_cohomology,
    koszul_bimodule_resolution,
    polynomial_over,
)
from .koszul import build_koszul, check_resolution, pascal_split
from .matrix import Matrix, Subspace, image, kernel, quotient, section_of_surjection
from .monoid import (
    Element,
    Module,
    Monoid,
    commutant,
    generated_submodule,
    identity_monoid,
    is_regular,
    is_regular_sequence,
    monoid_from_table,
    mult_operator,
    quotient_module,
    regular_bimodule,
    scalar_monoid,
    validate_module,
    validate_monoid,
)
from .poly import merge_variables, polynomial_monoid, variable_element
from .report import GradedReport, ValidationReport
from .tensor import (
    build_syzygy_resolution,
    syzygy_resolution,
    tensor_over_monoid,
)

__version__ = "0.1.0"

__all__ = [
    "CategoryPresentation",
    "Representation",
    "day_convolution",
    "day_tensor",
    "identity_representation",
    "validate_presentation",
    "validate_representation",
    "Field",
    "QQ",
    "build_enveloping",
    "certify_tensor_idempotent",
    "hochschild_cohomology",
    "koszul_bimodule_resolution",
    "polynomial_over",
    "build_koszul",
    "check_resolution",
    "pascal_split",
    "Matrix",
    "Subspace",
    "image",
    "kernel",
    "quotient",
    "section_of_surjection",
    "Element",
    "Module",
    "Monoid",
    "commutant",
    "generated_submodule",
    "identity_monoid",
    "is_regular",
    "is_regular_sequence",
    "monoid_from_table",
    "mult_operator",
    "quotient_module",
    "regular_bimodule",
    "scalar_monoid",
    "validate_module",
    "validate_monoid",
    "merge_variables",
    "polynomial_monoid",
    "variable_element",
    "GradedReport",
    "ValidationReport",
    "build_syzygy_resolution",
    "syzygy_resolution",
    "tensor_over_monoid",
    "__version__",
]
