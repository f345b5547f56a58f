"""Exact matrix algebra over finite idempotent semirings.

The package verifies semiring axioms exhaustively, composes matrices over
the semiring as a category, and emits machine-checkable certificates,
cross-validated by a brute-force oracle, that an object x is dominated by
n^d: the identity matrix on the enumerated hom-set Hom(d, x) lies in the
rational span of the action matrices of endomorphisms of x factoring
through n^d.  All arithmetic on the field side is exact rational.
"""

from .certfile import parse_certificate, render_certificate
from .certifier import (CertBlock, Certificate, Factorization,
                        PreorderMapReport, VerificationReport, certify,
                        column_preorder, factor_through, pad_identity,
                        verify_certificate, verify_preorder_map)
from .domination import (ActionMatrix, OracleResult, WitnessReport,
                         action_matrix, assemble_witness,
                         endomorphisms_through, identity_in_span,
                         linear_combination, nonvanishing_coefficients,
                         span_oracle)
from .errors import (CapExceededError, FingerprintError, InternalCheckError,
                     ParseError, StructureError)
from .matcat import (HomEnumeration, Morphism, compose, dominates,
                     enumerate_hom, format_morphism, from_entry_vector,
                     hom_size, identity, zero_morphism)
from .semiring import (NaturalOrder, OrderLawReport, Semiring, Violation,
                       boolean_semiring, builtin_semiring, format_semiring,
                       natural_order, parse_semiring, table_hash,
                       tropical_semiring, verify_axioms, verify_order_laws)

__version__ = "0.1.0"

__all__ = [
    "ActionMatrix", "CapExceededError", "CertBlock", "Certificate",
    "Factorization", "FingerprintError", "HomEnumeration",
    "InternalCheckError", "Morphism", "NaturalOrder", "OracleResult",
    "OrderLawReport", "ParseError", "PreorderMapReport", "Semiring",
    "StructureError", "VerificationReport", "Violation", "WitnessReport",
    "action_matrix", "assemble_witness", "boolean_semiring",
    "builtin_semiring", "certify", "column_preorder", "compose",
    "dominates", "endomorphisms_through", "enumerate_hom",
    "factor_through", "format_morphism", "format_semiring",
    "from_entry_vector", "hom_size", "identity", "identity_in_span",
    "linear_combination", "natural_order", "nonvanishing_coefficients",
    "pad_identity", "parse_certificate", "parse_semiring",
    "render_certificate", "span_oracle", "table_hash", "tropical_semiring",
    "verify_axioms", "verify_certificate", "verify_order_laws",
    "verify_preorder_map", "zero_morphism",
]
