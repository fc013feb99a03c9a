"""spiraldet: exact arithmetic for spiral-matrix determinant identities."""

from .exponent_algebra import (
    ExponentVector,
    Factored,
    LaurentPoly,
    ZeroCoordinateError,
    angle,
    bracket,
    evaluate,
    exponents,
    to_records,
    to_string,
)
from .spiral_builder import (
    LengthMismatchError,
    LinearForm,
    build_additive,
    build_bracket,
    build_bracket_xx,
    build_generalized_bracket,
    build_qpower,
    matrix_to_latex,
    matrix_to_text,
    numeric_theorem_matrix,
    shell_ordered,
    step_counts,
)
from .determinant_engine import (
    SizeGuardError,
    VerificationReport,
    WedgeFactorization,
    WedgeNotZeroError,
    det_bareiss_rational,
    det_cofactor,
    leading_minor_residues,
    leading_minors,
    numeric_matrix,
    verify_identity,
    wedge_eliminate_even,
    wedge_eliminate_odd,
)
from .closed_forms import (
    ReductionData,
    antidiagonal_entry_formulas,
    qreduction_check,
    reduction,
    theorem,
    thm1_even,
    thm1_odd,
    thm2_even,
    thm2_odd,
    thm3_even,
    thm3_odd,
    verify_reduction,
)
from .funceq import (
    RELATIONS,
    FamilyKind,
    FamilySpec,
    ResidualReport,
    UnclassifiableError,
    UnknownRelationError,
    check_relations,
    classify,
    eval_f,
    eval_g,
)
from .sequences import SequenceId, sequence_csv, term, verify_sequence

__version__ = "0.1.0"
