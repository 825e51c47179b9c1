"""Verification and audit toolkit for measurement limits under multiplicative
conservation laws: model checks, an executable no-go verdict, noise lower
bounds with a numerical validity audit, and constrained search over conserving
unitaries."""

__version__ = "0.1.0"

from .commutant import (
    Block,
    BlockDecomposition,
    SearchConfig,
    SearchResult,
    conserved_eigenspaces,
    default_probe_states,
    feasibility_search,
    minimize_epsilon,
    project_generator,
    random_commutant_unitary,
)
from .errors import DegeneratePointerError, PreconditionError
from .linalg import (
    ValidationReport,
    anti_hermitian_exp,
    commutator,
    expectation,
    hermitian_eigensystem,
    numerical_rank,
    random_haar_unitary,
    tensor_product,
    unitary_completion,
    validate,
    variance,
)
from .model import (
    ConservationReport,
    ConservedQuantity,
    ExactnessReport,
    MeasurementModel,
    PointerReport,
    check_conserved,
    check_exact,
    check_nondestructive,
    conserved_operator,
    joint_blocks,
    measured_observable,
    synthesize_unitary,
)
from .noise import (
    AuditConfig,
    NoiseReport,
    VarianceAudit,
    bound_audit_sweep,
    epsilon_sq,
    noise_operator,
    noise_report,
    paper_bound,
    robertson_bound,
    simplified_bound,
    variance_identity_audit,
    yanase_bound,
)
from .theorem import (
    CounterexampleSweepReport,
    IdentityResidualTable,
    TheoremVerdict,
    additive_conservation_check,
    counterexample_sweep,
    matrix_element_identity,
    pointer_gram_rank,
    theorem_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
