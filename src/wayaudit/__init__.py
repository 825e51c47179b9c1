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
)
from .errors import DegeneratePointerError, PreconditionError
from .linalg import (
    commutator,
    hermitian_eigensystem,
    numerical_rank,
    tensor_product,
    unitary_completion,
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
    synthesize_unitary,
)
from .noise import (
    AuditConfig,
    NoiseReport,
    VarianceAudit,
    bound_audit_sweep,
    noise_report,
    variance_identity_audit,
)
from .theorem import (
    CounterexampleSweepReport,
    IdentityResidualTable,
    TheoremVerdict,
    counterexample_sweep,
    matrix_element_identity,
    pointer_gram_rank,
    theorem_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
