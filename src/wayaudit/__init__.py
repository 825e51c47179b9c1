"""Verification and audit toolkit for measurement limits under multiplicative
conservation laws: model checks, an executable no-go verdict, noise lower
bounds with a numerical validity audit, and constrained search over conserving
unitaries.

Each exported name is imported from its submodule on first access (PEP 562), so
a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The names the package exports, grouped by the submodule that defines them.
_SUBMODULE_EXPORTS = {
    "commutant": (
        "BlockDecomposition", "SearchConfig", "SearchResult", "conserved_eigenspaces", "default_probe_states",
        "feasibility_search", "minimize_epsilon",
    ),
    "errors": ("DegeneratePointerError", "PreconditionError"),
    "linalg": (
        "SweepReport", "commutator", "hermitian_eigensystem", "numerical_rank", "tensor_product",
        "unitary_completion", "variance",
    ),
    "model": (
        "ConservationReport", "ConservedQuantity", "ExactnessReport", "MeasurementModel", "PointerReport",
        "check_conserved", "check_exact", "check_nondestructive", "conserved_operator", "synthesize_unitary",
    ),
    "noise": (
        "AuditConfig", "NoiseReport", "VarianceAudit", "bound_audit_sweep", "noise_report",
        "variance_identity_audit",
    ),
    "theorem": (
        "CounterexampleConfig", "IdentityResidualTable", "TheoremVerdict", "counterexample_sweep",
        "matrix_element_identity", "pointer_gram_rank", "theorem_verdict",
    ),
}
# The submodule that holds each exported name; a submodule's own name is the submodule.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return module if name == _EXPORTS[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
