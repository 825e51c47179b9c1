"""Measurement models and their structural checks.

A model couples an n1-dimensional system to an n2-dimensional apparatus: the
system is read out in a fixed orthonormal basis u(0..n1-1), the apparatus
starts in a ready state v, and a joint unitary correlates the two. The checks
here decide whether a model is nondestructive (each u(j) survives the
interaction), exact (the induced apparatus pointer states are orthonormal),
and whether it conserves a given additive or multiplicative quantity.

The structural checks and the pointer analysis run on (k, ...) stacks of
models for the sweeps (``require_model_stack``, ``require_hermitian_factors``,
``pointer_stack``); the dataclasses and ``pointer_analysis`` use them as
batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointerError, PreconditionError
from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    STATE_NORM_TOL,
    as_operator,
    as_state,
    commutator,  # noqa: F401  (re-exported convenience)
    dagger,
    frobenius_norm,
    frobenius_norm_stack,
    matvec_stack,
    product_state,
    tensor_product,
    unitary_completion,
)

__all__ = [
    "ConservationReport",
    "ConservedQuantity",
    "ExactnessReport",
    "MeasurementModel",
    "NondestructiveReport",
    "PointerAnalysis",
    "PointerFamily",
    "check_conserved",
    "check_exact",
    "check_nondestructive",
    "conservation_residual_stack",
    "conserved_operator",
    "joint_blocks",
    "measured_observable",
    "observable_in_basis",
    "pointer_analysis",
    "pointer_stack",
    "require_hermitian_factors",
    "require_model_stack",
    "synthesize_unitary",
]

BASIS_ORTHO_TOL = 1e-8
POINTER_NORM_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementModel:
    """System dimension, apparatus dimension, measured basis, ready state, unitary.

    ``system_basis`` has shape (n1, n1) with row i holding u(i); the joint
    space uses the system-major index (i, j) -> i * n2 + j.
    """

    n1: int
    n2: int
    system_basis: np.ndarray
    ready_state: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be positive")
        basis = np.asarray(self.system_basis, dtype=complex)
        if basis.shape != (self.n1, self.n1):
            raise ValueError(f"system_basis must have shape ({self.n1}, {self.n1})")
        defect = frobenius_norm(basis @ dagger(basis) - np.eye(self.n1))
        if defect > BASIS_ORTHO_TOL:
            raise ValueError(f"system_basis is not orthonormal: defect {defect:.3e}")
        ready = as_state(self.ready_state)
        if ready.shape[0] != self.n2:
            raise ValueError(f"ready_state must have dimension {self.n2}")
        u = as_operator(self.interaction)
        if u.shape[0] != self.n1 * self.n2:
            raise ValueError(f"interaction must have dimension {self.n1 * self.n2}")
        _require_unitary(u[None])
        object.__setattr__(self, "system_basis", basis)
        object.__setattr__(self, "ready_state", ready)
        object.__setattr__(self, "interaction", u)


def _first(values: np.ndarray, failed: np.ndarray):
    """The first of ``values`` where ``failed`` holds, or None."""
    return values[failed][0] if failed.any() else None


def _require_unitary(u: np.ndarray) -> None:
    residual = frobenius_norm_stack(dagger(u) @ u - np.eye(u.shape[-1]))
    bad = _first(residual, residual > DEFAULT_TOLERANCES.unitarity_tol)
    if bad is not None:
        raise ValueError(f"interaction is not unitary: residual {bad:.3e}")


def require_model_stack(ready: np.ndarray, u: np.ndarray) -> None:
    """``MeasurementModel``'s checks of ready states and interactions, for (k, n2) and
    (k, D, D) stacks of finite sampled arrays measured in the computational basis."""
    norms = frobenius_norm_stack(ready[..., None])
    bad = _first(norms, np.abs(norms - 1.0) > STATE_NORM_TOL)
    if bad is not None:
        raise ValueError(f"state norm {float(bad)!r} is not 1 within {STATE_NORM_TOL}")
    _require_unitary(u)


def require_hermitian_factors(**factors: np.ndarray) -> None:
    """``ConservedQuantity``'s Hermiticity check for (k, n, n) stacks of factors, by name."""
    for name, op in factors.items():
        defect = frobenius_norm_stack(op - dagger(op))
        bad = _first(defect, defect > DEFAULT_TOLERANCES.hermiticity_tol)
        if bad is not None:
            raise ValueError(f"{name} is not Hermitian: residual {bad:.3e}")


@dataclass(frozen=True)
class ConservedQuantity:
    """An additive or multiplicative conserved quantity, split into its two factors."""

    kind: str
    system_op: np.ndarray
    apparatus_op: np.ndarray

    def __post_init__(self):
        if self.kind not in ("additive", "multiplicative"):
            raise ValueError(f"kind must be 'additive' or 'multiplicative', got {self.kind!r}")
        for name in ("system_op", "apparatus_op"):
            op = as_operator(getattr(self, name))
            require_hermitian_factors(**{name: op[None]})
            object.__setattr__(self, name, op)


def conserved_operator(q: ConservedQuantity) -> np.ndarray:
    """The joint-space operator the interaction is supposed to leave invariant."""
    if q.kind == "multiplicative":
        return tensor_product(q.system_op, q.apparatus_op)
    n1 = q.system_op.shape[0]
    n2 = q.apparatus_op.shape[0]
    return tensor_product(q.system_op, np.eye(n2)) + tensor_product(np.eye(n1), q.apparatus_op)


@dataclass(frozen=True)
class PointerFamily:
    """Normalized pointer states, one row per system basis index.

    Rows whose underlying weight was numerically zero are left as zero vectors;
    ``leakage`` is the largest cross-index block norm of the model.
    """

    pointers: np.ndarray
    leakage: float


@dataclass(frozen=True)
class PointerAnalysis:
    """Raw pointer data for a model; tolerant of arbitrarily bad schemes."""

    blocks: np.ndarray          # (n1, n1, n2); [i, j] = w(i, j)
    leakage: float              # max over i != j of ||w(i, j)||
    diagonal_norms: np.ndarray  # (n1,)
    pointers: np.ndarray        # (n1, n2); normalized rows, zero where degenerate
    degenerate: tuple[int, ...]
    gram: np.ndarray            # (n1, n1); <v(i)|v(j)> with zero rows for degenerates
    deficit: float              # ||gram - I||_F


def _joint_blocks(basis: np.ndarray, ready: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``joint_blocks`` for (k, n2) ready states and (k, D, D) interactions; one gemv per column."""
    n1, n2 = basis.shape[0], ready.shape[-1]
    inputs = product_state(basis, ready[:, None, :])  # (k, n1, D): u(j) (x) v
    cols = matvec_stack(u[:, None], inputs).reshape(-1, n1, n1, n2)
    return np.ascontiguousarray((basis.conj() @ cols).swapaxes(1, 2))


def joint_blocks(m: MeasurementModel) -> np.ndarray:
    """w(i, j) = (<u(i)| (x) 1) U (|u(j)> (x) |v>), as an (n1, n1, n2) array."""
    return _joint_blocks(m.system_basis, m.ready_state[None], m.interaction[None])[0]


def pointer_stack(basis: np.ndarray, ready: np.ndarray, u: np.ndarray, degenerate_tol: float) -> dict:
    """``PointerAnalysis`` fields for (k, n2) ready states and (k, D, D) interactions
    sharing one measured basis, as (k, ...) arrays; ``degenerate`` is a (k, n1) mask."""
    n1 = basis.shape[0]
    blocks = _joint_blocks(basis, ready, u)
    norms = np.linalg.norm(blocks, axis=-1)
    diag_index = np.arange(n1)
    diag = norms[:, diag_index, diag_index]
    off = norms.copy()
    off[:, diag_index, diag_index] = 0.0
    leakage = off.max(axis=(1, 2)) if n1 > 1 else np.zeros(len(u))
    found = diag > degenerate_tol
    pointers = np.zeros(blocks.shape[:2] + blocks.shape[3:], dtype=complex)
    np.divide(blocks[:, diag_index, diag_index], diag[..., None], out=pointers, where=found[..., None])
    gram = pointers.conj() @ pointers.mT
    deficit = frobenius_norm_stack(gram - np.eye(n1))
    return dict(blocks=blocks, leakage=leakage, diagonal_norms=diag, pointers=pointers,
                degenerate=~found, gram=gram, deficit=deficit)


def pointer_analysis(m: MeasurementModel, degenerate_tol: float = 1e-12) -> PointerAnalysis:
    """``pointer_stack`` for one model."""
    a = {k: v[0] for k, v in pointer_stack(m.system_basis, m.ready_state[None], m.interaction[None],
                                          degenerate_tol).items()}
    return PointerAnalysis(
        blocks=a["blocks"],
        leakage=float(a["leakage"]),
        diagonal_norms=a["diagonal_norms"],
        pointers=a["pointers"],
        degenerate=tuple(np.flatnonzero(a["degenerate"]).tolist()),
        gram=a["gram"],
        deficit=float(a["deficit"]),
    )


@dataclass(frozen=True)
class NondestructiveReport:
    leakage: float
    verdict: bool
    pointers: PointerFamily
    degenerate: tuple[int, ...]
    error: str | None


def check_nondestructive(m: MeasurementModel, tol: float = 1e-9) -> NondestructiveReport:
    """Does every measured basis state survive the interaction?

    ``leakage`` is the largest norm among the cross-index blocks w(i, j),
    i != j; the verdict holds when it stays below ``tol``. Pointer j is the
    normalized diagonal block w(j, j); a diagonal block with norm at most
    ``tol`` is reported as a degenerate pointer rather than raising.
    """
    analysis = pointer_analysis(m, degenerate_tol=tol)
    error = None
    if analysis.degenerate:
        error = f"degenerate_pointer: indices {list(analysis.degenerate)}"
    return NondestructiveReport(
        leakage=analysis.leakage,
        verdict=analysis.leakage <= tol,
        pointers=PointerFamily(analysis.pointers, analysis.leakage),
        degenerate=analysis.degenerate,
        error=error,
    )


@dataclass(frozen=True)
class ExactnessReport:
    gram: np.ndarray
    deficit: float
    verdict: bool


def check_exact(
    m: MeasurementModel,
    tol: float = 1e-9,
    nondestructive: NondestructiveReport | None = None,
) -> ExactnessReport:
    """Are the pointer states orthonormal (outcomes perfectly distinguishable)?

    Requires a nondestructive model; degenerate pointers propagate as
    :class:`DegeneratePointerError`.
    """
    report = nondestructive if nondestructive is not None else check_nondestructive(m, tol)
    if report.degenerate:
        raise DegeneratePointerError(report.degenerate)
    if not report.verdict:
        raise PreconditionError(
            "check_nondestructive", f"leakage {report.leakage:.3e} exceeds {tol:.3e}"
        )
    pointers = report.pointers.pointers
    gram = pointers.conj() @ pointers.T
    deficit = frobenius_norm(gram - np.eye(m.n1))
    return ExactnessReport(gram=gram, deficit=deficit, verdict=deficit <= tol)


@dataclass(frozen=True)
class ConservationReport:
    kind: str
    residual: float
    verdict: bool


def check_conserved(m: MeasurementModel, q: ConservedQuantity, tol: float = 1e-9) -> ConservationReport:
    """Frobenius residual of U^dag L U - L for the quantity's joint operator."""
    if q.system_op.shape[0] != m.n1 or q.apparatus_op.shape[0] != m.n2:
        raise ValueError(
            f"conserved quantity dims ({q.system_op.shape[0]}, {q.apparatus_op.shape[0]}) "
            f"do not match model ({m.n1}, {m.n2})"
        )
    residual = float(conservation_residual_stack(m.interaction, conserved_operator(q)))
    return ConservationReport(kind=q.kind, residual=residual, verdict=residual <= tol)


def conservation_residual_stack(u: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """||U^dag L U - L||_F for each interaction and joint operator of two (..., D, D) stacks."""
    return frobenius_norm_stack(dagger(u) @ joint @ u - joint)


def synthesize_unitary(system_basis, ready_state, pointers) -> MeasurementModel:
    """Build the model that maps u(j) (x) v to u(j) (x) pointer(j) exactly.

    The n1 prescribed columns pin the interaction on the ready subspace; the
    remaining columns come from unitary completion. The result is
    nondestructive by construction for any unit-norm pointers, orthogonal or
    not.
    """
    basis = np.asarray(system_basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError("system_basis must be a square array with one basis vector per row")
    n1 = basis.shape[0]
    defect = frobenius_norm(basis @ dagger(basis) - np.eye(n1))
    if defect > BASIS_ORTHO_TOL:
        raise ValueError(f"system_basis is not orthonormal: defect {defect:.3e}")
    ready = as_state(ready_state)
    n2 = ready.shape[0]
    ptrs = np.asarray(pointers, dtype=complex)
    if ptrs.shape != (n1, n2):
        raise ValueError(f"pointers must have shape ({n1}, {n2})")
    for j in range(n1):
        norm = np.linalg.norm(ptrs[j])
        if abs(norm - 1.0) > POINTER_NORM_TOL:
            raise ValueError(f"pointer {j} has norm {norm!r}, expected 1")

    inputs = [product_state(basis[j], ready) for j in range(n1)]
    outputs = [product_state(basis[j], ptrs[j]) for j in range(n1)]
    a = unitary_completion(inputs)
    b = unitary_completion(outputs)
    return MeasurementModel(n1, n2, basis, ready, b @ dagger(a))


def measured_observable(m: MeasurementModel, eigenvalues=None) -> np.ndarray:
    """The observable this model reads out: eigenbasis u(i), eigenvalues i + 1.

    The default eigenvalues are distinct and positive; verdicts about
    commutation with a conserved quantity depend only on the eigenbasis.
    """
    return observable_in_basis(m.system_basis, eigenvalues)


def observable_in_basis(basis: np.ndarray, eigenvalues=None) -> np.ndarray:
    """The observable with eigenvectors the rows of ``basis``; ``measured_observable``
    for a model measuring in ``basis``."""
    n1 = basis.shape[0]
    if eigenvalues is None:
        eigenvalues = np.arange(1.0, n1 + 1.0)
    vals = np.asarray(eigenvalues, dtype=float)
    if vals.shape != (n1,):
        raise ValueError(f"need {n1} eigenvalues")
    return basis.T @ (vals[:, None] * basis.conj())
