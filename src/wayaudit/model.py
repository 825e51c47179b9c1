"""Measurement models and their structural checks.

A model couples an n1-dimensional system to an n2-dimensional apparatus: the
system is read out in a fixed orthonormal basis u(0..n1-1), the apparatus
starts in a ready state v, and a joint unitary correlates the two. The checks
here decide whether a model is nondestructive (each u(j) survives the
interaction), exact (the induced apparatus pointer states are orthonormal),
and whether it conserves a given additive or multiplicative quantity.

The dataclasses check their hypotheses (orthonormal measured basis,
unit-norm ready state, unitary interaction, Hermitian factors) through the
shared stack-aware checks of ``linalg`` (``require_orthonormal_rows``,
``require_unit_norm``, ``require_unitary``, ``require_hermitian``), which the
sweep samplers call on whole stacks. A failure raises a ``PreconditionError``
named after the dataclass field. A U is applied to product states as n1 x n2
reshapes of its images (``MeasurementModel.images``, or in factor space
``commutant.FactoredCommutant.images``), and the pointer analysis
(``pointer_stack``) reads those of u(j) (x) v in the measured basis, row i of
image j the block w(i, j), for ``check_nondestructive`` and the sweep alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointerError, PreconditionError
from .linalg import (
    VERDICT_TOL,
    as_operator,
    as_state,
    dagger,
    frobenius_norm_stack,
    matvec_stack,
    product_state,
    require_hermitian,
    require_orthonormal_rows,
    require_unit_norm,
    require_unitary,
    sized,
    tensor_product,
    unitary_completion,
)

__all__ = [
    "ConservationReport",
    "ConservedQuantity",
    "ExactnessReport",
    "MeasurementModel",
    "PointerReport",
    "check_conserved",
    "check_exact",
    "check_nondestructive",
    "conservation_residual_stack",
    "conserved_operator",
    "observable_in_basis",
    "pointer_stack",
    "require_conserved",
    "synthesize_unitary",
]

# A pointer whose diagonal block norm is at or below this is degenerate: it
# cannot be normalized.
POINTER_DEGENERACY_TOL = 1e-12


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
        require_orthonormal_rows(basis, "system_basis")
        ready = np.asarray(self.ready_state, dtype=complex)
        if ready.shape != (self.n2,):
            raise ValueError(f"ready_state must have dimension {self.n2}")
        require_unit_norm(ready, "ready_state")
        u = sized(as_operator(self.interaction), self.n1 * self.n2, "interaction")
        require_unitary(u, "interaction")
        object.__setattr__(self, "system_basis", basis)
        object.__setattr__(self, "ready_state", ready)
        object.__setattr__(self, "interaction", u)

    def images(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """U (a_j (x) b_j) for (..., n1) rows a and (..., n2) rows b, broadcastable, as (..., n1, n2)
        reshapes; one gemv per input. The dense twin of ``commutant.FactoredCommutant.images``."""
        state = matvec_stack(self.interaction, product_state(a, b))
        return state.reshape(*state.shape[:-1], self.n1, self.n2)


@dataclass(frozen=True)
class ConservedQuantity:
    """An additive or multiplicative conserved quantity, split into its two factors."""

    kind: str
    system_op: np.ndarray
    apparatus_op: np.ndarray

    def __post_init__(self):
        if self.kind not in ("additive", "multiplicative"):
            raise PreconditionError("kind", f"must be 'additive' or 'multiplicative', got {self.kind!r}")
        for name in ("system_op", "apparatus_op"):
            op = as_operator(getattr(self, name))
            require_hermitian(op, name)
            object.__setattr__(self, name, op)


def conserved_operator(q: ConservedQuantity) -> np.ndarray:
    """The joint-space operator the interaction is supposed to leave invariant."""
    if q.kind == "multiplicative":
        return tensor_product(q.system_op, q.apparatus_op)
    eye1, eye2 = np.eye(len(q.system_op)), np.eye(len(q.apparatus_op))
    return tensor_product(q.system_op, eye2) + tensor_product(eye1, q.apparatus_op)


@dataclass(frozen=True)
class PointerReport:
    """A model's pointer states and the nondestructive and exactness figures read from them.

    Pointer j is the normalized diagonal block w(j, j); a block whose norm is
    at most the analysis tolerance is degenerate and left as a zero row.
    ``leakage`` is the largest cross-index block norm, and ``verdict`` holds
    when it is at most the tolerance.
    """

    leakage: float
    verdict: bool
    pointers: np.ndarray        # (n1, n2); normalized rows, zero where degenerate
    degenerate: tuple[int, ...]
    error: str | None
    gram: np.ndarray            # (n1, n1); <v(i)|v(j)>
    deficit: float              # ||gram - I||_F


def pointer_stack(images: np.ndarray, degenerate_tol: float) -> dict:
    """Leakage, pointers, gram and deficit of (k, n1, n1, n2) images of u(j) (x) v in the measured
    basis, as (k, ...) arrays: row i of image j is the pointer block w(i, j) = (<u(i)| (x) 1) U (u(j) (x) v).
    ``degenerate`` is a (k, n1) mask."""
    n1 = images.shape[1]
    norms = np.linalg.norm(images, axis=-1)
    diag_index = np.arange(n1)
    diag = norms[:, diag_index, diag_index]
    off = norms.copy()
    off[:, diag_index, diag_index] = 0.0
    leakage = off.max(axis=(1, 2))
    found = diag > degenerate_tol
    pointers = np.zeros(images.shape[:2] + images.shape[3:], dtype=complex)
    np.divide(images[:, diag_index, diag_index], diag[..., None], out=pointers, where=found[..., None])
    gram = pointers.conj() @ pointers.mT
    deficit = frobenius_norm_stack(gram - np.eye(n1))
    return dict(leakage=leakage, pointers=pointers, degenerate=~found, gram=gram, deficit=deficit)


def check_nondestructive(m: MeasurementModel, tol: float = VERDICT_TOL) -> PointerReport:
    """Does every measured basis state survive the interaction? ``pointer_stack`` for one model.

    ``leakage`` is the largest norm among the cross-index blocks w(i, j), i != j; the verdict
    holds when it is at most ``tol``, which is also the degeneracy threshold: a diagonal block
    with norm at most ``tol`` is reported as a degenerate pointer rather than raising.
    """
    images = m.system_basis.conj() @ m.images(m.system_basis, m.ready_state)  # <u(i)| (x) 1 on each image
    a = {k: v[0] for k, v in pointer_stack(images[None], tol).items()}
    leakage = float(a["leakage"])
    degenerate = tuple(np.flatnonzero(a["degenerate"]).tolist())
    return PointerReport(
        leakage=leakage,
        verdict=leakage <= tol,
        pointers=a["pointers"],
        degenerate=degenerate,
        error=f"degenerate_pointer: indices {list(degenerate)}" if degenerate else None,
        gram=a["gram"],
        deficit=float(a["deficit"]),
    )


@dataclass(frozen=True)
class ExactnessReport:
    gram: np.ndarray
    deficit: float
    verdict: bool


def check_exact(
    m: MeasurementModel,
    tol: float = VERDICT_TOL,
    nondestructive: PointerReport | None = None,
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
    return ExactnessReport(gram=report.gram, deficit=report.deficit, verdict=report.deficit <= tol)


@dataclass(frozen=True)
class ConservationReport:
    kind: str
    residual: float
    verdict: bool


def check_conserved(m: MeasurementModel, q: ConservedQuantity, tol: float = VERDICT_TOL) -> ConservationReport:
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


def require_conserved(residual, tol: float) -> None:
    """The conservation precondition for a residual or a stack of them; the first failure raises."""
    residual = np.atleast_1d(residual)
    failed = ~(residual <= tol)
    if failed.any():
        raise PreconditionError("check_conserved", f"residual {residual[failed][0]:.3e} exceeds {tol:.3e}")


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
    require_orthonormal_rows(basis, "system_basis")
    ready = as_state(ready_state, "ready_state")
    n2 = ready.shape[0]
    ptrs = np.asarray(pointers, dtype=complex)
    if ptrs.shape != (n1, n2):
        raise ValueError(f"pointers must have shape ({n1}, {n2})")
    require_unit_norm(ptrs, "pointers")

    a = unitary_completion(product_state(basis, ready))  # row j: u(j) (x) v
    b = unitary_completion(product_state(basis, ptrs))  # row j: u(j) (x) pointer(j)
    return MeasurementModel(n1, n2, basis, ready, b @ dagger(a))


def observable_in_basis(basis: np.ndarray) -> np.ndarray:
    """The observable a model measuring in ``basis`` reads out: eigenvectors the
    rows of ``basis``, eigenvalues 1..n1.

    The eigenvalues are distinct and positive; verdicts about commutation
    with a conserved quantity depend only on the eigenbasis.
    """
    vals = np.arange(1.0, basis.shape[0] + 1.0)
    return basis.T @ (vals[:, None] * basis.conj())
