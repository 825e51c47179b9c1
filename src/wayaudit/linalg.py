"""Dense complex linear-algebra primitives with explicit tolerances.

Operators are plain square complex ``numpy`` arrays; states are one-dimensional
complex unit vectors. Every function is pure (inputs are never mutated), and
every seeded sampler is bit-reproducible for a fixed seed on a fixed
floating-point environment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCES",
    "ToleranceConfig",
    "ValidationReport",
    "anti_hermitian_exp",
    "as_operator",
    "as_state",
    "commutator",
    "dagger",
    "expectation",
    "frobenius_norm",
    "ginibre",
    "haar_from_ginibre",
    "haar_unitary",
    "hermitian_eigensystem",
    "numerical_rank",
    "product_state",
    "random_haar_unitary",
    "random_hermitian",
    "random_positive_operator",
    "random_state_vector",
    "tensor_product",
    "unitary_completion",
    "validate",
    "variance",
]

# Negative variances of larger magnitude than this, relative to max(1, <a^2>),
# indicate an inconsistent operator or state and raise; anything smaller is
# rounding noise and is clamped to zero.
VARIANCE_CLAMP = 1e-14

STATE_NORM_TOL = 1e-10
COLUMN_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds that make every check in the toolkit decidable."""

    hermiticity_tol: float = 1e-10
    unitarity_tol: float = 1e-10
    rank_tol: float = 1e-9
    conservation_tol: float = 1e-9
    grouping_tol: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("operator entries must be finite")
    return a


def as_state(v) -> np.ndarray:
    """Coerce to a finite complex vector of unit Euclidean norm."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"state must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state amplitudes must be finite")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} is not 1 within {STATE_NORM_TOL}")
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; joint index (i, j) maps to i * b.dim + j.

    The same single elementwise multiply as ``np.kron``, so bit-identical to
    it, without its call overhead.
    """
    a, b = as_operator(a), as_operator(b)
    dim = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)


def product_state(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint vector a (x) b, index (i, j) -> i * len(b) + j; bit-identical to ``np.kron``."""
    return np.multiply.outer(a, b).reshape(-1)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b - b @ a


def expectation(a: np.ndarray, s: np.ndarray) -> complex:
    """<s|a|s>. Real up to rounding when ``a`` is Hermitian."""
    a, s = as_operator(a), as_state(s)
    if a.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {s.shape[0]}")
    return complex(np.vdot(s, a @ s))


def variance(a: np.ndarray, s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """<a^2> - <a>^2 for Hermitian ``a``; tiny negative rounding is clamped to 0."""
    a, s = as_operator(a), as_state(s)
    if a.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {s.shape[0]}")
    _require_hermitian(a, tol.hermiticity_tol)
    w = a @ s
    second_moment = float(np.vdot(w, w).real)
    value = second_moment - float(np.vdot(s, w).real) ** 2
    if value < 0.0:
        if value <= -VARIANCE_CLAMP * max(1.0, second_moment):
            raise ValueError(f"negative variance {value:.3e}: operator and state are inconsistent")
        value = 0.0
    return value


def _require_hermitian(a: np.ndarray, tol: float) -> None:
    residual = frobenius_norm(a - dagger(a))
    if residual > tol:
        raise ValueError(f"matrix is not Hermitian: residual {residual:.3e} > {tol:.3e}")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural matrix check.

    ``residual`` is the check-specific figure of merit: the Frobenius defect
    for ``hermitian``/``unitary``, the minimum eigenvalue for
    ``positive_spectrum``, and the smallest singular value for ``full_rank``.
    """

    kind: str
    residual: float
    verdict: bool
    rank: int | None = None


def validate(a: np.ndarray, kind: str, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> ValidationReport:
    a = as_operator(a)
    dim = a.shape[0]
    if kind == "hermitian":
        residual = frobenius_norm(a - dagger(a))
        return ValidationReport(kind, residual, residual <= tol.hermiticity_tol)
    if kind == "unitary":
        residual = frobenius_norm(dagger(a) @ a - np.eye(dim))
        return ValidationReport(kind, residual, residual <= tol.unitarity_tol)
    if kind == "positive_spectrum":
        _require_hermitian(a, tol.hermiticity_tol)
        smallest = float(np.linalg.eigvalsh(a)[0])
        return ValidationReport(kind, smallest, smallest > tol.rank_tol)
    if kind == "full_rank":
        singulars = np.linalg.svd(a, compute_uv=False)
        rank = numerical_rank(a, tol.rank_tol)
        return ValidationReport(kind, float(singulars[-1]), rank == dim, rank=rank)
    raise ValueError(f"unknown validation kind {kind!r}")


def hermitian_eigensystem(
    a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of Hermitian ``a``."""
    a = as_operator(a)
    _require_hermitian(a, tol.hermiticity_tol)
    values, vectors = np.linalg.eigh(a)
    return values, vectors


def numerical_rank(a: np.ndarray, tol: float) -> int:
    """Count of singular values above ``tol`` times the largest one (or 1 if all zero)."""
    singulars = np.linalg.svd(as_operator(a), compute_uv=False)
    scale = float(singulars[0]) if singulars[0] > 0 else 1.0
    return int(np.sum(singulars > tol * scale))


def unitary_completion(columns) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    The first k columns of the result are the inputs verbatim. The remaining
    columns come from Gram-Schmidt over the computational basis (two passes,
    processed in index order), so structured inputs get structured completions;
    an SVD null-space fallback covers the rare shortfall.
    """
    cols = [np.asarray(c, dtype=complex) for c in columns]
    if not cols:
        raise ValueError("at least one column is required")
    dim = cols[0].shape[0]
    for c in cols:
        if c.ndim != 1 or c.shape[0] != dim:
            raise ValueError("columns must be vectors of a common dimension")
    k = len(cols)
    if k > dim:
        raise ValueError(f"{k} columns cannot fit in dimension {dim}")
    q = np.stack(cols, axis=1)
    gram_defect = frobenius_norm(dagger(q) @ q - np.eye(k))
    if gram_defect > COLUMN_ORTHO_TOL:
        raise ValueError(f"input columns are not orthonormal: defect {gram_defect:.3e}")
    if k == dim:
        return q

    collected = [q[:, i] for i in range(k)]
    for idx in range(dim):
        if len(collected) == dim:
            break
        cand = np.zeros(dim, dtype=complex)
        cand[idx] = 1.0
        for _ in range(2):  # re-orthogonalize; twice is enough
            for col in collected:
                cand = cand - np.vdot(col, cand) * col
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            collected.append(cand / norm)
    if len(collected) < dim:
        basis = np.stack(collected, axis=1)
        _, _, vh = np.linalg.svd(dagger(basis))
        for i in range(dim - len(collected)):
            collected.append(vh[len(collected) + i].conj())
    return np.stack(collected, axis=1)


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix: real parts drawn first, then imaginary parts."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices stacked over (..., d, d).

    One stacked QR, then the R-phase correction; each matrix of the stack gets
    the same bits as its own QR would give.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(d)
    phases = np.where(absd > 0, d / np.where(absd > 0, absd, 1.0), 1.0)
    return q * phases[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: ``haar_from_ginibre`` of one Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, rng))


def random_haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar unitary; identical (dim, seed) gives a bit-identical matrix."""
    return haar_unitary(dim, np.random.default_rng(seed))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + dagger(z)) / 2.0


def random_positive_operator(
    dim: int, rng: np.random.Generator, low: float = 0.5, high: float = 2.0
) -> np.ndarray:
    """Random positive-spectrum Hermitian with eigenvalues uniform in [low, high]."""
    d = rng.uniform(low, high, dim)
    w = haar_unitary(dim, rng)
    h = (w * d) @ dagger(w)
    return (h + dagger(h)) / 2.0


def anti_hermitian_exp(k: np.ndarray, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """exp(k) for anti-Hermitian k, via the eigensystem of the Hermitian -i*k."""
    k = as_operator(k)
    defect = frobenius_norm(k + dagger(k))
    if defect > tol.hermiticity_tol:
        raise ValueError(f"matrix is not anti-Hermitian: residual {defect:.3e}")
    h = -1j * k
    h = (h + dagger(h)) / 2.0
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(1j * values)) @ dagger(vectors)
