"""Dense complex linear-algebra primitives with explicit tolerances.

Operators are plain square complex ``numpy`` arrays; states are one-dimensional
complex unit vectors. Every function is pure (inputs are never mutated), and
every seeded sampler is bit-reproducible for a fixed seed on a fixed
floating-point environment.

The ``*_stack`` kernels take (..., n, n) stacks of operators and (..., n)
stacks of states, unvalidated, and give each member the bits of its own
call: matrix products go through one BLAS call per matrix (``matvec_stack``
keeps a mat-vec a gemv), norms through the strided dot products
``np.linalg.norm`` takes, and a Python float's square through libm ``pow``
(``squares``). Each scalar function is a batch of one of its kernel;
``tensor_product``, ``commutator`` and ``variance`` validate their inputs first.

Each structural hypothesis has one stack-aware check here, which raises a
``PreconditionError`` named after the checked argument for the first failing
member: ``require_hermitian`` (``HERMITICITY_TOL``), ``require_unitary``
(``UNITARITY_TOL``), ``require_orthonormal_rows`` (``ORTHONORMAL_TOL``) and
``require_unit_norm`` (``STATE_NORM_TOL``).
Every threshold is a module constant.
Every caller in the package, the model dataclasses, the samplers and the CLI
loader included, goes through them.

Sweeps draw from one stream per trial, ``default_rng((seed, trial))``, in
chunks of at most ``SWEEP_CHUNK_BYTES`` per (chunk, D, D) complex stack
(``sweep_chunks``). A sweep's trials travel as columns: ``gather_columns``
hands each chunk's columns to a sink or collects them, and ``column_records``
turns collected columns back into records.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .errors import PreconditionError

__all__ = [
    "anti_hermitian_exp_stack",
    "as_operator",
    "as_state",
    "column_records",
    "commutator",
    "commutator_stack",
    "dagger",
    "frobenius_norm",
    "frobenius_norm_stack",
    "gather_columns",
    "ginibre",
    "ginibre_stack",
    "haar_from_ginibre",
    "haar_unitary",
    "hermitian_eigensystem",
    "hermitian_from_spectrum",
    "matvec_stack",
    "normalized_stack",
    "numerical_rank",
    "product_state",
    "random_hermitian",
    "random_hermitian_stack",
    "random_positive_operator_stack",
    "random_state_vector",
    "random_state_vector_stack",
    "require_hermitian",
    "require_orthonormal_rows",
    "require_unit_norm",
    "require_unitary",
    "squares",
    "sweep_chunks",
    "tensor_product",
    "tensor_product_stack",
    "unitary_completion",
    "variance",
    "variance_stack",
]

# A variance below -(VARIANCE_CLAMP + 2 * STATE_NORM_TOL) * max(1, <a^2>)
# indicates an inconsistent operator or state and raises. A smaller negative
# one is clamped to zero: rounding noise, or the deficit, at most about
# 2 |delta| <a^2>, that a state of norm 1 + delta gives, |delta| <= STATE_NORM_TOL.
VARIANCE_CLAMP = 1e-14

# Frobenius residuals |a - a^dag| and |u^dag u - 1| up to which a matrix is
# Hermitian or unitary.
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
# Singular values at or below RANK_TOL times the largest do not count toward
# the rank; it is also the floor a spectrum must exceed to be positive.
RANK_TOL = 1e-9
# Sorted eigenvalues further apart than this start a new eigenvalue group.
GROUPING_TOL = 1e-9
STATE_NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
# Range of the uniform spectrum of the random positive factors.
FACTOR_SPECTRUM = (0.5, 2.0)
# Byte budget of one (chunk, D, D) complex stack in a sweep; it sets the chunk
# size from D and bounds the memory a chunk's intermediates take.
SWEEP_CHUNK_BYTES = 1 << 16


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
    require_unit_norm(v, "state")
    return v


def _require(name: str, residual: np.ndarray, passed: np.ndarray, detail: str) -> None:
    """Raise for the first member of a stack that failed; ``detail`` formats its residual."""
    if not np.all(passed):
        raise PreconditionError(name, detail.format(float(np.ravel(residual)[~np.ravel(passed)][0])))


def require_hermitian(a: np.ndarray, name: str) -> None:
    """Each matrix of a (..., n, n) stack is Hermitian within ``HERMITICITY_TOL``."""
    residual = frobenius_norm_stack(a - dagger(a))
    _require(name, residual, residual <= HERMITICITY_TOL, "not Hermitian (residual {:.3e})")


def require_unitary(u: np.ndarray, name: str) -> None:
    """Each matrix of a (..., n, n) stack is unitary within ``UNITARITY_TOL``."""
    residual = frobenius_norm_stack(dagger(u) @ u - np.eye(u.shape[-1]))
    _require(name, residual, residual <= UNITARITY_TOL, "not unitary (residual {:.3e})")


def require_orthonormal_rows(a: np.ndarray, name: str) -> None:
    """The rows of each matrix of a (..., m, n) stack are orthonormal within ``ORTHONORMAL_TOL``."""
    residual = frobenius_norm_stack(a @ dagger(a) - np.eye(a.shape[-2]))
    _require(name, residual, residual <= ORTHONORMAL_TOL, "not orthonormal (defect {:.3e})")


def require_unit_norm(v: np.ndarray, name: str) -> None:
    """Each vector of a (..., n) stack has unit norm within ``STATE_NORM_TOL``; a
    non-finite vector fails."""
    norms = frobenius_norm_stack(v[..., None])
    _require(name, norms, abs(norms - 1.0) <= STATE_NORM_TOL, "norm {!r} is not 1")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., m, n) stack."""
    return a.conj().mT


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def frobenius_norm_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-ordered (..., m, n) stack.

    The two strided dot products ``np.linalg.norm`` takes (real parts, then
    imaginary parts), one pair per matrix, so each norm has its bits.
    """
    x = a.reshape(*a.shape[:-2], -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 for each float, through libm ``pow`` as a Python float squares.

    An array ``** 2`` multiplies ``x * x`` instead, which differs in the last
    bit now and then.
    """
    return np.array([v ** 2 for v in x.tolist()])


def matvec_stack(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for each matrix and vector of (..., m, n) and (..., n) stacks; one gemv each."""
    return (a @ v[..., None])[..., 0]


def tensor_product_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each pair of (..., n1, n1) and (..., n2, n2) stacks, unvalidated.

    The same single elementwise multiply as ``np.kron``, so bit-identical to
    it, without its call overhead.
    """
    dim = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], dim, dim)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; joint index (i, j) maps to i * b.dim + j."""
    return tensor_product_stack(as_operator(a), as_operator(b))


def product_state(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint vector a (x) b, index (i, j) -> i * len(b) + j, for vectors or (..., n) stacks.

    The single multiply ``np.kron`` does, so bit-identical to it.
    """
    out = np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]
    return out.reshape(*out.shape[:-2], -1)


def commutator_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] for each pair of matrices of two (..., n, n) stacks, unvalidated."""
    return a @ b - b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return commutator_stack(a, b)


def variance(a: np.ndarray, s: np.ndarray) -> float:
    """<a^2> - <a>^2 for Hermitian ``a``; tiny negative rounding is clamped to 0."""
    a, s = as_operator(a), as_state(s)
    if a.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {s.shape[0]}")
    require_hermitian(a, "operator")
    return float(variance_stack(a[None], s[None])[0])


def variance_stack(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``variance`` for each Hermitian matrix and state of (k, n, n) and (k, n) stacks, unvalidated."""
    w = matvec_stack(a, s)
    second_moment = np.vecdot(w, w).real
    value = second_moment - squares(np.vecdot(s, w).real)
    negative = value < 0.0
    if negative.any():
        inconsistent = value <= -(VARIANCE_CLAMP + 2.0 * STATE_NORM_TOL) * np.maximum(1.0, second_moment)
        if inconsistent.any():
            raise ValueError(
                f"negative variance {value[inconsistent][0]:.3e}: operator and state are inconsistent"
            )
        value[negative] = 0.0
    return value


def hermitian_eigensystem(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of Hermitian ``a``."""
    a = as_operator(a)
    require_hermitian(a, "operator")
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
    require_orthonormal_rows(np.stack(cols), "columns")
    q = np.stack(cols, axis=1)
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


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of ``n`` >= 0, [0] for 0: numpy's entropy words of an int."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def sweep_chunks(seed: int, count: int, dim: int):
    """Yield (trials, streams) for a sweep of ``count`` trials of joint dimension ``dim``.

    Chunks hold as many trials as fit one (chunk, dim, dim) complex stack in
    ``SWEEP_CHUNK_BYTES``. Each trial gets the stream ``default_rng((seed,
    trial))``, seeded from the words numpy makes of that tuple, given as one
    uint32 array, which numpy takes without coercing it.
    """
    size = max(1, SWEEP_CHUNK_BYTES // (16 * dim * dim))
    head = _words(seed)
    for start in range(0, count, size):
        trials = range(start, min(start + size, count))
        yield trials, [np.random.default_rng(np.array(head + _words(t), dtype=np.uint32)) for t in trials]


def gather_columns(chunks: Iterable[dict[str, list]], sink: Callable[[dict], object] | None = None) -> dict:
    """Hand each chunk's columns to ``sink`` as it comes, or, with no sink, join
    them into one list per column name and return those (empty if a sink took them)."""
    columns: dict[str, list] = {}
    for chunk in chunks:
        if sink is not None:
            sink(chunk)
            continue
        for name, values in chunk.items():
            columns.setdefault(name, []).extend(values)
    return columns


def column_records(record: type, columns: dict[str, list]) -> tuple:
    """One ``record(**row)`` per row of ``columns``, a list per field name."""
    return tuple(record(**dict(zip(columns, row))) for row in zip(*columns.values()))


def _complex_draws(raw: np.ndarray) -> np.ndarray:
    """re + 1j * im from draws stacked as (..., 2, ...): real parts first, then imaginary."""
    return raw[:, 0] + 1j * raw[:, 1]


def ginibre_stack(dim: int, rngs) -> np.ndarray:
    """One Ginibre matrix per stream, (len(rngs), dim, dim); see ``ginibre``."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return _complex_draws(np.stack([rng.standard_normal((2, dim, dim)) for rng in rngs])) / np.sqrt(2.0)


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix: real parts drawn first, then imaginary parts."""
    return ginibre_stack(dim, [rng])[0]


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


def normalized_stack(z: np.ndarray) -> np.ndarray:
    """Each vector of a C-ordered (k, n) stack divided by its norm, as ``z / np.linalg.norm(z)``."""
    return z / frobenius_norm_stack(z[..., None])[..., None]


def random_state_vector_stack(dim: int, rngs) -> np.ndarray:
    """One Haar-random unit vector per stream, (len(rngs), dim)."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return normalized_stack(_complex_draws(np.stack([rng.standard_normal((2, dim)) for rng in rngs])))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    return random_state_vector_stack(dim, [rng])[0]


def random_hermitian_stack(dim: int, rngs) -> np.ndarray:
    """One random Hermitian matrix per stream, (len(rngs), dim, dim)."""
    z = _complex_draws(np.stack([rng.standard_normal((2, dim, dim)) for rng in rngs]))
    return (z + dagger(z)) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return random_hermitian_stack(dim, [rng])[0]


def hermitian_from_spectrum(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w diag(d) w^dag, symmetrized, for each row of (k, n) spectra and (k, n, n) unitaries."""
    h = (w * d[..., None, :]) @ dagger(w)
    return (h + dagger(h)) / 2.0


def random_positive_operator_stack(dim: int, rngs) -> np.ndarray:
    """One random positive operator per stream, (len(rngs), dim, dim); each stream
    draws its spectrum, then its Haar unitary."""
    d = np.stack([rng.uniform(*FACTOR_SPECTRUM, dim) for rng in rngs])
    return hermitian_from_spectrum(d, haar_from_ginibre(ginibre_stack(dim, rngs)))


def anti_hermitian_exp_stack(k: np.ndarray) -> np.ndarray:
    """exp(k) for each anti-Hermitian matrix of a (..., d, d) stack, unvalidated.

    Uses the eigensystem of the Hermitian part of -i*k; one stacked ``eigh``
    gives each matrix the same bits as its own call would.
    """
    h = -1j * k
    values, vectors = np.linalg.eigh((h + dagger(h)) / 2.0)
    return (vectors * np.exp(1j * values)[..., None, :]) @ dagger(vectors)
