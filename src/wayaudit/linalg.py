"""Dense complex linear-algebra primitives with explicit tolerances.

Operators are plain square complex ``numpy`` arrays; states are one-dimensional
complex unit vectors. Every function is pure (inputs are never mutated), and
every seeded sampler is bit-reproducible for a fixed seed on a fixed
floating-point environment.

The ``*_stack`` kernels take (..., n, n) stacks of operators and (..., n)
stacks of states, unvalidated, and give each member the bits of its own
call: matrix products go through one BLAS call per matrix (``matvec_stack``
keeps a mat-vec a gemv), and norms through the strided dot products
``np.linalg.norm`` takes. ``anti_hermitian_exp_stack`` takes generators that are
anti-Hermitian entry by entry and does not symmetrize them. Each scalar
function is a batch of one of its kernel;
``tensor_product``, ``commutator`` and ``variance`` validate their inputs first.
The stacked samplers take drawn (k, 2, ...) standard normals, real parts first.

Each structural hypothesis has one stack-aware check here, which raises a
``PreconditionError`` named after the checked argument for the first failing
member: ``require_hermitian`` (``HERMITICITY_TOL``), ``require_unitary``
(``UNITARITY_TOL``), ``require_orthonormal_rows`` (``ORTHONORMAL_TOL``) and
``require_unit_norm`` (``STATE_NORM_TOL``).
Every threshold is a module constant.
Every caller in the package, the model dataclasses, the samplers and the CLI
loader included, goes through them; an operator argument of known dimension
goes through ``as_hermitian`` (coerce, then the dimension, then hermiticity).

Sweeps draw from one stream per trial, ``default_rng((seed, trial))``, in
chunks of at most ``SWEEP_CHUNK_BYTES`` of the largest per-trial complex stack
the sweep forms and at most ``SWEEP_CHUNK_TRIALS`` trials (``sweep_chunks``),
so a chunk's fixed cost is spread over many trials.
The streams' PCG64 seed words are computed ``SEED_BATCH`` trials at a time,
by numpy's SeedSequence hash run over the trial axis (``_seed_words``); this
relies on numpy keeping that algorithm frozen (its stream-compatibility
policy, NEP 19), and ``tests/test_linalg.py::TestStreamSeeding`` fails if
it changes. Each trial calls its stream three times: one ``random`` call,
one ``standard_normal`` call, then the commutant blocks. Each call fills one
(streams, n) buffer in place, a row per stream, and is split into the
segments its draw sites read (``uniform_draws``, ``normal_draws``); each
segment holds the values of the stream's own ``uniform`` or
``standard_normal`` call at that point, ``uniform`` being
``low + (high - low) * random``, and ``TestDrawKernels`` pins both. No
record depends on the chunk size. Both sweeps run one chunk loop,
``run_sweep``: it hands each chunk's columns to a sink or collects them,
totals the chunks' tallies, and returns one ``SweepReport``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "SweepReport",
    "anti_hermitian_exp_stack",
    "as_hermitian",
    "as_operator",
    "as_state",
    "commutator",
    "commutator_stack",
    "dagger",
    "frobenius_norm_stack",
    "ginibre",
    "ginibre_stack",
    "haar_from_ginibre",
    "haar_unitary",
    "hermitian_eigensystem",
    "hermitian_from_spectrum",
    "image_variance_stack",
    "matvec_stack",
    "normal_draws",
    "normalized_stack",
    "numerical_rank",
    "product_state",
    "random_hermitian",
    "random_hermitian_stack",
    "random_state_vector",
    "random_state_vector_stack",
    "require_hermitian",
    "require_orthonormal_rows",
    "require_unit_norm",
    "require_unitary",
    "run_sweep",
    "sized",
    "sorted_eigensystem",
    "spectral_operator_stack",
    "sweep_chunks",
    "tensor_product",
    "tensor_product_stack",
    "uniform_draws",
    "unitary_completion",
    "variance",
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
# A sweep chunk holds as many trials as fit the largest per-trial complex stack
# its sweep forms in SWEEP_CHUNK_BYTES, and at most SWEEP_CHUNK_TRIALS. The
# bound audit's is its (D, D) unitaries: 512 trials at 2x3, 291 at 3x5, 83 at
# 4x7 and 32 at 5x9. The counterexample sweep's is its (n1, n1, n2) pointer
# blocks: 512 trials up to 4x7, 291 at 5x9. A chunk's fixed cost is about
# 0.3-0.4 ms (time per chunk against its trials), so 1 MiB runs sweeps at 3x5
# to 5x9 9-22 % faster than 256 KiB (fresh processes, one BLAS thread) at a
# peak RSS of at most 48 MB; 2 MiB gains 3-5 % more but peaks at 55 MB. The
# cap keeps 2x3 near the 455 trials of 256 KiB: there 1 MiB alone (1820
# trials) gains at most 5 % and adds 10 MB of peak RSS.
SWEEP_CHUNK_BYTES = 1 << 20
SWEEP_CHUNK_TRIALS = 512
# Trials whose stream seed words one ``_seed_words`` pass computes. A pass
# costs about 100 us, as much as 6 to 8 per-trial SeedSequence seedings,
# plus about 0.1 us a trial, so the batch is not tied to the chunk (32 trials
# at 5x9). Its words take 32 KiB.
SEED_BATCH = 1024


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce to a square complex matrix with finite entries; errors name it ``name``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} entries must be finite")
    return a


def as_state(v, name: str) -> np.ndarray:
    """Coerce to a finite complex vector of unit Euclidean norm; errors name it ``name``."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} amplitudes must be finite")
    require_unit_norm(v, name)
    return v


def sized(a: np.ndarray, dim: int, name: str) -> np.ndarray:
    """``a``, once its first axis is checked to have length ``dim``."""
    if a.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}")
    return a


def as_hermitian(a, dim: int, name: str) -> np.ndarray:
    """Coerce to a square complex matrix (``as_operator``), then check its dimension, then that it is Hermitian."""
    a = sized(as_operator(a, name), dim, name)
    require_hermitian(a, name)
    return a


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


def frobenius_norm_stack(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-ordered (..., m, n) stack.

    The two strided dot products ``np.linalg.norm`` takes (real parts, then
    imaginary parts), one pair per matrix, so each norm has its bits.
    """
    x = a.reshape(*a.shape[:-2], -1)
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


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
    a, s = as_operator(a), as_state(s, "state")
    if a.shape[0] != s.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {s.shape[0]}")
    require_hermitian(a, "operator")
    return float(image_variance_stack(s[None], matvec_stack(a[None], s[None]))[0])


def image_variance_stack(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``variance`` of a Hermitian a on each state of a (k, n) stack, from the images w = a s, unvalidated."""
    second_moment = np.vecdot(w, w).real
    mean = np.vecdot(s, w).real
    value = second_moment - mean * mean
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
    return np.linalg.eigh(a)


def numerical_rank(a: np.ndarray, tol: float) -> int:
    """Count of singular values above ``tol`` times the largest one (or 1 if all zero)."""
    singulars = np.linalg.svd(as_operator(a), compute_uv=False)
    scale = float(singulars[0]) if singulars[0] > 0 else 1.0
    return int(np.sum(singulars > tol * scale))


def unitary_completion(columns) -> np.ndarray:
    """Extend orthonormal columns to a full unitary.

    The first k columns of the result are the inputs verbatim. The remaining
    columns come from Gram-Schmidt over the computational basis (in index order,
    two passes of one projection off all columns collected so far), so
    structured inputs get structured completions.

    The basis always completes them. Were the collected columns short of D, a
    unit vector w orthogonal to all of them would exist, and some basis vector
    e_i would have |<e_i|w>| >= 1/sqrt(D). When e_i was processed, w was
    orthogonal to every column collected so far, so e_i's residual kept that
    component: its norm was at least 1/sqrt(D) > 1e-8, and e_i was collected.
    """
    cols = [np.asarray(c, dtype=complex) for c in columns]
    if not cols:
        raise ValueError("at least one column is required")
    dim, k = cols[0].shape[0], len(cols)
    if any(c.ndim != 1 or c.shape[0] != dim for c in cols):
        raise ValueError("columns must be vectors of a common dimension")
    if k > dim:
        raise ValueError(f"{k} columns cannot fit in dimension {dim}")
    require_orthonormal_rows(np.stack(cols), "columns")
    collected = np.zeros((dim, dim), dtype=complex)
    collected[:, :k] = np.stack(cols, axis=1)
    for cand in np.eye(dim, dtype=complex):  # e_0, e_1, ...: rows of a scratch identity, updated in place
        if k == dim:
            break
        for _ in range(2):  # re-orthogonalize; twice is enough
            cand -= collected[:, :k] @ (dagger(collected[:, :k]) @ cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            collected[:, k], k = cand / norm, k + 1
    return collected


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of ``n`` >= 0, [0] for 0: numpy's entropy words of an int."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, after
# O'Neill's seed_seq_fe), frozen by numpy's stream-compatibility policy (NEP 19).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i < n + 1, as a (n + 1, 1) uint32 column."""
    constants = [init]
    for _ in range(n):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hash(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row i of ``values`` with the constants i and i + 1."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_MULT_L * x - _MIX_MULT_R * y
    return values ^ values >> _XSHIFT


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of a (k, m)
    uint32 entropy array, as a (k, 4) uint64 array.

    numpy's ``mix_entropy`` and ``generate_state``, run over the trial axis:
    the hash constants do not depend on the data, so the four pool words are
    one (4, k) array, and each source word's mixes into the other pool words
    are one step.
    """
    words = entropy.T
    m, k = words.shape
    extra = max(0, m - 4)
    constants = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra)
    pool = np.zeros((4, k), dtype=np.uint32)
    pool[: min(m, 4)] = words[:4]
    pool = _hash(pool, constants[:5])
    n = 4
    for source in range(4):
        others = [lane for lane in range(4) if lane != source]
        pool[others] = _mix(pool[others], _hash(pool[source], constants[n : n + 4]))
        n += 3
    for word in words[4:]:
        pool = _mix(pool, _hash(word, constants[n : n + 5]))
        n += 4
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTANTS).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def _stream_words(seed: int, trials: range) -> np.ndarray:
    """The PCG64 seed words of ``default_rng((seed, trial))`` for each trial of
    ``trials``, as a (len(trials), 4) uint64 array.

    Trials with the same number of words share one ``_seed_words`` pass; the
    words of ``trials.start + i`` are those of the start plus i, carried.
    """
    head = _words(seed)
    parts = []
    start = trials.start
    while start < trials.stop:
        low = _words(start)
        stop = min(trials.stop, 1 << 32 * len(low))
        entropy = np.empty((stop - start, len(head) + len(low)), dtype=np.uint32)
        entropy[:, : len(head)] = head
        carry = np.arange(stop - start, dtype=np.uint64)
        for i, word in enumerate(low, len(head)):
            total = carry + word
            entropy[:, i] = total & 0xFFFFFFFF
            carry = total >> 32
        parts.append(_seed_words(entropy))
        start = stop
    return np.concatenate(parts)


@functools.cache
def _seed_words_type() -> type:
    """The seed sequence class of the sweep streams, defined on the first sweep:
    it subclasses numpy's ``ISeedSequence``, and importing ``numpy.random``
    (about 6 MB and 25 ms) is a cost commands that draw nothing do not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The PCG64 seed words of one stream, computed by ``_seed_words``: a
        seed sequence that gives exactly the 4 uint64 words PCG64 asks for,
        and raises for any other request."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only the 4 uint64 words of a PCG64 seed are stored, not {n_words} of {dtype}")
            return self.words

    return SeedWords


def _streams(seed: int, count: int):
    """Yield ``default_rng((seed, trial))`` for each trial < ``count``, in order.

    Each stream is a PCG64 generator seeded with the words numpy's
    SeedSequence makes of (seed, trial), computed ``SEED_BATCH`` trials at a
    time by ``_seed_words``.
    """
    seed_words = _seed_words_type()
    for start in range(0, count, SEED_BATCH):
        for words in _stream_words(seed, range(start, min(start + SEED_BATCH, count))):
            yield np.random.Generator(np.random.PCG64(seed_words(words)))


def sweep_chunks(seed: int, count: int, stack: tuple[int, ...]):
    """Yield (trials, streams) for a sweep of ``count`` trials whose largest per-trial
    complex stack has the shape ``stack``.

    Chunks hold as many trials as fit one (chunk, *stack) complex stack in
    ``SWEEP_CHUNK_BYTES``, and at most ``SWEEP_CHUNK_TRIALS``. Each trial gets
    the stream ``default_rng((seed, trial))``, whose seed words are computed
    for a batch of trials at once (``_streams``). This relies on numpy's SeedSequence algorithm staying
    frozen (NEP 19); ``tests/test_linalg.py::TestStreamSeeding`` pins every
    stream against ``default_rng``.
    """
    size = max(1, min(SWEEP_CHUNK_TRIALS, SWEEP_CHUNK_BYTES // (16 * math.prod(stack))))
    streams = _streams(seed, count)
    for start in range(0, count, size):
        trials = range(start, min(start + size, count))
        yield trials, list(itertools.islice(streams, len(trials)))


@dataclass(frozen=True)
class SweepReport:
    """A sweep's config, its summary and, unless a sink took them, its trials as
    ``columns``, a list per field of its ``record`` dataclass, which ``records`` reads."""

    config: object
    summary: object
    record: type
    columns: dict[str, list] = field(hash=False)

    @property
    def records(self) -> tuple:
        return tuple(self.record(**dict(zip(self.columns, row))) for row in zip(*self.columns.values()))


def run_sweep(
    config, chunk: Callable, stack: tuple[int, ...], record: type, summarize: Callable,
    sink: Callable[[dict], object] | None = None,
):
    """Run ``chunk(config, trials, streams)`` on each chunk of the sweep ``config`` sets (its
    ``count`` and ``seed``), chunks sized by ``stack``, the shape of the largest per-trial stack
    ``chunk`` forms (see ``sweep_chunks``), and report the sweep.

    Each chunk's columns, a list per ``record`` field, go to ``sink`` as they come, or,
    with no sink, are collected. Its tallies are totalled (a ``max_*`` tally keeps its
    largest value, any other is summed) into the summary ``summarize(**totals)``.
    """
    columns: dict[str, list] = {}
    tallies: dict = {}
    for trials, streams in sweep_chunks(config.seed, config.count, stack):
        chunk_columns, chunk_tallies = chunk(config, trials, streams)
        if sink is not None:
            sink(chunk_columns)
        else:
            for name, values in chunk_columns.items():
                columns.setdefault(name, []).extend(values)
        for name, value in chunk_tallies.items():
            total = max if name.startswith("max_") else operator.add
            tallies[name] = total(tallies[name], value) if name in tallies else value
    return SweepReport(config, summarize(**tallies), record, columns)


def _segments(rows: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive segments of each row of a (k, total) array, in order, as (k, *shape) views."""
    segments, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        segments.append(rows[:, start : start + size].reshape(len(rows), *shape))
        start += size
    return segments


def normal_draws(rngs, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """One ``rng.standard_normal`` call per stream, filling its row of one buffer in place, split into
    (len(rngs), *shape) segments in order: each segment holds what the stream's own
    ``standard_normal(shape)`` call would give at that point."""
    out = np.empty((len(rngs), sum(math.prod(shape) for shape in shapes)))
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)
    return _segments(out, shapes)


def uniform_draws(rngs, *segments: tuple[float, float, int]) -> list[np.ndarray]:
    """One ``rng.random`` call per stream, filling its row of one buffer in place, split into a
    (len(rngs), n) segment per (low, high, n) in order, scaled as numpy's ``uniform(low, high, n)``:
    ``low + (high - low) * random``, so each value has the bits of the stream's own call."""
    out = np.empty((len(rngs), sum(n for _, _, n in segments)))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    parts = _segments(out, [(n,) for _, _, n in segments])
    return [low + (high - low) * part for (low, high, _), part in zip(segments, parts)]


def _complex(normals: np.ndarray) -> np.ndarray:
    """re + 1j * im of a (k, 2, ...) stack of standard normals: real parts first, then imaginary."""
    return normals[:, 0] + 1j * normals[:, 1]


def _normals(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """One stream's (1, 2, *shape) standard normals, for a sampler of one draw."""
    if min(shape) < 1:
        raise ValueError("dim must be at least 1")
    return normal_draws([rng], (2, *shape))[0]


def ginibre_stack(normals: np.ndarray) -> np.ndarray:
    """One Ginibre matrix (re + i im) / sqrt(2) per member of a (k, 2, dim, dim) stack of standard normals."""
    return _complex(normals) / np.sqrt(2.0)


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix: real parts drawn first, then imaginary parts."""
    return ginibre_stack(_normals(rng, dim, dim))[0]


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices stacked over (..., d, d).

    One stacked QR, then the R-phase correction (Mezzadri, Notices AMS 54,
    592, 2007); each matrix of the stack gets the same bits as its own QR
    would give. A (..., 1, 1) stack skips the QR: its Haar unitaries are the
    phases z / |z|, which the QR path gives to within rounding.
    """
    if z.shape[-1] == 1:
        return _phases(z)
    q, r = np.linalg.qr(z)
    return q * _phases(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _phases(z: np.ndarray) -> np.ndarray:
    """z / |z| for each entry of ``z``, and 1 for a zero entry."""
    absz = np.abs(z)
    return np.where(absz > 0, z / np.where(absz > 0, absz, 1.0), 1.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: ``haar_from_ginibre`` of one Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, rng))


def normalized_stack(z: np.ndarray) -> np.ndarray:
    """Each vector of a C-ordered (k, n) stack divided by its norm, as ``z / np.linalg.norm(z)``."""
    return z / frobenius_norm_stack(z[..., None])[..., None]


def random_state_vector_stack(normals: np.ndarray) -> np.ndarray:
    """One Haar-random unit vector per member of a (k, 2, dim) stack of standard normals."""
    return normalized_stack(_complex(normals))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    return random_state_vector_stack(_normals(rng, dim))[0]


def random_hermitian_stack(normals: np.ndarray) -> np.ndarray:
    """One random Hermitian matrix (z + z^dag) / 2, z = re + i im, per member of a (k, 2, dim, dim) stack of
    standard normals."""
    z = _complex(normals)
    return (z + dagger(z)) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return random_hermitian_stack(_normals(rng, dim, dim))[0]


def hermitian_from_spectrum(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w diag(d) w^dag, symmetrized, for each row of (k, n) spectra and (k, n, n) unitaries."""
    h = (w * d[..., None, :]) @ dagger(w)
    return (h + dagger(h)) / 2.0


def sorted_eigensystem(d: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of ``hermitian_from_spectrum(d, w)`` as the draw gives it: each row of
    (k, n) spectra in ascending order, and the columns of the (k, n, n) unitaries in that order."""
    order = np.argsort(d, axis=-1, kind="stable")
    return np.take_along_axis(d, order, axis=-1), np.take_along_axis(w, order[..., None, :], axis=-1)


def spectral_operator_stack(d: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """W diag(d) W^dag for each row of (k, n) spectra, W the Haar unitary of the Ginibre matrix of a
    (k, 2, n, n) stack of standard normals, and its eigensystem (``sorted_eigensystem``)."""
    w = haar_from_ginibre(ginibre_stack(normals))
    return hermitian_from_spectrum(d, w), sorted_eigensystem(d, w)


def anti_hermitian_exp_stack(k: np.ndarray) -> np.ndarray:
    """exp(k) for each anti-Hermitian matrix of a (..., d, d) stack, unvalidated.

    Each k must be anti-Hermitian entry by entry, k[b, a] == -conj(k[a, b]),
    as ``commutant._Chart.generator`` scatters it: -i*k is then Hermitian as
    it stands, and ``eigh``, which reads only its lower triangle, takes it
    unsymmetrized. One stacked ``eigh`` gives each matrix the same bits as its
    own call would.
    """
    values, vectors = np.linalg.eigh(-1j * k)
    return (vectors * np.exp(1j * values)[..., None, :]) @ dagger(vectors)
