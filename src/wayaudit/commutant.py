"""Unitaries commuting with a conserved quantity, and optimization over them.

A joint unitary conserves L exactly iff it is block-unitary on the eigenspaces
of L. This module eigendecomposes L into blocks, samples block unitaries
uniformly, projects anti-Hermitian generators onto the block structure, and
runs a projected finite-difference descent over the blocks to measure
empirical floors of measurement-noise or scheme-quality objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_operator,
    as_state,
    dagger,
    frobenius_norm,
    ginibre,
    haar_from_ginibre,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_eigensystem,
    product_state,
    random_state_vector,
    tensor_product,
)
from .model import ConservedQuantity, conserved_operator

__all__ = [
    "Block",
    "BlockDecomposition",
    "SearchConfig",
    "SearchResult",
    "conserved_eigenspaces",
    "default_probe_states",
    "feasibility_search",
    "minimize_epsilon",
    "project_generator",
    "random_commutant_unitary",
]

FD_STEP = 1e-6
MIN_STEP = 1e-13
CONVERGENCE_STREAK = 10


@dataclass(frozen=True)
class Block:
    """One eigenvalue group of the conserved operator."""

    eigenvalue: float
    basis: np.ndarray  # (total_dim, block_dim), orthonormal columns


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    total_dim: int

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.basis.shape[1] for b in self.blocks)


def conserved_eigenspaces(
    q: ConservedQuantity, dims: tuple[int, int] | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> BlockDecomposition:
    """Eigenvalue groups of the joint conserved operator.

    Sorted eigenvalues are clustered by gaps larger than ``grouping_tol``, so
    eigenvalues inside a block are mutually closer than the gap between blocks.
    """
    if dims is not None:
        expected = (q.system_op.shape[0], q.apparatus_op.shape[0])
        if tuple(dims) != expected:
            raise ValueError(f"dims {tuple(dims)} do not match quantity dims {expected}")
    joint = conserved_operator(q)
    values, vectors = hermitian_eigensystem(joint, tol)
    blocks = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol.grouping_tol:
            group = slice(start, i)
            blocks.append(Block(float(values[group].mean()), vectors[:, group]))
            start = i
    return BlockDecomposition(tuple(blocks), joint.shape[0])


def _block_unitaries(dims: tuple[int, ...], rng: np.random.Generator) -> list[np.ndarray]:
    """One Haar unitary per block: Ginibre draws in block order, one stacked QR per size."""
    draws = [ginibre(dim, rng) for dim in dims]
    unitaries = [None] * len(dims)
    for size in set(dims):
        members = [i for i, dim in enumerate(dims) if dim == size]
        for i, v in zip(members, haar_from_ginibre(np.stack([draws[i] for i in members]))):
            unitaries[i] = v
    return unitaries


def commutant_unitary(d: BlockDecomposition, rng: np.random.Generator) -> np.ndarray:
    """Haar block unitary assembled in the original basis; conserves L by construction.

    Draw-order invariant: each block's Ginibre matrix is drawn from ``rng`` in
    block order, as one ``haar_unitary`` call per block would draw it, and
    ``u`` is summed in block order. Only the QR is batched (one stacked call
    per block size, bit-identical per matrix), so ``u`` matches the per-block
    loop bit for bit.
    """
    u = np.zeros((d.total_dim, d.total_dim), dtype=complex)
    for block, v in zip(d.blocks, _block_unitaries(d.dims, rng)):
        u += block.basis @ v @ dagger(block.basis)
    return u


def random_commutant_unitary(d: BlockDecomposition, seed: int) -> np.ndarray:
    return commutant_unitary(d, np.random.default_rng(seed))


def project_generator(
    k: np.ndarray, d: BlockDecomposition, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Zero the cross-block components of an anti-Hermitian generator.

    The projected generator exponentiates to a conserving unitary.
    """
    k = as_operator(k)
    defect = frobenius_norm(k + dagger(k))
    if defect > tol.hermiticity_tol:
        raise ValueError(f"generator is not anti-Hermitian: residual {defect:.3e}")
    out = np.zeros_like(k)
    for block in d.blocks:
        out += block.basis @ (dagger(block.basis) @ k @ block.basis) @ dagger(block.basis)
    return out


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    restarts: int = 8
    max_iter: int = 2000
    step: float = 0.1
    ftol: float = 1e-12

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    """Best conserving unitary found, with the accepted-step objective trace.

    ``restart_objectives`` holds the final objective of every restart in
    restart order, so callers can reason about empirical floors rather than
    just the single best point.
    """

    best_unitary: np.ndarray
    best_objective: float
    objective_trace: tuple[tuple[int, float], ...]
    restarts_used: int
    converged: bool
    restart_objectives: tuple[float, ...]


def _block_exp(theta: np.ndarray, dim: int) -> np.ndarray:
    """exp of the anti-Hermitian generator parametrized by theta (length dim**2)."""
    k = np.zeros((dim, dim), dtype=complex)
    idx = 0
    for a in range(dim):
        k[a, a] = 1j * theta[idx]
        idx += 1
    for a in range(dim):
        for b in range(a + 1, dim):
            t_re, t_im = theta[idx], theta[idx + 1]
            idx += 2
            k[a, b] += t_re + 1j * t_im
            k[b, a] += -t_re + 1j * t_im
    h = -1j * k
    values, vectors = np.linalg.eigh((h + dagger(h)) / 2.0)
    return (vectors * np.exp(1j * values)) @ dagger(vectors)


def _single_factor(dim: int, param: int, t: float) -> np.ndarray:
    """exp(t * G_param) for one canonical block generator; analytic, no eigh."""
    f = np.eye(dim, dtype=complex)
    if param < dim:
        f[param, param] = np.exp(1j * t)
        return f
    p = param - dim
    # enumerate pairs (a, b), a < b, two generators each: real and imaginary part
    pair, kind = divmod(p, 2)
    a, b = _pair_from_index(dim, pair)
    c, s = np.cos(t), np.sin(t)
    if kind == 0:  # G = E_ab - E_ba
        f[a, a] = c
        f[b, b] = c
        f[a, b] = s
        f[b, a] = -s
    else:  # G = i (E_ab + E_ba)
        f[a, a] = c
        f[b, b] = c
        f[a, b] = 1j * s
        f[b, a] = 1j * s
    return f


def _pair_from_index(dim: int, pair: int) -> tuple[int, int]:
    idx = 0
    for a in range(dim):
        for b in range(a + 1, dim):
            if idx == pair:
                return a, b
            idx += 1
    raise IndexError(pair)


class _BlockPoint:
    """Current iterate: one unitary per block, with cached joint assembly."""

    def __init__(self, decomposition: BlockDecomposition, block_unitaries):
        self.decomposition = decomposition
        self.block_unitaries = list(block_unitaries)
        self.parts = [
            block.basis @ v @ dagger(block.basis)
            for block, v in zip(decomposition.blocks, self.block_unitaries)
        ]
        self.joint = sum(self.parts)

    def perturbed_joint(self, block_index: int, factor: np.ndarray) -> np.ndarray:
        block = self.decomposition.blocks[block_index]
        part = block.basis @ (self.block_unitaries[block_index] @ factor) @ dagger(block.basis)
        return self.joint - self.parts[block_index] + part

    def stepped(self, thetas) -> "_BlockPoint":
        new = [
            v @ _block_exp(theta, v.shape[0])
            for v, theta in zip(self.block_unitaries, thetas)
        ]
        return _BlockPoint(self.decomposition, new)


def _descend(decomposition, objective, rng, config: SearchConfig):
    """One restart of projected finite-difference descent. Returns (f, U, trace, converged)."""
    dims = decomposition.dims
    point = _BlockPoint(decomposition, _block_unitaries(dims, rng))
    f = objective(point.joint)
    trace = [(0, f)]
    step = config.step
    streak = 0
    converged = False
    param_counts = [d * d for d in dims]

    for it in range(1, config.max_iter + 1):
        grads = []
        gmax = 0.0
        for bi, d in enumerate(dims):
            g = np.zeros(param_counts[bi])
            for p in range(param_counts[bi]):
                plus = objective(point.perturbed_joint(bi, _single_factor(d, p, FD_STEP)))
                minus = objective(point.perturbed_joint(bi, _single_factor(d, p, -FD_STEP)))
                g[p] = (plus - minus) / (2.0 * FD_STEP)
            grads.append(g)
            gmax = max(gmax, float(np.max(np.abs(g))) if g.size else 0.0)

        accepted = False
        if gmax > 0.0:
            while step >= MIN_STEP:
                scale = step / gmax
                candidate = point.stepped([-scale * g for g in grads])
                f_new = objective(candidate.joint)
                if f_new < f:
                    improvement = f - f_new
                    point, f = candidate, f_new
                    trace.append((it, f))
                    streak = streak + 1 if improvement < config.ftol else 0
                    step = min(step * 2.0, config.step)
                    accepted = True
                    break
                step /= 2.0
        if not accepted:
            streak += 1
        if streak >= CONVERGENCE_STREAK:
            converged = True
            break
    return f, point.joint, trace, converged


def _search(decomposition, make_objective, config: SearchConfig) -> SearchResult:
    """Multi-restart descent; restarts use independent seeded streams and the
    best result is picked by (objective, restart index)."""
    finals = []
    best = None
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        objective = make_objective(rng)
        f, u, trace, converged = _descend(decomposition, objective, rng, config)
        finals.append(f)
        if best is None or f < best[0]:
            best = (f, u, trace, converged)
    f, u, trace, converged = best
    return SearchResult(
        best_unitary=u,
        best_objective=f,
        objective_trace=tuple(trace),
        restarts_used=config.restarts,
        converged=converged,
        restart_objectives=tuple(finals),
    )


def default_probe_states(system_op: np.ndarray) -> list[np.ndarray]:
    """Eigenbasis of the system conserved factor plus all pairwise equal-weight mixes."""
    _, vectors = hermitian_eigensystem(system_op)
    n = vectors.shape[1]
    states = [vectors[:, i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            states.append((vectors[:, i] + vectors[:, j]) / np.sqrt(2.0))
    return states


def minimize_epsilon(
    q: ConservedQuantity,
    observable: np.ndarray,
    probe: np.ndarray,
    ready_state: np.ndarray,
    probe_states=None,
    config: SearchConfig = None,
) -> SearchResult:
    """Minimize the mean squared measurement noise over conserving unitaries.

    The objective is the average over ``probe_states`` of
    ||(U^dag (1 (x) probe) U - observable (x) 1) (psi (x) v)||^2; every iterate
    stays inside the commutant of the conserved quantity.
    """
    if config is None:
        raise ValueError("config with a seed is required")
    observable = as_operator(observable)
    probe = as_operator(probe)
    ready = as_state(ready_state)
    n1 = q.system_op.shape[0]
    n2 = q.apparatus_op.shape[0]
    if observable.shape[0] != n1:
        raise ValueError(f"observable must have dimension {n1}")
    if probe.shape[0] != n2 or ready.shape[0] != n2:
        raise ValueError(f"probe and ready_state must have dimension {n2}")
    if probe_states is None:
        probe_states = default_probe_states(q.system_op)
    states = [as_state(s) for s in probe_states]
    if any(s.shape[0] != n1 for s in states):
        raise ValueError(f"probe states must have dimension {n1}")

    decomposition = conserved_eigenspaces(q)
    probe_joint = tensor_product(np.eye(n1), probe)
    obs_joint = tensor_product(observable, np.eye(n2))
    joints = [product_state(s, ready) for s in states]

    def make_objective(rng):
        def objective(u):
            evolved = dagger(u) @ probe_joint @ u - obs_joint
            total = 0.0
            for psi in joints:
                w = evolved @ psi
                total += float(np.vdot(w, w).real)
            return total / len(joints)

        return objective

    return _search(decomposition, make_objective, config)


def feasibility_search(
    q: ConservedQuantity,
    observable: np.ndarray,
    n2: int,
    config: SearchConfig = None,
) -> SearchResult:
    """Search the commutant for an exact nondestructive scheme for ``observable``.

    The measured basis is the observable's eigenbasis; each restart draws its
    own apparatus ready state. The objective is leakage^2 + deficit^2, which an
    exact nondestructive scheme drives to zero. No hypothesis gating happens
    here: dimensions outside the no-go regime are searched all the same.
    """
    if config is None:
        raise ValueError("config with a seed is required")
    observable = as_operator(observable)
    n1 = q.system_op.shape[0]
    if observable.shape[0] != n1:
        raise ValueError(f"observable must have dimension {n1}")
    if n2 != q.apparatus_op.shape[0]:
        raise ValueError(
            f"n2 = {n2} does not match the apparatus factor dimension {q.apparatus_op.shape[0]}"
        )
    _, vectors = hermitian_eigensystem(observable)
    basis = vectors.T  # row i = eigenvector i
    basis_conj = basis.conj()
    decomposition = conserved_eigenspaces(q)

    def make_objective(rng):
        ready = random_state_vector(n2, rng)
        inputs = [product_state(basis[j], ready) for j in range(n1)]
        eye = np.eye(n1)

        def objective(u):
            pointers = np.zeros((n1, n2), dtype=complex)
            leakage_sq = 0.0
            for j in range(n1):
                w = basis_conj @ (u @ inputs[j]).reshape(n1, n2)
                norms_sq = np.einsum("ik,ik->i", w.conj(), w).real
                diag_sq = norms_sq[j]
                norms_sq[j] = 0.0
                leakage_sq = max(leakage_sq, float(norms_sq.max()))
                if diag_sq > 1e-24:
                    pointers[j] = w[j] / np.sqrt(diag_sq)
            gram = pointers.conj() @ pointers.T
            deficit_sq = float(np.linalg.norm(gram - eye) ** 2)
            return leakage_sq + deficit_sq

        return objective

    return _search(decomposition, make_objective, config)
