"""Unitaries commuting with a conserved quantity, and optimization over them.

A joint unitary conserves L exactly iff it is block-unitary on the eigenspaces
of L. This module eigendecomposes L into blocks, samples block unitaries
uniformly, and minimizes sums of squares over the commutant to measure
empirical floors of measurement-noise or scheme-quality objectives.

The optimizer is Levenberg-Marquardt on the exact residual Jacobian. Its
parameters are the canonical generators of every block (d**2 per block of
size d), and for the feasibility search also the tangent directions of the
ready-state sphere. The Jacobian is one stacked directional derivative along
dU = U K_p; an accepted step retracts with one stacked exp per block size and
renormalizes the ready state. Each restart reports why it stopped.

Sweeps sample commutants for a whole chunk of trials at once
(``commutant_unitary_stack``; chunks are sized from D by
``linalg.SWEEP_CHUNK_BYTES``). It is the seam of the sweeps' two-phase draw
order: once phase A has drawn each trial's factors, one stacked ``eigh`` of
the conserved operators reveals each trial's block sizes, and phase B opens
with every trial drawing its blocks' Ginibre matrices from its own stream,
in block order. Trials with equal block sizes are assembled together on
(group, D, D) stacks. ``conserved_eigenspaces`` and ``commutant_unitary``
are its batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    GROUPING_TOL,
    anti_hermitian_exp_stack,
    as_operator,
    as_state,
    dagger,
    haar_from_ginibre,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_eigensystem,
    product_state,
    random_state_vector,
    tensor_product,
    tensor_product_stack,
)
from .model import POINTER_DEGENERACY_TOL, ConservedQuantity, conserved_operator

__all__ = [
    "Block",
    "BlockDecomposition",
    "SearchConfig",
    "SearchResult",
    "block_sizes",
    "commutant_unitary_stack",
    "conserved_eigenspaces",
    "default_probe_states",
    "feasibility_search",
    "minimize_epsilon",
]

ZERO_OBJECTIVE = POINTER_DEGENERACY_TOL**2  # far below any floor the searches report
# A restart stops once the next step promises a decrease of at most FTOL times
# the objective (see _descend).
FTOL = 1e-15
STOP_REASONS = ("zero", "no_decrease", "gradient", "max_iter")  # see _descend


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


def conserved_eigenspaces(q: ConservedQuantity) -> BlockDecomposition:
    """Eigenvalue groups of the joint conserved operator.

    Sorted eigenvalues are clustered by gaps larger than ``GROUPING_TOL``, so
    eigenvalues inside a block are mutually closer than the gap between blocks.
    """
    joint = conserved_operator(q)
    values, vectors = hermitian_eigensystem(joint)
    blocks, start = [], 0
    (dims,) = block_sizes(values[None])
    for dim in dims:
        group = slice(start, start + dim)
        blocks.append(Block(float(values[group].mean()), vectors[:, group]))
        start += dim
    return BlockDecomposition(tuple(blocks), joint.shape[0])


def block_sizes(values: np.ndarray):
    """Yield the block sizes of each row of a (k, D) stack of ascending eigenvalues.

    A block ends where the next eigenvalue lies more than ``GROUPING_TOL``
    above it, so eigenvalues inside a block are closer than the gap between blocks.
    """
    dim, sizes = values.shape[-1], {}
    for gaps in map(tuple, (np.diff(values, axis=-1) > GROUPING_TOL).tolist()):
        if gaps not in sizes:
            starts = [0] + [i + 1 for i, gap in enumerate(gaps) if gap]
            sizes[gaps] = tuple(b - a for a, b in zip(starts, starts[1:] + [dim]))
        yield sizes[gaps]


def _block_unitaries(dims: tuple[int, ...], rngs) -> dict[int, np.ndarray]:
    """Haar unitaries of blocks of sizes ``dims``, (len(rngs), m, size, size) per size.

    Each stream draws its blocks' Ginibre matrices in block order, real parts
    before imaginary ones, as one ``ginibre`` call per block would; then one
    stacked QR per block size.
    """
    count = 2 * sum(d * d for d in dims)
    raw = np.stack([rng.standard_normal(count) for rng in rngs])
    ginibres, start = [], 0
    for d in dims:
        block = raw[:, start : start + 2 * d * d].reshape(len(rngs), 2, d, d)
        ginibres.append((block[:, 0] + 1j * block[:, 1]) / np.sqrt(2.0))
        start += 2 * d * d
    return {
        size: haar_from_ginibre(np.stack([z for z, d in zip(ginibres, dims) if d == size], axis=1))
        for size in sorted(set(dims))
    }


def commutant_unitary_stack(la: np.ndarray, lb: np.ndarray, rngs) -> np.ndarray:
    """Haar unitaries from the commutants of la[i] (x) lb[i], one per stream, (k, D, D);
    the factors are taken as valid (see ``ConservedQuantity``).

    One stacked ``eigh`` of the conserved operators gives each trial its block
    sizes; trials with equal sizes draw and assemble together. Each unitary is
    summed block by block in block order, bit-identical to ``commutant_unitary``
    on the trial's own decomposition.
    """
    joint = tensor_product_stack(la, lb)
    values, vectors = np.linalg.eigh(joint)
    groups = {}
    for i, dims in enumerate(block_sizes(values)):
        groups.setdefault(dims, []).append(i)
    u = np.empty_like(joint)
    for dims, members in groups.items():
        u[members] = _assemble(vectors[members], dims, [rngs[i] for i in members])
    return u


def _assemble(columns: np.ndarray, dims: tuple[int, ...], rngs) -> np.ndarray:
    """Sum over blocks, in block order, of basis @ V @ basis^dag; ``columns`` holds the
    (k, D, sum(dims)) block bases side by side."""
    unitaries = _block_unitaries(dims, rngs)
    seen = {size: 0 for size in unitaries}
    u, start = 0, 0
    for d in dims:
        basis = columns[..., start : start + d]
        u = u + basis @ unitaries[d][:, seen[d]] @ dagger(basis)
        seen[d] += 1
        start += d
    return u


class _SizeGroup:
    """The blocks of one size as stacks, with the generator layout of that size."""

    def __init__(self, decomposition: BlockDecomposition, size: int):
        self.size = size
        self.members = [i for i, dim in enumerate(decomposition.dims) if dim == size]
        self.bases = np.stack([decomposition.blocks[i].basis for i in self.members])
        self.bases_dag = dagger(self.bases)

    @cached_property
    def layout(self) -> np.ndarray:
        """Row-major entry order of the values listed by ``generators``: diagonal, upper, lower."""
        diag, (a, b) = np.arange(self.size), np.triu_indices(self.size, 1)
        return np.argsort(np.concatenate([diag * (self.size + 1), a * self.size + b, b * self.size + a]))

    def generators(self, thetas: np.ndarray) -> np.ndarray:
        """Anti-Hermitian generators (..., size, size) from parameter rows (..., size**2).

        A row holds size diagonal phases, then the real and the imaginary part
        of the (a, b) entry for each pair a < b in row-major order.
        """
        t_re, t_im = thetas[..., self.size::2], thetas[..., self.size + 1::2]
        im = 1j * t_im
        # off-diagonal entries as 0 + value: zero parts get the sign that adding into zeros gives
        values = np.concatenate([1j * thetas[..., : self.size], 0j + (t_re + im), 0j + (-t_re + im)], axis=-1)
        return values[..., self.layout].reshape(*thetas.shape[:-1], self.size, self.size)

    def joint_generators(self) -> np.ndarray:
        """B G_p B^dag for each block B of the group and each canonical generator G_p
        (a unit parameter row), (len(members) * size**2, D, D) in parameter order."""
        canonical = self.generators(np.eye(self.size**2))
        joint = self.bases[:, None] @ canonical @ self.bases_dag[:, None]
        return joint.reshape(-1, *joint.shape[-2:])


class _BlockPoint:
    """Block unitaries stacked per size as (..., m, d, d), with their joint (..., D, D)
    summed block by block in block order."""

    def __init__(self, groups: list[_SizeGroup], unitaries: list[np.ndarray]):
        self.groups = groups
        self.unitaries = unitaries
        parts = [g.bases @ v @ g.bases_dag for g, v in zip(groups, unitaries)]
        by_block = {i: p[..., k, :, :] for g, p in zip(groups, parts) for k, i in enumerate(g.members)}
        self.joint = sum(by_block[i] for i in range(len(by_block)))

    def stepped(self, thetas: list[np.ndarray]) -> "_BlockPoint":
        """The point moved by V <- V exp(G(theta)) in every block, from (..., m, d**2)
        parameters per group; one stacked exp per group."""
        steps = [anti_hermitian_exp_stack(g.generators(theta)) for g, theta in zip(self.groups, thetas)]
        return _BlockPoint(self.groups, [v @ step for v, step in zip(self.unitaries, steps)])


def commutant_unitary(d: BlockDecomposition, rng: np.random.Generator) -> np.ndarray:
    """Haar block unitary assembled in the original basis; conserves L by construction.

    Draw-order invariant: each block's Ginibre matrix is drawn from ``rng`` in
    block order, as one ``haar_unitary`` call per block would draw it, and
    ``u`` is summed in block order. The QR is stacked per block size
    (bit-identical per matrix), so ``u`` matches the per-block loop bit for
    bit. A batch of one of the sweeps' kernel.
    """
    columns = np.concatenate([b.basis for b in d.blocks], axis=1)
    return _assemble(columns[None], d.dims, [rng])[0]


def _random_point(d: BlockDecomposition, rng: np.random.Generator) -> _BlockPoint:
    """Haar block unitaries drawn as ``commutant_unitary`` draws them, kept per block size."""
    groups = [_SizeGroup(d, size) for size in sorted(set(d.dims))]
    unitaries = _block_unitaries(d.dims, [rng])
    return _BlockPoint(groups, [unitaries[g.size][0] for g in groups])


@dataclass(frozen=True)
class SearchConfig:
    """Restart count and per-restart budget; ``_descend`` says how ``max_iter`` stops a restart."""

    seed: int
    restarts: int = 8
    max_iter: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    """Best conserving unitary found, with the accepted-step objective trace.

    ``restart_objectives`` and ``stop_reasons`` (see ``STOP_REASONS``) hold the
    final objective and stop reason of every restart in restart order, so callers
    can reason about empirical floors rather than just the best point. The best
    restart's ready state is ``best_ready_state``; ``converged`` means it stopped
    before ``max_iter``.
    """

    best_unitary: np.ndarray
    best_ready_state: np.ndarray
    best_objective: float
    objective_trace: tuple[tuple[int, float], ...]
    restarts_used: int
    converged: bool
    restart_objectives: tuple[float, ...]
    stop_reasons: tuple[str, ...]


def _scored(problem, u: np.ndarray, ready: np.ndarray) -> tuple[np.ndarray, float]:
    """The residual of one point as a real vector r (real and imaginary parts
    interleaved) and the objective F = r . r, a plain sum of squares."""
    residual = problem.residual(u, ready).ravel().view(np.float64)
    return residual, float(residual @ residual)


def _descend(decomposition, problem, rng, config: SearchConfig):
    """One restart of Levenberg-Marquardt on the residual of ``problem``.

    The parameters are the canonical generators of every commutant block,
    U <- U exp(B_k G_p B_k^dag), and the ``problem.tangents`` of the ready
    state (none if it is fixed), v <- (v + dv) / |v + dv|. Each try
    solves (J^T J + lam I) delta = -J^T r on the exact Jacobian, accepts the
    step if F = |r|^2 decreases and adapts lam as Madsen and Nielsen do. The
    restart stops when F <= ZERO_OBJECTIVE, when the next step promises a
    decrease of at most ``FTOL * F`` (no damped step decreases F any
    more), when J^T r is exactly zero, or after ``config.max_iter`` tries.
    Returns (F, U, v, trace, stop reason).
    """
    ready = problem.ready_state(rng)
    point = _random_point(decomposition, rng)
    generators = np.concatenate([g.joint_generators() for g in point.groups])
    sizes = [len(g.members) * g.size**2 for g in point.groups]
    residual, f = _scored(problem, point.joint, ready)
    trace = [(0, f)]
    lam, nu, fresh = None, 2.0, True
    reason = "zero" if f <= ZERO_OBJECTIVE else "max_iter"
    for it in range(1, config.max_iter + 1):
        if reason == "zero":
            break
        if fresh:
            tangents = problem.tangents(ready)
            jac = problem.derivatives(point.joint, ready, generators, tangents)
            jac = jac.reshape(len(jac), -1).view(np.float64)  # J^T, (parameters, residuals)
            grad = jac @ residual
            if not grad.any():
                reason = "gradient"
                break
            curvature, axes = np.linalg.eigh(jac @ jac.T)
            curvature = np.maximum(curvature, 0.0)  # J^T J is semidefinite; drop rounding below zero
            grad_axes = grad @ axes
            lam = 1e-3 * float(curvature[-1]) if lam is None else lam
            fresh = False
        delta = -axes @ (grad_axes / (curvature + lam))
        predicted = lam * float(delta @ delta) - float(delta @ grad)  # Python floats: lam may overflow
        if not predicted > FTOL * f:  # also once lam is inf and predicted nan
            reason = "no_decrease"
            break
        *thetas, ready_step = np.split(delta, np.cumsum(sizes))
        candidate = point.stepped([t.reshape(len(g.members), -1) for t, g in zip(thetas, point.groups)])
        candidate_ready = ready
        if len(tangents):
            candidate_ready = ready + ready_step @ tangents
            candidate_ready = candidate_ready / np.linalg.norm(candidate_ready)
        candidate_residual, f_new = _scored(problem, candidate.joint, candidate_ready)
        if f_new < f:
            gain = min((f - f_new) / predicted, 1.0)  # any gain above 1 divides lam by 3
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu, fresh = 2.0, True
            point, ready, residual, f = candidate, candidate_ready, candidate_residual, f_new
            trace.append((it, f))
            if f <= ZERO_OBJECTIVE:
                reason = "zero"
        else:
            lam, nu = lam * nu, nu * 2.0
    return f, point.joint, ready, trace, reason


def _search(decomposition, problem, config: SearchConfig) -> SearchResult:
    """Multi-restart descent; restarts use independent seeded streams and the
    best result is picked by (objective, restart index)."""
    runs = [
        _descend(decomposition, problem, np.random.default_rng((config.seed, r)), config)
        for r in range(config.restarts)
    ]
    f, u, ready, trace, reason = min(runs, key=lambda run: run[0])  # the first of equal floors
    return SearchResult(
        best_unitary=u,
        best_ready_state=ready,
        best_objective=f,
        objective_trace=tuple(trace),
        restarts_used=config.restarts,
        converged=reason != "max_iter",
        restart_objectives=tuple(run[0] for run in runs),
        stop_reasons=tuple(run[4] for run in runs),
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
    config: SearchConfig,
) -> SearchResult:
    """Minimize the mean squared measurement noise over conserving unitaries.

    The objective is the average over the ``default_probe_states`` of the
    system factor of ||(U^dag (1 (x) probe) U - observable (x) 1) (psi (x) v)||^2;
    every iterate stays inside the commutant of the conserved quantity.
    """
    observable = as_operator(observable)
    probe = as_operator(probe)
    ready = as_state(ready_state)
    n1 = q.system_op.shape[0]
    n2 = q.apparatus_op.shape[0]
    if observable.shape[0] != n1:
        raise ValueError(f"observable must have dimension {n1}")
    if probe.shape[0] != n2 or ready.shape[0] != n2:
        raise ValueError(f"probe and ready_state must have dimension {n2}")
    states = default_probe_states(q.system_op)

    problem = _Epsilon(tensor_product(np.eye(n1), probe), tensor_product(observable, np.eye(n2)), ready, states)
    return _search(conserved_eigenspaces(q), problem, config)


class _Epsilon:
    """Residuals w_psi = (U^dag P U - O)(psi (x) v) / sqrt(#states) for the fixed
    ready state v, so that |w|^2 is the mean squared noise over the probe states."""

    def __init__(self, probe_joint, obs_joint, ready, states):
        self.probe_joint, self.obs_joint, self.ready = probe_joint, obs_joint, ready
        self.inputs = np.stack([product_state(s, ready) for s in states], axis=-1) / np.sqrt(len(states))

    def ready_state(self, rng):
        return self.ready

    def tangents(self, ready):
        return np.empty((0, len(ready)))

    def residual(self, u, ready):
        return (dagger(u) @ self.probe_joint @ u - self.obs_joint) @ self.inputs

    def derivatives(self, u, ready, generators, tangents):
        """dw_psi = [U^dag P U, K_p](psi (x) v) along each dU = U K_p."""
        a = dagger(u) @ self.probe_joint @ u
        return a @ (generators @ self.inputs) - generators @ (a @ self.inputs)


def feasibility_search(
    q: ConservedQuantity,
    observable: np.ndarray,
    n2: int,
    config: SearchConfig,
) -> SearchResult:
    """Search the commutant for an exact nondestructive scheme for ``observable``.

    The measured basis is the observable's eigenbasis; each restart draws its
    own apparatus ready state and optimizes it with the unitary. The objective
    ||G - I||_F^2 (see ``_Feasibility``) is zero exactly for an exact
    nondestructive scheme. No hypothesis gating happens here: dimensions
    outside the no-go regime are searched all the same.
    """
    observable = as_operator(observable)
    n1 = q.system_op.shape[0]
    if observable.shape[0] != n1:
        raise ValueError(f"observable must have dimension {n1}")
    if n2 != q.apparatus_op.shape[0]:
        raise ValueError(
            f"n2 = {n2} does not match the apparatus factor dimension {q.apparatus_op.shape[0]}"
        )
    _, vectors = hermitian_eigensystem(observable)
    return _search(conserved_eigenspaces(q), _Feasibility(vectors.T, n2), config)


class _Feasibility:
    """Residual E = G - I of the diagonal pointers, G_ij = <W_i|W_j> with
    W_j = (<u_j| (x) 1) U (|u_j> (x) |v>) = M_j v; zero exactly for an exact
    nondestructive scheme (unit W_j: no leakage; orthogonal: distinguishable)."""

    def __init__(self, basis: np.ndarray, n2: int):
        self.basis = basis  # row j = u_j
        self.n2 = n2

    def ready_state(self, rng):
        return random_state_vector(self.n2, rng)

    def tangents(self, ready):
        """e_k and i e_k projected onto the tangent space of the unit sphere at the ready state, (2 n2, n2)."""
        t = np.concatenate([np.eye(self.n2), 1j * np.eye(self.n2)])
        return t - (t @ ready.conj()).real[:, None] * ready

    def blocks(self, u: np.ndarray) -> np.ndarray:
        """M_j = (<u_j| (x) 1) U (|u_j> (x) 1) for a (..., D, D) stack, (..., n1, n2, n2)."""
        n1 = len(self.basis)
        u = u.reshape(*u.shape[:-2], n1, self.n2, n1, self.n2)
        return np.einsum("ji,...iklm,jl->...jkm", self.basis.conj(), u, self.basis)

    def residual(self, u, ready):
        w = self.blocks(u) @ ready
        return w.conj() @ w.mT - np.eye(w.shape[-2])

    def derivatives(self, u, ready, generators, tangents):
        """dG = dW^dag W + W^dag dW, with dW_j = M_j(U K_p) v along each dU = U K_p
        and dW_j = M_j t along each ready-state tangent t."""
        m = self.blocks(u)
        w = m @ ready
        dw = np.concatenate([self.blocks(u @ generators) @ ready, (m @ tangents.T).transpose(2, 0, 1)])
        cross = dw.conj() @ w.mT  # <dW_i|W_j>
        return cross + cross.conj().mT
