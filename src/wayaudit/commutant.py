"""Unitaries commuting with a conserved quantity, and optimization over them.

A joint unitary conserves L exactly iff it is block-unitary on the eigenspaces
of L. This module eigendecomposes L into blocks, samples block unitaries
uniformly, and minimizes sums of squares over the commutant to measure
empirical floors of measurement-noise or scheme-quality objectives.

The optimizer is Levenberg-Marquardt on the exact residual Jacobian. Its
parameters are the canonical generators G_p of every block (d**2 per block of
size d), and for the feasibility search also the tangent directions of the
ready-state sphere. Each G_p has at most two nonzero entries, so the derivative
along dU = U K_p, K_p = V G_p V^dag, is two gathers from the eigenvector
coordinates LV and V^dag R (``_gather``), with no (D, D) generator formed. An
accepted step retracts with one stacked exp per block size and renormalizes
the ready state. Each restart reports why it stopped.

The conserved operators are products, L = LA (x) LB (LA (x) 1 + 1 (x) LB for an
additive quantity), so their eigenvectors are the products u_a (x) v_b of the
factors' eigenvectors, with eigenvalues lambda_a mu_b (lambda_a + mu_b).
``_factor_eigensystem`` builds the decomposition from one stacked ``eigh`` of
each factor, never of L, and forms each sorted eigenvector column directly as
the product of its two factor columns.

One draw-and-assemble path serves every caller: ``_random_point`` draws
Haar block unitaries for a ``BlockDecomposition`` (one stream per
decomposition, or per member of a stack of them) and ``_BlockPoint``
assembles the joint unitary as V blockdiag(U_k) V^dag, V the eigenvector
matrix. Sweeps draw a chunk of trials at once (``commutant_unitary_stack``),
the seam of their two-phase draw order: once phase A has drawn each trial's
factors, the factor eigensystems give each trial's block sizes, and phase B
opens with every trial drawing its blocks from its own stream, in
ascending-eigenvalue order (``_block_unitaries``). ``commutant_unitary`` is
its batch of one, and every optimizer restart starts from the same draw.
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
    require_hermitian,
    tensor_product,
)
from .model import POINTER_DEGENERACY_TOL, ConservedQuantity

__all__ = [
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
class BlockDecomposition:
    """Ascending eigenvalues of a conserved operator, its eigenvector columns in the
    same order, (D, D) or a (k, D, D) stack, and the sizes of its eigenvalue blocks."""

    values: np.ndarray
    vectors: np.ndarray
    dims: tuple[int, ...]


def conserved_eigenspaces(q: ConservedQuantity) -> BlockDecomposition:
    """Eigenvalue blocks of the joint conserved operator (see ``block_sizes``), from its
    factors: a batch of one of ``_factor_eigensystem``."""
    combine = np.multiply if q.kind == "multiplicative" else np.add
    values, vectors, _ = _factor_eigensystem(q.system_op[None], q.apparatus_op[None], combine)
    (dims,) = block_sizes(values)
    return BlockDecomposition(values[0], vectors[0], dims)


def _factor_eigensystem(la: np.ndarray, lb: np.ndarray, combine=np.multiply):
    """Ascending eigenvalues and eigenvector columns of the joint operators of
    (k, n1, n1) and (k, n2, n2) stacks of factors, with lb's eigensystem.

    One stacked ``eigh`` per factor: the joint eigenvalues are ``combine(lambda_a,
    mu_b)``, in ascending order by a stable sort, and their eigenvectors the
    matching columns of wa (x) wb, built directly: sorted column c, the product
    (a, b) = divmod(order[c], n2), is wa[:, a] (x) wb[:, b], one broadcast
    product of the gathered factor columns. Returns (values (k, D), vectors
    (k, D, D), (lb's values, lb's vectors)).
    """
    la_values, la_vectors = np.linalg.eigh(la)
    lb_values, lb_vectors = np.linalg.eigh(lb)
    products = combine(la_values[:, :, None], lb_values[:, None, :]).reshape(len(la), -1)
    order = np.argsort(products, axis=-1, kind="stable")
    a, b = np.divmod(order, lb.shape[-1])
    wa = np.take_along_axis(la_vectors, a[:, None, :], axis=-1)  # (k, n1, D)
    wb = np.take_along_axis(lb_vectors, b[:, None, :], axis=-1)  # (k, n2, D)
    vectors = (wa[:, :, None, :] * wb[:, None, :, :]).reshape(products.shape + products.shape[-1:])
    return np.take_along_axis(products, order, axis=-1), vectors, (lb_values, lb_vectors)


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
    before imaginary ones, as one ``ginibre`` call per block would; one gather
    per block size then splits the draws into that size's blocks, and one
    stacked QR per block size follows.
    """
    sizes = np.array(dims)
    widths = 2 * sizes * sizes  # a block's real parts, then its imaginary parts
    starts = np.cumsum(widths) - widths
    raw = np.stack([rng.standard_normal(widths.sum()) for rng in rngs])
    unitaries = {}
    for size in sorted(set(dims)):
        block = raw[:, starts[sizes == size][:, None] + np.arange(2 * size * size)]
        block = block.reshape(len(rngs), -1, 2, size, size)
        unitaries[size] = haar_from_ginibre((block[:, :, 0] + 1j * block[:, :, 1]) / np.sqrt(2.0))
    return unitaries


def commutant_unitary_stack(la: np.ndarray, lb: np.ndarray, rngs) -> tuple[np.ndarray, tuple]:
    """Haar unitaries from the commutants of la (x) lb for (k, n1, n1) and (k, n2, n2)
    stacks of factors, one per stream, (k, D, D); the factors are taken as valid (see
    ``ConservedQuantity``). Also returns lb's eigensystem, (values, vectors), for
    callers that need it.

    The factor eigensystems give each trial its block sizes; trials with equal
    sizes draw and assemble together, each bit-identical to ``commutant_unitary``
    on its own decomposition.
    """
    values, vectors, lb_eigensystem = _factor_eigensystem(la, lb)
    groups = {}
    for i, dims in enumerate(block_sizes(values)):
        groups.setdefault(dims, []).append(i)
    u = np.empty_like(vectors)
    for dims, members in groups.items():
        d = BlockDecomposition(values[members], vectors[members], dims)
        u[members] = _random_point(d, [rngs[i] for i in members]).joint
    return u, lb_eigensystem


class _SizeGroup:
    """The blocks of one size: their joint-space indices, and the generator layout of that size."""

    def __init__(self, dims: tuple[int, ...], size: int):
        self.size = size
        self.members = [i for i, dim in enumerate(dims) if dim == size]
        starts = np.cumsum((0, *dims))[self.members]
        self.indices = starts[:, None] + np.arange(size)  # (m, size)

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

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """Each canonical generator G_p of each member block, in parameter order, as its joint
        index pair a <= b and its entries G_p[a, b] and G_p[b, a] (zero if a = b); see ``_gather``."""
        canonical = self.generators(np.eye(self.size**2))
        p, a, b = np.nonzero(np.triu(canonical))  # one entry per unit parameter row, rows in order
        upper, lower = canonical[p, a, b], np.where(a == b, 0, canonical[p, b, a])
        m = len(self.members)
        return self.indices[:, a].ravel(), self.indices[:, b].ravel(), np.tile(upper, m), np.tile(lower, m)


def _gather(pairs, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """L K_p R for each canonical generator K_p = V G_p V^dag, (P, ...), with no (D, D) temporary:
    G_p[a, b] (LV)[:, a] (V^dag R)[b] + G_p[b, a] (LV)[:, b] (V^dag R)[a]. ``left`` holds the columns
    of LV and ``right`` the rows of V^dag R on its first axis; their other two axes broadcast."""
    a, b, upper, lower = pairs
    return upper[:, None, None] * left[a] * right[b] + lower[:, None, None] * left[b] * right[a]


class _BlockPoint:
    """Block unitaries stacked per size as (..., m, d, d), with their joint
    V blockdiag(U_k) V^dag (..., D, D) for the eigenvector matrices V (..., D, D)."""

    def __init__(self, vectors: np.ndarray, groups: list[_SizeGroup], unitaries: list[np.ndarray]):
        self.vectors = vectors
        self.groups = groups
        self.unitaries = unitaries
        blocks = np.zeros_like(vectors)
        for g, v in zip(groups, unitaries):
            blocks[..., g.indices[:, :, None], g.indices[:, None, :]] = v
        self.joint = vectors @ blocks @ dagger(vectors)

    def stepped(self, thetas: list[np.ndarray]) -> "_BlockPoint":
        """The point moved by V <- V exp(G(theta)) in every block, from (..., m, d**2)
        parameters per group; one stacked exp per group."""
        steps = [anti_hermitian_exp_stack(g.generators(theta)) for g, theta in zip(self.groups, thetas)]
        return _BlockPoint(self.vectors, self.groups, [v @ step for v, step in zip(self.unitaries, steps)])


def _random_point(d: BlockDecomposition, rngs) -> _BlockPoint:
    """Haar block unitaries, one set per stream and member of ``d``, kept per block size;
    ``_block_unitaries`` keeps each stream's draws in block order."""
    groups = [_SizeGroup(d.dims, size) for size in sorted(set(d.dims))]
    unitaries = _block_unitaries(d.dims, rngs)
    stacked = d.vectors.ndim == 3  # else one decomposition and one stream
    return _BlockPoint(d.vectors, groups, [unitaries[g.size] if stacked else unitaries[g.size][0] for g in groups])


def commutant_unitary(d: BlockDecomposition, rng: np.random.Generator) -> np.ndarray:
    """Haar block unitary assembled in the original basis; conserves L by construction.

    A batch of one of the sweeps' draw (see ``_random_point``): ``u`` matches
    a per-block loop of ``haar_unitary`` draws, in block order, placed on the
    diagonal of a (D, D) matrix M and assembled as V M V^dag, bit for bit.
    """
    return _random_point(d, [rng]).joint


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
    point = _random_point(decomposition, [rng])
    pairs = [np.concatenate(column) for column in zip(*(g.pairs for g in point.groups))]
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
            jac = problem.derivatives(point.joint, point.vectors, ready, pairs, tangents)
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
    require_hermitian(observable, "observable")
    require_hermitian(probe, "probe")
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

    def derivatives(self, u, vectors, ready, pairs, tangents):
        """dw_psi = [A, K_p](psi (x) v) = (AV) G_p V^dag x - V G_p V^dag A x along each
        dU = U K_p, with A = U^dag P U and x = psi (x) v."""
        a = dagger(u) @ self.probe_joint @ u
        inverse = dagger(vectors)
        dx = _gather(pairs, (a @ vectors).T[:, :, None], (inverse @ self.inputs)[:, None])
        return dx - _gather(pairs, vectors.T[:, :, None], (inverse @ (a @ self.inputs))[:, None])


def feasibility_search(q: ConservedQuantity, observable: np.ndarray, config: SearchConfig) -> SearchResult:
    """Search the commutant for an exact nondestructive scheme for ``observable``.

    The measured basis is the observable's eigenbasis; each restart draws its
    own apparatus ready state and optimizes it with the unitary. The objective
    ||G - I||_F^2 (see ``_Feasibility``) is zero exactly for an exact
    nondestructive scheme. No hypothesis gating happens here: dimensions
    outside the no-go regime are searched all the same.
    """
    observable = as_operator(observable)
    require_hermitian(observable, "observable")
    n1 = q.system_op.shape[0]
    if observable.shape[0] != n1:
        raise ValueError(f"observable must have dimension {n1}")
    _, vectors = np.linalg.eigh(observable)
    return _search(conserved_eigenspaces(q), _Feasibility(vectors.T, q.apparatus_op.shape[0]), config)


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

    def derivatives(self, u, vectors, ready, pairs, tangents):
        """dG = dW^dag W + W^dag dW, with dW_j = Y_j G_p c_j along each dU = U K_p,
        Y_j = (<u_j| (x) 1) U V and c_j = V^dag (u_j (x) v), and dW_j = M_j t along
        each ready-state tangent t."""
        m = self.blocks(u)
        w = m @ ready
        n1 = len(self.basis)
        y = np.einsum("ji,ikd->djk", self.basis.conj(), (u @ vectors).reshape(n1, self.n2, -1))
        c = (self.basis[:, :, None] * ready).reshape(n1, -1) @ vectors.conj()
        dw = np.concatenate([_gather(pairs, y, c.T[:, :, None]), (m @ tangents.T).transpose(2, 0, 1)])
        cross = dw.conj() @ w.mT  # <dW_i|W_j>
        return cross + cross.conj().mT
