"""Unitaries commuting with a conserved quantity, and optimization over them.

A joint unitary conserves L exactly iff it is block-unitary on the eigenspaces
of L. This module eigendecomposes L into blocks, samples block unitaries
uniformly, projects anti-Hermitian generators onto the block structure, and
runs a projected finite-difference descent over the blocks to measure
empirical floors of measurement-noise or scheme-quality objectives.

Blocks of one size are handled as stacks: a descent iteration scores all its
central differences in one objective call, and each line-search call scores
``LINE_SEARCH_BATCH`` step halvings from one stacked exp per block size. Stacked
kernels give each matrix the bits of its own call and reductions keep their
order, so every result is bit-identical to the one-at-a-time loop.

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
    DEFAULT_TOLERANCES,
    anti_hermitian_exp_stack,
    as_operator,
    as_state,
    dagger,
    haar_from_ginibre,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_eigensystem,
    product_state,
    random_state_vector,
    require_anti_hermitian,
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
    "project_generator",
    "random_commutant_unitary",
]

FD_STEP = 1e-6
MIN_STEP = 1e-13
CONVERGENCE_STREAK = 10
# Line-search steps tried per objective call. At the step cap the first try
# usually fails and its half succeeds, so two cover most iterations.
LINE_SEARCH_BATCH = 2


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


def conserved_eigenspaces(q: ConservedQuantity, dims: tuple[int, int] | None = None) -> BlockDecomposition:
    """Eigenvalue groups of the joint conserved operator.

    Sorted eigenvalues are clustered by gaps larger than ``grouping_tol``, so
    eigenvalues inside a block are mutually closer than the gap between blocks.
    """
    if dims is not None:
        expected = (q.system_op.shape[0], q.apparatus_op.shape[0])
        if tuple(dims) != expected:
            raise ValueError(f"dims {tuple(dims)} do not match quantity dims {expected}")
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

    A block ends where the next eigenvalue lies more than ``grouping_tol``
    above it, so eigenvalues inside a block are closer than the gap between blocks.
    """
    dim, sizes = values.shape[-1], {}
    for gaps in map(tuple, (np.diff(values, axis=-1) > DEFAULT_TOLERANCES.grouping_tol).tolist()):
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
    """The blocks of one size as stacks, with the FD factors and generator layout of that size."""

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

    @cached_property
    def factors(self) -> np.ndarray:
        """exp(+-FD_STEP * G_p) for each canonical generator, (2, 1, size**2, size, size), without
        eigh: a phase for p < size, then per pair G = E_ab - E_ba and G = i (E_ab + E_ba)."""
        diag, (a, b) = np.arange(self.size), np.triu_indices(self.size, 1)
        pairs = len(a)
        params, a, b = self.size + np.arange(2 * pairs), np.repeat(a, 2), np.repeat(b, 2)
        factors = np.zeros((2, self.size**2, self.size, self.size), dtype=complex)
        factors[:, :, diag, diag] = 1.0
        for f, t in zip(factors, (FD_STEP, -FD_STEP)):
            c, s = np.cos(t), np.sin(t)
            f[diag, diag, diag] = np.exp(1j * t)
            f[params, a, a] = f[params, b, b] = c
            f[params, a, b] = np.tile([s, 1j * s], pairs)
            f[params, b, a] = np.tile([-s, 1j * s], pairs)
        return factors[:, None]

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


class _BlockPoint:
    """Block unitaries stacked per size as (..., m, d, d), with their joint (..., D, D).
    A leading batch axis holds line-search candidates; ``point[i]`` is one of them."""

    def __init__(self, groups: list[_SizeGroup], unitaries: list[np.ndarray], parts=None, joint=None):
        self.groups = groups
        self.unitaries = unitaries
        self.parts = parts or [g.bases @ v @ g.bases_dag for g, v in zip(groups, unitaries)]
        if joint is None:
            by_block = {i: p[..., k, :, :] for g, p in zip(groups, self.parts) for k, i in enumerate(g.members)}
            joint = sum(by_block[i] for i in range(len(by_block)))
        self.joint = joint

    def __getitem__(self, i: int) -> "_BlockPoint":
        return _BlockPoint(self.groups, [v[i] for v in self.unitaries], [p[i] for p in self.parts], self.joint[i])

    def fd_joints(self) -> np.ndarray:
        """Joints with one block's unitary times one FD factor each, (2 * sum d**2, D, D):
        all + steps, then all - steps, each by group, block and parameter."""
        stacks = [
            ((self.joint - parts)[:, None] + g.bases[:, None] @ (v[:, None] @ g.factors) @ g.bases_dag[:, None])
            .reshape(2, -1, *self.joint.shape)
            for g, v, parts in zip(self.groups, self.unitaries, self.parts)
        ]
        return np.concatenate(stacks, axis=1).reshape(-1, *self.joint.shape)

    def stepped(self, thetas: list[np.ndarray]) -> "_BlockPoint":
        """A batch of c points from (c, m, d**2) parameters per group, one stacked exp per group."""
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


def random_commutant_unitary(d: BlockDecomposition, seed: int) -> np.ndarray:
    return commutant_unitary(d, np.random.default_rng(seed))


def project_generator(k: np.ndarray, d: BlockDecomposition) -> np.ndarray:
    """Zero the cross-block components of an anti-Hermitian generator.

    The projected generator exponentiates to a conserving unitary.
    """
    k = as_operator(k)
    require_anti_hermitian(k, "generator")
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
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")
        if not (np.isfinite(self.ftol) and self.ftol >= 0):
            raise ValueError("ftol must be nonnegative and finite")


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


def _descend(decomposition, objective, rng, config: SearchConfig):
    """One restart of projected finite-difference descent. Returns (f, U, trace, converged).

    ``objective`` maps a (n, D, D) stack of joints to n values. The line search
    takes the first improving step of each batch, as trying them one by one would.
    """
    point = _random_point(decomposition, rng)
    splits = np.cumsum([len(g.members) * g.size**2 for g in point.groups])[:-1]
    f = float(objective(point.joint[None])[0])
    trace = [(0, f)]
    step = config.step
    streak = 0
    converged = False

    for it in range(1, config.max_iter + 1):
        plus, minus = objective(point.fd_joints()).reshape(2, -1)
        gradient = (plus - minus) / (2.0 * FD_STEP)
        grads = [g.reshape(len(group.members), -1) for g, group in zip(np.split(gradient, splits), point.groups)]
        gmax = float(np.max(np.abs(gradient)))

        accepted = False
        while not accepted and gmax > 0.0 and step >= MIN_STEP:
            steps = [step / 2.0**k for k in range(LINE_SEARCH_BATCH) if step / 2.0**k >= MIN_STEP]
            candidates = point.stepped([np.stack([-(s / gmax) * g for s in steps]) for g in grads])
            for i, (s, f_new) in enumerate(zip(steps, objective(candidates.joint).tolist())):
                step = s / 2.0
                if f_new < f:
                    streak = streak + 1 if f - f_new < config.ftol else 0
                    point, f, step, accepted = candidates[i], f_new, min(s * 2.0, config.step), True
                    trace.append((it, f))
                    break
        if not accepted:
            streak += 1
        if streak >= CONVERGENCE_STREAK:
            converged = True
            break
    return f, point.joint, trace, converged


def _search(decomposition, make_objective, config: SearchConfig) -> SearchResult:
    """Multi-restart descent; restarts use independent seeded streams and the
    best result is picked by (objective, restart index)."""
    runs = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        runs.append(_descend(decomposition, make_objective(rng), rng, config))
    f, u, trace, converged = min(runs, key=lambda run: run[0])  # the first of equal floors
    return SearchResult(
        best_unitary=u,
        best_objective=f,
        objective_trace=tuple(trace),
        restarts_used=config.restarts,
        converged=converged,
        restart_objectives=tuple(run[0] for run in runs),
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
            total = np.zeros(len(u))
            for psi in joints:
                w = evolved @ psi
                total += np.vecdot(w, w).real  # bit-identical to np.vdot per row
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
        inputs = np.stack([product_state(basis[j], ready) for j in range(n1)])[..., None]
        eye = np.eye(n1)
        diag = np.arange(n1)

        def objective(u):
            # w[b, j, i] = row i of basis^dag U_b (basis_j (x) ready), one (n2,) pointer each
            w = basis_conj @ (u[:, None] @ inputs).reshape(len(u), n1, n1, n2)
            norms_sq = np.einsum("bjik,bjik->bji", w.conj(), w).real
            diag_sq = norms_sq[:, diag, diag]
            norms_sq[:, diag, diag] = 0.0
            leakage_sq = norms_sq.max(axis=(1, 2))
            found = (diag_sq > POINTER_DEGENERACY_TOL**2)[..., None]
            pointers = np.divide(w[:, diag, diag], np.sqrt(diag_sq)[..., None], out=np.zeros_like(w[:, 0]), where=found)
            defect = (pointers.conj() @ pointers.mT - eye).reshape(len(u), -1)
            # np.linalg.norm(defect_row) ** 2 exactly: the same two strided dot
            # products, and the scalar power (an array power would square instead)
            norms = np.sqrt(np.vecdot(defect.real, defect.real) + np.vecdot(defect.imag, defect.imag))
            return leakage_sq + [norm ** 2 for norm in norms]

        return objective

    return _search(decomposition, make_objective, config)
