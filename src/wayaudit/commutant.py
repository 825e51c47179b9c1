"""Unitaries commuting with a conserved quantity, and optimization over them.

A joint unitary conserves L exactly iff it is block-unitary on the eigenspaces
of L. This module eigendecomposes L into blocks, samples block unitaries
uniformly, and minimizes sums of squares over the commutant to measure
empirical floors of measurement-noise or scheme-quality objectives.

The optimizer, ``_descend``, is Levenberg-Marquardt on the exact residual
Jacobian of a search problem that owns its point: the problem draws the start,
scores a point, gives its Jacobian and its residual curvature S = sum_i r_i
d^2 r_i in closed form, and retracts a step. ``_Epsilon`` and ``_Feasibility``
work at the block-diagonal point B = V^dag U V, V the eigenvector matrix, with a
ready state (``_BlockPoint``): each projects its fixed operators into these
coordinates and builds its chart (``_Chart``) once per search, and the joint
U = V B V^dag is assembled once, for the best restart. The parameters are the
canonical generators G_p of every block (d**2 per block of size d), and for
``_Feasibility`` also the tangents of the ready-state sphere, which it owns.
Each G_p has at most two nonzero entries (``_Chart.pairs``), so each derivative
along dB = B G_p reads two entries (``_gather``), and each second derivative
d^2B = B (G_p G_q + G_q G_p) / 2 of one block reads the products of two entries
that chain (``_Chart.chains``). A Gauss-Newton point factors the smaller Gram
matrix of J (``_step_axes``): J J^T when there are fewer residuals than
parameters, as for feasibility (2 n1**2 residuals), and J^T J otherwise. After
an accepted step that cut the objective by less than ``SLOW_PROGRESS`` of it,
the next point is second order: it factors J^T J + S in parameter space and
keeps the damping above its most negative eigenvalue; ``_Feasibility`` builds
the pointer derivatives dW once there, for J and S both. Each try retracts its
block step with one exponential of one generator. Below ``LEAK_BELOW``, a fresh
feasibility point first tries a step on the leaked amplitudes, whose zero is
regular where that of G - I is not (``_Feasibility.leak``, see ``_descend``).

The conserved operators are products, L = LA (x) LB (LA (x) 1 + 1 (x) LB for an
additive quantity), so their eigenvectors are the products u_a (x) v_b of the
factors' eigenvectors, with eigenvalues lambda_a mu_b (lambda_a + mu_b).
The decomposition is built from the factors' eigensystems, never from L:
``_joint_spectrum`` sorts the products of their eigenvalues, and
``_joint_vectors`` forms each sorted eigenvector column directly as the product
of its two factor columns. ``conserved_eigenspaces`` takes them from one
``eigh`` per factor; the sweeps take them from their draws, a spectrum and Haar
eigenvectors per factor (``linalg.sorted_eigensystem``), so a sweep chunk runs no
``eigh``, and a counterexample chunk never forms lb: its ``FactoredCommutant``
takes lb's drawn eigensystem as it stands, and ``require_valid`` checks it.

The commutant of L is the direct sum of U(d_k) over its eigenvalue blocks, and
its Haar measure is the product of theirs. One block list serves every caller:
``_blocks`` lays out the blocks of a stack of sorted spectra, flattened over
its rows, as each block's first position and its size (a block never spans two
rows), and ``_block_unitaries`` draws the Haar unitaries of all of them, one
stream per row, and returns them by block size with their positions: one draw
per block size, a size-1 block as a phase z / |z| with no QR
(``linalg.haar_from_ginibre``), whatever mix of block structures the rows hold.
A row's block normals are one run of 2 sum d_k**2 >= 2 D values, in
ascending-eigenvalue order: sweeps draw a chunk of trials at once
(``FactoredCommutant``), and each trial's first 2 D come with its factors'
normals, in the ``standard_normal`` call of ``linalg.stream_draws``; once the
factor eigensystems give its blocks, a trial with a block above size 1 draws
the rest in one more call. When every block has size 1, as in every sweep of
uniform spectra, those 2 D values are its blocks' (re, im), read in place.
The optimizer's chart and ``commutant_unitary`` draw the blocks of one
decomposition through the same path, a batch of one row. A
``FactoredCommutant`` keeps its unitaries in factor space: the eigensystems,
the sorted products and their order, kept from the one sort
(``_joint_spectrum``) for the assembly too, and the block unitaries. Both sweeps
need U only on product inputs, so they apply it there without forming it
(``FactoredCommutant.images``, the twin of ``model.MeasurementModel.images``):
V^dag (a_j (x) b_j) is the outer product (wa^dag a_j)(wb^dag b_j)^T, the block
unitaries move its entries in sorted-product order, and V takes the result Y_j
back as wa Y_j wb^T (the Kronecker mixed-product rule), O(n1 n2 (n1 + n2)) per
input and no (D, D) matrix. One check stands in for U^dag U and the
conservation residual (``FactoredCommutant.require_valid``): wa, wb and the
block unitaries are unitary, and the block residual ||[B, Lambda]||_F, B the
block unitaries and Lambda the sorted joint spectrum, is within tolerance.
One kernel applies block unitaries, ``_moved``: it right-multiplies rows by
blockdiag(U_k), a size-1 block as its phase. ``images`` hands it the
transposed unitaries (B x = x B^T); where U itself is needed, ``_assembled``
moves V's rows, V blockdiag(U_k), then takes one product with V^dag, for
``FactoredCommutant.assembled``, ``commutant_unitary`` (its batch of one),
``theorem.sample_conserving_instance`` and the optimizer's best point; every
optimizer restart starts from the same draw, placed in one block-diagonal
matrix (``_random_point``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    GROUPING_TOL,
    anti_hermitian_exp_stack,
    as_hermitian,
    as_state,
    dagger,
    haar_from_ginibre,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_eigensystem,
    normal_draws,
    product_state,
    random_state_vector,
    require_unitary,
    sized,
    tensor_product,
)
from .model import POINTER_DEGENERACY_TOL, ConservedQuantity, require_conserved

__all__ = [
    "BlockDecomposition",
    "FactoredCommutant",
    "SearchConfig",
    "SearchResult",
    "conserved_eigenspaces",
    "default_probe_states",
    "feasibility_search",
    "minimize_epsilon",
]

ZERO_OBJECTIVE = POINTER_DEGENERACY_TOL**2  # far below any floor the searches report
# A restart stops once the next step promises a decrease of at most FTOL times
# the objective (see _descend).
FTOL = 1e-15
# An accepted step that cuts the objective by less than this fraction of it makes the next point take a
# second-order step (Fletcher and Xu, IMA J. Numer. Anal. 7, 371, 1987; see _descend).
SLOW_PROGRESS = 0.2
# At a fresh point with an objective at or below this, a problem that has a ``leak`` system tries a step on
# it first (see _descend). Below the smallest known blocked floor (1/52), so blocked restarts never take it.
LEAK_BELOW = 1e-6
STOP_REASONS = ("zero", "no_decrease", "gradient", "max_iter")  # see _descend


@dataclass(frozen=True)
class BlockDecomposition:
    """Ascending eigenvalues of a conserved operator, its eigenvector columns in the
    same order, (D, D) or a (k, D, D) stack, and the sizes of its eigenvalue blocks."""

    values: np.ndarray
    vectors: np.ndarray
    dims: tuple[int, ...]


def conserved_eigenspaces(q: ConservedQuantity) -> BlockDecomposition:
    """Eigenvalue blocks of the joint conserved operator (see ``_blocks``), from one
    ``eigh`` per factor: a batch of one of ``_joint_spectrum``, then ``_joint_vectors``."""
    combine = np.multiply if q.kind == "multiplicative" else np.add
    la_values, la_vectors = np.linalg.eigh(q.system_op[None])
    lb_values, lb_vectors = np.linalg.eigh(q.apparatus_op[None])
    values, order = _joint_spectrum(la_values, lb_values, combine)
    _, sizes = _blocks(values)
    return BlockDecomposition(values[0], _joint_vectors(la_vectors, lb_vectors, order)[0], tuple(sizes.tolist()))


def _joint_spectrum(la_values: np.ndarray, lb_values: np.ndarray, combine=np.multiply):
    """Ascending joint eigenvalues (k, D) of two stacks of factor spectra, (k, n1) and (k, n2), and
    their order (k, D): sorted value c is ``combine(lambda_a, mu_b)`` for (a, b) = divmod(order[c],
    n2), by a stable sort."""
    products = combine(la_values[:, :, None], lb_values[:, None, :]).reshape(len(la_values), -1)
    order = np.argsort(products, axis=-1, kind="stable")
    return products[np.arange(len(products))[:, None], order], order


def _joint_vectors(la_vectors: np.ndarray, lb_vectors: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The eigenvector columns (k, D, D) of the joint operators in the sorted order ``order`` of
    ``_joint_spectrum``, from the factors' eigenvector columns (k, n1, n1) and (k, n2, n2): sorted
    column c, the product (a, b) = divmod(order[c], n2), is wa[:, a] (x) wb[:, b], one broadcast
    product of the gathered factor columns."""
    a, b = np.divmod(order, lb_vectors.shape[-1])
    wa = np.take_along_axis(la_vectors, a[:, None, :], axis=-1)  # (k, n1, D)
    wb = np.take_along_axis(lb_vectors, b[:, None, :], axis=-1)  # (k, n2, D)
    return (wa[:, :, None, :] * wb[:, None, :, :]).reshape(order.shape + order.shape[-1:])


def _blocks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue blocks of a (k, D) stack of ascending eigenvalues, as each block's first position in
    the flattened (k * D) stack and its size. A block starts at each row's first eigenvalue and wherever
    the next eigenvalue lies more than ``GROUPING_TOL`` above the last, so eigenvalues inside a block are
    closer than the gap between blocks, and no block spans two rows."""
    starts = np.ones(values.shape, dtype=bool)
    starts[:, 1:] = np.diff(values, axis=-1) > GROUPING_TOL
    first = np.flatnonzero(starts)
    return first, np.diff(first, append=values.size)


def _positions(first: np.ndarray, sizes: np.ndarray) -> dict[int, np.ndarray]:
    """Block size -> the (m, size) positions of its m blocks (see ``_blocks``), in order; sizes ascending,
    the nonzero counts of ``np.bincount`` (``np.unique`` would import ``numpy.ma``)."""
    distinct = np.flatnonzero(np.bincount(sizes)).tolist()
    return {size: first[sizes == size][:, None] + np.arange(size) for size in distinct}


def _block_unitaries(first: np.ndarray, sizes: np.ndarray, rngs, head=None) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Haar unitaries of the blocks of ``_blocks``, one stream per row: block size -> the (m, size)
    positions of its blocks (``_positions``) and their unitaries (m, size, size).

    Each row's Ginibre matrices come in block order, real parts before imaginary ones, as one ``ginibre``
    call per block would give them: its first 2 D values are ``head`` (k, D, 2), drawn by its sweep with
    its other normals (``linalg.stream_draws``) or else here, and a row with a block above size 1 draws
    the other sum 2 d**2 - 2 D in one more call. When every block has size 1, head[t, c] is the (re, im)
    of row t's block c, read in place; otherwise one gather per size above 1 and one mask for size 1
    split the rows' values. ``haar_from_ginibre`` makes the unitaries: the phases z / |z| for size 1,
    one stacked QR per larger size, whatever rows the blocks lie in.
    """
    k = len(rngs)
    dim = (first[-1] + sizes[-1]) // k
    if head is None:
        (head,) = normal_draws(rngs, (dim, 2))
    if len(sizes) == k * dim:
        z = (head[..., 0] + 1j * head[..., 1]).reshape(-1) / np.sqrt(2.0)
        return {1: (first[:, None], haar_from_ginibre(z[:, None, None]))}
    widths = 2 * sizes * sizes  # a block's real parts, then its imaginary parts
    starts = np.cumsum(widths) - widths
    raw = np.empty(widths.sum())
    rows = [*starts[np.searchsorted(first, dim * np.arange(k))].tolist(), raw.size]  # each row's slice
    raw[np.add.outer(rows[:-1], np.arange(2 * dim))] = head.reshape(k, -1)
    for rng, low, high in zip(rngs, rows, rows[1:]):
        if high > low + 2 * dim:
            rng.standard_normal(out=raw[low + 2 * dim : high])
    blocks = {}
    for size, positions in _positions(first, sizes).items():
        if size == 1:
            block = raw.reshape(-1, 2)[np.repeat(sizes == 1, sizes * sizes)].reshape(-1, 2, 1, 1)
        else:
            block = raw[starts[sizes == size][:, None] + np.arange(2 * size * size)].reshape(-1, 2, size, size)
        blocks[size] = positions, haar_from_ginibre((block[:, 0] + 1j * block[:, 1]) / np.sqrt(2.0))
    return blocks


def _assembled(vectors: np.ndarray, blocks: dict[int, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """V blockdiag(U_k) V^dag for (k, D, D) eigenvector matrices V and the block unitaries of
    ``_block_unitaries``, placed at their positions among the (k * D) columns: V's rows moved by the
    blocks (``_moved``, in sorted order), then one product with V^dag."""
    return _moved(vectors, np.arange(vectors.shape[-1]), blocks) @ dagger(vectors)


def _moved(y: np.ndarray, order: np.ndarray, blocks: dict[int, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """y blockdiag(U_k) for (k, m, D) rows y of eigenvector coefficients indexed by product a * n2 + b,
    where sorted position c of row t is product ``order[t, c]`` (or ``order[c]`` for every row), and the
    block unitaries of ``_block_unitaries`` at their sorted positions: the entries of a size-1 block
    scaled by its phase, the column block of a larger one times its unitary."""
    k, dim = len(y), y.shape[-1]
    products = (order + dim * np.arange(k)[:, None]).ravel()  # flat sorted position -> flat product
    phases = np.ones(k * dim, dtype=complex)
    if 1 in blocks:
        positions, unitaries = blocks[1]
        phases[products[positions[:, 0]]] = unitaries[:, 0, 0]
    moved = y * phases.reshape(k, 1, dim)
    for size, (positions, unitaries) in blocks.items():
        if size > 1:
            trial, product = np.divmod(products[positions], dim)  # (m, size)
            moved[trial, :, product] = (y[trial, :, product].mT @ unitaries).mT
    return moved


class FactoredCommutant:
    """Haar unitaries from the commutants of la (x) lb, one per stream, kept in factor space: the
    factors' eigensystems (checked by ``require_valid``), their sorted products and the order of these
    (``_joint_spectrum``; ``_joint_vectors`` builds V from them), and the block unitaries of all trials
    (``_block_unitaries``), whatever their block structures: each trial draws its blocks from its own
    stream, as ``commutant_unitary`` would, starting from ``head``, its first 2 D block normals, when its
    sweep drew them with its other normals."""

    def __init__(self, la, lb, rngs, head=None):
        self.la, self.lb = la, lb
        self.values, self.order = _joint_spectrum(la[0], lb[0])
        self.blocks = _block_unitaries(*_blocks(self.values), rngs, head)

    def require_valid(self, tol: float) -> None:
        """wa, wb and each block-unitary stack of size above 1 are unitary, and each trial's block residual
        ||[B, Lambda]||_F is at most ``tol``; the first failure raises. The residual equals ||U^dag L U - L||_F
        when V is unitary, so it measures the grouping error alone, and is exactly 0 on size-1 blocks."""
        require_unitary(self.la[1], "interaction")
        require_unitary(self.lb[1], "interaction")
        k, dim = self.values.shape
        squares = np.zeros(k)
        for size, (positions, unitaries) in self.blocks.items():
            if size > 1:
                require_unitary(unitaries, "interaction")
                values = self.values.ravel()[positions]  # (m, size)
                gaps = values[:, None, :] - values[:, :, None]  # [B, Lambda](i, j) = B(i, j) gaps(i, j)
                block_squares = np.square(np.abs(unitaries * gaps)).sum(axis=(1, 2))
                squares += np.bincount(positions[:, 0] // dim, block_squares, k)  # each block into its trial
        require_conserved(np.sqrt(squares), tol)

    def assembled(self) -> np.ndarray:
        """The unitaries V blockdiag(U_k) V^dag, (k, D, D) (see ``_assembled``)."""
        return _assembled(_joint_vectors(self.la[1], self.lb[1], self.order), self.blocks)

    def images(self, a: np.ndarray | None, b: np.ndarray) -> np.ndarray:
        """U (a_j (x) b_j) for (k, m, n1) rows a and (k, m, n2) rows b, broadcastable, as (k, m, n1, n2) n1 x n2
        reshapes, with no (k, D, D) stack: V^dag (a_j (x) b_j) is (wa^dag a_j) (x) (wb^dag b_j) in product
        order, the block unitaries move it to Y_j (``_moved``, on the rows with each U_k^T, since B x = x B^T),
        and V takes Y_j back as wa Y_j wb^T. ``a=None`` stands for the n1 computational basis rows, whose
        wa^dag e_j are the rows of conj(wa) as they stand. The twin of ``model.MeasurementModel.images``."""
        (_, wa), (_, wb) = self.la, self.lb
        transposed = {size: (positions, unitaries.mT) for size, (positions, unitaries) in self.blocks.items()}
        left = wa.conj() if a is None else a @ wa.conj()
        y = _moved(product_state(left, b @ wb.conj()), self.order, transposed)
        n1, n2 = wa.shape[-1], wb.shape[-1]
        right = (y.reshape(len(y), -1, n2) @ wb.mT).reshape(len(y), -1, n1, n2)  # Y_j wb^T
        return wa[:, None] @ right


class _Chart:
    """The optimizer's chart of the commutant for block sizes ``dims``: the blocks' layout (``_blocks``
    of one row) and the joint indices of the blocks of each size (``_positions``), and the canonical
    generators G_p of every block in parameter order (sizes ascending, blocks in order, then per block
    of size d its d diagonal phases and the real and imaginary part of its (a, b) entry for each a < b
    in row-major order)."""

    def __init__(self, dims: tuple[int, ...]):
        sizes = np.array(dims)
        self.dims, self.dim, self.layout = dims, sum(dims), (np.cumsum(sizes) - sizes, sizes)
        self.indices = _positions(*self.layout)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, ...]:
        """Each G_p as its joint index pair a <= b and its entries G_p[a, b] and G_p[b, a]: i and 0
        for a phase, 1 and -1 for a real part, i and i for an imaginary part; see ``_gather``."""
        columns = []
        for size, indices in self.indices.items():
            diag, (a, b) = np.arange(size), np.triu_indices(size, 1)
            first, second = np.concatenate([diag, a.repeat(2)]), np.concatenate([diag, b.repeat(2)])
            upper = np.tile(np.concatenate([np.full(size, 1j), np.tile([1, 1j], len(a))]), len(indices))
            lower = np.tile(np.concatenate([np.zeros(size), np.tile([-1, 1j], len(a))]), len(indices))
            columns.append((indices[:, first], indices[:, second], upper, lower))
        return tuple(np.concatenate(column, axis=None) for column in zip(*columns))

    @cached_property
    def chains(self) -> tuple[np.ndarray, ...]:
        """Every product G_p[x, y] G_q[y, z] of two nonzero generator entries that chain (so p and q lie in
        one block): the flat index p * P + q, the flat index z * D + x of the entry of C it multiplies in
        tr(G_p G_q C), and the product's value; see ``paired_trace``."""
        a, b, upper, lower = self.pairs
        param, lower_nonzero = np.arange(len(a)), lower != 0  # a phase's second entry is zero
        param = np.concatenate([param, param[lower_nonzero]])
        row, column = np.concatenate([a, b[lower_nonzero]]), np.concatenate([b, a[lower_nonzero]])
        value = np.concatenate([upper, lower[lower_nonzero]])
        first, second = np.nonzero(column[:, None] == row[None, :])  # G_p[x, y] = entry first, G_q[y, z] = second
        flat, cells = param[first] * len(a) + param[second], column[second] * self.dim + row[first]
        return flat, cells, value[first] * value[second]

    def paired_trace(self, c: np.ndarray) -> np.ndarray:
        """Re tr((G_p G_q + G_q G_p) C) for every pair of generators, (P, P), from ``chains``: zero unless
        p and q lie in one block."""
        flat, cells, values = self.chains
        size = len(self.pairs[0])
        half = np.bincount(flat, (values * c.ravel()[cells]).real, size * size).reshape(size, size)
        return half + half.T

    def generator(self, theta: np.ndarray) -> np.ndarray:
        """sum_p theta_p G_p, the block anti-Hermitian (D, D) generator in eigenvector coordinates,
        scattered through ``pairs``; ``np.add.at`` accumulates, because the real and the imaginary
        part of one off-diagonal entry share its pair."""
        a, b, upper, lower = self.pairs
        k = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(k, (a, b), upper * theta)
        np.add.at(k, (b, a), lower * theta)
        return k


def _gather(pairs, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """L G_p R for each canonical generator G_p, (P, ...), with no (D, D) temporary: G_p[a, b] L[:, a] R[b] +
    G_p[b, a] L[:, b] R[a], from L's columns in ``left`` and R's rows in ``right`` (first axis). Their other two
    axes broadcast; columns (k, 1) and rows (1, m) take one rank-2 matmul, so (P, k, m) is allocated once."""
    a, b, upper, lower = pairs
    if left.shape[-1] == right.shape[-2] == 1:
        left = np.concatenate([upper[:, None, None] * left[a], lower[:, None, None] * left[b]], axis=-1)
        return left @ np.concatenate([right[b], right[a]], axis=-2)
    return upper[:, None, None] * left[a] * right[b] + lower[:, None, None] * left[b] * right[a]


class _BlockPoint:
    """Block unitaries as one block-diagonal (D, D) matrix ``blocks`` in the coordinates of the eigenvector
    matrix V, and a search's ready state ``ready``; ``joint`` assembles V blocks V^dag on demand."""

    def __init__(self, vectors: np.ndarray, chart: _Chart, blocks: np.ndarray, ready: np.ndarray | None):
        self.vectors, self.chart, self.blocks, self.ready = vectors, chart, blocks, ready

    @property
    def joint(self) -> np.ndarray:
        """V blockdiag(U_k) V^dag from the diagonal blocks of ``blocks`` (see ``_assembled``)."""
        blocks = {size: (at, self.blocks[at[:, :, None], at[:, None, :]]) for size, at in self.chart.indices.items()}
        return _assembled(self.vectors[None], blocks)[0]

    def stepped(self, theta: np.ndarray, ready: np.ndarray | None) -> "_BlockPoint":
        """The point with the ready state ``ready``, moved by blocks <- blocks exp(K) for the generator K of the
        whole parameter vector (see ``_Chart.generator``): one exponential per step, whatever the block sizes."""
        step = anti_hermitian_exp_stack(self.chart.generator(theta))
        return _BlockPoint(self.vectors, self.chart, self.blocks @ step, ready)


def _random_point(vectors: np.ndarray, chart: _Chart, rngs, ready: np.ndarray | None = None) -> _BlockPoint:
    """An optimizer restart's start on a search's chart: Haar block unitaries drawn from the one
    stream of ``rngs`` (see ``_block_unitaries``), scattered into the block-diagonal ``blocks``."""
    blocks = np.zeros_like(vectors)
    for at, unitaries in _block_unitaries(*chart.layout, rngs).values():
        blocks[at[:, :, None], at[:, None, :]] = unitaries
    return _BlockPoint(vectors, chart, blocks, ready)


def commutant_unitary(d: BlockDecomposition, rng: np.random.Generator) -> np.ndarray:
    """Haar block unitary assembled in the original basis; conserves L by construction.

    A batch of one of the sweeps' draw and assembly (see ``FactoredCommutant``): its
    block unitaries are those of a per-block loop of ``haar_unitary`` draws,
    in block order, bit for bit.
    """
    return _assembled(d.vectors[None], _block_unitaries(*_Chart(d.dims).layout, [rng]))[0]


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
    can reason about empirical floors rather than just the best point;
    ``restart_min_curvature`` holds the smallest eigenvalue of J^T J + S at each
    restart's endpoint (half the Hessian of the objective in the restart's chart):
    negative at a saddle, about zero or above at a minimum. The best
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
    restart_min_curvature: tuple[float, ...]


def _scored(problem, point) -> tuple[np.ndarray, float, object]:
    """The residual at ``point`` as a real vector r (real and imaginary parts interleaved), the
    objective F = r . r, and the intermediates ``problem.derivatives`` and ``problem.curvature`` reuse there."""
    residual, computed = problem.residual(point)
    residual = residual.ravel().view(np.float64)
    return residual, float(residual @ residual), computed


def _step_axes(jac: np.ndarray, residual: np.ndarray, grad: np.ndarray, s: np.ndarray | None = None):
    """(curvature, axes, coefficients): -axes @ (coefficients / (curvature + lam)) = -(H + lam I)^-1 J^T r for
    ``jac`` = J^T (P, R). With the residual curvature ``s`` = S, H = J^T J + S = A C A^T from one ``eigh`` in
    parameter space, whose C may be negative. Without it H = J^T J, from one ``eigh`` of the smaller Gram matrix:
    for R < P, J J^T = B C B^T and (J^T J + lam I)^-1 J^T = J^T (J J^T + lam I)^-1 give J^T B and B^T r; else
    J^T J = A C A^T gives A, A^T J^T r."""
    if s is not None:
        curvature, axes = np.linalg.eigh(jac @ jac.T + s)
        return curvature, axes, grad @ axes
    if jac.shape[1] < jac.shape[0]:
        curvature, basis = np.linalg.eigh(jac.T @ jac)
        axes, coefficients = jac @ basis, residual @ basis
    else:
        curvature, axes = np.linalg.eigh(jac @ jac.T)
        coefficients = grad @ axes
    return np.maximum(curvature, 0.0), axes, coefficients  # semidefinite: drop rounding below zero


def _jacobian(problem, point, computed) -> np.ndarray:
    """J^T at ``point``, (parameters, residuals), as a real view of the problem's complex derivatives."""
    jac = problem.derivatives(point, computed)
    return jac.reshape(len(jac), -1).view(np.float64)


def _damped_step(jac: np.ndarray, residual: np.ndarray, lam: float) -> np.ndarray:
    """The Levenberg-Marquardt step -(J^T J + lam I)^-1 J^T r for ``jac`` = J^T (see ``_step_axes``)."""
    curvature, axes, coefficients = _step_axes(jac, residual, jac @ residual)
    return -axes @ (coefficients / (curvature + lam))


def _leak_step(problem, point, computed, residual: np.ndarray, f: float, lam: float):
    """A try on the problem's leak system r' at ``point`` (see ``_descend``): one damped step on r', then, if F did
    not fall, one damped step on the residual itself from there, both with ``lam``. Returns the candidate and
    its ``_scored`` triple if F fell, else None."""
    leak, jac = problem.leak(point, computed, residual)
    candidate = problem.stepped(point, _damped_step(jac.view(np.float64), leak.view(np.float64), lam))
    scored = _scored(problem, candidate)
    if not scored[1] < f:  # the leak closed, but E_ij (i != j) moved at second order along the step
        candidate_residual, _, candidate_computed = scored
        jac = _jacobian(problem, candidate, candidate_computed)
        candidate = problem.stepped(candidate, _damped_step(jac, candidate_residual, lam))
        scored = _scored(problem, candidate)
    return (candidate, scored) if scored[1] < f else None


def _descend(problem, rng, config: SearchConfig):
    """One restart of Levenberg-Marquardt on the residual of ``problem``.

    The problem owns its point and the point's geometry: ``problem.start(rng)`` draws the
    starting point, ``problem.residual(point)`` gives the complex residual and the intermediates
    that ``problem.derivatives(point, computed)`` reuses for J^T (a C-contiguous complex array, a
    row per parameter) and ``problem.curvature(point, computed, residual)`` for S = sum_i r_i
    d^2 r_i (real symmetric, P x P), and ``problem.stepped(point, delta)`` retracts a step onto a
    new point. Each try solves (H + lam I) delta = -J^T r on the exact Jacobian, accepts the step
    if F = |r|^2 decreases and adapts lam as Madsen and Nielsen do. H is the Gauss-Newton J^T J
    (``_step_axes``), except after an accepted step that cut F by less than ``SLOW_PROGRESS * F``:
    the next point then takes H = J^T J + S from one ``eigh`` in parameter space, with lam kept
    above -lambda_min(H), so that the step descends past negative curvature (Fletcher and Xu's
    hybrid rule). Either way lam |delta|^2 - delta . J^T r is the decrease the model promises.

    A zero of F can be singular: ``_Feasibility``'s diagonal residuals 1 - G_jj = |l_j|^2 are quadratic in
    the leaked amplitudes l_j, so F is quartic there and every step above crawls down it at a fixed ratio
    per try. A problem with the optional method ``problem.leak(point, computed, residual)`` gives a
    residual r' whose zero is regular and its J'^T, as complex arrays (R',) and (P, R'). At a fresh point
    with F <= ``LEAK_BELOW``, before its first step, the loop tries one damped step on r' with the current
    lam (``_leak_step``) and, if F did not fall, one more on r from there: a step that closes the leak
    moves the off-diagonal E_ij at second order, which r' holds only to first. If F fell, the result is
    the next point, an accepted try that divides lam by 3, as a step that met its model does: a lam kept
    there would stay put over a run of leak steps and damp them to a crawl. Otherwise the try goes on as
    the step above, at the same point and with the same lam. A problem without ``leak`` never takes this
    path.

    The restart stops when F <= ZERO_OBJECTIVE, when the next step promises a decrease of at most
    ``FTOL * F`` (no damped step decreases F any more), when J^T r is exactly zero, or after
    ``config.max_iter`` tries. Returns (F, point, trace, stop reason, lambda_min(J^T J + S) at the
    point).
    """
    point = problem.start(rng)
    residual, f, computed = _scored(problem, point)
    trace = [(0, f)]
    lam, nu, fresh, second, lowest = None, 2.0, True, False, None
    reason = "zero" if f <= ZERO_OBJECTIVE else "max_iter"
    for it in range(1, config.max_iter + 1):
        if reason == "zero":
            break
        leaked = None
        if fresh:
            jac, fresh = _jacobian(problem, point, computed), False
            grad = jac @ residual
            if not grad.any():
                reason = "gradient"
                break
            if second:
                s = problem.curvature(point, computed, residual)
                curvature, axes, coefficients = _step_axes(jac, residual, grad, s)
                lowest = float(curvature[0])
                lam = max(lam, -2.0 * lowest)
            else:
                curvature, axes, coefficients = _step_axes(jac, residual, grad)
                lam = 1e-3 * float(curvature[-1]) if lam is None else lam
            if f <= LEAK_BELOW and hasattr(problem, "leak"):
                leaked = _leak_step(problem, point, computed, residual, f, lam)
        if leaked:
            candidate, (candidate_residual, f_new, candidate_computed) = leaked
        else:
            delta = -axes @ (coefficients / (curvature + lam))
            predicted = lam * float(delta @ delta) - float(delta @ grad)  # Python floats: lam may overflow
            if not predicted > FTOL * f:  # also once lam is inf and predicted nan
                reason = "no_decrease"
                break
            candidate = problem.stepped(point, delta)
            candidate_residual, f_new, candidate_computed = _scored(problem, candidate)
        if f_new < f:
            # any gain above 1 divides lam by 3, and so does an accepted leak step
            gain = 1.0 if leaked else min((f - f_new) / predicted, 1.0)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu, fresh, second, lowest = 2.0, True, f - f_new < SLOW_PROGRESS * f, None
            point, f = candidate, f_new
            residual, computed = candidate_residual, candidate_computed
            trace.append((it, f))
            if f <= ZERO_OBJECTIVE:
                reason = "zero"
        else:
            lam, nu = lam * nu, nu * 2.0
    if lowest is None:  # the endpoint's J^T J + S is not factored yet
        jac = _jacobian(problem, point, computed) if fresh else jac
        lowest = float(np.linalg.eigvalsh(jac @ jac.T + problem.curvature(point, computed, residual))[0])
    return f, point, trace, reason, lowest


def _search(problem, config: SearchConfig) -> SearchResult:
    """Multi-restart descent; restarts use independent seeded streams and the best point is picked by (objective,
    restart index). Only its joint unitary is assembled; its ready state is the result's."""
    runs = [_descend(problem, np.random.default_rng((config.seed, r)), config) for r in range(config.restarts)]
    f, point, trace, reason, _ = min(runs, key=lambda run: run[0])  # the first of equal floors
    return SearchResult(
        best_unitary=point.joint,
        best_ready_state=point.ready,
        best_objective=f,
        objective_trace=tuple(trace),
        restarts_used=config.restarts,
        converged=reason != "max_iter",
        restart_objectives=tuple(run[0] for run in runs),
        stop_reasons=tuple(run[3] for run in runs),
        restart_min_curvature=tuple(run[4] for run in runs),
    )


def default_probe_states(system_op: np.ndarray) -> list[np.ndarray]:
    """Eigenbasis of the system conserved factor plus all pairwise equal-weight mixes."""
    _, vectors = hermitian_eigensystem(system_op)
    n = vectors.shape[1]
    mixes = [(vectors[:, i] + vectors[:, j]) / np.sqrt(2.0) for i in range(n) for j in range(i + 1, n)]
    return [*vectors.T, *mixes]


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
    n1, n2 = q.system_op.shape[0], q.apparatus_op.shape[0]
    observable = as_hermitian(observable, n1, "observable")
    probe = as_hermitian(probe, n2, "probe")
    ready = sized(as_state(ready_state, "ready_state"), n2, "ready_state")
    probe_joint, obs_joint = tensor_product(np.eye(n1), probe), tensor_product(observable, np.eye(n2))
    problem = _Epsilon(conserved_eigenspaces(q), probe_joint, obs_joint, ready, default_probe_states(q.system_op))
    return _search(problem, config)


class _Epsilon:
    """Residuals w_psi = V^dag (U^dag P U - O)(psi (x) v) / sqrt(#states) for the fixed ready state v that its points
    carry, so that |w|^2 is the mean squared noise over the probe states. With P~ = V^dag P V, O~ = V^dag O V and
    x~ = V^dag (psi (x) v) projected once per search, the point B = V^dag U V gives w = (B^dag P~ B - O~) x~."""

    def __init__(self, d: BlockDecomposition, probe_joint, obs_joint, ready, states):
        inverse, self.vectors, self.chart, self.ready = dagger(d.vectors), d.vectors, _Chart(d.dims), ready
        self.probe, self.observable = inverse @ probe_joint @ d.vectors, inverse @ obs_joint @ d.vectors
        self.inputs = inverse @ np.stack([product_state(s, ready) for s in states], axis=-1) / np.sqrt(len(states))

    def start(self, rng):
        return _random_point(self.vectors, self.chart, [rng], self.ready)

    def residual(self, point):
        """The residuals, and A~ = B^dag P~ B for ``derivatives`` and ``curvature``."""
        a = dagger(point.blocks) @ self.probe @ point.blocks
        return (a - self.observable) @ self.inputs, a

    def derivatives(self, point, a):
        """dw = [A~, G_p] x~ = A~ G_p x~ - G_p (A~ x~) along each dB = B G_p: a gather of A~'s columns
        and x~'s rows, less a scatter into the only two rows a and b of G_p (A~ x~) that are nonzero."""
        first, second, upper, lower = point.chart.pairs
        dx = _gather(point.chart.pairs, a.T[:, :, None], self.inputs[:, None])  # (P, D, S)
        ax, rows = a @ self.inputs, np.arange(len(dx))
        dx[rows, first] -= upper[:, None] * ax[second]
        dx[rows, second] -= lower[:, None] * ax[first]  # zero for a phase, whose a = b
        return dx

    def curvature(self, point, a, residual):
        """S = Re sum w^dag d^2 w, with d^2 w = ([[A~, G_p], G_q] + [[A~, G_q], G_p]) x~ / 2 along each pair
        (p, q), since A~ moves to exp(-K) A~ exp(K). With X = x~ w^dag, tr([[A~, G_p], G_q] X) expands to
        tr(G_p G_q X A~) - tr(G_p A~ G_q X) - tr(G_q A~ G_p X) + tr(G_q G_p A~ X): a same-block trace
        (``_Chart.paired_trace``) and tr(G_p A~ G_q X), a gather of one entry of A~ and one of X for each
        of the 2 x 2 pairs of entries of G_p and G_q."""
        x = self.inputs @ residual.view(complex).reshape(self.inputs.shape).conj().T
        first, second, upper, lower = point.chart.pairs
        rows, columns, values = np.stack([first, second]), np.stack([second, first]), np.stack([upper, lower])
        between = (
            values[:, None, :, None] * values[None, :, None, :]
            * a[columns[:, None, :, None], rows[None, :, None, :]]
            * x[columns[None, :, None, :], rows[:, None, :, None]]
        ).sum(axis=(0, 1)).real
        return 0.5 * point.chart.paired_trace(x @ a + a @ x) - between - between.T

    def stepped(self, point, delta):
        return point.stepped(delta, point.ready)


def feasibility_search(q: ConservedQuantity, observable: np.ndarray, config: SearchConfig) -> SearchResult:
    """Search the commutant for an exact nondestructive scheme for ``observable``.

    The measured basis is the observable's eigenbasis; each restart draws its
    own apparatus ready state and optimizes it with the unitary. The objective
    ||G - I||_F^2 (see ``_Feasibility``) is zero exactly for an exact
    nondestructive scheme. No hypothesis gating happens here: dimensions
    outside the no-go regime are searched all the same.
    """
    observable = as_hermitian(observable, q.system_op.shape[0], "observable")
    return _search(_Feasibility(np.linalg.eigh(observable)[1].T, conserved_eigenspaces(q)), config)


class _Feasibility:
    """Residual E = G - I of the diagonal pointers, G_ij = <W_i|W_j> with W_j = (<u_j| (x) 1) U (|u_j> (x) |v>),
    u_j row j of ``basis``; zero exactly for an exact nondestructive scheme (unit W_j: no leakage; orthogonal:
    distinguishable). With L_j = (<u_j| (x) 1) V and R_j = V^dag (|u_j> (x) 1) = L_j^dag projected once per
    search, the point B = V^dag U V with ready state v gives W_j = L_j B c_j, c_j = R_j v. The parameters are the
    block generators, then the ``tangents`` of the unit sphere at v, along which ``stepped`` retracts v."""

    def __init__(self, basis: np.ndarray, d: BlockDecomposition):
        self.vectors, self.chart = d.vectors, _Chart(d.dims)
        self.left = np.einsum("ji,ikd->jkd", basis.conj(), d.vectors.reshape(len(basis), -1, len(d.vectors)))
        self.right, self.n2 = dagger(self.left), self.left.shape[1]  # L_j (n1, n2, D) and R_j (n1, D, n2)
        self.directions = np.concatenate([np.eye(self.n2), 1j * np.eye(self.n2)])  # e_k, then i e_k
        self.last_tangents = (None, None)  # (ready state, its tangents): see ``tangents``
        self.last_pointer_derivatives = (None, None)  # (point, its dW): see ``derivatives``

    def start(self, rng):
        ready = random_state_vector(self.n2, rng)  # drawn before the blocks, from the same stream
        return _random_point(self.vectors, self.chart, [rng], ready)

    def tangents(self, ready):
        """e_k and i e_k projected onto the tangent space of the unit sphere at the ready state, (2 n2, n2).
        Kept for the last ready state asked for: every try steps from the point differentiated last."""
        if ready is not self.last_tangents[0]:
            self.last_tangents = (ready, self.directions - (self.directions @ ready.conj()).real[:, None] * ready)
        return self.last_tangents[1]

    def residual(self, point):
        """E, and the W_j and c_j it is made of for ``derivatives`` and ``curvature``."""
        c = self.right @ point.ready  # (n1, D)
        w = (self.left @ (point.blocks @ c.T).T[:, :, None])[..., 0]
        return w.conj() @ w.mT - np.eye(len(w)), (w, c)

    def pointer_derivatives(self, point, c):
        """dW_j along every parameter, (P, n1, n2): Y_j G_p c_j along each dB = B G_p, Y_j = L_j B, and
        M_j t along each ready-state tangent t, M_j = Y_j R_j."""
        y = self.left @ point.blocks  # (n1, n2, D)
        gathered = _gather(point.chart.pairs, y.transpose(2, 0, 1), c.T[:, :, None])
        return np.concatenate([gathered, (y @ self.right @ self.tangents(point.ready).T).transpose(2, 0, 1)])

    def derivatives(self, point, computed):
        """dG = dW^dag W + W^dag dW; W_j and c_j come from ``residual``. dW is kept for the last point
        differentiated: ``curvature`` is asked for there."""
        w, c = computed
        dw = self.pointer_derivatives(point, c)
        self.last_pointer_derivatives = (point, dw)
        cross = dw.conj() @ w.mT  # <dW_i|W_j>
        return cross + cross.conj().mT

    def curvature(self, point, computed, residual):
        """S = Re sum_ij conj(E_ij) d^2 G_ij, d^2 G = d^2W^dag W + dW^dag dW' + dW'^dag dW + W^dag d^2W: the
        dW^dag dW term 2 Re <dW_p| conj(E) dW_q>, then 2 Re sum_j h_j^dag d^2W_j with h_j = sum_i E_ij W_i.
        Along two generators d^2B = B (G_p G_q + G_q G_p) / 2, which gives Re tr((G_p G_q + G_q G_p) C) with
        C = sum_j c_j a_j^dag and a_j = Y_j^dag h_j = B^dag R_j h_j; along a generator and a tangent t,
        d^2W_j = Y_j G_p R_j t; along two tangents the retraction gives d^2v = -Re(t^dag t') v, hence
        -2 (F + tr E) Re(t^dag t')."""
        w, c = computed
        e = residual.view(complex).reshape(len(w), len(w))
        at, dw = self.last_pointer_derivatives
        if at is not point:
            dw = self.pointer_derivatives(point, c)
        flat = dw.reshape(len(dw), -1).view(np.float64)
        s = 2.0 * flat @ (e.conj() @ dw).reshape(len(dw), -1).view(np.float64).T
        a = (self.right @ (e.T @ w)[:, :, None])[..., 0] @ point.blocks.conj()  # rows a_j, (n1, D)
        tangents = self.tangents(point.ready)
        split = len(point.chart.pairs[0])
        s[:split, :split] += point.chart.paired_trace(c.T @ a.conj())
        along = self.right @ tangents.T  # R_j t, (n1, D, 2 n2)
        mixed = 2.0 * _gather(point.chart.pairs, a.conj().T[:, :, None], along.transpose(1, 0, 2)).sum(axis=1).real
        s[:split, split:] += mixed
        s[split:, :split] += mixed.T
        rows = tangents.view(np.float64)  # Re(t^dag t') is the dot product of the real views
        s[split:, split:] -= 2.0 * (residual @ residual + e.trace().real) * rows @ rows.T
        return s

    def leak(self, point, computed, residual):
        """The residual r' = (E_ij for i != j, then the leaks l_j), whose zero is regular, and its derivatives
        (P, R'). 1 - G_jj = |l_j|^2 is quadratic in the amplitude l_j = Q_j B c_j, Q_j = 1 - R_j L_j, that leaks
        out of u_j (x) C^n2, so E's rows dG_jj vanish at the zero and F is quartic there. The columns of R_i,
        i != j, are an orthonormal basis of the range of Q_j, and l_j's coordinates in it are the off-diagonal
        pointer blocks w_ij = Y_i c_j, Y_i = L_i B: ``leak`` stacks those. Every block w_ij takes its
        derivative Y_i G_p c_j along dB = B G_p from one gather, as ``pointer_derivatives`` does for W_j = w_jj,
        and Y_i R_j t along each ready-state tangent t; dG off the diagonal comes from the diagonal ones."""
        w, c = computed
        n1, n2 = w.shape
        y = self.left @ point.blocks  # Y_i, (n1, n2, D)
        gathered = _gather(point.chart.pairs, y.reshape(n1 * n2, -1).T[:, :, None], c.T[:, None, :])  # (P, n1 n2, n1)
        along = y[:, None] @ self.right[None] @ self.tangents(point.ready).T  # Y_i R_j t, (n1, n1, n2, 2 n2)
        dw = np.concatenate([gathered.reshape(-1, n1, n2, n1).transpose(0, 1, 3, 2), along.transpose(3, 0, 1, 2)])
        cross = np.diagonal(dw, axis1=1, axis2=2).conj().swapaxes(1, 2) @ w.mT  # <dW_i|W_j>
        off = ~np.eye(n1, dtype=bool)
        e, blocks = residual.view(complex).reshape(n1, n1), (y @ c.T).transpose(0, 2, 1)  # w_ij at [i, j]
        rows = np.concatenate([(cross + cross.conj().mT)[:, off], dw[:, off].reshape(len(dw), -1)], axis=1)
        return np.concatenate([e[off], blocks[off].ravel()]), rows

    def stepped(self, point, delta):
        """The blocks moved along the generators, and the ready state retracted onto the sphere:
        v <- (v + sum_t delta_t t) / |v + sum_t delta_t t|."""
        split = len(delta) - len(self.directions)
        ready = point.ready + delta[split:] @ self.tangents(point.ready)
        return point.stepped(delta[:split], ready / np.linalg.norm(ready))
