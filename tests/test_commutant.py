import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, LA_DIAG, X, Z, E0
from wayaudit import commutant
from wayaudit.commutant import (
    STOP_REASONS,
    SearchConfig,
    SearchResult,
    commutant_unitary,
    conserved_eigenspaces,
    default_probe_states,
    feasibility_search,
    minimize_epsilon,
)
from wayaudit.linalg import (
    commutator,
    frobenius_norm,
    haar_unitary,
    random_hermitian,
    random_state_vector,
)
from wayaudit.model import ConservedQuantity, conserved_operator

seeds = st.integers(min_value=0, max_value=2**32 - 1)
GOLDEN = Path(__file__).resolve().parent / "golden"


def quantity(la, lb, kind="multiplicative"):
    return ConservedQuantity(kind, np.asarray(la, dtype=complex), np.asarray(lb, dtype=complex))


class TestConservedEigenspaces:
    def test_identity_factor_two_blocks(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        assert d.dims == (2, 2)
        assert [b.eigenvalue for b in d.blocks] == [1.0, 2.0]

    def test_distinct_product_spectrum(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, np.diag([1.0, 2.0])))
        # joint spectrum 1, 2, 2, 4 groups into dims 1, 2, 1
        assert d.dims == (1, 2, 1)

    def test_grouping_below_tolerance(self):
        d = conserved_eigenspaces(quantity(np.diag([1.0, 1.0 + 1e-12]), np.eye(1)))
        assert d.dims == (2,)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        q = quantity(random_hermitian(2, rng), random_hermitian(3, rng))
        d = conserved_eigenspaces(q)
        joint = conserved_operator(q)
        rebuilt = sum(b.eigenvalue * (b.basis @ b.basis.conj().T) for b in d.blocks)
        assert frobenius_norm(joint - rebuilt) <= 1e-9
        assert sum(d.dims) == d.total_dim


class TestRandomCommutantUnitary:
    def test_single_block_is_plain_unitary(self):
        d = conserved_eigenspaces(quantity(I2, I2))
        u = commutant_unitary(d, np.random.default_rng(3))
        assert frobenius_norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_all_singleton_blocks_diagonalish(self):
        q = quantity(LA_DIAG, np.diag([1.0, 3.0]))
        d = conserved_eigenspaces(q)
        u = commutant_unitary(d, np.random.default_rng(3))
        joint = conserved_operator(q)
        assert frobenius_norm(commutator(u, joint)) <= 1e-10

    def test_block_structure_conserves(self):
        q = quantity(LA_DIAG, I2)
        d = conserved_eigenspaces(q)
        u = commutant_unitary(d, np.random.default_rng(8))
        # oracle: direct commutator with the joint operator
        assert frobenius_norm(commutator(u, conserved_operator(q))) <= 1e-10

    def test_deterministic(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        np.testing.assert_array_equal(
            commutant_unitary(d, np.random.default_rng(5)),
            commutant_unitary(d, np.random.default_rng(5)),
        )


class TestProjectGenerator:
    """The optimizer's chart of the commutant: its generators, placed in their
    blocks, are the block-diagonal anti-Hermitian matrices, and its steps conserve."""

    @staticmethod
    def joint(decomposition, theta):
        """sum over the blocks of size 2 of B G(theta_block) B^dag."""
        group = commutant._SizeGroup(decomposition, 2)
        return sum(b @ g @ b.conj().T for b, g in zip(group.bases, group.generators(theta)))

    def test_block_diagonal_unchanged(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        k = np.zeros((4, 4), dtype=complex)
        k[:2, :2] = 1j * np.array([[1.0, 2.0], [2.0, -1.0]])
        # a block's parameters: its diagonal phases, then the real and imaginary part of entry (0, 1)
        out = self.joint(d, np.array([[1.0, -1.0, 0.0, 2.0], [0.0, 0.0, 0.0, 0.0]]))
        assert np.abs(out - k).max() <= 1e-12

    def test_cross_block_zeroed(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        out = self.joint(d, np.random.default_rng(0).standard_normal((2, 4)))
        assert np.abs(out[:2, 2:]).max() <= 1e-12 and np.abs(out[2:, :2]).max() <= 1e-12
        assert np.abs(out[:2, :2]).max() > 0.1 and np.abs(out[2:, 2:]).max() > 0.1

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_exponential_conserves(self, seed):
        rng = np.random.default_rng(seed)
        w = haar_unitary(3, rng)
        q = quantity(LA_DIAG, (w * [1.0, 2.0, 4.0]) @ w.conj().T)  # blocks (1, 2, 2, 1)
        d = conserved_eigenspaces(q)
        point = commutant._random_point(d, rng)
        thetas = [rng.standard_normal((len(g.members), g.size**2)) for g in point.groups]
        for group, theta in zip(point.groups, thetas):
            k = group.generators(theta)
            assert frobenius_norm(k + k.conj().mT) <= 1e-12
        u = point.stepped(thetas).joint
        assert frobenius_norm(commutator(u, conserved_operator(q))) <= 1e-10


class TestDefaultProbeStates:
    def test_count_and_norms(self):
        states = default_probe_states(LA_DIAG)
        assert len(states) == 3  # 2 eigenvectors + 1 pair
        for s in states:
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-12


class TestMinimizeEpsilon:
    def test_commuting_scheme_reaches_zero(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=5, restarts=4, max_iter=500)
        result = minimize_epsilon(q, np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), E0, config=config)
        assert result.best_objective <= 1e-6

    def test_noncommuting_observable_floor(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=5, restarts=8, max_iter=500)
        result = minimize_epsilon(q, X, Z, E0, config=config)
        assert all(f > 1e-3 for f in result.restart_objectives)

    def test_trivial_quantity_unconstrained(self):
        q = quantity(I2, I2)
        config = SearchConfig(seed=5, restarts=4, max_iter=800)
        result = minimize_epsilon(q, X, Z, E0, config=config)
        assert result.best_objective <= 1e-6

    def test_requires_config(self):
        q = quantity(LA_DIAG, I2)
        with pytest.raises(TypeError, match="config"):
            minimize_epsilon(q, X, Z, E0)

    def test_deterministic(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=12, restarts=2, max_iter=60)
        a = minimize_epsilon(q, X, Z, E0, config=config)
        b = minimize_epsilon(q, X, Z, E0, config=config)
        assert a.best_objective == b.best_objective
        np.testing.assert_array_equal(a.best_unitary, b.best_unitary)
        assert a.objective_trace == b.objective_trace
        assert a.restart_objectives == b.restart_objectives


class TestSearchInvariants:
    def _result(self) -> SearchResult:
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=3, restarts=3, max_iter=120)
        return minimize_epsilon(q, X, Z, E0, config=config)

    def test_trace_monotone_and_best_is_min(self):
        result = self._result()
        values = [v for _, v in result.objective_trace]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert abs(result.best_objective - min(values)) <= 1e-12

    def test_best_unitary_conserves(self):
        result = self._result()
        joint = conserved_operator(quantity(LA_DIAG, I2))
        assert frobenius_norm(commutator(result.best_unitary, joint)) <= 1e-9

    def test_restart_count(self):
        result = self._result()
        assert result.restarts_used == 3
        assert len(result.restart_objectives) == 3


class TestFeasibilitySearch:
    def test_commuting_observable_feasible(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=7, restarts=4, max_iter=500)
        result = feasibility_search(q, np.diag([1.0, 2.0]), 2, config=config)
        assert result.best_objective <= 1e-8

    def test_noncommuting_observable_floor(self):
        q = quantity(LA_DIAG, I2)
        config = SearchConfig(seed=7, restarts=8, max_iter=500)
        result = feasibility_search(q, X, 2, config=config)
        assert all(f > 1e-3 for f in result.restart_objectives)

    def test_wide_apparatus_allowed(self):
        # outside the no-go regime (n2 >= 2 n1) the search simply runs
        q = quantity(LA_DIAG, np.eye(4, dtype=complex))
        config = SearchConfig(seed=2, restarts=2, max_iter=200)
        result = feasibility_search(q, X, 4, config=config)
        assert result.restarts_used == 2
        assert np.isfinite(result.best_objective)

    def test_dimension_argument_checked(self):
        q = quantity(LA_DIAG, I2)
        with pytest.raises(ValueError, match="n2"):
            feasibility_search(q, X, 3, config=SearchConfig(seed=1))


def _pinned(result: SearchResult) -> dict:
    """Every bit of a search result: floats as hex, the best unitary as a digest of its bytes."""
    return {
        "best_objective": result.best_objective.hex(),
        "best_unitary_sha256": hashlib.sha256(result.best_unitary.tobytes()).hexdigest(),
        "objective_trace": [[it, value.hex()] for it, value in result.objective_trace],
        "restart_objectives": [value.hex() for value in result.restart_objectives],
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "best_ready_state_sha256": hashlib.sha256(result.best_ready_state.tobytes()).hexdigest(),
        "stop_reasons": list(result.stop_reasons),
    }


def _pinned_searches() -> dict:
    """Both objectives on two block sizes, short enough to stop at max_iter."""
    config = SearchConfig(seed=11, restarts=2, max_iter=25)
    return {
        "feasibility_blocks_1221": _pinned(
            feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, 3, config=config)
        ),
        "epsilon_blocks_121": _pinned(
            minimize_epsilon(quantity(LA_DIAG, np.diag([1.0, 2.0])), X, Z, E0, config=config)
        ),
    }


class TestSearchGoldens:
    def test_search_results_bit_identical(self):
        expected = json.loads((GOLDEN / "search_results.json").read_text())
        assert _pinned_searches() == expected


# Per-matrix reference versions of the optimizer's stacked computations.


def _reference_pairs(dim):
    return [(a, b) for a in range(dim) for b in range(a + 1, dim)]


def _reference_factor(dim, param, t):
    """exp(t * G_param), one canonical generator at a time."""
    f = np.eye(dim, dtype=complex)
    if param < dim:
        f[param, param] = np.exp(1j * t)
        return f
    pair, kind = divmod(param - dim, 2)
    a, b = _reference_pairs(dim)[pair]
    c, s = np.cos(t), np.sin(t)
    f[a, a] = c
    f[b, b] = c
    f[a, b] = s if kind == 0 else 1j * s
    f[b, a] = -s if kind == 0 else 1j * s
    return f


def _reference_generator(theta, dim):
    """The anti-Hermitian generator with parameter row theta, entry by entry."""
    k = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        k[a, a] = 1j * theta[a]
    for idx, (a, b) in enumerate(_reference_pairs(dim)):
        t_re, t_im = theta[dim + 2 * idx], theta[dim + 2 * idx + 1]
        k[a, b] += t_re + 1j * t_im
        k[b, a] += -t_re + 1j * t_im
    return k


def _reference_block_exp(theta, dim):
    h = -1j * _reference_generator(theta, dim)
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def _reference_parts(d, unitaries):
    return [block.basis @ v @ block.basis.conj().T for block, v in zip(d.blocks, unitaries)]


def _block_unitaries(point):
    """The point's unitaries in block order."""
    out = {}
    for group, stack in zip(point.groups, point.unitaries):
        out.update(zip(group.members, stack))
    return [out[i] for i in range(len(out))]


def _reference_feasibility(observable, ready):
    """||G - I||_F^2 for one joint unitary, pointer by pointer and entry by entry."""
    n1, n2 = observable.shape[0], len(ready)
    basis = np.linalg.eigh(observable)[1].T

    def objective(u):
        pointers = [basis[j].conj() @ (u @ np.kron(basis[j], ready)).reshape(n1, n2) for j in range(n1)]
        return sum(
            abs(np.vdot(pointers[i], pointers[j]) - (i == j)) ** 2 for i in range(n1) for j in range(n1)
        )

    return objective


def _reference_epsilon(observable, probe, ready, states):
    n1, n2 = observable.shape[0], probe.shape[0]
    probe_joint = np.kron(np.eye(n1), probe)
    obs_joint = np.kron(observable, np.eye(n2))
    joints = [np.kron(s, ready) for s in states]

    def objective(u):
        evolved = u.conj().T @ probe_joint @ u - obs_joint
        total = 0.0
        for psi in joints:
            w = evolved @ psi
            total += float(np.vdot(w, w).real)
        return total / len(joints)

    return objective


def _problem(monkeypatch, search, *args):
    """The residual problem a search hands to its restarts."""
    captured = {}

    def capture(decomposition, problem, config):
        captured["problem"] = problem

    monkeypatch.setattr(commutant, "_search", capture)
    search(*args, config=SearchConfig(seed=0))
    return captured["problem"]


def _problems(la, lb):
    """Both residual problems on diag(la) (x) diag(lb), with seeded observable, probe and
    ready state: {name: (problem, ready state)}."""
    rng = np.random.default_rng(4)
    n1, n2 = len(la), len(lb)
    observable, probe = random_hermitian(n1, rng), random_hermitian(n2, rng)
    ready = random_state_vector(n2, rng)
    epsilon = commutant._Epsilon(
        np.kron(np.eye(n1), probe), np.kron(observable, np.eye(n2)), ready, default_probe_states(np.diag(la))
    )
    feasibility = commutant._Feasibility(np.linalg.eigh(observable)[1].T, n2)
    return {"epsilon": (epsilon, ready), "feasibility": (feasibility, ready)}


BLOCK_CASES = [
    ([1.0, 2.0], [1.0, 2.0, 4.0]),        # blocks (1, 2, 2, 1)
    ([1.0, 1.0, 2.0], [1.0, 2.0]),        # blocks (2, 3, 1)
    ([1.0, 5.0], [1.0, 1.0, 1.0]),        # two blocks of size 3
    ([1.0, 1.0, 1.0], [1.0, 1.0]),        # one block of size 6
]


class TestOptimizerBitIdentity:
    """The optimizer's stacked pieces against per-parameter reference loops: bit for bit
    where the arithmetic is the same, to a set tolerance where it is not."""

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_jacobian_matches_central_differences(self, la, lb):
        """Jacobian and gradient of both objectives against central differences along
        exp(+-h G_p) per block and parameter, and along each ready-state tangent."""
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        point = commutant._random_point(d, np.random.default_rng(1))
        unitaries = _block_unitaries(point)
        parts = _reference_parts(d, unitaries)
        assert point.joint.tobytes() == sum(parts).tobytes()
        generators = np.concatenate([g.joint_generators() for g in point.groups])
        h = 1e-6
        for name, (problem, ready) in _problems(la, lb).items():
            tangents = problem.tangents(ready)
            jac = problem.derivatives(point.joint, ready, generators, tangents)
            jac = jac.reshape(len(jac), -1).view(np.float64)
            points = []
            for group in point.groups:
                for i in group.members:
                    basis = d.blocks[i].basis
                    for p in range(group.size**2):
                        points.append([
                            (point.joint - parts[i] + basis @ (unitaries[i] @ _reference_factor(group.size, p, t))
                             @ basis.conj().T, ready)
                            for t in (h, -h)
                        ])
            for t in tangents:
                points.append([(point.joint, (ready + s * t) / np.linalg.norm(ready + s * t)) for s in (h, -h)])
            assert len(points) == len(jac) == len(generators) + len(tangents)
            scored = [[commutant._scored(problem, u, v) for u, v in pair] for pair in points]
            fd = np.stack([(plus[0] - minus[0]) / (2 * h) for plus, minus in scored])
            assert np.abs(jac - fd).max() <= 1e-8, name
            residual, _ = commutant._scored(problem, point.joint, ready)
            fd_grad = np.array([(plus[1] - minus[1]) / (2 * h) for plus, minus in scored])
            assert np.abs(2 * jac @ residual - fd_grad).max() <= 1e-8, name

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_stepped_batch_matches_per_block_exp(self, la, lb):
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        point = commutant._random_point(d, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        thetas = [rng.standard_normal((3, len(g.members), g.size**2)) * 0.1 for g in point.groups]
        for theta in thetas:  # zero steps keep the reference's signed zeros
            theta[0, 0] = -0.0
            theta[1, 0] = 0.0
        for group, theta in zip(point.groups, thetas):
            expected = [_reference_generator(row, group.size) for row in theta.reshape(-1, group.size**2)]
            assert group.generators(theta).tobytes() == np.stack(expected).tobytes()
        for c in range(3):
            by_block = {}
            for group, theta in zip(point.groups, thetas):
                by_block.update(zip(group.members, theta[c]))
            expected = [
                v @ _reference_block_exp(by_block[i], v.shape[0])
                for i, v in enumerate(_block_unitaries(point))
            ]
            candidate = point.stepped([theta[c] for theta in thetas])
            assert [v.tobytes() for v in _block_unitaries(candidate)] == [v.tobytes() for v in expected]
            assert candidate.joint.tobytes() == sum(_reference_parts(d, expected)).tobytes()

    def test_feasibility_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0]))
        d = conserved_eigenspaces(q)
        stack = [commutant_unitary(d, np.random.default_rng(seed)) for seed in range(6)]
        stack.append(np.kron(X, np.eye(3)))  # moves every pointer off its diagonal
        ready = random_state_vector(3, np.random.default_rng(9))
        for observable in (X, Z):
            problem = _problem(monkeypatch, feasibility_search, q, observable, 3)
            reference = _reference_feasibility(observable, ready)
            for u in stack:
                # the stacked contractions sum in another order than the loop
                value = commutant._scored(problem, u, ready)[1]
                assert value == pytest.approx(reference(u), rel=1e-12, abs=1e-15)

    def test_epsilon_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0]))
        problem = _problem(monkeypatch, minimize_epsilon, q, X, Z, E0)
        reference = _reference_epsilon(X, Z, E0, default_probe_states(LA_DIAG))
        d = conserved_eigenspaces(q)
        for u in [commutant_unitary(d, np.random.default_rng(seed)) for seed in range(6)]:
            assert commutant._scored(problem, u, E0)[1] == pytest.approx(reference(u), rel=1e-12, abs=1e-15)


class TestFloors:
    """Restart floors of the feasibility search agree, and controls reach zero in every restart."""

    def test_blocks_2x3_floors_agree(self):
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, 3, config=SearchConfig(seed=0))
        floors = result.restart_objectives
        assert min(floors) > 1e-3
        assert max(floors) - min(floors) <= 1e-6
        assert result.stop_reasons == ("no_decrease",) * 8
        assert result.converged

    def test_2x4_floor_is_one_over_52(self):
        result = feasibility_search(
            quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0, 8.0])), X, 4, config=SearchConfig(seed=0)
        )
        assert all(abs(f - 1.0 / 52.0) <= 1e-9 for f in result.restart_objectives)

    @pytest.mark.parametrize(
        "lb, observable",
        [
            ([1.0, 2.0, 4.0], np.diag([1.0, 2.0])),  # commuting observable
            ([0.0, 0.0, 1.0], X),  # singular LB: the no-go hypotheses fail
        ],
    )
    def test_controls_reach_zero_in_every_restart(self, lb, observable):
        result = feasibility_search(quantity(LA_DIAG, np.diag(lb)), observable, 3, config=SearchConfig(seed=0))
        assert all(f <= 1e-10 for f in result.restart_objectives)
        assert result.stop_reasons == ("zero",) * 8

    def test_max_iter_stop_is_not_converged(self):
        config = SearchConfig(seed=3, restarts=3, max_iter=20)
        result = feasibility_search(quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0])), X, 3, config=config)
        assert set(result.stop_reasons) <= set(STOP_REASONS)
        assert result.stop_reasons == ("max_iter",) * 3 and not result.converged
        assert abs(np.linalg.norm(result.best_ready_state) - 1.0) <= 1e-12
