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
    FD_STEP,
    SearchConfig,
    SearchResult,
    conserved_eigenspaces,
    default_probe_states,
    feasibility_search,
    minimize_epsilon,
    project_generator,
    random_commutant_unitary,
)
from wayaudit.linalg import (
    anti_hermitian_exp,
    commutator,
    frobenius_norm,
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

    def test_dims_argument_validated(self):
        with pytest.raises(ValueError, match="dims"):
            conserved_eigenspaces(quantity(LA_DIAG, I2), dims=(3, 2))

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
        u = random_commutant_unitary(d, seed=3)
        assert frobenius_norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_all_singleton_blocks_diagonalish(self):
        q = quantity(LA_DIAG, np.diag([1.0, 3.0]))
        d = conserved_eigenspaces(q)
        u = random_commutant_unitary(d, seed=3)
        joint = conserved_operator(q)
        assert frobenius_norm(commutator(u, joint)) <= 1e-10

    def test_block_structure_conserves(self):
        q = quantity(LA_DIAG, I2)
        d = conserved_eigenspaces(q)
        u = random_commutant_unitary(d, seed=8)
        # oracle: direct commutator with the joint operator
        assert frobenius_norm(commutator(u, conserved_operator(q))) <= 1e-10

    def test_deterministic(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        np.testing.assert_array_equal(
            random_commutant_unitary(d, seed=5), random_commutant_unitary(d, seed=5)
        )


class TestProjectGenerator:
    def test_block_diagonal_unchanged(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        k = np.zeros((4, 4), dtype=complex)
        k[:2, :2] = 1j * np.array([[1.0, 2.0], [2.0, -1.0]])
        out = project_generator(k, d)
        assert np.abs(out - k).max() <= 1e-12

    def test_cross_block_zeroed(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        k = np.zeros((4, 4), dtype=complex)
        k[0, 2] = 1.0
        k[2, 0] = -1.0
        out = project_generator(k, d)
        assert np.abs(out).max() <= 1e-12

    def test_rejects_non_anti_hermitian(self):
        d = conserved_eigenspaces(quantity(LA_DIAG, I2))
        with pytest.raises(ValueError, match="anti-Hermitian"):
            project_generator(np.eye(4, dtype=complex), d)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_exponential_conserves(self, seed):
        rng = np.random.default_rng(seed)
        q = quantity(LA_DIAG, random_hermitian(2, rng))
        d = conserved_eigenspaces(q)
        k = 1j * random_hermitian(4, rng)
        projected = project_generator(k, d)
        assert frobenius_norm(projected + projected.conj().T) <= 1e-12
        u = anti_hermitian_exp(projected)
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
        with pytest.raises(ValueError, match="config"):
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


class TestSearchConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("step", 0.0), ("step", -0.1), ("step", float("nan")), ("step", float("inf")),
            ("ftol", -1e-12), ("ftol", float("nan")), ("ftol", float("inf")),
        ],
    )
    def test_rejects_bad_step_and_ftol(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(seed=0, **{field: value})

    def test_accepts_zero_ftol(self):
        assert SearchConfig(seed=0, ftol=0.0).ftol == 0.0


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


def _reference_feasibility(observable, n2, rng):
    """The feasibility objective for one joint unitary, pointer by pointer."""
    n1 = observable.shape[0]
    basis = np.linalg.eigh(observable)[1].T
    ready = random_state_vector(n2, rng)
    inputs = [np.kron(basis[j], ready) for j in range(n1)]

    def objective(u):
        pointers = np.zeros((n1, n2), dtype=complex)
        leakage_sq = 0.0
        for j in range(n1):
            w = basis.conj() @ (u @ inputs[j]).reshape(n1, n2)
            norms_sq = np.einsum("ik,ik->i", w.conj(), w).real
            diag_sq = norms_sq[j]
            norms_sq[j] = 0.0
            leakage_sq = max(leakage_sq, float(norms_sq.max()))
            if diag_sq > 1e-24:
                pointers[j] = w[j] / np.sqrt(diag_sq)
        gram = pointers.conj() @ pointers.T
        return leakage_sq + float(np.linalg.norm(gram - np.eye(n1)) ** 2)

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


def _objective(monkeypatch, search, *args):
    """The stacked objective a search builds for its first restart."""
    captured = {}

    def capture(decomposition, make_objective, config):
        captured["objective"] = make_objective(np.random.default_rng((config.seed, 0)))

    monkeypatch.setattr(commutant, "_search", capture)
    search(*args, config=SearchConfig(seed=0))
    return captured["objective"]


BLOCK_CASES = [
    ([1.0, 2.0], [1.0, 2.0, 4.0]),        # blocks (1, 2, 2, 1)
    ([1.0, 1.0, 2.0], [1.0, 2.0]),        # blocks (2, 3, 1)
    ([1.0, 5.0], [1.0, 1.0, 1.0]),        # two blocks of size 3
    ([1.0, 1.0, 1.0], [1.0, 1.0]),        # one block of size 6
]


class TestOptimizerBitIdentity:
    """The stacked descent steps reproduce the per-parameter reference loops bit for bit."""

    @pytest.mark.parametrize("la, lb", BLOCK_CASES)
    def test_fd_joints_match_per_parameter_loop(self, la, lb):
        d = conserved_eigenspaces(quantity(np.diag(la), np.diag(lb)))
        point = commutant._random_point(d, np.random.default_rng(1))
        unitaries = _block_unitaries(point)
        parts = _reference_parts(d, unitaries)
        joint = sum(parts)
        assert point.joint.tobytes() == joint.tobytes()
        expected = {FD_STEP: [], -FD_STEP: []}
        for group in point.groups:
            for i in group.members:
                basis = d.blocks[i].basis
                for t, joints in expected.items():
                    for p in range(group.size**2):
                        part = basis @ (unitaries[i] @ _reference_factor(group.size, p, t)) @ basis.conj().T
                        joints.append(joint - parts[i] + part)
        reference = np.stack(expected[FD_STEP] + expected[-FD_STEP])
        assert point.fd_joints().tobytes() == reference.tobytes()

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
        batch = point.stepped(thetas)
        for c in range(3):
            by_block = {}
            for group, theta in zip(point.groups, thetas):
                by_block.update(zip(group.members, theta[c]))
            expected = [
                v @ _reference_block_exp(by_block[i], v.shape[0])
                for i, v in enumerate(_block_unitaries(point))
            ]
            candidate = batch[c]
            assert [v.tobytes() for v in _block_unitaries(candidate)] == [v.tobytes() for v in expected]
            assert candidate.joint.tobytes() == sum(_reference_parts(d, expected)).tobytes()

    def test_feasibility_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0, 4.0]))
        for observable in (X, Z):
            objective = _objective(monkeypatch, feasibility_search, q, observable, 3)
            reference = _reference_feasibility(observable, 3, np.random.default_rng((0, 0)))
            d = conserved_eigenspaces(q)
            stack = [random_commutant_unitary(d, seed) for seed in range(6)]
            stack.append(np.kron(X, np.eye(3)))  # moves every pointer off its diagonal
            stack = np.stack(stack)
            values = objective(stack)
            for i, u in enumerate(stack):
                assert values[i] == objective(u[None])[0] == reference(u)

    def test_epsilon_objective_matches_reference(self, monkeypatch):
        q = quantity(LA_DIAG, np.diag([1.0, 2.0]))
        objective = _objective(monkeypatch, minimize_epsilon, q, X, Z, E0)
        reference = _reference_epsilon(X, Z, E0, default_probe_states(LA_DIAG))
        d = conserved_eigenspaces(q)
        stack = np.stack([random_commutant_unitary(d, seed) for seed in range(6)])
        values = objective(stack)
        for i, u in enumerate(stack):
            assert values[i] == objective(u[None])[0] == reference(u)
