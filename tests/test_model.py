import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, E0, E1, I2, LA_DIAG, PLUS, X, Z
from wayaudit.errors import DegeneratePointerError
from wayaudit.linalg import dagger, haar_unitary, random_state_vector
from wayaudit.model import (
    ConservedQuantity,
    MeasurementModel,
    _joint_blocks,
    check_conserved,
    check_exact,
    check_nondestructive,
    conserved_operator,
    observable_in_basis,
    synthesize_unitary,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def joint_blocks(m):
    """w(i, j) = (<u(i)| (x) 1) U (|u(j)> (x) |v>) of one model, (n1, n1, n2), from the pointer kernel."""
    return _joint_blocks(m.system_basis, m.ready_state[None], m.interaction[None])[0]


def haar_model(n1, n2, seed):
    rng = np.random.default_rng(seed)
    return MeasurementModel(
        n1, n2, np.eye(n1, dtype=complex), random_state_vector(n2, rng), haar_unitary(n1 * n2, rng)
    )


class TestModelInvariants:
    def test_rejects_non_unitary_interaction(self):
        with pytest.raises(ValueError, match="unitary"):
            MeasurementModel(2, 2, I2, E0, np.ones((4, 4), dtype=complex))

    def test_rejects_non_orthonormal_basis(self):
        bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="orthonormal"):
            MeasurementModel(2, 2, bad, E0, CNOT)

    def test_rejects_unnormalized_ready_state(self):
        with pytest.raises(ValueError, match="norm"):
            MeasurementModel(2, 2, I2, np.array([1.0, 1.0]), CNOT)

    def test_quantity_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ConservedQuantity("bogus", Z, Z)

    def test_quantity_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ConservedQuantity("additive", np.array([[0, 1], [0, 0]], dtype=complex), Z)


class TestJointBlocks:
    def test_cnot(self, cnot_model):
        w = joint_blocks(cnot_model)
        np.testing.assert_allclose(w[0, 0], E0)
        np.testing.assert_allclose(w[1, 1], E1)
        np.testing.assert_allclose(w[0, 1], np.zeros(2))
        np.testing.assert_allclose(w[1, 0], np.zeros(2))

    def test_identity_interaction(self, identity_model):
        w = joint_blocks(identity_model)
        for i in range(2):
            for j in range(2):
                expected = E0 if i == j else np.zeros(2)
                np.testing.assert_allclose(w[i, j], expected)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_column_norms_sum_to_one(self, seed):
        m = haar_model(2, 3, seed)
        w = joint_blocks(m)
        # oracle: the decomposition must recover the full evolved column
        for j in range(m.n1):
            evolved = m.interaction @ np.kron(m.system_basis[j], m.ready_state)
            total = sum(np.linalg.norm(w[i, j]) ** 2 for i in range(m.n1))
            assert abs(total - np.linalg.norm(evolved) ** 2) <= 1e-10
            assert abs(total - 1.0) <= 1e-10


class TestNondestructive:
    def test_cnot(self, cnot_model):
        report = check_nondestructive(cnot_model)
        assert report.verdict and report.leakage == 0.0
        np.testing.assert_allclose(report.pointers[0], E0)
        np.testing.assert_allclose(report.pointers[1], E1)

    def test_population_moving_interaction(self):
        # oracle: X (x) I maps u(j) (x) v to u(1-j) (x) v, so all weight leaks
        m = MeasurementModel(2, 2, I2, E0, np.kron(X, I2))
        report = check_nondestructive(m)
        assert not report.verdict
        assert abs(report.leakage - 1.0) <= 1e-12
        assert report.degenerate == (0, 1)
        assert report.error is not None and "degenerate_pointer" in report.error

    def test_identity_interaction(self, identity_model):
        report = check_nondestructive(identity_model)
        assert report.verdict
        np.testing.assert_allclose(report.pointers[0], E0)
        np.testing.assert_allclose(report.pointers[1], E0)


class TestExact:
    def test_cnot(self, cnot_model):
        report = check_exact(cnot_model)
        assert report.verdict and report.deficit == 0.0
        np.testing.assert_allclose(report.gram, I2)

    def test_identity_interaction_fully_inexact(self, identity_model):
        report = check_exact(identity_model)
        assert not report.verdict
        np.testing.assert_allclose(report.gram, np.ones((2, 2)))
        assert abs(report.deficit - np.sqrt(2.0)) <= 1e-12

    def test_partial_entangler(self):
        # controlled rotation by angle pi/4; pointer overlap cos(pi/8)
        theta = np.pi / 4
        rot = np.array(
            [
                [np.cos(theta / 2), -1j * np.sin(theta / 2)],
                [-1j * np.sin(theta / 2), np.cos(theta / 2)],
            ]
        )
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = I2
        u[2:, 2:] = rot
        m = MeasurementModel(2, 2, I2, E0, u)
        report = check_exact(m)
        expected = np.sqrt(2.0) * np.cos(np.pi / 8)
        assert abs(report.deficit - expected) <= 1e-12
        assert 0.0 < report.deficit < np.sqrt(2.0)

    def test_degenerate_pointer_propagates(self):
        m = MeasurementModel(2, 2, I2, E0, np.kron(X, I2))
        with pytest.raises(DegeneratePointerError):
            check_exact(m)


class TestConserved:
    def test_cnot_conserving_pair(self, cnot_model, cnot_quantity):
        report = check_conserved(cnot_model, cnot_quantity)
        assert report.verdict and report.residual == 0.0

    def test_cnot_nonconserving_pair(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, LA_DIAG)
        report = check_conserved(cnot_model, q)
        # oracle: conjugating diag(1,2,2,4) by CNOT swaps the last two entries,
        # leaving a defect vector (0, 0, 2, -2) of norm 2*sqrt(2)
        assert abs(report.residual - 2.0 * np.sqrt(2.0)) <= 1e-12
        assert not report.verdict

    def test_identity_conserves_anything(self, identity_model):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (a + dagger(a)) / 2
        q = ConservedQuantity("multiplicative", a, a)
        assert check_conserved(identity_model, q).residual <= 1e-14

    def test_dimension_mismatch(self, cnot_model):
        q = ConservedQuantity("multiplicative", np.eye(3), I2)
        with pytest.raises(ValueError, match="match"):
            check_conserved(cnot_model, q)

    def test_additive_kind(self, cnot_model):
        q = ConservedQuantity("additive", LA_DIAG, np.zeros((2, 2)))
        assert check_conserved(cnot_model, q).residual <= 1e-14

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_residual_invariances(self, seed):
        m = haar_model(2, 2, seed)
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        base = check_conserved(m, q).residual
        # global phase of the interaction: exact for exactly-representable phases
        for phase in (-1.0, 1j, -1j):
            phased = MeasurementModel(2, 2, m.system_basis, m.ready_state, phase * m.interaction)
            assert check_conserved(phased, q).residual == base
        # simultaneous unitary change of joint basis
        rng = np.random.default_rng(seed + 1)
        w = haar_unitary(4, rng)
        joint = conserved_operator(q)
        rotated_joint = dagger(w) @ joint @ w
        rotated_u = dagger(w) @ m.interaction @ w
        rotated = np.linalg.norm(dagger(rotated_u) @ rotated_joint @ rotated_u - rotated_joint)
        assert abs(rotated - base) <= 1e-10


class TestSynthesize:
    def test_cnot_reconstruction(self):
        m = synthesize_unitary(I2, E0, np.stack([E0, E1]))
        # prescribed columns agree with the controlled-flip interaction
        np.testing.assert_allclose(m.interaction[:, 0], CNOT[:, 0], atol=1e-12)
        np.testing.assert_allclose(m.interaction[:, 2], CNOT[:, 2], atol=1e-12)
        assert check_nondestructive(m).verdict

    def test_identical_pointers_inexact(self):
        m = synthesize_unitary(I2, E0, np.stack([E0, E0]))
        nd = check_nondestructive(m)
        assert nd.verdict and nd.leakage <= 1e-10
        report = check_exact(m, nondestructive=nd)
        assert abs(report.deficit - np.sqrt(2.0)) <= 1e-10
        assert not report.verdict

    def test_rejects_short_pointer(self):
        with pytest.raises(ValueError, match="norm"):
            synthesize_unitary(I2, E0, np.stack([E0, 0.9 * E1]))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_recovers_pointers_up_to_phase(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = 2, 3
        basis = haar_unitary(n1, rng).T
        ready = random_state_vector(n2, rng)
        pointers = np.stack([random_state_vector(n2, rng) for _ in range(n1)])
        m = synthesize_unitary(basis, ready, pointers)
        report = check_nondestructive(m)
        assert report.leakage <= 1e-10
        for j in range(n1):
            overlap = abs(np.vdot(report.pointers[j], pointers[j]))
            assert abs(overlap - 1.0) <= 1e-10


H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# One case per input check of the model constructors and check_exact: the call and its message.
INPUT_ERRORS = {
    "dimensions": (lambda: MeasurementModel(0, 2, I2, E0, CNOT), "^n1 and n2 must be positive$"),
    "basis_shape": (lambda: MeasurementModel(2, 2, np.eye(3), E0, CNOT), r"^system_basis must have shape \(2, 2\)$"),
    "ready_dimension": (lambda: MeasurementModel(2, 2, I2, np.eye(3)[0], CNOT), "^ready_state must have dimension 2$"),
    # H (x) 1 leaks every outcome into the other, and no pointer is degenerate
    "exact_needs_nondestructive": (
        lambda: check_exact(MeasurementModel(2, 2, I2, E0, np.kron(H, I2))),
        "^check_nondestructive: leakage .* exceeds 1.000e-09$",
    ),
    "synthesize_basis": (
        lambda: synthesize_unitary(np.ones(2), E0, np.stack([E0, E1])),
        "^system_basis must be a square array with one basis vector per row$",
    ),
    "synthesize_pointers": (lambda: synthesize_unitary(I2, E0, E0), r"^pointers must have shape \(2, 2\)$"),
}


@pytest.mark.parametrize("call, message", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMeasuredObservable:
    def test_computational_basis(self, cnot_model):
        np.testing.assert_allclose(observable_in_basis(cnot_model.system_basis), np.diag([1.0, 2.0]))

    def test_rotated_basis(self):
        basis = np.stack([PLUS, np.array([1.0, -1.0]) / np.sqrt(2.0)])
        m = MeasurementModel(2, 2, basis, E0, np.eye(4, dtype=complex))
        obs = observable_in_basis(m.system_basis)
        expected = 1.0 * np.outer(PLUS, PLUS) + 2.0 * np.outer(basis[1], basis[1])
        np.testing.assert_allclose(obs, expected, atol=1e-12)


def test_public_names_resolve():
    import wayaudit
    from wayaudit import cli, commutant, linalg, model, noise, theorem

    for module in (wayaudit, cli, commutant, linalg, model, noise, theorem):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert "PointerFamily" not in wayaudit.__all__
    assert "PointerReport" in wayaudit.__all__
