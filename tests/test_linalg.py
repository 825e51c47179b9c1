import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, PLUS, X, Z, E0
from wayaudit import linalg
from wayaudit.commutant import commutant_unitary, conserved_eigenspaces
from wayaudit.errors import PreconditionError
from wayaudit.linalg import (
    anti_hermitian_exp_stack,
    commutator,
    dagger,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    hermitian_eigensystem,
    numerical_rank,
    product_state,
    random_hermitian,
    random_positive_operator_stack,
    random_state_vector,
    require_hermitian,
    require_orthonormal_rows,
    require_unit_norm,
    require_unitary,
    tensor_product,
    unitary_completion,
    variance,
    variance_stack,
)
from wayaudit.model import ConservedQuantity, MeasurementModel
from wayaudit.noise import _expectations
from wayaudit.theorem import theorem_verdict

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestTensorProduct:
    def test_identity(self):
        np.testing.assert_array_equal(tensor_product(I2, I2), np.eye(4))

    def test_diagonal(self):
        out = tensor_product(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
        np.testing.assert_allclose(out, np.diag([1.0, 3.0, 2.0, 6.0]))

    def test_spin_pair_block_structure(self):
        out = tensor_product(X, Z)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, 2:] = Z
        expected[2:, :2] = Z
        np.testing.assert_array_equal(out, expected)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_mixed_product_property(self, seed):
        rng = np.random.default_rng(seed)
        a, c = random_hermitian(2, rng), random_hermitian(2, rng)
        b, d = random_hermitian(3, rng), random_hermitian(3, rng)
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() <= 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        c = random_hermitian(2, rng)
        lhs = tensor_product(tensor_product(a, b), c)
        rhs = tensor_product(a, tensor_product(b, c))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestCommutator:
    def test_self_commutation(self):
        np.testing.assert_array_equal(commutator(Z, Z), np.zeros((2, 2)))

    def test_identity_commutes(self):
        a = np.array([[1, 2j], [-2j, 5]], dtype=complex)
        np.testing.assert_array_equal(commutator(a, I2), np.zeros((2, 2)))

    def test_spin_pair(self):
        np.testing.assert_allclose(commutator(X, Z), [[0, -2], [2, 0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(I2, np.eye(3))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))


def expectation(a, s):
    """<s|a|s> from the stacked kernel the noise bounds read."""
    return complex(_expectations(np.asarray(a, dtype=complex)[None], np.asarray(s, dtype=complex)[None])[0])


class TestExpectationVariance:
    def test_eigenstate(self):
        assert expectation(Z, E0) == 1.0

    def test_symmetry(self):
        assert abs(expectation(Z, PLUS)) <= 1e-15

    def test_average_of_eigenvalues(self):
        assert abs(expectation(np.diag([1.0, 2.0]), PLUS) - 1.5) <= 1e-15

    def test_variance_eigenstate(self):
        assert variance(Z, E0) == 0.0

    def test_variance_maximal_spread(self):
        assert abs(variance(Z, PLUS) - 1.0) <= 1e-15

    def test_variance_joint(self):
        # independent oracle: explicit 4-dimensional moments
        op = np.kron(Z, Z)
        state = np.kron(PLUS, E0)
        second = np.vdot(state, op @ op @ state).real
        first = np.vdot(state, op @ state).real
        assert abs(second - first**2 - 1.0) <= 1e-15
        assert abs(variance(op, state) - 1.0) <= 1e-12

    def test_variance_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            variance(np.array([[0, 1], [0, 0]], dtype=complex), E0)

    def test_variance_rejects_negative_beyond_rounding(self):
        # 3e-10 off unit norm is past the norm tolerance: -6e-4 for <a^2> = 1e6 is no rounding
        s = np.array([1.0 + 3e-10, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="negative variance"):
            variance_stack((1e3 * np.eye(2, dtype=complex))[None], s[None])
        with pytest.raises(ValueError, match="norm"):
            variance(1e3 * np.eye(2), s)

    def test_variance_accepts_states_within_the_norm_tolerance(self):
        # an eigenstate 9e-11 off unit norm rounds to <a^2> - <a>^2 = -1.8e-10
        assert variance(np.diag([1.0, -1.0]), np.array([1.0 + 9e-11, 0.0])) == 0.0
        # the deficit scales with <a^2>: 4e-11 off unit norm gives -8e-5 for <a^2> = 1e6
        assert variance(1e3 * np.eye(2), np.array([1.0 + 4e-11, 0.0], dtype=complex)) == 0.0

    def test_variance_stack_rejects_an_inconsistent_state(self):
        # the unvalidated kernel takes a state of norm 1.1: -0.2541 is no rounding
        with pytest.raises(ValueError, match="negative variance"):
            variance_stack(np.diag([1.0, -1.0]).astype(complex)[None], np.array([[1.1, 0.0]], dtype=complex))

    def test_variance_clamps_rounding_relative_to_scale(self):
        # eigenstates of a large operator round to about -1e-8; that is noise, not a bug
        rng = np.random.default_rng(3)
        a = 1e3 * random_hermitian(6, rng)
        _, vectors = np.linalg.eigh(a)
        for i in range(6):
            assert 0.0 <= variance(a, vectors[:, i]) <= 1e-6

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_moment_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(4, rng)
        s = random_state_vector(4, rng)
        direct = expectation(a @ a, s).real - expectation(a, s).real ** 2
        v = variance(a, s)
        assert v >= 0.0
        assert abs(v - direct) <= 1e-12


class TestValidate:
    """Validation of single operators: the structural checks, and the spectral
    hypotheses ``theorem_verdict`` checks on the factors."""

    def test_unitary_identity(self):
        require_unitary(np.eye(4, dtype=complex), "u")

    def test_positive_spectrum_zero_eigenvalue(self, cnot_model):
        q = ConservedQuantity("multiplicative", np.diag([1.0, 0.0]), I2)
        check = theorem_verdict(cnot_model, q).assumption("la_positive")
        assert not check.passed and check.residual == 0.0

    def test_positive_spectrum_needs_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ConservedQuantity("multiplicative", np.array([[0, 1], [0, 0]], dtype=complex), I2)

    def test_full_rank_ones(self):
        m = MeasurementModel(2, 3, I2, np.eye(3)[0], np.eye(6))
        q = ConservedQuantity("multiplicative", I2, np.ones((3, 3)))
        check = theorem_verdict(m, q).assumption("lb_full_rank")
        assert not check.passed and check.residual == 2.0  # rank 1 of 3


class TestStructuralChecks:
    """One stack-aware check per hypothesis; the first failing member is reported."""

    @pytest.mark.parametrize("check, good, bad", [
        (require_hermitian, Z, np.array([[0, 1], [0, 0]], dtype=complex)),
        (require_hermitian, np.array([[1, 1j], [-1j, 2]]), np.array([[1, 1j], [1j, 2]])),
        (require_unitary, X, 2.0 * X),
        (require_orthonormal_rows, np.eye(2, 3), np.ones((2, 3))),
        (require_unit_norm, PLUS, 2.0 * PLUS),
    ])
    def test_first_failing_member(self, check, good, bad):
        check(np.stack([good, good]), "x")
        with pytest.raises(PreconditionError) as info:
            check(np.stack([good, bad, 3.0 * bad]), "x")
        assert info.value.check == "x"
        with pytest.raises(PreconditionError, match=re.escape(str(info.value))):
            check(bad, "x")

    def test_non_finite_state_fails(self):
        with pytest.raises(PreconditionError, match="nan"):
            require_unit_norm(np.array([np.nan, 0.0]), "state")

    @pytest.mark.parametrize(
        "kind, value", [("hermitian", np.array([[0, 1], [0, 0]])), ("unitary", 2.0 * np.eye(4))]
    )
    def test_validate_shares_the_check(self, kind, value):
        # the dataclasses validate through the shared check: its failure, named after the field
        check, field = (require_hermitian, "system_op") if kind == "hermitian" else (require_unitary, "interaction")
        with pytest.raises(PreconditionError) as expected:
            check(value, field)
        with pytest.raises(PreconditionError) as raised:
            if kind == "hermitian":
                ConservedQuantity("multiplicative", value, I2)
            else:
                MeasurementModel(2, 2, I2, E0, value)
        assert str(raised.value) == str(expected.value)


class TestEigensystem:
    def test_z(self):
        values, vectors = hermitian_eigensystem(Z)
        np.testing.assert_allclose(values, [-1.0, 1.0])
        assert abs(abs(np.vdot(vectors[:, 0], [0, 1])) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(vectors[:, 1], [1, 0])) - 1.0) <= 1e-12

    def test_x(self):
        values, vectors = hermitian_eigensystem(X)
        np.testing.assert_allclose(values, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(vectors[:, 0], minus)) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(vectors[:, 1], PLUS)) - 1.0) <= 1e-12

    def test_degenerate_diagonal(self):
        values, vectors = hermitian_eigensystem(np.diag([2.0, 2.0, 5.0]))
        np.testing.assert_allclose(values, [2.0, 2.0, 5.0])
        span = vectors[:, :2]
        projector = span @ dagger(span)
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.abs(projector - expected).max() <= 1e-10

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(5, rng)
        values, vectors = hermitian_eigensystem(a)
        rebuilt = (vectors * values) @ dagger(vectors)
        assert np.linalg.norm(a - rebuilt) <= 1e-9 * np.linalg.norm(a)
        assert np.all(np.diff(values) >= 0)
        assert np.abs(dagger(vectors) @ vectors - np.eye(5)).max() <= 1e-10


class TestNumericalRank:
    def test_ones(self):
        assert numerical_rank(np.ones((3, 3)), 1e-10) == 1

    def test_identity(self):
        assert numerical_rank(np.eye(4), 1e-10) == 4

    def test_below_threshold_singular_value(self):
        assert numerical_rank(np.diag([1.0, 1e-14]), 1e-10) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-10) == 0


class TestUnitaryCompletion:
    def test_single_column(self):
        u = unitary_completion([np.array([1.0, 0.0], dtype=complex)])
        assert np.abs(dagger(u) @ u - np.eye(2)).max() <= 1e-12
        np.testing.assert_array_equal(u[:, 0], [1.0, 0.0])

    def test_two_columns_kept_verbatim(self):
        c0 = np.zeros(4, dtype=complex)
        c0[0] = 1.0
        c1 = np.zeros(4, dtype=complex)
        c1[1] = 1.0
        u = unitary_completion([c0, c1])
        np.testing.assert_array_equal(u[:, 0], c0)
        np.testing.assert_array_equal(u[:, 1], c1)
        assert np.abs(dagger(u) @ u - np.eye(4)).max() <= 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            unitary_completion(
                [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
            )

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_random_subspaces(self, seed, k):
        rng = np.random.default_rng(seed)
        q = haar_unitary(5, rng)[:, :k]
        cols = [q[:, i] for i in range(k)]
        u = unitary_completion(cols)
        assert np.abs(dagger(u) @ u - np.eye(5)).max() <= 1e-10
        for i in range(k):
            np.testing.assert_array_equal(u[:, i], cols[i])


class TestHaar:
    def test_determinism(self):
        a = haar_unitary(4, np.random.default_rng(123))
        b = haar_unitary(4, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_unitarity(self):
        u = haar_unitary(4, np.random.default_rng(7))
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) <= 1e-12

    def test_dim_one(self):
        u = haar_unitary(1, np.random.default_rng(99))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_different_seeds_differ(self):
        a = haar_unitary(3, np.random.default_rng(0))
        b = haar_unitary(3, np.random.default_rng(1))
        assert not np.array_equal(a, b)


def _diag_quantity(la, lb):
    return ConservedQuantity(
        "multiplicative", np.diag(la).astype(complex), np.diag(lb).astype(complex)
    )


def _reference_commutant_unitary(d, rng):
    """Per-block Haar draw and assembly, one QR per block, in block order."""
    u = np.zeros((d.total_dim, d.total_dim), dtype=complex)
    for block in d.blocks:
        dim = block.basis.shape[1]
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        absd = np.abs(diag)
        phases = np.where(absd > 0, diag / np.where(absd > 0, absd, 1.0), 1.0)
        u += block.basis @ (q * phases) @ dagger(block.basis)
    return u


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
@pytest.mark.parametrize("trial", [0, 1, 2**32 + 1])
def test_sweep_stream_seeding_matches_tuple_seeding(seed, trial):
    # sweep_chunks seeds default_rng with the words of seed then trial as one
    # uint32 array: the same stream as default_rng((seed, trial)), bit for bit
    words = np.array(linalg._words(seed) + linalg._words(trial), dtype=np.uint32)
    expected = np.random.default_rng((seed, trial)).bit_generator.random_raw(64)
    assert np.array_equal(np.random.default_rng(words).bit_generator.random_raw(64), expected)


@pytest.mark.parametrize("count, dim", [(300, 45), (5000, 1)])
def test_sweep_chunks_cover_trials_in_order(count, dim):
    # chunks of at most SWEEP_CHUNK_BYTES per stack; one stream per trial
    size = max(1, linalg.SWEEP_CHUNK_BYTES // (16 * dim * dim))
    seen = []
    for trials, streams in linalg.sweep_chunks(11, count, dim):
        assert 0 < len(streams) == len(trials) <= size
        seen += trials
        for trial, stream in zip(trials, streams):
            assert stream.bit_generator.random_raw() == np.random.default_rng((11, trial)).bit_generator.random_raw()
    assert seen == list(range(count))


class TestBitIdentity:
    """The kernels the sweeps rely on reproduce the reference computations bit for bit."""

    @pytest.mark.parametrize("n1, n2", [(2, 3), (3, 5), (5, 9)])
    def test_tensor_product_matches_kron(self, n1, n2):
        rng = np.random.default_rng(n1 * n2)
        a, b = random_hermitian(n1, rng), random_hermitian(n2, rng)
        for left, right in ((a, b), (np.eye(n1), b), (a, np.eye(n2)), (np.eye(n1), np.eye(n2))):
            expected = np.kron(np.asarray(left, dtype=complex), np.asarray(right, dtype=complex))
            assert tensor_product(left, right).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n1, n2", [(2, 3), (3, 5), (5, 9)])
    def test_product_state_matches_kron(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        psi, v = random_state_vector(n1, rng), random_state_vector(n2, rng)
        for left, right in ((psi, v), (np.eye(n1, dtype=complex)[0], v), (psi, np.eye(n2)[1])):
            assert product_state(left, right).tobytes() == np.kron(left, right).tobytes()
        assert product_state(list(psi), list(v)).tobytes() == np.kron(psi, v).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacked_haar_matches_haar_unitary(self, d):
        draws = [ginibre(d, np.random.default_rng(seed)) for seed in range(4)]
        stacked = haar_from_ginibre(np.stack(draws))
        for seed in range(4):
            assert stacked[seed].tobytes() == haar_unitary(d, np.random.default_rng(seed)).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacked_qr_matches_per_matrix(self, d):
        rng = np.random.default_rng(d)
        z = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        q, r = np.linalg.qr(z)
        for i in range(len(z)):
            qi, ri = np.linalg.qr(z[i])
            assert q[i].tobytes() == qi.tobytes()
            assert r[i].tobytes() == ri.tobytes()

    @pytest.mark.parametrize(
        "la, lb",
        [
            ([1.0, 2.0], [1.0, 2.0, 4.0]),            # blocks (1, 2, 2, 1)
            ([1.0, 1.0, 2.0], [1.0, 2.0]),            # blocks (2, 3, 1)
            ([1.0, 2.0], [1.0, 1.0, 3.0, 3.0]),       # four blocks of size 2
            ([1.0, 5.0], [1.0, 1.0, 1.0]),            # two blocks of size 3
            ([1.1, 1.7, 2.3], [0.6, 0.9, 1.3, 1.9, 2.9]),  # fifteen singletons
        ],
    )
    def test_commutant_unitary_matches_reference(self, la, lb):
        d = conserved_eigenspaces(_diag_quantity(la, lb))
        for seed in range(3):
            u = commutant_unitary(d, np.random.default_rng(seed))
            ref = _reference_commutant_unitary(d, np.random.default_rng(seed))
            assert u.tobytes() == ref.tobytes()


    @staticmethod
    def _stack(d, n=7):
        rng = np.random.default_rng(100 + d)
        return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))

    @pytest.mark.parametrize("d", [3, 6, 15])
    def test_stacked_eigh_matches_per_matrix(self, d):
        a = self._stack(d)
        h = (a + dagger(a)) / 2.0
        values, vectors = np.linalg.eigh(h)
        for i in range(len(h)):
            vi, wi = np.linalg.eigh(h[i])
            assert values[i].tobytes() == vi.tobytes()
            assert vectors[i].tobytes() == wi.tobytes()

    @pytest.mark.parametrize("d", [3, 6, 15])
    def test_stacked_matvec_matches_per_matrix(self, d):
        a = self._stack(d)
        v = self._stack(d)[:, 0]
        stacked = (a @ v[..., None])[..., 0]
        for i in range(len(a)):
            assert stacked[i].tobytes() == (a[i] @ v[i]).tobytes()

    @pytest.mark.parametrize("d", [3, 6, 15])
    def test_stacked_matmul_with_dagger_views_matches_per_matrix(self, d):
        a, b = self._stack(d), self._stack(d, 8)[1:]
        sandwich = dagger(a) @ b @ a
        right = a @ dagger(b)
        for i in range(len(a)):
            assert sandwich[i].tobytes() == (dagger(a[i]) @ b[i] @ a[i]).tobytes()
            assert right[i].tobytes() == (a[i] @ dagger(b[i])).tobytes()

    @pytest.mark.parametrize("d", [3, 6, 15])
    def test_strided_frobenius_norm_matches_norm(self, d):
        a = self._stack(d)
        x = a.reshape(len(a), -1)
        norms = np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
        for i in range(len(a)):
            assert norms[i] == np.linalg.norm(a[i])


class TestStackedKernelBitIdentity:
    """Stacked kernels the optimizer evaluates many candidates with, against per-matrix calls."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_stacked_exp_matches_anti_hermitian_exp(self, d):
        rng = np.random.default_rng(d)
        k = np.stack([1j * random_hermitian(d, rng) * scale for scale in (1e-9, 1e-3, 0.1, 1.0, 3.0)])
        stacked = anti_hermitian_exp_stack(k)
        for i in range(len(k)):
            assert stacked[i].tobytes() == anti_hermitian_exp_stack(k[i]).tobytes()
        assert anti_hermitian_exp_stack(k.reshape(5, 1, d, d))[:, 0].tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 15, 45])
    def test_vecdot_matches_vdot(self, n):
        rng = np.random.default_rng(n)
        w = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
        stacked = np.vecdot(w, w)
        for i in range(len(w)):
            assert stacked[i] == np.vdot(w[i], w[i])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_strided_real_vecdot_matches_norm(self, n):
        # the feasibility deficit's norm ** 2, row by row: the real and the
        # imaginary part each through a strided dot, then the scalar power
        rng = np.random.default_rng(n)
        x = (rng.standard_normal((500, n, n)) + 1j * rng.standard_normal((500, n, n))).reshape(500, -1)
        norms = np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
        for i in range(len(x)):
            assert norms[i] ** 2 == np.linalg.norm(x[i].reshape(n, n)) ** 2


class TestAntiHermitianExp:
    def test_zero(self):
        np.testing.assert_allclose(anti_hermitian_exp_stack(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_diagonal_phase(self):
        out = anti_hermitian_exp_stack(1j * (np.pi / 2) * Z)
        np.testing.assert_allclose(out, np.diag([1j, -1j]), atol=1e-14)

    def test_inverse_property(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(4, rng)
        k = 1j * h
        prod = anti_hermitian_exp_stack(k) @ anti_hermitian_exp_stack(-k)
        assert np.abs(prod - np.eye(4)).max() <= 1e-12


def test_random_positive_operator_spectrum():
    rng = np.random.default_rng(21)
    (op,) = random_positive_operator_stack(4, [rng])
    values = np.linalg.eigvalsh(op)
    assert values[0] >= 0.5 - 1e-9 and values[-1] <= 2.0 + 1e-9
