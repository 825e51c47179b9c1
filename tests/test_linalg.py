import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, E0, E1, I2, LA_DIAG, PLUS, X, Z, chunk_size
from wayaudit import linalg
from wayaudit.commutant import SearchConfig, commutant_unitary, conserved_eigenspaces, minimize_epsilon
from wayaudit.errors import PreconditionError
from wayaudit.linalg import (
    ORTHONORMAL_TOL,
    SweepConfig,
    anti_hermitian_exp_stack,
    commutator,
    dagger,
    ginibre,
    haar_from_ginibre,
    haar_unitary,
    hermitian_eigensystem,
    image_variance_stack,
    matvec_stack,
    numerical_rank,
    product_state,
    random_hermitian,
    random_state_vector,
    require_hermitian,
    require_orthonormal_rows,
    require_unit_norm,
    require_unitary,
    tensor_product,
    unitary_completion,
    variance,
)
from wayaudit.model import ConservedQuantity, MeasurementModel, synthesize_unitary
from wayaudit.noise import AuditConfig, noise_report, variance_identity_audit
from wayaudit.theorem import CounterexampleConfig, counterexample_sweep, theorem_verdict

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
    """<s|a|s> as the noise bounds read it: ``np.vecdot`` of s and its image under a."""
    s = np.asarray(s, dtype=complex)[None]
    return complex(np.vecdot(s, matvec_stack(np.asarray(a, dtype=complex)[None], s))[0])


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
            image_variance_stack(s[None], (1e3 * s)[None])
        with pytest.raises(ValueError, match="norm"):
            variance(1e3 * np.eye(2), s)

    def test_variance_accepts_states_within_the_norm_tolerance(self):
        # an eigenstate 9e-11 off unit norm rounds to <a^2> - <a>^2 = -1.8e-10
        assert variance(np.diag([1.0, -1.0]), np.array([1.0 + 9e-11, 0.0])) == 0.0
        # the deficit scales with <a^2>: 4e-11 off unit norm gives -8e-5 for <a^2> = 1e6
        assert variance(1e3 * np.eye(2), np.array([1.0 + 4e-11, 0.0], dtype=complex)) == 0.0

    def test_image_variance_stack_rejects_an_inconsistent_state(self):
        # the unvalidated kernel takes a state of norm 1.1: -0.2541 is no rounding
        s = np.array([[1.1, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="negative variance"):
            image_variance_stack(s, matvec_stack(np.diag([1.0, -1.0]).astype(complex)[None], s))

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


    @staticmethod
    def _near_defect(q, rng):
        """``q`` moved off orthonormality by a random perturbation, to about 0.9 ``ORTHONORMAL_TOL``."""
        e = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)

        def defect(t):
            p = q + t * e
            return np.linalg.norm(p.T @ p.conj() - np.eye(q.shape[1]))

        return q + (0.9 * ORTHONORMAL_TOL * 1e-9 / defect(1e-9)) * e

    @pytest.mark.parametrize("dim", [2, 3, 5, 9, 16, 64])
    def test_gram_schmidt_always_completes(self, dim):
        # every k < D, on random, flat (DFT), basis-aligned and barely orthonormal inputs
        rng = np.random.default_rng(dim)
        dft = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
        basis = np.eye(dim, dtype=complex)[:, rng.permutation(dim)]
        for k in range(1, dim):
            haar = haar_unitary(dim, rng)[:, :k]
            near = self._near_defect(haar, rng)
            defect = np.linalg.norm(near.T @ near.conj() - np.eye(k))
            assert 0.5 * ORTHONORMAL_TOL <= defect <= ORTHONORMAL_TOL
            for q in (haar, dft[:, :k], basis[:, :k], near):
                u = unitary_completion(list(q.T))
                assert u.shape == (dim, dim)
                assert u[:, :k].tobytes() == q.tobytes()
                w = u[:, k:]
                assert np.abs(dagger(w) @ w - np.eye(dim - k)).max() <= 1e-10
                assert np.abs(dagger(q) @ w).max() <= 1e-10

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

    @staticmethod
    def _phase_stack():
        """A (4, 3, 1, 1) stack of 1x1 Ginibre draws, two of them zero."""
        (normals,) = linalg.normal_draws([np.random.default_rng((5, i)) for i in range(12)], (2, 1, 1))
        z = linalg.ginibre_stack(normals).reshape(4, 3, 1, 1)
        z[1, 2] = z[3, 0] = 0.0
        return z

    def test_size_one_is_the_phase(self):
        # z / |z| bit for bit, and 1 where z = 0, as the QR path's phase guard gives
        z = self._phase_stack()
        u = haar_from_ginibre(z)
        nonzero = z != 0
        assert u.shape == z.shape and u.dtype == complex
        assert u[nonzero].tobytes() == (z[nonzero] / np.abs(z[nonzero])).tobytes()
        assert np.all(u[~nonzero] == 1.0) and (~nonzero).sum() == 2

    def test_phases_match_the_guarded_division(self):
        # one masked division, bit for bit the two-``where`` form, zeros of either sign and tiny entries included
        rng = np.random.default_rng(11)
        z = rng.standard_normal((512, 6)) + 1j * rng.standard_normal((512, 6))
        z[rng.random(z.shape) < 0.2] = 0.0
        z[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(1e-300, -3e-301)]
        absz = np.abs(z)
        guarded = np.where(absz > 0, z / np.where(absz > 0, absz, 1.0), 1.0)
        assert (z == 0).sum() > 500
        assert linalg._phases(z).tobytes() == guarded.tobytes()

    def test_size_one_matches_the_qr_path(self):
        z = self._phase_stack()
        assert np.abs(haar_from_ginibre(z) - _haar_by_qr(z)).max() <= 1e-15

    def test_size_one_calls_no_qr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("QR of a 1x1 stack")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        haar_from_ginibre(self._phase_stack())
        haar_unitary(1, np.random.default_rng(3))

    def test_counterexample_chunk_qr_calls(self, monkeypatch):
        # a 3x5 chunk of generic spectra has only size-1 commutant blocks: one
        # stacked QR for the system factors and one for the apparatus factors
        shapes, qr = [], np.linalg.qr

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        assert len(counterexample_sweep(CounterexampleConfig(3, 5, count=40, seed=7)).records) == 40  # one chunk
        assert shapes == [(40, 3, 3), (40, 5, 5)]

    @pytest.mark.parametrize("sampler", [linalg.ginibre, haar_unitary, random_state_vector, random_hermitian])
    def test_dim_zero_raises(self, sampler):
        # every sampler of one draw shares one check; stacked samplers take drawn normals
        with pytest.raises(ValueError, match="^dim must be at least 1$"):
            sampler(0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "stacked, scalar, shape",
        [
            (linalg.ginibre_stack, linalg.ginibre, (2, 3, 3)),
            (linalg.random_state_vector_stack, random_state_vector, (2, 3)),
            (linalg.random_hermitian_stack, random_hermitian, (2, 3, 3)),
        ],
    )
    def test_stack_of_drawn_normals_matches_its_sampler(self, stacked, scalar, shape):
        # a stacked sampler scales each stream's normals as that stream's own call of one draw would
        (normals,) = linalg.normal_draws([np.random.default_rng((9, i)) for i in range(4)], shape)
        expected = np.stack([scalar(3, np.random.default_rng((9, i))) for i in range(4)])
        assert stacked(normals).tobytes() == expected.tobytes()


def _diag_quantity(la, lb):
    return ConservedQuantity(
        "multiplicative", np.diag(la).astype(complex), np.diag(lb).astype(complex)
    )


def _haar_by_qr(z):
    """Haar unitaries of a (..., d, d) Ginibre stack by QR and the R-phase correction, for any d."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    absd = np.abs(diag)
    return q * np.where(absd > 0, diag / np.where(absd > 0, absd, 1.0), 1.0)[..., None, :]


def _reference_commutant_unitary(d, rng):
    """Per-block Haar draws in block order, placed on the diagonal of a (D, D) matrix M and
    assembled as V M V^dag: the phase z / |z| for a block of size 1, one QR for a larger one."""
    m = np.zeros(d.vectors.shape, dtype=complex)
    for start, dim in zip(np.cumsum((0, *d.dims)), d.dims):
        z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        m[start : start + dim, start : start + dim] = z / np.abs(z) if dim == 1 else _haar_by_qr(z)
    return d.vectors @ m @ dagger(d.vectors)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 3, 10**30])
@pytest.mark.parametrize("trial", [0, 1, 2**32 + 1])
def test_sweep_stream_seeding_matches_tuple_seeding(seed, trial):
    # the entropy sweep streams are seeded from, the words of seed then trial,
    # is what numpy makes of the tuple (seed, trial): the same stream, bit for bit
    words = np.array(linalg._words(seed) + linalg._words(trial), dtype=np.uint32)
    expected = np.random.default_rng((seed, trial)).bit_generator.random_raw(64)
    assert np.array_equal(np.random.default_rng(words).bit_generator.random_raw(64), expected)


@pytest.mark.parametrize("count, dim", [(300, 45), (5000, 1)])
def test_sweep_chunks_cover_trials_in_order(count, dim):
    # full chunks, each as large as both the stack's byte budget (D = 45) and
    # the trial cap (D = 1) allow, then the rest; one stream per trial
    seen, sizes = [], []
    for trials, streams in linalg.sweep_chunks(11, count, (dim, dim)):
        assert len(streams) == len(trials)
        seen += trials
        sizes.append(len(trials))
        for trial, stream in zip(trials, streams):
            assert stream.bit_generator.random_raw() == np.random.default_rng((11, trial)).bit_generator.random_raw()
    assert seen == list(range(count))
    full = sizes[0]
    assert len(sizes) > 1 and sizes[:-1] == [full] * (len(sizes) - 1) and 0 < sizes[-1] <= full
    assert full <= linalg.SWEEP_CHUNK_TRIALS and 16 * dim * dim * full <= linalg.SWEEP_CHUNK_BYTES
    assert full == linalg.SWEEP_CHUNK_TRIALS or 16 * dim * dim * (full + 1) > linalg.SWEEP_CHUNK_BYTES


class TestStreamSeeding:
    """sweep_chunks computes its streams' PCG64 seed words a chunk at a time, with
    numpy's SeedSequence hash run over the trial axis; each stream is still
    default_rng((seed, trial)), bit for bit."""

    SEEDS = [7, 2**32 + 5, 2**64 + 9, 2**96 + 7, 2**128 + 11]  # 1 to 5 words
    TRIALS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1]

    @staticmethod
    def _expected(seed, trials):
        return np.array([np.random.SeedSequence((seed, t)).generate_state(4, np.uint64) for t in trials])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trial", TRIALS)
    def test_seed_words_match_seed_sequence(self, seed, trial):
        entropy = np.array([linalg._words(seed) + linalg._words(trial)], dtype=np.uint32)
        words = linalg._seed_words(entropy)
        assert words.dtype == np.uint64 and np.array_equal(words, self._expected(seed, [trial]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_of_a_batch(self, seed):
        # rows of one length in one pass
        entropy = np.array([linalg._words(seed) + [t] for t in range(50)], dtype=np.uint32)
        assert np.array_equal(linalg._seed_words(entropy), self._expected(seed, range(50)))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trials", [range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 1)])
    def test_stream_words_split_by_row_length(self, seed, trials):
        # a chunk whose trials have 1 and 2 (or 2 and 3) words
        assert np.array_equal(linalg._stream_words(seed, trials), self._expected(seed, trials))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("batch", [linalg.SEED_BATCH, 3])
    def test_streams_are_default_rng(self, monkeypatch, seed, batch):
        # three chunks at D = 45, the last one partial, seeded in one batch
        # or in batches of 3 that straddle the chunks
        monkeypatch.setattr(linalg, "SEED_BATCH", batch)
        full = chunk_size((45, 45))
        chunks = list(linalg.sweep_chunks(seed, 2 * full + 4, (45, 45)))
        assert [len(trials) for trials, _ in chunks] == [full, full, 4] and full % 3
        streams = [s for _, chunk_streams in chunks for s in chunk_streams]
        assert len(streams) == 2 * full + 4
        for trial, stream in enumerate(streams):
            reference = np.random.default_rng((seed, trial))
            assert stream.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(stream.standard_normal(100), reference.standard_normal(100))

    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_seed_words_refuse_other_requests(self, n_words, dtype):
        words = linalg._seed_words_type()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError, match="4 uint64 words"):
            words.generate_state(n_words, dtype)


# Each sweep config with a bad n2 for its rule, and the message that rule gives.
N2_RULES = {
    "base": (SweepConfig, 0, "n2 must be at least 1"),
    "counterexample_positive": (CounterexampleConfig, 0, "n2 must be at least 1"),
    "counterexample_dimension": (CounterexampleConfig, 4, "dimension precondition violated: n2 = 4 must be < 2*n1 = 4"),
    "bound_audit": (AuditConfig, 1, "n2 must be at least 2: the zero-expectation regime needs two eigenvalues"),
}


class TestSweepConfig:
    """Both sweeps' configs are one checked ``SweepConfig``; each kind sets only its rule on n2."""

    FIELDS = ("n1", "n2", "count", "seed", "tol")
    GOOD = {"n1": 2, "n2": 3, "count": 5, "seed": 1, "tol": 1e-9}
    BAD = {"n1": 0, "count": 0, "seed": -1, "tol": float("nan")}
    MESSAGES = {
        "n1": "n1 must be at least 1",
        "count": "count must be at least 1",
        "seed": "seed must be nonnegative",
        "tol": "tol must be nonnegative and finite, got nan",
    }

    @pytest.mark.parametrize("rule", N2_RULES.values(), ids=list(N2_RULES))
    @pytest.mark.parametrize("first", FIELDS)
    def test_first_bad_field_in_field_order_is_reported(self, rule, first):
        # every field from ``first`` on is bad at once; the error names ``first`` alone
        config, bad_n2, n2_message = rule
        bad = {**self.BAD, "n2": bad_n2}
        start = self.FIELDS.index(first)
        values = {name: (bad if i >= start else self.GOOD)[name] for i, name in enumerate(self.FIELDS)}
        message = n2_message if first == "n2" else self.MESSAGES[first]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(**values)

    @pytest.mark.parametrize("config", [SweepConfig, CounterexampleConfig, AuditConfig])
    def test_kinds_are_dataclasses_of_the_shared_fields(self, config):
        made = config(2, 3, 5, 1)
        assert [f.name for f in dataclasses.fields(made)] == list(self.FIELDS)
        assert repr(made) == f"{config.__name__}(n1=2, n2=3, count=5, seed=1, tol=1e-09)"
        assert made == config(2, 3, 5, 1) and hash(made) == hash(config(2, 3, 5, 1))
        assert made != config(2, 3, 5, 2)
        assert all(made != other(2, 3, 5, 1) for other in {SweepConfig, CounterexampleConfig, AuditConfig} - {config})
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.seed = 2


class TestDrawKernels:
    """normal_draws and uniform_draws make one call per stream, filling its row of one buffer, and split
    it into segments, each holding what the stream's own standard_normal(shape) or uniform(low, high, n)
    call would give at that point, bit for bit; the streams end where those calls would leave them.
    uniform_draws relies on numpy's uniform being low + (high - low) * random; these fail if it changes."""

    # the segment shapes of one call: one segment, or the second call of a bound-audit trial at 3x5
    SHAPES = [((1,),), ((9,),), ((2, 3, 3), (2, 5, 5), (2, 5), (2, 3, 3), (2, 5, 5), (2, 3))]
    # every (low, high) the samplers pass: factor spectra, Yanase probe spectra, ready-state phases
    RANGES = [linalg.FACTOR_SPECTRUM, (-1.0, 1.0), (0.0, 2.0 * np.pi)]

    @staticmethod
    def _streams(count):
        return [np.random.default_rng((7, trial)) for trial in range(count)]

    @staticmethod
    def _check(draws, streams, calls, reference_streams):
        """``draws``, one segment per call made on each reference stream, against ``calls``."""
        for i, segment in enumerate(draws):
            expected = np.array([c[i] for c in calls]).reshape(segment.shape)
            assert segment.dtype == np.float64 and segment.shape[0] == len(streams)
            assert segment.tobytes() == expected.tobytes()
        for stream, reference in zip(streams, reference_streams, strict=True):
            assert stream.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_normal_draws_match_standard_normal(self, shape, count):
        streams, references = self._streams(count), self._streams(count)
        calls = [[rng.standard_normal(segment) for segment in shape] for rng in references]
        draws = linalg.normal_draws(streams, *shape)
        assert [d.shape for d in draws] == [(count, *segment) for segment in shape]
        self._check(draws, streams, calls, references)

    @pytest.mark.parametrize("low, high", RANGES)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_uniform_draws_match_uniform(self, low, high, shape, count):
        # each segment scaled by (low, high), or, in turn, by every range the samplers pass
        ranges = [(low, high)] if len(shape) == 1 else [self.RANGES[i % 3] for i in range(len(shape))]
        segments = [(a, b, int(np.prod(segment))) for (a, b), segment in zip(ranges, shape)]
        streams, references = self._streams(count), self._streams(count)
        calls = [[rng.uniform(a, b, n) for a, b, n in segments] for rng in references]
        draws = linalg.uniform_draws(streams, *segments)
        assert [d.shape for d in draws] == [(count, n) for _, _, n in segments]
        self._check(draws, streams, calls, references)

    @pytest.mark.parametrize("low, high", RANGES)
    def test_uniform_row_of_one_matches_scalar_uniform(self, low, high):
        # a ready state's phase: one scalar uniform(low, high) call per stream
        streams, references = self._streams(200), self._streams(200)
        calls = [[rng.uniform(low, high)] for rng in references]
        (draws,) = linalg.uniform_draws(streams, (low, high, 1))
        self._check([draws[:, 0]], streams, calls, references)


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
            # V is a permutation: the same bits but for the sign of a zero (see test_commutant.TestAssembly)
            assert np.array_equal(u, ref)


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
    rngs = [np.random.default_rng(21)]
    (spectrum,) = linalg.uniform_draws(rngs, (*linalg.FACTOR_SPECTRUM, 4))
    (normals,) = linalg.normal_draws(rngs, (2, 4, 4))
    (op,), _ = linalg.spectral_operator_stack(spectrum, normals)
    values = np.linalg.eigvalsh(op)
    assert values[0] >= 0.5 - 1e-9 and values[-1] <= 2.0 + 1e-9


# One case per input check of the coercions, ``variance`` and ``unitary_completion``: the call and its message.
INPUT_ERRORS = {
    "operator_not_square": (lambda: linalg.as_operator(np.ones(3)), r"^operator must be a square matrix, got shape"),
    "operator_not_finite": (lambda: linalg.as_operator([[np.nan]]), "^operator entries must be finite$"),
    "state_not_a_vector": (lambda: linalg.as_state(np.ones((1, 1)), "v"), r"^v must be a nonempty vector, got shape"),
    "state_not_finite": (lambda: linalg.as_state([np.inf, 0.0], "v"), "^v amplitudes must be finite$"),
    "variance_dimensions": (lambda: variance(Z, np.ones(3) / np.sqrt(3.0)), "^dimension mismatch: 2 vs 3$"),
    "completion_no_columns": (lambda: unitary_completion([]), "^at least one column is required$"),
    "completion_ragged": (lambda: unitary_completion([E0, np.eye(3)[0]]), "^columns must be vectors of a common"),
    "completion_too_many": (lambda: unitary_completion([E0, E1, E0]), "^3 columns cannot fit in dimension 2$"),
}


@pytest.mark.parametrize("call, message", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _cnot():
    return MeasurementModel(2, 2, I2, E0, CNOT), ConservedQuantity("multiplicative", LA_DIAG, I2)


UNNORMALIZED = np.array([2.0, 0.0])
NON_SQUARE = np.ones(2)
# Each library entry point that checks a state or operator argument, called with that argument bad:
# the error names the argument, not "state" or "operator".
NAMED_ARGUMENTS = {
    "noise_report_psi": (lambda: noise_report(*_cnot(), X, Z, UNNORMALIZED), "^psi: norm 2.0 is not 1$"),
    "noise_report_psi_shape": (lambda: noise_report(*_cnot(), X, Z, [E0]), "^psi must be a nonempty vector"),
    "noise_report_observable": (lambda: noise_report(*_cnot(), NON_SQUARE, Z, E0), "^observable must be a square"),
    "minimize_epsilon_ready_state": (
        lambda: minimize_epsilon(_cnot()[1], X, Z, UNNORMALIZED, SearchConfig(seed=0)),
        "^ready_state: norm 2.0 is not 1$",
    ),
    "minimize_epsilon_probe": (
        lambda: minimize_epsilon(_cnot()[1], X, np.full((2, 2), np.nan), E0, SearchConfig(seed=0)),
        "^probe entries must be finite$",
    ),
    "variance_audit_psi_a": (lambda: variance_identity_audit(Z, Z, UNNORMALIZED, E0, 1e-9), "^psi_a: norm 2.0 is"),
    "variance_audit_psi_b": (lambda: variance_identity_audit(Z, Z, E0, UNNORMALIZED, 1e-9), "^psi_b: norm 2.0 is"),
    "variance_audit_psi_b_finite": (lambda: variance_identity_audit(Z, Z, E0, [np.nan, 0], 1e-9), "^psi_b amplitudes"),
    "variance_audit_a": (lambda: variance_identity_audit(NON_SQUARE, Z, E0, E0, 1e-9), "^a must be a square matrix"),
    "synthesize_unitary_ready_state": (
        lambda: synthesize_unitary(I2, UNNORMALIZED, np.stack([E0, E1])), "^ready_state: norm 2.0 is not 1$"
    ),
}


@pytest.mark.parametrize("call, message", NAMED_ARGUMENTS.values(), ids=list(NAMED_ARGUMENTS))
def test_each_argument_check_names_its_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()
