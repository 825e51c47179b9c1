import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, E0, I2, LA_DIAG, PLUS, X, Z
from wayaudit.commutant import commutant_unitary, conserved_eigenspaces
from wayaudit.errors import PreconditionError
from wayaudit.linalg import (
    SWEEP_CHUNK_BYTES,
    commutator,
    dagger,
    random_hermitian,
    random_state_vector,
    tensor_product,
    variance,
)
from wayaudit.model import ConservedQuantity, MeasurementModel, conserved_operator
from wayaudit.noise import (
    AuditConfig,
    bound_audit_sweep,
    epsilon_sq,
    noise_operator,
    noise_report,
    paper_bound,
    robertson_bound,
    simplified_bound,
    variance_identity_audit,
    yanase_bound,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def conserving_instance(n1, n2, seed):
    """Random conserving model plus a full random bound instance."""
    rng = np.random.default_rng(seed)
    la = random_hermitian(n1, rng)
    lb = random_hermitian(n2, rng)
    q = ConservedQuantity("multiplicative", la, lb)
    u = commutant_unitary(conserved_eigenspaces(q), rng)
    m = MeasurementModel(n1, n2, np.eye(n1, dtype=complex), random_state_vector(n2, rng), u)
    observable = random_hermitian(n1, rng)
    probe = random_hermitian(n2, rng)
    psi = random_state_vector(n1, rng)
    return m, q, observable, probe, psi


class TestNoiseOperator:
    def test_cnot_z_probe(self, cnot_model):
        # oracle: conjugating 1(x)Z by the controlled flip gives Z(x)Z
        n = noise_operator(cnot_model, Z, Z)
        np.testing.assert_allclose(n, np.kron(Z, Z) - np.kron(Z, I2))

    def test_identity_probe(self, cnot_model):
        n = noise_operator(cnot_model, Z, I2)
        np.testing.assert_allclose(n, np.eye(4) - np.kron(Z, I2))

    def test_zero_inputs(self, cnot_model):
        n = noise_operator(cnot_model, np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_allclose(n, np.zeros((4, 4)))

    def test_hermitian_output(self, cnot_model):
        n = noise_operator(cnot_model, X, Z)
        assert np.abs(n - dagger(n)).max() <= 1e-10

    def test_rejects_non_hermitian(self, cnot_model):
        with pytest.raises(ValueError, match="Hermitian"):
            noise_operator(cnot_model, np.array([[0, 1], [0, 0]], dtype=complex), Z)


class TestEpsilonSq:
    def test_matched_probe_vanishes(self, cnot_model):
        # oracle: N (psi (x) |0>) = Z psi (x) (Z - 1)|0> = 0
        assert epsilon_sq(cnot_model, Z, Z, PLUS) <= 1e-24

    def test_identity_probe(self, cnot_model):
        # oracle: <(1 - Z)^2> on |+> is <1 - 2Z + 1> = 2
        assert abs(epsilon_sq(cnot_model, Z, I2, PLUS) - 2.0) <= 1e-12

    def test_zero_operators(self, cnot_model):
        assert epsilon_sq(cnot_model, np.zeros((2, 2)), np.zeros((2, 2)), PLUS) == 0.0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_moment_decomposition(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 3, seed)
        eps = epsilon_sq(m, observable, probe, psi)
        n = noise_operator(m, observable, probe)
        joint = np.kron(psi, m.ready_state)
        mean = float(np.vdot(joint, n @ joint).real)
        assert abs(eps - (variance(n, joint) + mean**2)) <= 1e-12


class TestRobertsonBound:
    def test_cnot_annihilated_state(self, cnot_model, cnot_quantity):
        report = robertson_bound(cnot_model, Z, Z, cnot_quantity, PLUS)
        assert report.numerator <= 1e-24
        assert abs(report.var_conserved - 0.25) <= 1e-12
        assert report.bound == 0.0
        assert not report.degenerate

    def test_degenerate_variance(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, I2)
        # eigenstate of the system factor: Var(L) = 0 on e0 (x) |0>
        report = robertson_bound(cnot_model, Z, Z, q, E0)
        assert report.degenerate
        assert report.bound == 0.0

    def test_requires_conservation(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, LA_DIAG)
        with pytest.raises(PreconditionError) as err:
            robertson_bound(cnot_model, Z, Z, q, PLUS)
        assert err.value.check == "check_conserved"

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_epsilon_sq(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 3, seed)
        report = robertson_bound(m, observable, probe, q, psi)
        eps = epsilon_sq(m, observable, probe, psi)
        assert report.bound <= eps + 1e-9


class TestCommutatorIdentity:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_noise_conserved_commutator_identity(self, seed):
        # [N, L] = U^dag (la (x) [probe, lb]) U - [o, la] (x) lb when U conserves L
        m, q, observable, probe, psi = conserving_instance(2, 2, seed)
        n = noise_operator(m, observable, probe)
        joint = conserved_operator(q)
        lhs = n @ joint - joint @ n
        evolved = dagger(m.interaction) @ tensor_product(
            q.system_op, commutator(probe, q.apparatus_op)
        ) @ m.interaction
        rhs = evolved - tensor_product(commutator(observable, q.system_op), q.apparatus_op)
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestPaperBound:
    def test_cnot_degenerate_denominator(self, cnot_model, cnot_quantity):
        # apparatus factor variance vanishes on |0> for the identity factor
        report = paper_bound(cnot_model, Z, Z, cnot_quantity, PLUS)
        assert not report.defined
        assert report.bound is None
        assert report.numerator <= 1e-24

    def test_commuting_case_zero_bound(self):
        # diagonal probe keeps the evolved term zero; commuting observable kills the rest
        lb = np.diag([1.0, 2.0]).astype(complex)
        ready = PLUS
        q = ConservedQuantity("multiplicative", LA_DIAG, lb)
        m = MeasurementModel(2, 2, I2, ready, np.eye(4, dtype=complex))
        report = paper_bound(m, LA_DIAG, np.diag([3.0, 4.0]), q, PLUS)
        assert report.defined
        assert report.bound <= 1e-20
        assert report.valid

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_validity_flag_matches_direct_comparison(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 2, seed)
        report = paper_bound(m, observable, probe, q, psi)
        if report.defined:
            eps = epsilon_sq(m, observable, probe, psi)
            assert report.valid == (report.bound <= eps + 1e-9)


class TestYanaseBound:
    def test_identity_factor_applicable(self, cnot_model, cnot_quantity):
        report = yanase_bound(cnot_model, Z, Z, cnot_quantity, PLUS)
        assert report.applicable  # [Z, 1] = 0

    def test_noncommuting_probe_not_applicable(self):
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = yanase_bound(m, Z, X, q, PLUS)
        assert not report.applicable
        assert report.bound is None

    def test_commuting_observable_zero_bound(self):
        lb = np.diag([1.0, 2.0]).astype(complex)
        q = ConservedQuantity("multiplicative", LA_DIAG, lb)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = yanase_bound(m, LA_DIAG, np.diag([3.0, 4.0]), q, PLUS)
        assert report.applicable and report.defined
        assert report.bound <= 1e-20


class TestSimplifiedBound:
    def test_nonzero_expectation_not_applicable(self, cnot_model, cnot_quantity):
        # <0|1|0> = 1
        report = simplified_bound(cnot_model, Z, cnot_quantity, PLUS)
        assert not report.applicable

    def test_commuting_observable_zero_bound(self):
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = simplified_bound(m, LA_DIAG, q, PLUS)
        assert report.applicable
        assert report.bound <= 1e-20

    def test_derived_numerator_value(self):
        # oracle: [X, diag(1,2)] applied to (|0> + i|1>)/sqrt(2) has expectation i,
        # Var(diag(1,2)) = 1/4, so the bound is 1 / (4 * 1/4) = 1
        psi = np.array([1.0, 1j]) / np.sqrt(2.0)
        comm_expect = np.vdot(psi, commutator(X, LA_DIAG) @ psi)
        assert abs(comm_expect - 1j) <= 1e-15
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        decomposition = conserved_eigenspaces(q)
        u = commutant_unitary(decomposition, np.random.default_rng(17))
        m = MeasurementModel(2, 2, I2, PLUS, u)
        report = simplified_bound(m, X, q, psi, probe=Z)
        assert report.applicable and report.defined
        assert abs(report.bound - 1.0) <= 1e-12
        assert report.valid is not None  # audited against the computed noise


class TestVarianceAudit:
    def test_fixture_values(self):
        audit = variance_identity_audit(Z, Z, PLUS, E0)
        assert abs(audit.lhs - 1.0) <= 1e-12
        assert audit.paper_rhs == 0.0
        assert abs(audit.corrected_rhs - 1.0) <= 1e-12
        assert not audit.paper_claim_holds
        assert audit.corrected_holds

    def test_centered_case_claim_exact(self):
        psi_b = np.array([1.0, 1j]) / np.sqrt(2.0)
        audit = variance_identity_audit(Z, X, PLUS, psi_b)
        assert abs(audit.lhs - audit.paper_rhs) <= 1e-12
        assert audit.paper_claim_holds and audit.corrected_holds

    def test_constant_operator(self):
        audit = variance_identity_audit(I2, Z, PLUS, E0)
        assert audit.lhs <= 1e-14
        assert audit.paper_rhs == 0.0

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_corrected_identity_always_holds(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        audit = variance_identity_audit(a, b, random_state_vector(2, rng), random_state_vector(3, rng))
        assert audit.corrected_holds


class TestNoiseReport:
    def test_assembles_everything(self, cnot_model, cnot_quantity):
        report = noise_report(cnot_model, cnot_quantity, Z, Z, PLUS)
        assert report.epsilon_sq <= 1e-24
        assert report.robertson.bound <= report.epsilon_sq + 1e-9
        assert abs(report.var_conserved_exact - 0.25) <= 1e-12
        assert report.var_product_claim == 0.0


class TestBoundAuditSweep:
    def test_robertson_never_violated(self):
        report = bound_audit_sweep(AuditConfig(2, 3, 400, seed=13))
        assert report.summary.robertson_violations == 0
        assert len(report.records) == 400

    def test_modes_exercise_conditional_bounds(self):
        report = bound_audit_sweep(AuditConfig(2, 3, 200, seed=13))
        s = report.summary
        assert s.yanase_applicable == 100
        assert s.simplified_applicable == 100
        assert s.paper_defined + s.paper_undefined == 200

    def test_deterministic(self):
        a = bound_audit_sweep(AuditConfig(2, 2, 60, seed=4))
        b = bound_audit_sweep(AuditConfig(2, 2, 60, seed=4))
        assert a.records == b.records

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            AuditConfig(2, 2, 0, seed=1)

    @pytest.mark.parametrize("n1, n2, count, prefix", [(2, 3, 30, 11), (5, 9, 40, 13)])
    def test_prefix_of_longer_sweep(self, n1, n2, count, prefix):
        # the first records of a long sweep are those of a short one
        long = bound_audit_sweep(AuditConfig(n1, n2, count, 5)).records
        short = bound_audit_sweep(AuditConfig(n1, n2, prefix, 5)).records
        assert repr(long[:prefix]) == repr(short)

    def test_sink_takes_the_columns(self):
        # 40 trials at D = 45 are several chunks; streamed, they add up to the collected columns
        config = AuditConfig(5, 9, 40, 5)
        chunks = []
        streamed, collected = bound_audit_sweep(config, chunks.append), bound_audit_sweep(config)
        assert len(chunks) > 1
        assert (streamed.columns, streamed.records) == ({}, ())
        assert streamed.summary == collected.summary
        assert {name: sum((c[name] for c in chunks), []) for name in chunks[0]} == collected.columns
        assert len(collected.records) == 40

    def test_multi_chunk_golden_spans_chunks(self):
        # tests/golden/sweep_bound_audit_5x9.csv (40 trials, D = 45) is the
        # golden that crosses chunk boundaries
        assert 40 > SWEEP_CHUNK_BYTES // (16 * 45 * 45)
