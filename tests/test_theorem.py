import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, E0, E1, I2, LA_DIAG, X, Z, make_conforming_model
from wayaudit.errors import PreconditionError
from wayaudit.model import (
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_nondestructive,
)
from wayaudit.theorem import (
    counterexample_sweep,
    matrix_element_identity,
    pointer_gram_rank,
    theorem_verdict,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestMatrixElementIdentity:
    def test_cnot(self, cnot_model, cnot_quantity):
        table = matrix_element_identity(cnot_model, cnot_quantity)
        assert table.max_abs <= 1e-12
        assert table.residuals.shape == (2, 2)

    def test_identity_interaction(self, identity_model, cnot_quantity):
        table = matrix_element_identity(identity_model, cnot_quantity)
        assert table.max_abs <= 1e-12

    def test_nonconserving_model_rejected(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, LA_DIAG)
        with pytest.raises(PreconditionError) as err:
            matrix_element_identity(cnot_model, q)
        assert err.value.check == "check_conserved"

    def test_destructive_model_rejected(self, cnot_quantity):
        m = MeasurementModel(2, 2, I2, E0, np.kron(X, I2))
        with pytest.raises(PreconditionError) as err:
            matrix_element_identity(m, cnot_quantity)
        assert err.value.check == "check_nondestructive"

    def test_additive_kind_rejected(self, cnot_model):
        q = ConservedQuantity("additive", LA_DIAG, I2)
        with pytest.raises(PreconditionError) as err:
            matrix_element_identity(cnot_model, q)
        assert err.value.check == "kind"

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_conforming_models_satisfy_identity(self, seed):
        rng = np.random.default_rng(seed)
        m, q = make_conforming_model(2, 3, rng)
        assert matrix_element_identity(m, q).max_abs <= 1e-8


class TestPointerGramRank:
    def test_constant_table(self):
        pointers = np.stack([E0, E0])
        report = pointer_gram_rank(I2, pointers)
        assert report.rank == 1
        assert report.constant_case
        np.testing.assert_allclose(report.gram_lb, np.ones((2, 2)))

    def test_cnot_identity_factor(self, cnot_model):
        nd = check_nondestructive(cnot_model)
        report = pointer_gram_rank(I2, nd.pointers)
        assert report.rank == 2
        assert not report.constant_case
        np.testing.assert_allclose(report.gram_lb, I2)

    def test_cnot_diagonal_factor(self, cnot_model):
        nd = check_nondestructive(cnot_model)
        report = pointer_gram_rank(LA_DIAG, nd.pointers)
        assert report.rank == 2
        np.testing.assert_allclose(report.gram_lb, np.diag([1.0, 2.0]))

    def test_zero_table_is_constant_rank_zero(self):
        pointers = np.stack([E0, E1])
        report = pointer_gram_rank(np.zeros((2, 2)), pointers)
        assert report.constant_case
        assert report.rank == 0


class TestTheoremVerdict:
    def test_cnot_consistent(self, cnot_model, cnot_quantity):
        verdict = theorem_verdict(cnot_model, cnot_quantity)
        assert verdict.outcome == "consistent"
        assert verdict.commutator_norm <= 1e-12
        assert all(c.passed for c in verdict.assumptions)
        assert {c.name for c in verdict.assumptions} == {
            "conservation",
            "lb_full_rank",
            "la_positive",
            "lb_positive",
            "dimension_bound",
            "nondestructive",
            "exact",
        }

    def test_rank_deficient_apparatus_factor(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, np.diag([1.0, 0.0]))
        verdict = theorem_verdict(cnot_model, q)
        assert verdict.outcome == "assumptions_violated"
        assert not verdict.assumption("lb_positive").passed
        assert not verdict.assumption("lb_full_rank").passed

    def test_dimension_bound(self):
        # n2 = 2 * n1 violates the stated bound
        rng = np.random.default_rng(0)
        ready = np.zeros(4, dtype=complex)
        ready[0] = 1.0
        m = MeasurementModel(2, 4, I2, ready, np.eye(8, dtype=complex))
        q = ConservedQuantity("multiplicative", LA_DIAG, np.eye(4, dtype=complex))
        verdict = theorem_verdict(m, q)
        assert verdict.outcome == "assumptions_violated"
        assert not verdict.assumption("dimension_bound").passed

    def test_strict_dimension_flag(self, cnot_model, cnot_quantity):
        # n2 = 2 = 2*n1 - 2 < 2*n1 - 1: both the stated and the strict bound hold
        verdict = theorem_verdict(cnot_model, cnot_quantity)
        assert verdict.assumption("dimension_bound").passed
        assert verdict.strict_dimension_ok
        # (n1, n2) = (2, 3) passes the stated bound but not the strict one
        rng = np.random.default_rng(1)
        ready = np.zeros(3, dtype=complex)
        ready[0] = 1.0
        m = MeasurementModel(2, 3, I2, ready, np.eye(6, dtype=complex))
        q = ConservedQuantity("multiplicative", LA_DIAG, np.eye(3, dtype=complex))
        v2 = theorem_verdict(m, q)
        assert v2.assumption("dimension_bound").passed
        assert not v2.strict_dimension_ok

    def test_additive_kind_rejected(self, cnot_model):
        q = ConservedQuantity("additive", LA_DIAG, I2)
        with pytest.raises(PreconditionError):
            theorem_verdict(cnot_model, q)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_conforming_models_never_contradict(self, seed):
        rng = np.random.default_rng(seed)
        m, q = make_conforming_model(2, 3, rng)
        # apparatus factor from the helper is generic Hermitian; force the
        # positivity hypotheses by shifting its spectrum
        lb = q.apparatus_op + (abs(np.linalg.eigvalsh(q.apparatus_op)[0]) + 0.5) * np.eye(3)
        verdict = theorem_verdict(m, ConservedQuantity("multiplicative", q.system_op, lb))
        assert verdict.outcome == "consistent"


class TestAdditiveCheck:
    def test_cnot_system_only(self, cnot_model):
        q = ConservedQuantity("additive", LA_DIAG, np.zeros((2, 2)))
        report = check_conserved(cnot_model, q)
        assert report.verdict and report.residual <= 1e-14

    def test_identity_conserves(self, identity_model):
        q = ConservedQuantity("additive", Z, Z)
        assert check_conserved(identity_model, q).residual == 0.0

    def test_cnot_total_z_not_conserved(self, cnot_model):
        q = ConservedQuantity("additive", Z, Z)
        # oracle: CNOT (Z(x)1 + 1(x)Z) CNOT = Z(x)1 + Z(x)Z, defect = Z(x)Z - 1(x)Z
        defect = np.kron(Z, Z) - np.kron(I2, Z)
        expected = np.linalg.norm(defect)
        report = check_conserved(cnot_model, q)
        assert abs(report.residual - expected) <= 1e-12
        assert report.residual > 0.1


class TestCounterexampleSweep:
    def test_small_sweeps_find_nothing(self):
        report = counterexample_sweep(2, 2, 200, seed=5)
        assert report.counterexamples == 0
        assert report.no_counterexample
        assert len(report.trials) == 200

    def test_rejects_wide_apparatus(self):
        with pytest.raises(ValueError, match="dimension precondition"):
            counterexample_sweep(2, 4, 10, seed=0)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            counterexample_sweep(2, 2, 0, seed=0)

    @pytest.mark.parametrize("n1, n2, field", [(1, 0, "n2"), (1, -1, "n2"), (0, -1, "n1")])
    def test_rejects_nonpositive_dimensions(self, n1, n2, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
            counterexample_sweep(n1, n2, 3, seed=0)

    def test_deterministic(self):
        a = counterexample_sweep(2, 3, 50, seed=9)
        b = counterexample_sweep(2, 3, 50, seed=9)
        assert a == b

    def test_trials_record_quality(self):
        report = counterexample_sweep(3, 3, 50, seed=2)
        for t in report.trials:
            assert t.leakage >= 0.0 and t.deficit >= 0.0
            assert t.counterexample == (t.conforming and t.commutator_norm > 1e-6)

    def test_sink_takes_the_columns(self):
        # 40 trials at D = 45 are several chunks; streamed, they add up to the collected columns
        chunks = []
        streamed = counterexample_sweep(5, 9, 40, 5, sink=chunks.append)
        collected = counterexample_sweep(5, 9, 40, 5)
        assert len(chunks) > 1
        assert (streamed.columns, streamed.trials) == ({}, ())
        assert streamed == dataclasses.replace(collected, columns={})
        assert {name: sum((c[name] for c in chunks), []) for name in chunks[0]} == collected.columns
        assert len(collected.trials) == 40

    @pytest.mark.parametrize("n1, n2, count, prefix", [(2, 3, 30, 11), (5, 9, 40, 13)])
    def test_prefix_of_longer_sweep(self, n1, n2, count, prefix):
        long = counterexample_sweep(n1, n2, count, 5).trials
        short = counterexample_sweep(n1, n2, prefix, 5).trials
        assert repr(long[:prefix]) == repr(short)
