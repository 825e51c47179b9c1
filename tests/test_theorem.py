import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, E0, E1, I2, LA_DIAG, X, Z, make_conforming_model
from wayaudit.errors import PreconditionError
from wayaudit.model import (
    POINTER_DEGENERACY_TOL,
    VERDICT_TOL,
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_nondestructive,
)
from wayaudit import theorem
from wayaudit.theorem import (
    CounterexampleConfig,
    counterexample_sweep,
    matrix_element_identity,
    pointer_gram_rank,
    sample_conserving_instance,
    sample_instance_stack,
    theorem_verdict,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# One case per input check no other test reaches: the call, the error it raises and its message.
INPUT_ERRORS = {
    "unknown_assumption": (
        lambda: theorem_verdict(MeasurementModel(2, 2, I2, E0, CNOT), ConservedQuantity("multiplicative", LA_DIAG, I2))
        .assumption("bogus"),
        KeyError,
        "bogus",
    ),
    "negative_seed": (lambda: CounterexampleConfig(2, 3, 1, -1), ValueError, "^seed must be nonnegative$"),
}


@pytest.mark.parametrize("call, error, message", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


class TestConstantFlag:
    """``constant_case`` never contradicts the rank, whatever ``tol``."""

    @given(st.integers(1, 6), seeds, st.floats(-13.0, 1.0), st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 1e300]))
    @settings(max_examples=200, deadline=None)
    def test_near_constant_tables(self, n, seed, log_spread, tol):
        # the identity pointers make the table B itself: c times all ones, plus a spread
        rng = np.random.default_rng(seed)
        c = complex(*rng.standard_normal(2))
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        table = c * np.ones((n, n)) + 10.0**log_spread * abs(c) * e / np.abs(e).max()
        report = pointer_gram_rank(table, np.eye(n), tol)
        assert not report.constant_case or report.rank <= 1
        if log_spread <= -12.0 and tol >= 1e-9:
            assert report.constant_case


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

    def test_pointer_degeneracy_threshold(self):
        # U|00> = d|00> + c|10>: pointer 0 has norm d, between POINTER_DEGENERACY_TOL and VERDICT_TOL
        d = 1e-10
        assert POINTER_DEGENERACY_TOL < d < VERDICT_TOL
        c = np.sqrt(1.0 - d * d)
        u = np.zeros((4, 4), dtype=complex)
        u[[0, 2], 0] = d, c
        u[1, 1] = u[3, 2] = 1.0  # |01> -> |01>, |10> -> |11>
        u[[0, 2], 3] = c, -d
        m = MeasurementModel(2, 2, I2, E0, u)
        q = ConservedQuantity("multiplicative", I2, I2)
        loose, strict = check_nondestructive(m), check_nondestructive(m, POINTER_DEGENERACY_TOL)
        assert loose.degenerate == (0,) and loose.deficit == 1.0
        assert strict.degenerate == () and strict.deficit <= 1e-15
        verdict = theorem_verdict(m, q)
        assert verdict.assumption("nondestructive").residual == strict.leakage
        assert verdict.assumption("exact").residual == strict.deficit
        assert verdict.assumption("exact").passed

    def test_dimension_mismatch_names_the_dimensions(self, cnot_model):
        q = ConservedQuantity("multiplicative", np.diag([1.0, 2.0, 3.0]), I2)
        message = re.escape("conserved quantity dims (3, 2) do not match model (2, 2)")
        for check in (theorem_verdict, check_conserved):
            with pytest.raises(ValueError, match=message):
                check(cnot_model, q)

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
        report = counterexample_sweep(CounterexampleConfig(2, 2, 200, seed=5))
        assert report.summary.counterexamples == 0
        assert report.summary.no_counterexample
        assert len(report.records) == 200

    def test_rejects_wide_apparatus(self):
        with pytest.raises(ValueError, match="dimension precondition"):
            counterexample_sweep(CounterexampleConfig(2, 4, 10, seed=0))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            counterexample_sweep(CounterexampleConfig(2, 2, 0, seed=0))

    @pytest.mark.parametrize("n1, n2, field", [(1, 0, "n2"), (1, -1, "n2"), (0, -1, "n1")])
    def test_rejects_nonpositive_dimensions(self, n1, n2, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
            counterexample_sweep(CounterexampleConfig(n1, n2, 3, seed=0))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_tol(self, tol):
        # a NaN tol would pass no trial and report no counterexample from no evidence
        with pytest.raises(ValueError, match=f"^tol must be nonnegative and finite, got {tol!r}$"):
            CounterexampleConfig(2, 2, 50, 1, tol=tol)

    def test_deterministic(self):
        a = counterexample_sweep(CounterexampleConfig(2, 3, 50, seed=9))
        b = counterexample_sweep(CounterexampleConfig(2, 3, 50, seed=9))
        assert a == b

    def test_trials_record_quality(self):
        report = counterexample_sweep(CounterexampleConfig(3, 3, 50, seed=2))
        for t in report.records:
            assert t.leakage >= 0.0 and t.deficit >= 0.0
            assert t.counterexample == (t.conforming and t.commutator_norm > 1e-6)

    def test_sink_takes_the_columns(self):
        # 300 trials at 5x9 are two chunks; streamed, they add up to the collected columns
        chunks = []
        config = CounterexampleConfig(5, 9, 300, 5)
        streamed = counterexample_sweep(config, sink=chunks.append)
        collected = counterexample_sweep(config)
        assert len(chunks) > 1
        assert (streamed.columns, streamed.records) == ({}, ())
        assert streamed == dataclasses.replace(collected, columns={})
        assert {name: sum((c[name] for c in chunks), []) for name in chunks[0]} == collected.columns
        assert len(collected.records) == 300

    # one chunk each, and two at 5x9 with 300 trials (291 and 9)
    @pytest.mark.parametrize("n1, n2, count", [(3, 5, 300), (5, 9, 40), (5, 9, 300)])
    def test_records_match_assembled_instances(self, n1, n2, count):
        # the chunk reads its pointers in factor space; each trial's instance, assembled, agrees
        report = counterexample_sweep(CounterexampleConfig(n1, n2, count, 7))
        for record in report.records:
            model, _ = sample_conserving_instance(n1, n2, np.random.default_rng((7, record.trial)))
            nd = check_nondestructive(model)
            assert abs(record.leakage - nd.leakage) <= 1e-12 * nd.leakage
            assert abs(record.deficit - nd.deficit) <= 1e-12 * nd.deficit
            assert record.degenerate_pointer == bool(nd.degenerate)

    def test_sampler_checks_the_applied_unitaries(self, monkeypatch):
        # the unitarity check covers the factors' eigenvector matrices, not an assembled U
        drawn = theorem.spectral_operator_stack

        def skewed(spectra, normals):
            op, (values, vectors) = drawn(spectra, normals)
            return op, (values, 1.001 * vectors)

        monkeypatch.setattr(theorem, "spectral_operator_stack", skewed)
        with pytest.raises(PreconditionError, match="^interaction: not unitary"):
            sample_instance_stack(3, 5, [np.random.default_rng(0)])

    @pytest.mark.parametrize("n1, n2, chunks", [(2, 3, [512, 88]), (3, 5, [512, 88]), (5, 9, [291, 291, 18])])
    def test_chunks_sized_by_the_pointer_blocks(self, n1, n2, chunks):
        # 1 MiB of (n1, n1, n2) pointer blocks per chunk, at most 512 trials: no (chunk, D, D) stack sizes them
        sizes = []
        counterexample_sweep(CounterexampleConfig(n1, n2, sum(chunks), 7), lambda c: sizes.append(len(c["trial"])))
        assert sizes == chunks

    @pytest.mark.parametrize("n1, n2, count, prefix", [(2, 3, 30, 11), (5, 9, 40, 13)])
    def test_prefix_of_longer_sweep(self, n1, n2, count, prefix):
        long = counterexample_sweep(CounterexampleConfig(n1, n2, count, 5)).records
        short = counterexample_sweep(CounterexampleConfig(n1, n2, prefix, 5)).records
        assert repr(long[:prefix]) == repr(short)
