from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E0, I2, LA_DIAG, PLUS, X, Z, chunk_sizes
from wayaudit import noise
from wayaudit.cli import load_model
from wayaudit.commutant import commutant_unitary, conserved_eigenspaces
from wayaudit.errors import PreconditionError
from wayaudit.linalg import (
    commutator,
    dagger,
    image_variance_stack,
    matvec_stack,
    random_hermitian,
    random_state_vector,
    tensor_product,
    variance,
)
from wayaudit.model import ConservedQuantity, MeasurementModel, conserved_operator
from wayaudit.noise import (
    AuditConfig,
    bound_audit_sweep,
    noise_report,
    variance_identity_audit,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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


def noise_operator(m, observable, probe):
    """N = U^dag (1 (x) probe) U - observable (x) 1 on the joint space, as a (D, D) matrix."""
    u = m.interaction
    return dagger(u) @ np.kron(np.eye(m.n1), probe) @ u - np.kron(observable, np.eye(m.n2))


def reference_kernels(u, ready, observable, psi, probe, la, lb):
    """The four bounds' cells for one instance from (D, D) operators: the noise operator N, U^dag (la (x)
    [probe, lb]) U and [observable, la] (x) lb, each expectation taken on s = psi (x) v as a matrix product.

    Flags map to their value. A figure maps to (value, scale): a difference is only as accurate as the terms it
    cancels, so its scale is the size of those terms (Var(a) = <a^2> - <a>^2 has the scale <a^2>), and a ratio's
    relative scale is the sum of its numerator's and its denominator's.
    """
    n1, n2 = len(psi), len(ready)
    s = np.kron(psi, ready)
    conserved = np.kron(la, lb)
    probed = dagger(u) @ np.kron(np.eye(n1), probe) @ u @ s
    observed = np.kron(observable, np.eye(n2)) @ s
    noise_state = probed - observed
    epsilon_sq = float(np.vdot(noise_state, noise_state).real)

    def var(a, state):
        value = image_variance_stack(state[None], matvec_stack(a[None], state[None]))[0]
        return float(value), float(np.linalg.norm(a @ state) ** 2)

    def ratio(numerator, numerator_scale, denominator, denominator_scale):
        value = numerator / denominator
        return value, value * (numerator_scale / numerator + denominator_scale / denominator) if numerator else 0.0

    def valid(bound, keep):
        return bool(bound <= epsilon_sq + noise.VALIDITY_SLACK) if keep else None

    cells = {"epsilon_sq": (epsilon_sq, (np.linalg.norm(probed) + np.linalg.norm(observed)) ** 2)}
    var_conserved, conserved_scale = var(conserved, s)
    n = dagger(u) @ np.kron(np.eye(n1), probe) @ u - np.kron(observable, np.eye(n2))
    numerator = abs(np.vdot(s, n @ conserved @ s - conserved @ noise_state)) ** 2 / 4.0
    numerator_scale = (np.linalg.norm(conserved @ s) * np.linalg.norm(noise_state)) ** 2
    degenerate = var_conserved <= noise.DEGENERACY_TOL
    bound = (0.0, 0.0) if degenerate else ratio(numerator, numerator_scale, var_conserved, conserved_scale)
    cells.update({
        "robertson.bound": bound, "robertson.numerator": (numerator, numerator_scale),
        "robertson.var_conserved": (var_conserved, conserved_scale),
        "robertson.degenerate": degenerate, "robertson.valid": valid(bound[0], True),
    })

    (var_la, la_scale), (var_lb, lb_scale) = var(la, psi), var(lb, ready)
    denominator = (4.0 * var_la * var_lb, 4.0 * la_scale * lb_scale)
    defined = denominator[0] > noise.DEGENERACY_TOL
    probe_commutator = commutator(probe, lb)
    observable_image = np.kron(commutator(observable, la), lb) @ s
    evolved_image = dagger(u) @ np.kron(la, probe_commutator) @ u @ s
    observable_mean, evolved_mean = np.vdot(s, observable_image), np.vdot(s, evolved_image)
    numerator = (
        abs(observable_mean - evolved_mean) ** 2,
        (np.linalg.norm(observable_image) + np.linalg.norm(evolved_image)) ** 2,  # |<s|T s>| <= |T s|
    )
    bound = ratio(*numerator, *denominator) if defined else (0.0, 0.0)
    cells.update({
        "paper.bound": bound if defined else None, "paper.defined": defined, "paper.valid": valid(bound[0], defined),
        "paper.numerator": numerator, "paper.denominator": denominator,
    })

    def conditional(kind, applicable, numerator, denominator):
        defined = denominator[0] > noise.DEGENERACY_TOL
        bound = ratio(*numerator, *denominator) if defined else (0.0, 0.0)
        kept = applicable and defined
        cells.update({
            f"{kind}.applicable": applicable, f"{kind}.bound": bound if kept else None,
            f"{kind}.defined": defined if applicable else None, f"{kind}.valid": valid(bound[0], kept),
        })

    conditional(
        "yanase", not np.linalg.norm(probe_commutator) > noise.YANASE_COMMUTATOR_TOL,
        (abs(observable_mean) ** 2, np.linalg.norm(observable_image) ** 2), denominator,
    )
    system_image = commutator(observable, la) @ psi
    conditional(
        "simplified", not abs(np.vdot(ready, lb @ ready)) > noise.ZERO_EXPECTATION_TOL,
        (abs(np.vdot(psi, system_image)) ** 2, np.linalg.norm(system_image) ** 2), (4.0 * var_la, 4.0 * la_scale),
    )
    return cells


def assert_kernels_match_reference(u, ready, observable, psi, probe, la, lb):
    """The engine's product-state kernels on a (k, ...) stack agree with ``reference_kernels`` on each
    instance: every flag equal, and every figure of at least 1e-20 within 1e-12 of its scale."""
    x = noise._Stack(u, ready, observable, psi, probe, la, lb)
    kernels = {"robertson": noise._robertson, "paper": noise._paper, "yanase": noise._yanase,
               "simplified": noise._simplified}
    ours = {"epsilon_sq": x.epsilon_sq.tolist()}
    for kind, kernel in kernels.items():
        ours.update({f"{kind}.{name}": noise._column(column) for name, column in kernel(x).items()})
    compared = 0
    for i, instance in enumerate(zip(u, ready, observable, psi, probe, la, lb)):
        reference = reference_kernels(*instance)
        assert reference.keys() == ours.keys()
        for name, expected in reference.items():
            value = ours[name][i]
            if expected is None or isinstance(expected, bool):
                assert value is expected or value == expected, (i, name, value, expected)
            elif abs(expected[0]) >= 1e-20:
                assert abs(value - expected[0]) <= 1e-12 * expected[1], (i, name, value, expected)
                compared += 1
    assert compared > 0


class TestProductStateKernels:
    """Every figure read off U (psi (x) v) equals the one the (D, D) noise operator gives."""

    @pytest.mark.parametrize("n1, n2", [(1, 2), (2, 2), (2, 3), (3, 5), (4, 7), (5, 9)])
    def test_audit_instances(self, monkeypatch, n1, n2):
        # 40 audit trials cycle through the four regimes: plain, Yanase, zero expectation, both
        stacks = []

        def recorded(*args):
            stacks.append(args)
            return stack(*args)

        stack = noise._Stack
        monkeypatch.setattr(noise, "_Stack", recorded)
        bound_audit_sweep(AuditConfig(n1, n2, 40, seed=3))
        monkeypatch.undo()
        for args in stacks:
            assert_kernels_match_reference(*args)

    @pytest.mark.parametrize(
        "la_values, lb_values",
        [
            ([1.0, 2.0], [1.0, 2.0, 4.0]),  # blocks (1, 2, 2, 1)
            ([1.0, 2.0], [2.0, 1.0, 1.0]),  # blocks (2, 3, 1), lb's eigenvalues unsorted
            ([1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 8.0, 16.0]),  # geometric: blocks of sizes 1 to 3
            ([1.0, 2.0], [-1.0, 0.0, 1.0]),  # traceless lb: zero-expectation ready states
        ],
    )
    def test_crafted_block_structures(self, la_values, lb_values):
        rng = np.random.default_rng(len(la_values) * 10 + len(lb_values))
        la, lb = np.diag(la_values).astype(complex), np.diag(lb_values).astype(complex)
        n1, n2 = len(la), len(lb)
        decomposition = conserved_eigenspaces(ConservedQuantity("multiplicative", la, lb))
        k = 8
        u = np.stack([commutant_unitary(decomposition, rng) for _ in range(k)])
        ready = np.stack([random_state_vector(n2, rng) for _ in range(k)])
        ready[::2] = np.eye(n2)[0] + np.eye(n2)[-1]
        ready[::2] /= np.sqrt(2.0)  # <v|lb|v> = 0 for the traceless lb
        probe = np.stack([random_hermitian(n2, rng) for _ in range(k)])
        probe[1::2] = np.diag(rng.uniform(-1.0, 1.0, n2))  # commutes with the diagonal lb
        observable = np.stack([random_hermitian(n1, rng) for _ in range(k)])
        observable[3] = la  # commutes with la
        psi = np.stack([random_state_vector(n1, rng) for _ in range(k)])
        assert_kernels_match_reference(u, ready, observable, psi, probe, np.stack([la] * k), np.stack([lb] * k))


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

    def test_rejects_non_hermitian(self, cnot_model, cnot_quantity):
        with pytest.raises(ValueError, match="Hermitian"):
            noise_report(cnot_model, cnot_quantity, np.array([[0, 1], [0, 0]], dtype=complex), Z, PLUS)

    @pytest.mark.parametrize("argument", ["psi", "observable", "probe"])
    def test_wrong_dimension_is_named(self, cnot_model, cnot_quantity, argument):
        # n1 = n2 = 2 on cnot; a 3x3 operator that is not Hermitian either fails its dimension first
        args = {"observable": Z, "probe": Z, "psi": PLUS}
        args[argument] = np.eye(3)[0] if argument == "psi" else np.triu(np.ones((3, 3)))
        with pytest.raises(ValueError, match=f"^{argument} must have dimension 2$"):
            noise_report(cnot_model, cnot_quantity, args["observable"], args["probe"], args["psi"])


class TestEpsilonSq:
    def test_matched_probe_vanishes(self, cnot_model, cnot_quantity):
        # oracle: N (psi (x) |0>) = Z psi (x) (Z - 1)|0> = 0
        assert noise_report(cnot_model, cnot_quantity, Z, Z, PLUS).epsilon_sq <= 1e-24

    def test_identity_probe(self, cnot_model, cnot_quantity):
        # oracle: <(1 - Z)^2> on |+> is <1 - 2Z + 1> = 2
        assert abs(noise_report(cnot_model, cnot_quantity, Z, I2, PLUS).epsilon_sq - 2.0) <= 1e-12

    def test_zero_operators(self, cnot_model, cnot_quantity):
        zero = np.zeros((2, 2))
        assert noise_report(cnot_model, cnot_quantity, zero, zero, PLUS).epsilon_sq == 0.0

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_moment_decomposition(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 3, seed)
        eps = noise_report(m, q, observable, probe, psi).epsilon_sq
        n = noise_operator(m, observable, probe)
        joint = np.kron(psi, m.ready_state)
        mean = float(np.vdot(joint, n @ joint).real)
        assert abs(eps - (variance(n, joint) + mean**2)) <= 1e-12


class TestRobertsonBound:
    def test_cnot_annihilated_state(self, cnot_model, cnot_quantity):
        report = noise_report(cnot_model, cnot_quantity, Z, Z, PLUS).robertson
        assert report.numerator <= 1e-24
        assert abs(report.var_conserved - 0.25) <= 1e-12
        assert report.bound == 0.0
        assert not report.degenerate

    def test_degenerate_variance(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, I2)
        # eigenstate of the system factor: Var(L) = 0 on e0 (x) |0>
        report = noise_report(cnot_model, q, Z, Z, E0).robertson
        assert report.degenerate
        assert report.bound == 0.0

    def test_requires_conservation(self, cnot_model):
        q = ConservedQuantity("multiplicative", LA_DIAG, LA_DIAG)
        with pytest.raises(PreconditionError) as err:
            noise_report(cnot_model, q, Z, Z, PLUS)
        assert err.value.check == "check_conserved"

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_epsilon_sq(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 3, seed)
        report = noise_report(m, q, observable, probe, psi)
        assert report.robertson.bound <= report.epsilon_sq + 1e-9


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
        # so the paper bound's numerator |<[o, la] (x) lb - U^dag (la (x) [probe, lb]) U>|^2
        # is |<[N, L]>|^2, four times the Robertson numerator
        report = noise_report(m, q, observable, probe, psi)
        state = np.kron(psi, m.ready_state)
        comm_expect = np.vdot(state, lhs @ state)
        assert abs(report.paper.numerator - abs(comm_expect) ** 2) <= 1e-10
        assert abs(report.paper.numerator - 4.0 * report.robertson.numerator) <= 1e-10


class TestPaperBound:
    def test_cnot_degenerate_denominator(self, cnot_model, cnot_quantity):
        # apparatus factor variance vanishes on |0> for the identity factor
        report = noise_report(cnot_model, cnot_quantity, Z, Z, PLUS).paper
        assert not report.defined
        assert report.bound is None
        assert report.numerator <= 1e-24

    def test_commuting_case_zero_bound(self):
        # diagonal probe keeps the evolved term zero; commuting observable kills the rest
        lb = np.diag([1.0, 2.0]).astype(complex)
        ready = PLUS
        q = ConservedQuantity("multiplicative", LA_DIAG, lb)
        m = MeasurementModel(2, 2, I2, ready, np.eye(4, dtype=complex))
        report = noise_report(m, q, LA_DIAG, np.diag([3.0, 4.0]), PLUS).paper
        assert report.defined
        assert report.bound <= 1e-20
        assert report.valid

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_validity_flag_matches_direct_comparison(self, seed):
        m, q, observable, probe, psi = conserving_instance(2, 2, seed)
        report = noise_report(m, q, observable, probe, psi)
        if report.paper.defined:
            assert report.paper.valid == (report.paper.bound <= report.epsilon_sq + 1e-9)


class TestYanaseBound:
    def test_identity_factor_applicable(self, cnot_model, cnot_quantity):
        report = noise_report(cnot_model, cnot_quantity, Z, Z, PLUS).yanase
        assert report.applicable  # [Z, 1] = 0

    def test_noncommuting_probe_not_applicable(self):
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = noise_report(m, q, Z, X, PLUS).yanase
        assert not report.applicable
        assert report.bound is None

    def test_commuting_observable_zero_bound(self):
        lb = np.diag([1.0, 2.0]).astype(complex)
        q = ConservedQuantity("multiplicative", LA_DIAG, lb)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = noise_report(m, q, LA_DIAG, np.diag([3.0, 4.0]), PLUS).yanase
        assert report.applicable and report.defined
        assert report.bound <= 1e-20


class TestSimplifiedBound:
    def test_nonzero_expectation_not_applicable(self, cnot_model, cnot_quantity):
        # <0|1|0> = 1
        report = noise_report(cnot_model, cnot_quantity, Z, Z, PLUS).simplified
        assert not report.applicable

    def test_commuting_observable_zero_bound(self):
        q = ConservedQuantity("multiplicative", LA_DIAG, Z)
        m = MeasurementModel(2, 2, I2, PLUS, np.eye(4, dtype=complex))
        report = noise_report(m, q, LA_DIAG, Z, PLUS).simplified  # the bound does not read the probe
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
        report = noise_report(m, q, X, Z, psi).simplified
        assert report.applicable and report.defined
        assert abs(report.bound - 1.0) <= 1e-12
        assert report.valid is not None  # audited against the computed noise


class TestVarianceAudit:
    def test_fixture_values(self):
        audit = variance_identity_audit(Z, Z, PLUS, E0, tol=1e-10)
        assert abs(audit.lhs - 1.0) <= 1e-12
        assert audit.paper_rhs == 0.0
        assert abs(audit.corrected_rhs - 1.0) <= 1e-12
        assert not audit.paper_claim_holds
        assert audit.corrected_holds

    def test_centered_case_claim_exact(self):
        psi_b = np.array([1.0, 1j]) / np.sqrt(2.0)
        audit = variance_identity_audit(Z, X, PLUS, psi_b, tol=1e-10)
        assert abs(audit.lhs - audit.paper_rhs) <= 1e-12
        assert audit.paper_claim_holds and audit.corrected_holds

    def test_constant_operator(self):
        audit = variance_identity_audit(I2, Z, PLUS, E0, tol=1e-10)
        assert audit.lhs <= 1e-14
        assert audit.paper_rhs == 0.0

    @pytest.mark.parametrize("argument", ["a", "b"])
    def test_wrong_dimension_is_named(self, argument):
        # each operator is checked against its state's dimension, before it is checked Hermitian
        args = {"a": Z, "b": Z}
        args[argument] = np.triu(np.ones((3, 3)))
        with pytest.raises(ValueError, match=f"^{argument} must have dimension 2$"):
            variance_identity_audit(args["a"], args["b"], PLUS, E0, tol=1e-10)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_corrected_identity_always_holds(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        audit = variance_identity_audit(
            a, b, random_state_vector(2, rng), random_state_vector(3, rng), tol=1e-10
        )
        assert audit.corrected_holds

    # the fixtures with an observable and a probe whose interaction conserves their quantity
    @pytest.mark.parametrize("name", ["cnot", "identity", "rotated_2x3", "geometric_5x9"])
    @pytest.mark.parametrize("state", ["plus", "random"])
    def test_lhs_is_the_bound_variance(self, name, state):
        loaded = load_model(str(FIXTURES / f"{name}.json"))
        m, q = loaded.model, loaded.quantity
        rng = np.random.default_rng(3)
        psi = np.full(m.n1, m.n1**-0.5, dtype=complex) if state == "plus" else random_state_vector(m.n1, rng)
        audit = variance_identity_audit(q.system_op, q.apparatus_op, psi, m.ready_state, tol=1e-10)
        report = noise_report(m, q, loaded.observable, loaded.probe, psi)
        assert audit.lhs == report.var_conserved_exact

    def test_tolerance_scales_with_lhs(self):
        # factors up to 2**8 give lhs up to about 4e5, where one ulp is above 1e-10:
        # an absolute tol=1e-10 would reject the exact identity for many states
        a, b = np.diag(2.0 ** np.arange(5)), np.diag(2.0 ** np.arange(9))
        rng = np.random.default_rng(0)
        audits = [
            variance_identity_audit(a, b, random_state_vector(5, rng), random_state_vector(9, rng), tol=1e-10)
            for _ in range(300)
        ]
        assert max(audit.lhs for audit in audits) > 1e5
        assert all(audit.corrected_holds for audit in audits)


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

    def test_chunk_forms_one_kronecker_product(self, monkeypatch):
        # la (x) lb, for the conservation residual, is the only joint operator a chunk builds
        products, stacks = [], []
        product, stack = noise.tensor_product_stack, noise._Stack

        def recorded_product(a, b):
            products.append((a, b))
            return product(a, b)

        def recorded_stack(*args):
            stacks.append(args)
            return stack(*args)

        monkeypatch.setattr(noise, "tensor_product_stack", recorded_product)
        monkeypatch.setattr(noise, "_Stack", recorded_stack)
        bound_audit_sweep(AuditConfig(2, 3, 40, seed=7))  # one chunk
        ((la, lb),), ((*_, stacked_la, stacked_lb),) = products, stacks
        assert la is stacked_la and lb is stacked_lb and la.shape == (40, 2, 2) and lb.shape == (40, 3, 3)

    @pytest.mark.parametrize(
        "n1, n2, seed, message",
        [(0, 2, 1, "^n1 must be at least 1$"), (1, 1, 1, "^n2 must be at least 2: "), (1, 2, -1, "^seed must be")],
        ids=["n1", "n2", "seed"],
    )
    def test_rejects_bad_config(self, n1, n2, seed, message):
        with pytest.raises(ValueError, match=message):
            AuditConfig(n1, n2, 1, seed)

    def test_constant_apparatus_spectrum_is_made_indefinite(self):
        # a constant spectrum centres to zero; where the zero-expectation regime needs a traceless,
        # sign-indefinite factor, it is spread, and every other row is as it would be without it
        d = np.array([[1.5, 1.5, 1.5], [1.5, 1.5, 1.5], [0.5, 1.0, 2.25], [0.5, 1.0, 2.25]])
        spectra = noise._apparatus_spectra(d, np.array([True, False, True, False]))
        assert abs(spectra[0].sum()) <= 1e-15 and spectra[0].min() < 0.0 < spectra[0].max()
        np.testing.assert_array_equal(spectra[1:], [d[1], d[2] - d[2].mean(), d[3]])
        assert d[0].tolist() == [1.5, 1.5, 1.5]  # the draws are not written to

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count"):
            AuditConfig(2, 2, 0, seed=1)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_tol(self, tol):
        # refused at construction, not later as a conservation residual that "exceeds nan"
        with pytest.raises(ValueError, match=f"^tol must be nonnegative and finite, got {tol!r}$"):
            AuditConfig(2, 3, 8, 1, tol=tol)

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
        assert len(chunk_sizes(40, (45, 45))) > 1
