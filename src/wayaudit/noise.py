"""Measurement-noise lower bounds and their numerical audit.

The noise operator is the Heisenberg-picture difference between the evolved
probe observable and the target observable; its squared expectation on the
joint initial state is the noise figure epsilon^2. The uncertainty-relation
chain epsilon^2 >= Var(N) >= |<[N, L]>|^2 / (4 Var(L)) holds unconditionally
for a conserved L and is enforced as such. The factored bounds that replace
Var(L) with the product of single-factor variances are treated as hypotheses:
they are computed, compared against epsilon^2, and their violation fractions
are reported rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import commutant_unitary, conserved_eigenspaces
from .errors import PreconditionError
from .linalg import (
    as_operator,
    as_state,
    commutator,
    dagger,
    frobenius_norm,
    haar_unitary,
    product_state,
    random_hermitian,
    random_positive_operator,
    random_state_vector,
    tensor_product,
    variance,
)
from .model import ConservedQuantity, MeasurementModel, check_conserved, conserved_operator

__all__ = [
    "AuditConfig",
    "BoundAuditRecord",
    "BoundAuditReport",
    "BoundAuditSummary",
    "NoiseReport",
    "PaperBoundReport",
    "RobertsonReport",
    "SimplifiedBoundReport",
    "VarianceAudit",
    "YanaseBoundReport",
    "bound_audit_sweep",
    "epsilon_sq",
    "noise_operator",
    "noise_report",
    "paper_bound",
    "robertson_bound",
    "simplified_bound",
    "variance_identity_audit",
    "yanase_bound",
]

# Denominators at or below this are treated as degenerate (bound undefined,
# or zero under the 0/0 -> 0 convention for the Robertson chain).
DEGENERACY_TOL = 1e-12
# Slack allowed when comparing a bound against epsilon^2.
VALIDITY_SLACK = 1e-9
# Commutation threshold for the Yanase condition on the probe.
YANASE_COMMUTATOR_TOL = 1e-10
# Threshold on |<v|lb|v>| for the zero-expectation simplification.
ZERO_EXPECTATION_TOL = 1e-10


def _hermitian_arg(a, dim: int, name: str) -> np.ndarray:
    a = as_operator(a)
    if a.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}")
    defect = frobenius_norm(a - dagger(a))
    if defect > 1e-10:
        raise ValueError(f"{name} is not Hermitian: residual {defect:.3e}")
    return a


def _state_arg(psi, dim: int) -> np.ndarray:
    psi = as_state(psi)
    if psi.shape[0] != dim:
        raise ValueError(f"psi must have dimension {dim}")
    return psi


def _require_conserved(m: MeasurementModel, q: ConservedQuantity, tol: float) -> None:
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "noise bounds require a multiplicative quantity")
    report = check_conserved(m, q, tol)
    if not report.verdict:
        raise PreconditionError(
            "check_conserved", f"residual {report.residual:.3e} exceeds {tol:.3e}"
        )


def _noise_operator(m: MeasurementModel, observable: np.ndarray, probe: np.ndarray) -> np.ndarray:
    evolved = dagger(m.interaction) @ tensor_product(np.eye(m.n1), probe) @ m.interaction
    return evolved - tensor_product(observable, np.eye(m.n2))


def noise_operator(m: MeasurementModel, observable, probe) -> np.ndarray:
    """N = U^dag (1 (x) probe) U - observable (x) 1 on the joint space."""
    observable = _hermitian_arg(observable, m.n1, "observable")
    probe = _hermitian_arg(probe, m.n2, "probe")
    return _noise_operator(m, observable, probe)


# Input checks in the order each entry point runs them; the first failure raises.
_REPORT_CHECKS = ("psi", "observable", "probe", "conserved")
_EPSILON_CHECKS = ("psi", "observable", "probe")
_ROBERTSON_CHECKS = ("conserved", "psi", "observable", "probe")
_FACTORED_CHECKS = ("conserved", "observable", "probe", "psi")
_SIMPLIFIED_CHECKS = ("conserved", "observable", "psi", "probe")


class _Instance:
    """One instance: each input validated once, each intermediate computed once.

    Every bound formula reads from here. Without a probe only ``epsilon_sq``
    (None) of the noise intermediates is set; without a quantity (for
    ``epsilon_sq`` alone) none of the conserved-quantity ones are.
    """

    def __init__(self, m, q, observable, probe, psi, tol, checks):
        run = {
            "conserved": lambda: _require_conserved(m, q, tol),
            "psi": lambda: _state_arg(psi, m.n1),
            "observable": lambda: _hermitian_arg(observable, m.n1, "observable"),
            "probe": lambda: _hermitian_arg(probe, m.n2, "probe"),
        }
        checked = {name: run[name]() for name in checks}
        observable, probe = checked["observable"], checked.get("probe")
        self.m, self.q, self.psi = m, q, checked["psi"]
        self.joint_state = product_state(self.psi, m.ready_state)
        self.epsilon_sq = None
        if probe is not None:
            self.noise = _noise_operator(m, observable, probe)
            self.noise_state = self.noise @ self.joint_state
            self.epsilon_sq = float(np.vdot(self.noise_state, self.noise_state).real)
        if q is None:
            return
        la, lb = q.system_op, q.apparatus_op
        self.conserved = conserved_operator(q)
        self.var_conserved = variance(self.conserved, self.joint_state)
        self.var_la = variance(la, self.psi)
        self.var_lb = variance(lb, m.ready_state)
        self.factored_denominator = 4.0 * self.var_la * self.var_lb
        self.observable_commutator = commutator(observable, la)
        self.observable_term = tensor_product(self.observable_commutator, lb)
        if probe is not None:
            self.probe_commutator = commutator(probe, lb)


def _valid(bound: float, eps: float | None) -> bool | None:
    return None if eps is None else bound <= eps + VALIDITY_SLACK


def epsilon_sq(m: MeasurementModel, observable, probe, psi) -> float:
    """<N^2> on psi (x) ready_state; the squared state-dependent noise."""
    return _Instance(m, None, observable, probe, psi, None, _EPSILON_CHECKS).epsilon_sq


@dataclass(frozen=True)
class RobertsonReport:
    """Exact uncertainty-chain bound: |<[N, L]>|^2 / (4 Var(L)).

    ``degenerate`` marks Var(L) <= 1e-12, where the bound is set to zero: an
    eigenstate of the conserved quantity forces the numerator to zero as well.
    """

    bound: float
    numerator: float
    var_conserved: float
    degenerate: bool


def _robertson(x: _Instance) -> RobertsonReport:
    comm_expect = complex(
        np.vdot(x.joint_state, (x.noise @ (x.conserved @ x.joint_state)) - (x.conserved @ x.noise_state))
    )
    numerator = abs(comm_expect) ** 2 / 4.0
    degenerate = x.var_conserved <= DEGENERACY_TOL
    bound = 0.0 if degenerate else numerator / x.var_conserved
    return RobertsonReport(bound, numerator, x.var_conserved, degenerate)


def robertson_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> RobertsonReport:
    return _robertson(_Instance(m, q, observable, probe, psi, tol, _ROBERTSON_CHECKS))


@dataclass(frozen=True)
class PaperBoundReport:
    """Factored-denominator bound with the evolved-probe commutator numerator.

    ``defined`` is False when 4 * Var(la on psi) * Var(lb on v) is degenerate;
    ``valid`` compares the bound against epsilon^2 and may legitimately be
    False -- that is exactly what the audit measures.
    """

    bound: float | None
    defined: bool
    valid: bool | None
    numerator: float
    denominator: float


def _paper(x: _Instance) -> PaperBoundReport:
    u = x.m.interaction
    evolved_term = dagger(u) @ tensor_product(x.q.system_op, x.probe_commutator) @ u
    term = x.observable_term - evolved_term
    numerator = abs(complex(np.vdot(x.joint_state, term @ x.joint_state))) ** 2
    denominator = x.factored_denominator
    if denominator <= DEGENERACY_TOL:
        return PaperBoundReport(None, False, None, numerator, denominator)
    bound = numerator / denominator
    return PaperBoundReport(bound, True, _valid(bound, x.epsilon_sq), numerator, denominator)


def paper_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> PaperBoundReport:
    return _paper(_Instance(m, q, observable, probe, psi, tol, _FACTORED_CHECKS))


@dataclass(frozen=True)
class YanaseBoundReport:
    """Bound under the Yanase condition [probe, lb] = 0.

    ``applicable`` is False when the probe fails the condition; ``defined``
    is False on a degenerate denominator.
    """

    applicable: bool
    bound: float | None
    defined: bool | None
    valid: bool | None


def _yanase(x: _Instance) -> YanaseBoundReport:
    if frobenius_norm(x.probe_commutator) > YANASE_COMMUTATOR_TOL:
        return YanaseBoundReport(False, None, None, None)
    numerator = abs(complex(np.vdot(x.joint_state, x.observable_term @ x.joint_state))) ** 2
    denominator = x.factored_denominator
    if denominator <= DEGENERACY_TOL:
        return YanaseBoundReport(True, None, False, None)
    bound = numerator / denominator
    return YanaseBoundReport(True, bound, True, _valid(bound, x.epsilon_sq))


def yanase_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> YanaseBoundReport:
    return _yanase(_Instance(m, q, observable, probe, psi, tol, _FACTORED_CHECKS))


@dataclass(frozen=True)
class SimplifiedBoundReport:
    """System-only bound for a ready state with zero apparatus-factor expectation."""

    applicable: bool
    bound: float | None
    defined: bool | None
    valid: bool | None


def _simplified(x: _Instance) -> SimplifiedBoundReport:
    ready, lb = x.m.ready_state, x.q.apparatus_op
    if abs(complex(np.vdot(ready, lb @ ready))) > ZERO_EXPECTATION_TOL:
        return SimplifiedBoundReport(False, None, None, None)
    numerator = abs(complex(np.vdot(x.psi, x.observable_commutator @ x.psi))) ** 2
    denominator = 4.0 * x.var_la
    if denominator <= DEGENERACY_TOL:
        return SimplifiedBoundReport(True, None, False, None)
    bound = numerator / denominator
    return SimplifiedBoundReport(True, bound, True, _valid(bound, x.epsilon_sq))


def simplified_bound(
    m: MeasurementModel, observable, q: ConservedQuantity, psi, probe=None, tol: float = 1e-9
) -> SimplifiedBoundReport:
    """|<psi|[observable, la]|psi>|^2 / (4 Var(la)) when <v|lb|v> = 0.

    The validity flag needs epsilon^2 and therefore a probe; without one the
    flag is None and only the bound is reported.
    """
    checks = _SIMPLIFIED_CHECKS if probe is not None else _SIMPLIFIED_CHECKS[:-1]
    return _simplified(_Instance(m, q, observable, probe, psi, tol, checks))


@dataclass(frozen=True)
class VarianceAudit:
    """Product-state variance of a product operator versus the factored claim.

    ``corrected_rhs`` adds the cross terms that make the identity exact:
    Var(A (x) B) = VarA VarB + VarA <B>^2 + <A>^2 VarB on product states.
    """

    lhs: float
    paper_rhs: float
    corrected_rhs: float
    paper_claim_holds: bool
    corrected_holds: bool


def variance_identity_audit(a, b, psi_a, psi_b, tol: float = 1e-10) -> VarianceAudit:
    a = as_operator(a)
    b = as_operator(b)
    psi_a = as_state(psi_a)
    psi_b = as_state(psi_b)
    a = _hermitian_arg(a, a.shape[0], "a")
    b = _hermitian_arg(b, b.shape[0], "b")
    lhs = variance(tensor_product(a, b), product_state(psi_a, psi_b))
    var_a = variance(a, psi_a)
    var_b = variance(b, psi_b)
    mean_a = float(np.vdot(psi_a, a @ psi_a).real)
    mean_b = float(np.vdot(psi_b, b @ psi_b).real)
    paper_rhs = var_a * var_b
    corrected_rhs = var_a * var_b + var_a * mean_b**2 + mean_a**2 * var_b
    return VarianceAudit(
        lhs=lhs,
        paper_rhs=paper_rhs,
        corrected_rhs=corrected_rhs,
        paper_claim_holds=abs(lhs - paper_rhs) <= tol,
        corrected_holds=abs(lhs - corrected_rhs) <= tol,
    )


@dataclass(frozen=True)
class NoiseReport:
    """Everything the `bound` command reports for one instance."""

    epsilon_sq: float
    robertson: RobertsonReport
    paper: PaperBoundReport
    yanase: YanaseBoundReport
    simplified: SimplifiedBoundReport
    var_conserved_exact: float
    var_product_claim: float


def noise_report(
    m: MeasurementModel, q: ConservedQuantity, observable, probe, psi, tol: float = 1e-9
) -> NoiseReport:
    """All four bounds from one pass over the instance's intermediates."""
    x = _Instance(m, q, observable, probe, psi, tol, _REPORT_CHECKS)
    return NoiseReport(
        epsilon_sq=x.epsilon_sq,
        robertson=_robertson(x),
        paper=_paper(x),
        yanase=_yanase(x),
        simplified=_simplified(x),
        var_conserved_exact=x.var_conserved,
        var_product_claim=x.var_la * x.var_lb,
    )


@dataclass(frozen=True)
class AuditConfig:
    n1: int
    n2: int
    count: int
    seed: int
    tol: float = 1e-9

    def __post_init__(self):
        if self.n1 < 1:
            raise ValueError("n1 must be at least 1")
        if self.n2 < 2:
            raise ValueError("n2 must be at least 2: the zero-expectation regime needs two eigenvalues")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class BoundAuditRecord:
    trial: int
    n1: int
    n2: int
    epsilon_sq: float
    robertson_bound: float
    robertson_degenerate: bool
    paper_bound: float | None
    paper_defined: bool
    yanase_applicable: bool
    yanase_bound: float | None
    yanase_defined: bool | None
    simplified_applicable: bool
    simplified_bound: float | None
    simplified_defined: bool | None
    robertson_valid: bool
    paper_valid: bool | None
    yanase_valid: bool | None
    simplified_valid: bool | None


@dataclass(frozen=True)
class BoundAuditSummary:
    """Violation and degeneracy tallies; the Robertson count must be zero."""

    robertson_violations: int
    robertson_degenerate: int
    robertson_violation_fraction: float
    paper_defined: int
    paper_undefined: int
    paper_violations: int
    paper_violation_fraction: float
    yanase_applicable: int
    yanase_degenerate: int
    yanase_violations: int
    yanase_violation_fraction: float
    simplified_applicable: int
    simplified_degenerate: int
    simplified_violations: int
    simplified_violation_fraction: float


@dataclass(frozen=True)
class BoundAuditReport:
    config: AuditConfig
    records: tuple[BoundAuditRecord, ...]
    summary: BoundAuditSummary


def _zero_expectation_state(lb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit vector v with <v|lb|v> = 0, mixing the extreme eigenvectors."""
    values, vectors = np.linalg.eigh(lb)
    low, high = float(values[0]), float(values[-1])
    span = high - low
    weight_low = high / span
    weight_high = -low / span
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    v = np.sqrt(weight_low) * vectors[:, 0] + phase * np.sqrt(weight_high) * vectors[:, -1]
    return v / np.linalg.norm(v)


def _traceless_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian with zero trace and a guaranteed sign-indefinite spectrum."""
    d = rng.uniform(0.5, 2.0, dim)
    d = d - d.mean()
    if d.max() < 1e-6 or d.min() > -1e-6:  # ruled out a.s.; keep the spectrum indefinite
        d[0] -= 1.0
        d[-1] += 1.0
        d = d - d.mean()
    w = haar_unitary(dim, rng)
    h = (w * d) @ dagger(w)
    return (h + dagger(h)) / 2.0


def bound_audit_sweep(config: AuditConfig) -> BoundAuditReport:
    """Seeded audit of every bound on random conserving instances.

    Trials cycle deterministically through four regimes so the conditional
    bounds get exercised: odd trials use a probe commuting with the apparatus
    factor (Yanase condition), and trials with index 2 or 3 mod 4 use a
    traceless apparatus factor together with a ready state of zero
    expectation (the simplified regime; positivity is not required here).
    Each trial derives its stream from (seed, index).
    """
    n1, n2 = config.n1, config.n2
    records = []
    eye_basis = np.eye(n1, dtype=complex)
    for trial in range(config.count):
        rng = np.random.default_rng((config.seed, trial))
        yanase_mode = trial % 2 == 1
        zero_mode = trial % 4 >= 2

        la = random_positive_operator(n1, rng)
        lb = _traceless_hermitian(n2, rng) if zero_mode else random_positive_operator(n2, rng)
        q = ConservedQuantity("multiplicative", la, lb)
        interaction = commutant_unitary(conserved_eigenspaces(q), rng)
        ready = _zero_expectation_state(lb, rng) if zero_mode else random_state_vector(n2, rng)
        m = MeasurementModel(n1, n2, eye_basis, ready, interaction)

        observable = random_hermitian(n1, rng)
        if yanase_mode:
            _, lb_vecs = np.linalg.eigh(lb)
            probe = (lb_vecs * rng.uniform(-1.0, 1.0, n2)) @ dagger(lb_vecs)
            probe = (probe + dagger(probe)) / 2.0
        else:
            probe = random_hermitian(n2, rng)
        psi = random_state_vector(n1, rng)

        report = noise_report(m, q, observable, probe, psi, config.tol)
        eps = report.epsilon_sq
        records.append(
            BoundAuditRecord(
                trial=trial,
                n1=n1,
                n2=n2,
                epsilon_sq=eps,
                robertson_bound=report.robertson.bound,
                robertson_degenerate=report.robertson.degenerate,
                paper_bound=report.paper.bound,
                paper_defined=report.paper.defined,
                yanase_applicable=report.yanase.applicable,
                yanase_bound=report.yanase.bound,
                yanase_defined=report.yanase.defined,
                simplified_applicable=report.simplified.applicable,
                simplified_bound=report.simplified.bound,
                simplified_defined=report.simplified.defined,
                robertson_valid=report.robertson.bound <= eps + VALIDITY_SLACK,
                paper_valid=report.paper.valid,
                yanase_valid=report.yanase.valid,
                simplified_valid=report.simplified.valid,
            )
        )

    def tally(field: str, value: bool) -> int:
        # a flag is False only where its bound applies and is defined
        return sum(getattr(r, field) == value for r in records)

    def fraction(violations: int, denominator: int) -> float:
        return violations / denominator if denominator else 0.0

    robertson_violations = tally("robertson_valid", False)
    paper_defined, paper_violations = tally("paper_defined", True), tally("paper_valid", False)
    yanase_applicable, yanase_degenerate = tally("yanase_applicable", True), tally("yanase_defined", False)
    yanase_violations = tally("yanase_valid", False)
    simplified_applicable = tally("simplified_applicable", True)
    simplified_degenerate = tally("simplified_defined", False)
    simplified_violations = tally("simplified_valid", False)
    summary = BoundAuditSummary(
        robertson_violations=robertson_violations,
        robertson_degenerate=tally("robertson_degenerate", True),
        robertson_violation_fraction=fraction(robertson_violations, config.count),
        paper_defined=paper_defined,
        paper_undefined=config.count - paper_defined,
        paper_violations=paper_violations,
        paper_violation_fraction=fraction(paper_violations, paper_defined),
        yanase_applicable=yanase_applicable,
        yanase_degenerate=yanase_degenerate,
        yanase_violations=yanase_violations,
        yanase_violation_fraction=fraction(yanase_violations, yanase_applicable - yanase_degenerate),
        simplified_applicable=simplified_applicable,
        simplified_degenerate=simplified_degenerate,
        simplified_violations=simplified_violations,
        simplified_violation_fraction=fraction(
            simplified_violations, simplified_applicable - simplified_degenerate
        ),
    )
    return BoundAuditReport(config=config, records=tuple(records), summary=summary)
