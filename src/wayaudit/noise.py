"""Measurement-noise lower bounds and their numerical audit.

The noise operator is the Heisenberg-picture difference between the evolved
probe observable and the target observable; its squared expectation on the
joint initial state is the noise figure epsilon^2. The uncertainty-relation
chain epsilon^2 >= Var(N) >= |<[N, L]>|^2 / (4 Var(L)) holds unconditionally
for a conserved L and is enforced as such. The factored bounds that replace
Var(L) with the product of single-factor variances are treated as hypotheses:
they are computed, compared against epsilon^2, and their violation fractions
are reported rather than asserted.

One engine evaluates instances as (k, ...) stacks: ``_Stack`` computes every
intermediate once for k instances and the four bound kernels read from it.
``noise_report``, the four bound functions and ``epsilon_sq`` check their
inputs in their own order and run it on a stack of one. The bound audit
runs it on chunks of trials, sized from D by ``linalg.SWEEP_CHUNK_BYTES``,
and keeps a two-phase draw order per trial stream (see ``_audit_chunk``), so
every record is the one a trial-by-trial loop would give, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import commutant_unitary  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
from .commutant import commutant_unitary_stack
from .errors import PreconditionError
from .linalg import (
    as_operator,
    as_state,
    commutator_stack,
    dagger,
    frobenius_norm,
    frobenius_norm_stack,
    ginibre_stack,
    haar_from_ginibre,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_from_spectrum,
    matvec_stack,
    normalized_stack,
    product_state,
    random_hermitian_stack,
    random_positive_operator_stack,
    random_state_vector_stack,
    squares,
    sweep_chunks,
    tensor_product,
    tensor_product_stack,
    variance,
    variance_stack,
)
from .model import (
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    conservation_residual_stack,
    require_hermitian_factors,
    require_model_stack,
)

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
    _require_residuals(np.array([check_conserved(m, q, tol).residual]), tol)


def _require_residuals(residual: np.ndarray, tol: float) -> None:
    """The conservation precondition for a stack of residuals; the first failure raises."""
    failed = ~(residual <= tol)
    if failed.any():
        raise PreconditionError("check_conserved", f"residual {residual[failed][0]:.3e} exceeds {tol:.3e}")


def _noise_operator_stack(u: np.ndarray, observable: np.ndarray, probe: np.ndarray) -> np.ndarray:
    n1, n2 = observable.shape[-1], probe.shape[-1]
    evolved = dagger(u) @ tensor_product_stack(np.eye(n1, dtype=complex), probe) @ u
    return evolved - tensor_product_stack(observable, np.eye(n2, dtype=complex))


def noise_operator(m: MeasurementModel, observable, probe) -> np.ndarray:
    """N = U^dag (1 (x) probe) U - observable (x) 1 on the joint space."""
    observable = _hermitian_arg(observable, m.n1, "observable")
    probe = _hermitian_arg(probe, m.n2, "probe")
    return _noise_operator_stack(m.interaction, observable, probe)


# Input checks in the order each entry point runs them; the first failure raises.
_REPORT_CHECKS = ("psi", "observable", "probe", "conserved")
_EPSILON_CHECKS = ("psi", "observable", "probe")
_ROBERTSON_CHECKS = ("conserved", "psi", "observable", "probe")
_FACTORED_CHECKS = ("conserved", "observable", "probe", "psi")
_SIMPLIFIED_CHECKS = ("conserved", "observable", "psi", "probe")


class _Stack:
    """A stack of k instances: each intermediate computed once, as a (k, ...) array.

    Every bound formula reads from here. Without probes only ``epsilon_sq``
    (None) of the noise intermediates is set; without factors (for
    ``epsilon_sq`` alone) none of the conserved-quantity ones are. Inputs are
    taken as valid: ``_instance`` checks them for one instance, and the audit
    sampler builds them valid.
    """

    def __init__(self, u, ready, observable, psi, probe=None, la=None, lb=None):
        self.u, self.ready, self.psi, self.la, self.lb = u, ready, psi, la, lb
        self.joint_state = product_state(psi, ready)
        self.epsilon_sq = None
        if probe is not None:
            self.noise = _noise_operator_stack(u, observable, probe)
            self.noise_state = matvec_stack(self.noise, self.joint_state)
            self.epsilon_sq = np.vecdot(self.noise_state, self.noise_state).real
        if la is None:
            return
        self.conserved = tensor_product_stack(la, lb)
        self.var_conserved = variance_stack(self.conserved, self.joint_state)
        self.var_la = variance_stack(la, psi)
        self.var_lb = variance_stack(lb, ready)
        self.factored_denominator = 4.0 * self.var_la * self.var_lb
        self.observable_commutator = commutator_stack(observable, la)
        self.observable_term = tensor_product_stack(self.observable_commutator, lb)
        if probe is not None:
            self.probe_commutator = commutator_stack(probe, lb)


def _instance(m, q, observable, probe, psi, tol, checks) -> _Stack:
    """One instance as a stack of one, after its input checks in the given order."""
    run = {
        "conserved": lambda: _require_conserved(m, q, tol),
        "psi": lambda: _state_arg(psi, m.n1),
        "observable": lambda: _hermitian_arg(observable, m.n1, "observable"),
        "probe": lambda: _hermitian_arg(probe, m.n2, "probe"),
    }
    checked = {name: run[name]() for name in checks}
    probe = checked.get("probe")
    factors = {} if q is None else {"la": q.system_op[None], "lb": q.apparatus_op[None]}
    return _Stack(
        m.interaction[None], m.ready_state[None], checked["observable"][None], checked["psi"][None],
        None if probe is None else probe[None], **factors,
    )


def _one(report, columns: dict):
    """The report of a stack of one from its per-instance columns."""
    return report(**{name: column[0] for name, column in columns.items()})


def _abs_squares(z: np.ndarray) -> np.ndarray:
    """abs(z) ** 2 per entry as for a Python complex: libm ``hypot``, then ``pow``."""
    return squares(np.hypot(z.real, z.imag))


def _expectations(op: np.ndarray, state: np.ndarray) -> np.ndarray:
    """<s|op|s> for each operator and state of a stack."""
    return np.vecdot(state, matvec_stack(op, state))


def _masked(values: np.ndarray, keep: np.ndarray) -> list:
    return [v if k else None for v, k in zip(values.tolist(), keep.tolist())]


def _ratio(numerator: np.ndarray, denominator: np.ndarray, defined: np.ndarray) -> np.ndarray:
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=defined)


def _validity(x: _Stack, bound: np.ndarray, keep: np.ndarray) -> list:
    if x.epsilon_sq is None:
        return [None] * len(bound)
    return _masked(bound <= x.epsilon_sq + VALIDITY_SLACK, keep)


def epsilon_sq(m: MeasurementModel, observable, probe, psi) -> float:
    """<N^2> on psi (x) ready_state; the squared state-dependent noise."""
    return float(_instance(m, None, observable, probe, psi, None, _EPSILON_CHECKS).epsilon_sq[0])


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


def _robertson(x: _Stack) -> dict:
    js = x.joint_state
    comm_expect = np.vecdot(
        js, matvec_stack(x.noise, matvec_stack(x.conserved, js)) - matvec_stack(x.conserved, x.noise_state)
    )
    numerator = _abs_squares(comm_expect) / 4.0
    degenerate = x.var_conserved <= DEGENERACY_TOL
    bound = _ratio(numerator, x.var_conserved, ~degenerate)
    return {
        "bound": bound.tolist(),
        "numerator": numerator.tolist(),
        "var_conserved": x.var_conserved.tolist(),
        "degenerate": degenerate.tolist(),
    }


def robertson_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> RobertsonReport:
    return _one(RobertsonReport, _robertson(_instance(m, q, observable, probe, psi, tol, _ROBERTSON_CHECKS)))


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


def _paper(x: _Stack) -> dict:
    evolved_term = dagger(x.u) @ tensor_product_stack(x.la, x.probe_commutator) @ x.u
    numerator = _abs_squares(_expectations(x.observable_term - evolved_term, x.joint_state))
    defined = x.factored_denominator > DEGENERACY_TOL
    bound = _ratio(numerator, x.factored_denominator, defined)
    return {
        "bound": _masked(bound, defined),
        "defined": defined.tolist(),
        "valid": _validity(x, bound, defined),
        "numerator": numerator.tolist(),
        "denominator": x.factored_denominator.tolist(),
    }


def paper_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> PaperBoundReport:
    return _one(PaperBoundReport, _paper(_instance(m, q, observable, probe, psi, tol, _FACTORED_CHECKS)))


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


def _conditional(x: _Stack, applicable, numerator, denominator) -> dict:
    """Columns of a bound that applies only where ``applicable`` holds."""
    defined = denominator > DEGENERACY_TOL
    bound = _ratio(numerator, denominator, defined)
    kept = applicable & defined
    return {
        "applicable": applicable.tolist(),
        "bound": _masked(bound, kept),
        "defined": _masked(defined, applicable),
        "valid": _validity(x, bound, kept),
    }


def _yanase(x: _Stack) -> dict:
    applicable = ~(frobenius_norm_stack(x.probe_commutator) > YANASE_COMMUTATOR_TOL)
    numerator = _abs_squares(_expectations(x.observable_term, x.joint_state))
    return _conditional(x, applicable, numerator, x.factored_denominator)


def yanase_bound(
    m: MeasurementModel, observable, probe, q: ConservedQuantity, psi, tol: float = 1e-9
) -> YanaseBoundReport:
    return _one(YanaseBoundReport, _yanase(_instance(m, q, observable, probe, psi, tol, _FACTORED_CHECKS)))


@dataclass(frozen=True)
class SimplifiedBoundReport:
    """System-only bound for a ready state with zero apparatus-factor expectation."""

    applicable: bool
    bound: float | None
    defined: bool | None
    valid: bool | None


def _simplified(x: _Stack) -> dict:
    ready_expect = _expectations(x.lb, x.ready)
    applicable = ~(np.hypot(ready_expect.real, ready_expect.imag) > ZERO_EXPECTATION_TOL)
    numerator = _abs_squares(_expectations(x.observable_commutator, x.psi))
    return _conditional(x, applicable, numerator, 4.0 * x.var_la)


def simplified_bound(
    m: MeasurementModel, observable, q: ConservedQuantity, psi, probe=None, tol: float = 1e-9
) -> SimplifiedBoundReport:
    """|<psi|[observable, la]|psi>|^2 / (4 Var(la)) when <v|lb|v> = 0.

    The validity flag needs epsilon^2 and therefore a probe; without one the
    flag is None and only the bound is reported.
    """
    checks = _SIMPLIFIED_CHECKS if probe is not None else _SIMPLIFIED_CHECKS[:-1]
    return _one(SimplifiedBoundReport, _simplified(_instance(m, q, observable, probe, psi, tol, checks)))


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
    x = _instance(m, q, observable, probe, psi, tol, _REPORT_CHECKS)
    return NoiseReport(
        epsilon_sq=float(x.epsilon_sq[0]),
        robertson=_one(RobertsonReport, _robertson(x)),
        paper=_one(PaperBoundReport, _paper(x)),
        yanase=_one(YanaseBoundReport, _yanase(x)),
        simplified=_one(SimplifiedBoundReport, _simplified(x)),
        var_conserved_exact=float(x.var_conserved[0]),
        var_product_claim=float(x.var_la[0] * x.var_lb[0]),
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


def _apparatus_factors(n2: int, rngs, zero: np.ndarray) -> np.ndarray:
    """Apparatus factors: positive ones, or where ``zero`` holds traceless ones with a
    sign-indefinite spectrum. Both draw a spectrum, then a Haar unitary."""
    d = np.stack([rng.uniform(0.5, 2.0, n2) for rng in rngs])
    w = haar_from_ginibre(ginibre_stack(n2, rngs))
    centered = d - d.mean(axis=1, keepdims=True)
    for i in np.flatnonzero(zero & ((centered.max(axis=1) < 1e-6) | (centered.min(axis=1) > -1e-6))):
        row = centered[i]  # ruled out a.s.; keep the spectrum indefinite
        row[0] -= 1.0
        row[-1] += 1.0
        centered[i] = row - row.mean()
    return hermitian_from_spectrum(np.where(zero[:, None], centered, d), w)


def _ready_states(values: np.ndarray, vectors: np.ndarray, rngs, zero: np.ndarray) -> np.ndarray:
    """Random ready states, or where ``zero`` holds a unit vector v with <v|lb|v> = 0
    mixing lb's extreme eigenvectors with a drawn phase."""
    ready = np.empty(values.shape, dtype=complex)
    mixed, plain = np.flatnonzero(zero), np.flatnonzero(~zero)
    if len(mixed):
        phase = np.exp(1j * np.array([rngs[i].uniform(0.0, 2.0 * np.pi) for i in mixed]))
        low, high = values[mixed, 0], values[mixed, -1]
        span = high - low
        v = np.sqrt(high / span)[:, None] * vectors[mixed, :, 0]
        ready[mixed] = normalized_stack(v + (phase * np.sqrt(-low / span))[:, None] * vectors[mixed, :, -1])
    if len(plain):
        ready[plain] = random_state_vector_stack(values.shape[1], [rngs[i] for i in plain])
    return ready


def _probes(vectors: np.ndarray, rngs, yanase: np.ndarray) -> np.ndarray:
    """Random Hermitian probes, or where ``yanase`` holds probes diagonal in lb's
    eigenbasis (so they commute with lb) with a drawn spectrum in [-1, 1]."""
    probes = np.empty(vectors.shape, dtype=complex)
    diagonal, plain = np.flatnonzero(yanase), np.flatnonzero(~yanase)
    n2 = vectors.shape[1]
    if len(diagonal):
        spectra = np.stack([rngs[i].uniform(-1.0, 1.0, n2) for i in diagonal])
        probes[diagonal] = hermitian_from_spectrum(spectra, vectors[diagonal])
    if len(plain):
        probes[plain] = random_hermitian_stack(n2, [rngs[i] for i in plain])
    return probes


def _audit_chunk(config: AuditConfig, trials: range, rngs) -> list[BoundAuditRecord]:
    """The records of one chunk of trials, drawn and evaluated as stacks.

    Draw-order invariant: each trial's stream draws exactly what, and in the
    order, a trial-by-trial loop would. Phase A draws the factors' spectra and
    Haar matrices; one stacked ``eigh`` of la (x) lb then fixes each trial's
    block sizes, and phase B draws the blocks' Ginibre matrices, the ready
    state, the observable, the probe and psi.
    """
    n1, n2 = config.n1, config.n2
    index = np.asarray(trials)
    zero_mode, yanase_mode = index % 4 >= 2, index % 2 == 1
    la = random_positive_operator_stack(n1, rngs)
    lb = _apparatus_factors(n2, rngs, zero_mode)
    require_hermitian_factors(system_op=la, apparatus_op=lb)
    interaction = commutant_unitary_stack(la, lb, rngs)
    lb_values, lb_vectors = np.linalg.eigh(lb)
    ready = _ready_states(lb_values, lb_vectors, rngs, zero_mode)
    require_model_stack(ready, interaction)
    observable = random_hermitian_stack(n1, rngs)
    probe = _probes(lb_vectors, rngs, yanase_mode)
    psi = random_state_vector_stack(n1, rngs)

    x = _Stack(interaction, ready, observable, psi, probe, la, lb)
    _require_residuals(conservation_residual_stack(interaction, x.conserved), config.tol)
    eps = x.epsilon_sq.tolist()
    robertson, paper, yanase, simplified = _robertson(x), _paper(x), _yanase(x), _simplified(x)
    columns = {
        "trial": list(trials),
        "epsilon_sq": eps,
        "robertson_bound": robertson["bound"],
        "robertson_degenerate": robertson["degenerate"],
        "paper_bound": paper["bound"],
        "paper_defined": paper["defined"],
        "yanase_applicable": yanase["applicable"],
        "yanase_bound": yanase["bound"],
        "yanase_defined": yanase["defined"],
        "simplified_applicable": simplified["applicable"],
        "simplified_bound": simplified["bound"],
        "simplified_defined": simplified["defined"],
        "robertson_valid": [b <= e + VALIDITY_SLACK for b, e in zip(robertson["bound"], eps)],
        "paper_valid": paper["valid"],
        "yanase_valid": yanase["valid"],
        "simplified_valid": simplified["valid"],
    }
    return [BoundAuditRecord(n1=n1, n2=n2, **dict(zip(columns, row))) for row in zip(*columns.values())]


def bound_audit_sweep(config: AuditConfig) -> BoundAuditReport:
    """Seeded audit of every bound on random conserving instances.

    Trials cycle deterministically through four regimes so the conditional
    bounds get exercised: odd trials use a probe commuting with the apparatus
    factor (Yanase condition), and trials with index 2 or 3 mod 4 use a
    traceless apparatus factor together with a ready state of zero
    expectation (the simplified regime; positivity is not required here).
    Each trial derives its stream from (seed, index); trials run in chunks,
    as stacks (see ``_audit_chunk``), so a record does not depend on the
    chunk it falls in.
    """
    records = []
    for trials, rngs in sweep_chunks(config.seed, config.count, config.n1 * config.n2):
        records += _audit_chunk(config, trials, rngs)

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
