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
``noise_report`` checks its inputs in one order (``_instance``) and runs it on
a stack of one. The bound audit runs it on chunks of trials, sized from D by
``linalg.SWEEP_CHUNK_BYTES``, and keeps a two-phase draw order per trial
stream (see ``_audit_chunk``), so every record is the one a trial-by-trial
loop would give, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .commutant import commutant_unitary  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
from .commutant import commutant_unitary_stack
from .errors import PreconditionError
from .linalg import (
    FACTOR_SPECTRUM,
    as_operator,
    as_state,
    column_records,
    commutator_stack,
    dagger,
    frobenius_norm_stack,
    gather_columns,
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
    require_hermitian,
    require_unit_norm,
    require_unitary,
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
    require_conserved,
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
    "noise_report",
    "variance_identity_audit",
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


def _sized(a: np.ndarray, dim: int, name: str) -> np.ndarray:
    if a.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}")
    return a


def _operator_arg(m: MeasurementModel, name: str, a) -> np.ndarray:
    """The observable (on the system) or the probe (on the apparatus), coerced and checked."""
    a = _sized(as_operator(a), m.n1 if name == "observable" else m.n2, name)
    require_hermitian(a, name)
    return a


def _require_conserved(m: MeasurementModel, q: ConservedQuantity, tol: float) -> None:
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "noise bounds require a multiplicative quantity")
    require_conserved(check_conserved(m, q, tol).residual, tol)


def _noise_operator_stack(u: np.ndarray, observable: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """N = U^dag (1 (x) probe) U - observable (x) 1 on the joint space, for each member of (k, ...) stacks."""
    n1, n2 = observable.shape[-1], probe.shape[-1]
    evolved = dagger(u) @ tensor_product_stack(np.eye(n1, dtype=complex), probe) @ u
    return evolved - tensor_product_stack(observable, np.eye(n2, dtype=complex))


class _Stack:
    """A stack of k instances: each intermediate computed once, as a (k, ...) array.

    Every bound formula reads from here. Inputs are taken as valid:
    ``_instance`` checks them for one instance, and the audit sampler builds
    them valid.
    """

    def __init__(self, u, ready, observable, psi, probe, la, lb):
        self.u, self.ready, self.psi, self.la, self.lb = u, ready, psi, la, lb
        self.joint_state = product_state(psi, ready)
        self.noise = _noise_operator_stack(u, observable, probe)
        self.noise_state = matvec_stack(self.noise, self.joint_state)
        self.epsilon_sq = np.vecdot(self.noise_state, self.noise_state).real
        self.conserved = tensor_product_stack(la, lb)
        self.var_conserved = variance_stack(self.conserved, self.joint_state)
        self.var_la = variance_stack(la, psi)
        self.var_lb = variance_stack(lb, ready)
        self.factored_denominator = 4.0 * self.var_la * self.var_lb
        self.observable_commutator = commutator_stack(observable, la)
        self.observable_term = tensor_product_stack(self.observable_commutator, lb)
        self.probe_commutator = commutator_stack(probe, lb)


def _instance(m, q, observable, probe, psi, tol) -> _Stack:
    """One instance as a stack of one, after its input checks; the first failure raises.

    The checks run in one order: conservation, psi, the observable, then the probe.
    """
    _require_conserved(m, q, tol)
    psi = _sized(as_state(psi), m.n1, "psi")
    observable = _operator_arg(m, "observable", observable)
    probe = _operator_arg(m, "probe", probe)
    return _Stack(
        m.interaction[None], m.ready_state[None], observable[None], psi[None], probe[None],
        q.system_op[None], q.apparatus_op[None],
    )


class _Masked(NamedTuple):
    """A kernel column that reads None where ``keep`` is False."""

    values: np.ndarray
    keep: np.ndarray


def _column(column) -> list:
    """A kernel column (an array, or ``_Masked``) as a list of Python values."""
    if not isinstance(column, _Masked):
        return column.tolist()
    return [v if k else None for v, k in zip(column.values.tolist(), column.keep.tolist())]


def _tally(column, value: bool) -> int:
    """The entries of a bool kernel column equal to ``value``; None equals neither."""
    values, keep = column if isinstance(column, _Masked) else (column, True)
    return int(np.count_nonzero((values == value) & keep))


def _one(report, columns: dict):
    """The report of a stack of one from its per-instance kernel columns."""
    return report(**{name: _column(column)[0] for name, column in columns.items()})


def _abs_squares(z: np.ndarray) -> np.ndarray:
    """abs(z) ** 2 per entry as for a Python complex: libm ``hypot``, then ``pow``."""
    return squares(np.hypot(z.real, z.imag))


def _expectations(op: np.ndarray, state: np.ndarray) -> np.ndarray:
    """<s|op|s> for each operator and state of a stack."""
    return np.vecdot(state, matvec_stack(op, state))


def _ratio(numerator: np.ndarray, denominator: np.ndarray, defined: np.ndarray) -> np.ndarray:
    return np.divide(numerator, denominator, out=np.zeros_like(numerator), where=defined)


def _validity(x: _Stack, bound: np.ndarray, keep: np.ndarray) -> _Masked:
    return _Masked(bound <= x.epsilon_sq + VALIDITY_SLACK, keep)


@dataclass(frozen=True)
class RobertsonReport:
    """Exact uncertainty-chain bound: |<[N, L]>|^2 / (4 Var(L)).

    ``degenerate`` marks Var(L) <= 1e-12, where the bound is set to zero: an
    eigenstate of the conserved quantity forces the numerator to zero as well.
    ``valid`` compares the bound against epsilon^2; False falsifies the chain.
    """

    bound: float
    numerator: float
    var_conserved: float
    degenerate: bool
    valid: bool


def _robertson(x: _Stack) -> dict:
    js = x.joint_state
    comm_expect = np.vecdot(
        js, matvec_stack(x.noise, matvec_stack(x.conserved, js)) - matvec_stack(x.conserved, x.noise_state)
    )
    numerator = _abs_squares(comm_expect) / 4.0
    degenerate = x.var_conserved <= DEGENERACY_TOL
    bound = _ratio(numerator, x.var_conserved, ~degenerate)
    return {
        "bound": bound,
        "numerator": numerator,
        "var_conserved": x.var_conserved,
        "degenerate": degenerate,
        "valid": _validity(x, bound, np.ones_like(degenerate)),
    }


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
        "bound": _Masked(bound, defined),
        "defined": defined,
        "valid": _validity(x, bound, defined),
        "numerator": numerator,
        "denominator": x.factored_denominator,
    }


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
        "applicable": applicable,
        "bound": _Masked(bound, kept),
        "defined": _Masked(defined, applicable),
        "valid": _validity(x, bound, kept),
    }


def _yanase(x: _Stack) -> dict:
    applicable = ~(frobenius_norm_stack(x.probe_commutator) > YANASE_COMMUTATOR_TOL)
    numerator = _abs_squares(_expectations(x.observable_term, x.joint_state))
    return _conditional(x, applicable, numerator, x.factored_denominator)


@dataclass(frozen=True)
class SimplifiedBoundReport:
    """System-only bound |<psi|[observable, la]|psi>|^2 / (4 Var(la)), for a ready
    state with zero apparatus-factor expectation <v|lb|v> = 0."""

    applicable: bool
    bound: float | None
    defined: bool | None
    valid: bool | None


def _simplified(x: _Stack) -> dict:
    ready_expect = _expectations(x.lb, x.ready)
    applicable = ~(np.hypot(ready_expect.real, ready_expect.imag) > ZERO_EXPECTATION_TOL)
    numerator = _abs_squares(_expectations(x.observable_commutator, x.psi))
    return _conditional(x, applicable, numerator, 4.0 * x.var_la)


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


def variance_identity_audit(a, b, psi_a, psi_b, tol: float) -> VarianceAudit:
    a = as_operator(a)
    b = as_operator(b)
    psi_a = as_state(psi_a)
    psi_b = as_state(psi_b)
    require_hermitian(a, "a")
    require_hermitian(b, "b")
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
    x = _instance(m, q, observable, probe, psi, tol)
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
    """An audit's summary and, unless a sink took them, its trials as columns.

    ``columns`` maps each ``BoundAuditRecord`` field to its values over the
    trials; ``records`` builds the records from them when read.
    """

    config: AuditConfig
    columns: dict[str, list] = field(hash=False)
    summary: BoundAuditSummary

    @property
    def records(self) -> tuple[BoundAuditRecord, ...]:
        return column_records(BoundAuditRecord, self.columns)


def _apparatus_factors(n2: int, rngs, zero: np.ndarray) -> np.ndarray:
    """Apparatus factors: positive ones, or where ``zero`` holds traceless ones with a
    sign-indefinite spectrum. Both draw a spectrum, then a Haar unitary."""
    d = np.stack([rng.uniform(*FACTOR_SPECTRUM, n2) for rng in rngs])
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


def _audit_chunk(config: AuditConfig, trials: range, rngs) -> tuple[dict[str, list], dict[str, int]]:
    """One chunk of trials, drawn and evaluated as stacks: its ``BoundAuditRecord``
    columns, as lists, and its counts of the summary's tallies.

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
    require_hermitian(la, "system_op")
    require_hermitian(lb, "apparatus_op")
    interaction = commutant_unitary_stack(la, lb, rngs)
    lb_values, lb_vectors = np.linalg.eigh(lb)
    ready = _ready_states(lb_values, lb_vectors, rngs, zero_mode)
    require_unit_norm(ready, "ready_state")
    require_unitary(interaction, "interaction")
    observable = random_hermitian_stack(n1, rngs)
    probe = _probes(lb_vectors, rngs, yanase_mode)
    psi = random_state_vector_stack(n1, rngs)

    x = _Stack(interaction, ready, observable, psi, probe, la, lb)
    require_conserved(conservation_residual_stack(interaction, x.conserved), config.tol)
    robertson, paper, yanase, simplified = _robertson(x), _paper(x), _yanase(x), _simplified(x)
    columns = {
        "epsilon_sq": x.epsilon_sq,
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
        "robertson_valid": robertson["valid"],
        "paper_valid": paper["valid"],
        "yanase_valid": yanase["valid"],
        "simplified_valid": simplified["valid"],
    }
    # a flag is False only where its bound applies and is defined
    tallies = {
        "robertson_violations": _tally(robertson["valid"], False),
        "robertson_degenerate": _tally(robertson["degenerate"], True),
        "paper_defined": _tally(paper["defined"], True),
        "paper_violations": _tally(paper["valid"], False),
        "yanase_applicable": _tally(yanase["applicable"], True),
        "yanase_degenerate": _tally(yanase["defined"], False),
        "yanase_violations": _tally(yanase["valid"], False),
        "simplified_applicable": _tally(simplified["applicable"], True),
        "simplified_degenerate": _tally(simplified["defined"], False),
        "simplified_violations": _tally(simplified["valid"], False),
    }
    size = len(trials)
    lists = {"trial": list(trials), "n1": [n1] * size, "n2": [n2] * size}
    return {**lists, **{name: _column(column) for name, column in columns.items()}}, tallies


def _audit_summary(count: int, tallies: Counter) -> BoundAuditSummary:
    def fraction(kind: str, denominator: int) -> float:
        return tallies[f"{kind}_violations"] / denominator if denominator else 0.0

    t = tallies
    return BoundAuditSummary(
        **t,
        paper_undefined=count - t["paper_defined"],
        robertson_violation_fraction=fraction("robertson", count),
        paper_violation_fraction=fraction("paper", t["paper_defined"]),
        yanase_violation_fraction=fraction("yanase", t["yanase_applicable"] - t["yanase_degenerate"]),
        simplified_violation_fraction=fraction(
            "simplified", t["simplified_applicable"] - t["simplified_degenerate"]
        ),
    )


def bound_audit_sweep(config: AuditConfig, sink: Callable[[dict], object] | None = None) -> BoundAuditReport:
    """Seeded audit of every bound on random conserving instances.

    Trials cycle deterministically through four regimes so the conditional
    bounds get exercised: odd trials use a probe commuting with the apparatus
    factor (Yanase condition), and trials with index 2 or 3 mod 4 use a
    traceless apparatus factor together with a ready state of zero
    expectation (the simplified regime; positivity is not required here).
    Each trial derives its stream from (seed, index); trials run in chunks,
    as stacks (see ``_audit_chunk``), so a record does not depend on the
    chunk it falls in.

    The summary is tallied chunk by chunk. Each chunk's columns go to
    ``sink(columns)`` as the chunk finishes, if a sink is given, and the
    report then keeps none; otherwise the report collects them.
    """
    tallies = Counter()

    def chunks():
        for trials, rngs in sweep_chunks(config.seed, config.count, config.n1 * config.n2):
            chunk, counts = _audit_chunk(config, trials, rngs)
            tallies.update(counts)
            yield chunk

    columns = gather_columns(chunks(), sink)
    return BoundAuditReport(config=config, columns=columns, summary=_audit_summary(config.count, tallies))
