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
Every figure is read off the product state psi (x) v and U applied to three
product states, in the evolved frame, so nothing applies U^dag (see ``_Stack``).
``noise_report`` checks its inputs in one order (``_instance``) and runs it on
a stack of one, with its U applied as dense matvecs. The bound audit runs it on
chunks of trials through the sweeps' chunk loop (``linalg.run_sweep``). Each
trial calls its stream three times, whatever its regime (see ``_audit_chunk``),
so every record is the one a trial-by-trial loop would give, bit for bit. Each
chunk takes la's and lb's eigensystems from their draws (no ``eigh``), for the
commutant draw, the ready states and the probes, applies each U in factor
space and checks it there (``commutant.FactoredCommutant``), so it forms no
(D, D) stack, and names its columns after the bound kernels' outputs; its
chunks are sized by its standard normals, its largest per-trial stack.
``BoundAuditRecord``'s fields are the CSV schema. ``AuditConfig`` is the
sweeps' ``linalg.SweepConfig`` with n2 >= 2. One table, ``_KERNELS``, lists
the bound kinds in record order and drives each chunk's columns and tallies,
the summary, where each bound's violation fraction is its violations over the
trials it judged (those whose ``*_valid`` cell is not empty), and the CSV
summary row (``audit_summary_row``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .commutant import commutant_unitary  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
from .commutant import FactoredCommutant
from .errors import PreconditionError
from .linalg import (
    FACTOR_SPECTRUM,
    VERDICT_TOL,
    SweepConfig,
    SweepReport,
    as_hermitian,
    as_state,
    commutator_stack,
    frobenius_norm_stack,
    haar_unitary,  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
    hermitian_from_spectrum,
    image_variance_stack,
    matvec_stack,
    normal_draws,
    normalized_stack,
    product_state,
    random_hermitian_stack,
    random_state_vector_stack,
    require_hermitian,
    require_unit_norm,
    run_sweep,
    sized,
    spectral_operator_stack,
    uniform_draws,
)
from .model import ConservedQuantity, MeasurementModel, check_conserved, require_conserved

__all__ = [
    "AuditConfig",
    "BoundAuditRecord",
    "BoundAuditSummary",
    "ConditionalBoundReport",
    "NoiseReport",
    "PaperBoundReport",
    "RobertsonReport",
    "VarianceAudit",
    "audit_summary_row",
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


class _Stack:
    """A stack of k instances: each intermediate computed once, as a (k, ...) array.

    Every figure is read off s = psi (x) v and ``images``, U applied to three product states, in the
    evolved frame: with Phi the n1 x n2 reshape of U s, U N s = Phi probe^T - U ((observable psi) (x) v)
    and U L s = U ((la psi) (x) (lb v)), exact for a unitary U. Inputs are taken as valid: ``_instance``
    checks them for one instance, and the audit sampler builds them valid.
    """

    def __init__(self, images, ready, observable, psi, probe, la, lb):
        k, n1, n2 = len(psi), psi.shape[-1], ready.shape[-1]
        la_psi, lb_ready = matvec_stack(la, psi), matvec_stack(lb, ready)
        inputs = np.stack((psi, matvec_stack(observable, psi), la_psi), axis=1), np.stack((ready, ready, lb_ready), axis=1)
        evolved, observed, conserved = images(*inputs).reshape(k, 3, n1, n2).swapaxes(0, 1)
        self.noise_state = (evolved @ probe.mT - observed).reshape(k, -1)  # U N s
        self.epsilon_sq = np.vecdot(self.noise_state, self.noise_state).real
        self.conserved_state = conserved.reshape(k, -1)  # U L s
        self.var_conserved = image_variance_stack(product_state(psi, ready), product_state(la_psi, lb_ready))
        self.var_la = image_variance_stack(psi, la_psi)
        self.var_lb = image_variance_stack(ready, lb_ready)
        self.factored_denominator = 4.0 * self.var_la * self.var_lb
        self.probe_commutator = commutator_stack(probe, lb)
        self.ready_mean = np.vecdot(ready, lb_ready)  # <v|lb|v>
        # <psi|[observable, la]|psi>
        self.commutator_mean = np.vecdot(psi, matvec_stack(commutator_stack(observable, la), psi))
        self.product_mean = self.commutator_mean * self.ready_mean  # of [observable, la] (x) lb on psi (x) v
        # <phi|(la (x) [probe, lb]) phi>: (la (x) C) phi is la Phi C^T
        moved = la @ evolved @ self.probe_commutator.mT
        self.evolved_mean = np.vecdot(evolved.reshape(k, -1), moved.reshape(k, -1))


def _instance(m, q, observable, probe, psi, tol) -> _Stack:
    """One instance as a stack of one, after its input checks; the first failure raises.

    The checks run in one order: conservation, psi, the observable, then the probe.
    """
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "noise bounds require a multiplicative quantity")
    require_conserved(check_conserved(m, q, tol).residual, tol)
    psi = sized(as_state(psi, "psi"), m.n1, "psi")
    observable = as_hermitian(observable, m.n1, "observable")
    probe = as_hermitian(probe, m.n2, "probe")
    u = m.interaction[None, None]
    return _Stack(
        lambda a, b: matvec_stack(u, product_state(a, b)), m.ready_state[None], observable[None], psi[None],
        probe[None], q.system_op[None], q.apparatus_op[None],
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
    """abs(z) ** 2 per entry: libm ``hypot``, as for a Python complex, then its square."""
    magnitude = np.hypot(z.real, z.imag)
    return magnitude * magnitude


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
    # <[N, L]> = <N s|L s> - <L s|N s> = -2i Im z for z = <L s|N s> = <U L s|U N s>, s = psi (x) v
    z = np.vecdot(x.conserved_state, x.noise_state).imag
    numerator = z * z
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
    numerator = _abs_squares(x.product_mean - x.evolved_mean)
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
class ConditionalBoundReport:
    """A bound that holds only under a condition on the instance: the Yanase
    bound under [probe, lb] = 0, and the system-only bound
    |<psi|[observable, la]|psi>|^2 / (4 Var(la)) for a ready state with zero
    apparatus-factor expectation <v|lb|v> = 0.

    ``applicable`` is False when the instance fails the condition; ``defined``
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
    return _conditional(x, applicable, _abs_squares(x.product_mean), x.factored_denominator)


def _simplified(x: _Stack) -> dict:
    applicable = ~(np.hypot(x.ready_mean.real, x.ready_mean.imag) > ZERO_EXPECTATION_TOL)
    return _conditional(x, applicable, _abs_squares(x.commutator_mean), 4.0 * x.var_la)


# Each audited bound's kernel, by kind, in record order.
_KERNELS = {"robertson": _robertson, "paper": _paper, "yanase": _yanase, "simplified": _simplified}


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
    """Each claim holds when it misses ``lhs`` by at most ``tol * max(1, |lhs|)``."""
    psi_a, psi_b = as_state(psi_a, "psi_a"), as_state(psi_b, "psi_b")
    a, b = as_hermitian(a, len(psi_a), "a"), as_hermitian(b, len(psi_b), "b")
    a_psi, b_psi = a @ psi_a, b @ psi_b
    # each variance read off a state and its image, as ``_Stack``'s; Var(a (x) b) off (a psi_a) (x) (b psi_b)
    pairs = ((product_state(psi_a, psi_b), product_state(a_psi, b_psi)), (psi_a, a_psi), (psi_b, b_psi))
    lhs, var_a, var_b = (float(image_variance_stack(state[None], image[None])[0]) for state, image in pairs)
    mean_a = float(np.vdot(psi_a, a_psi).real)
    mean_b = float(np.vdot(psi_b, b_psi).real)
    paper_rhs = var_a * var_b
    corrected_rhs = var_a * var_b + var_a * mean_b**2 + mean_a**2 * var_b
    slack = tol * max(1.0, abs(lhs))
    return VarianceAudit(
        lhs=lhs,
        paper_rhs=paper_rhs,
        corrected_rhs=corrected_rhs,
        paper_claim_holds=abs(lhs - paper_rhs) <= slack,
        corrected_holds=abs(lhs - corrected_rhs) <= slack,
    )


@dataclass(frozen=True)
class NoiseReport:
    """Everything the `bound` command reports for one instance."""

    epsilon_sq: float
    robertson: RobertsonReport
    paper: PaperBoundReport
    yanase: ConditionalBoundReport
    simplified: ConditionalBoundReport
    var_conserved_exact: float
    var_product_claim: float


def noise_report(
    m: MeasurementModel, q: ConservedQuantity, observable, probe, psi, tol: float = VERDICT_TOL
) -> NoiseReport:
    """All four bounds from one pass over the instance's intermediates."""
    x = _instance(m, q, observable, probe, psi, tol)
    return NoiseReport(
        epsilon_sq=float(x.epsilon_sq[0]),
        robertson=_one(RobertsonReport, _robertson(x)),
        paper=_one(PaperBoundReport, _paper(x)),
        yanase=_one(ConditionalBoundReport, _yanase(x)),
        simplified=_one(ConditionalBoundReport, _simplified(x)),
        var_conserved_exact=float(x.var_conserved[0]),
        var_product_claim=float(x.var_la[0] * x.var_lb[0]),
    )


class AuditConfig(SweepConfig):
    """A bound audit's inputs: a ``SweepConfig`` whose ``n2`` is at least 2."""

    def check_n2(self) -> None:
        if self.n2 < 2:
            raise ValueError("n2 must be at least 2: the zero-expectation regime needs two eigenvalues")


@dataclass(frozen=True)
class BoundAuditRecord:
    """One audit trial; its fields, in order, are the bound-audit CSV columns."""

    trial: int
    n1: int
    n2: int
    epsilon_sq: float
    robertson_bound: float
    paper_bound: float | None
    paper_defined: bool
    yanase_applicable: bool
    yanase_bound: float | None
    simplified_applicable: bool
    simplified_bound: float | None
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

    @property
    def falsified(self) -> bool:
        """A Robertson violation falsifies the exact chain; the factored bounds are only audited."""
        return self.robertson_violations > 0


def _apparatus_spectra(d: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The apparatus factors' drawn spectra (positive), centered where ``zero`` holds: a traceless,
    sign-indefinite spectrum."""
    centered = d - d.mean(axis=1, keepdims=True)
    for i in np.flatnonzero(zero & ((centered.max(axis=1) < 1e-6) | (centered.min(axis=1) > -1e-6))):
        row = centered[i]  # ruled out a.s.; keep the spectrum indefinite
        row[0] -= 1.0
        row[-1] += 1.0
        centered[i] = row - row.mean()
    return np.where(zero[:, None], centered, d)


def _ready_states(values, vectors, phase, normals, zero: np.ndarray) -> np.ndarray:
    """Random ready states from their (k, 2, n2) normals, or where ``zero`` holds a unit vector v with
    <v|lb|v> = 0 mixing lb's extreme eigenvectors with the (k, 1) drawn phase."""
    ready = np.empty(values.shape, dtype=complex)
    mixed, plain = np.flatnonzero(zero), np.flatnonzero(~zero)
    if len(mixed):
        low, high = values[mixed, 0], values[mixed, -1]
        span = high - low
        v = np.sqrt(high / span)[:, None] * vectors[mixed, :, 0]
        weight = np.exp(1j * phase[mixed, 0]) * np.sqrt(-low / span)
        ready[mixed] = normalized_stack(v + weight[:, None] * vectors[mixed, :, -1])
    if len(plain):
        ready[plain] = random_state_vector_stack(normals[plain])
    return ready


def _probes(vectors, spectra, normals, yanase: np.ndarray) -> np.ndarray:
    """Random Hermitian probes from their (k, 2, n2, n2) normals, or where ``yanase`` holds probes
    diagonal in lb's eigenbasis (so they commute with lb) with their (k, n2) drawn spectrum in [-1, 1]."""
    probes = np.empty(vectors.shape, dtype=complex)
    diagonal, plain = np.flatnonzero(yanase), np.flatnonzero(~yanase)
    if len(diagonal):
        probes[diagonal] = hermitian_from_spectrum(spectra[diagonal], vectors[diagonal])
    if len(plain):
        probes[plain] = random_hermitian_stack(normals[plain])
    return probes


_RECORD_FIELDS = tuple(f.name for f in fields(BoundAuditRecord))


def _audit_chunk(config: AuditConfig, trials: range, rngs) -> tuple[dict[str, list], dict[str, int]]:
    """One chunk of trials, drawn and evaluated as stacks: its ``BoundAuditRecord``
    columns, as lists, and its counts of the summary's tallies.

    Each trial's stream is called three times, whatever its regime, which only chooses the
    values it reads: ``random`` for la's spectrum, lb's, the ready state's phase and the Yanase
    probe's spectrum; ``standard_normal`` for la's Ginibre matrix, lb's, the ready state, the
    observable, the probe and psi; and, once the factors' drawn eigensystems have fixed its
    block sizes, ``standard_normal`` for its commutant blocks. So each record is the one a
    trial-by-trial loop would give, bit for bit.
    """
    n1, n2 = config.n1, config.n2
    index = np.asarray(trials)
    zero_mode, yanase_mode = index % 4 >= 2, index % 2 == 1
    la_spectrum, lb_spectrum, phase, probe_spectrum = uniform_draws(
        rngs, (*FACTOR_SPECTRUM, n1), (*FACTOR_SPECTRUM, n2), (0.0, 2.0 * np.pi, 1), (-1.0, 1.0, n2)
    )
    la_normals, lb_normals, ready_normals, observable_normals, probe_normals, psi_normals = normal_draws(
        rngs, (2, n1, n1), (2, n2, n2), (2, n2), (2, n1, n1), (2, n2, n2), (2, n1)
    )
    la, la_eigensystem = spectral_operator_stack(la_spectrum, la_normals)
    lb, (lb_values, lb_vectors) = spectral_operator_stack(_apparatus_spectra(lb_spectrum, zero_mode), lb_normals)
    require_hermitian(la, "system_op")
    require_hermitian(lb, "apparatus_op")
    interaction = FactoredCommutant(la_eigensystem, (lb_values, lb_vectors), rngs)
    ready = _ready_states(lb_values, lb_vectors, phase, ready_normals, zero_mode)
    require_unit_norm(ready, "ready_state")
    interaction.require_valid(config.tol)
    observable = random_hermitian_stack(observable_normals)
    probe = _probes(lb_vectors, probe_spectrum, probe_normals, yanase_mode)
    psi = random_state_vector_stack(psi_normals)
    x = _Stack(interaction.images, ready, observable, psi, probe, la, lb)
    columns = {f"{kind}_{name}": column for kind, kernel in _KERNELS.items() for name, column in kernel(x).items()}
    # a bound judges the trials whose *_valid cell is not empty, and is False only where violated
    tallies = {f"{kind}_violations": _tally(columns[f"{kind}_valid"], False) for kind in _KERNELS}
    tallies.update({f"{kind}_judged": int(np.count_nonzero(columns[f"{kind}_valid"].keep)) for kind in _KERNELS})
    tallies.update(
        robertson_degenerate=_tally(columns["robertson_degenerate"], True),
        paper_defined=_tally(columns["paper_defined"], True),
        paper_undefined=_tally(columns["paper_defined"], False),
        yanase_applicable=_tally(columns["yanase_applicable"], True),
        yanase_degenerate=_tally(columns["yanase_defined"], False),
        simplified_applicable=_tally(columns["simplified_applicable"], True),
        simplified_degenerate=_tally(columns["simplified_defined"], False),
    )
    columns.update(trial=index, n1=np.full(len(index), n1), n2=np.full(len(index), n2), epsilon_sq=x.epsilon_sq)
    return {name: _column(columns[name]) for name in _RECORD_FIELDS}, tallies


def _audit_summary(**t: int) -> BoundAuditSummary:
    """The summary of the sweep's tallies: each bound's violation fraction is its violations
    over the trials it judged, or 0.0 when it judged none."""
    judged = {kind: t.pop(f"{kind}_judged") for kind in _KERNELS}
    fractions = {f"{k}_violation_fraction": t[f"{k}_violations"] / n if n else 0.0 for k, n in judged.items()}
    return BoundAuditSummary(**t, **fractions)


def audit_summary_row(config: AuditConfig, summary: BoundAuditSummary) -> dict[str, list]:
    """The bound-audit CSV's last row, in the record's schema: each *_bound column holds its
    bound's violation fraction, each *_valid column its violation count, and paper_defined
    and the *_applicable columns their counts."""
    row = {"trial": "summary", "n1": config.n1, "n2": config.n2, "epsilon_sq": None}
    for kind in _KERNELS:
        row[f"{kind}_bound"] = getattr(summary, f"{kind}_violation_fraction")
        row[f"{kind}_valid"] = getattr(summary, f"{kind}_violations")
    for name in ("paper_defined", "yanase_applicable", "simplified_applicable"):
        row[name] = getattr(summary, name)
    return {name: [value] for name, value in row.items()}


def bound_audit_sweep(config: AuditConfig, sink: Callable[[dict], object] | None = None) -> SweepReport:
    """Seeded audit of every bound on random conserving instances.

    Trials cycle deterministically through four regimes so the conditional
    bounds get exercised: odd trials use a probe commuting with the apparatus
    factor (Yanase condition), and trials with index 2 or 3 mod 4 use a
    traceless apparatus factor together with a ready state of zero
    expectation (the simplified regime; positivity is not required here).
    Each trial derives its stream from (seed, index); trials run in chunks,
    as stacks (see ``_audit_chunk``), so a record does not depend on the
    chunk it falls in. The summary is tallied chunk by chunk; ``sink`` takes each
    chunk's columns as ``linalg.run_sweep`` says.
    """
    n1, n2 = config.n1, config.n2
    # its largest per-trial stack: its standard normals, as complex entries (2 n1^2 + 2 n2^2 >= 4 n1 n2 > 3 n1 n2)
    stack = (2 * n1 * n1 + 2 * n2 * n2 + n1 + n2,)
    return run_sweep(config, _audit_chunk, stack, BoundAuditRecord, _audit_summary, sink)
