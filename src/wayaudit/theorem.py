"""Executable form of the no-go result for multiplicatively conserved quantities.

An observable measured exactly and nondestructively must commute with the
system factor of a conserved product quantity, provided the apparatus factor
has maximal rank, both factors have strictly positive spectra, and the
apparatus dimension is below twice the system dimension. This module turns
each hypothesis and the conclusion into a residual check, reproduces the
matrix-element identity and the pointer-Gram rank argument numerically, and
runs seeded randomized sweeps that look for counterexamples (and must find
none).

The counterexample sweep evaluates its trials in chunks sized from D by
``linalg.SWEEP_CHUNK_BYTES``, as (chunk, ...) stacks: sampling
(``sample_instance_stack``), the model checks, the pointer analysis and the
commutator run once per chunk. Every trial keeps its own stream and draws in
two phases, its factors first, then its commutant blocks and ready state
once a stacked ``eigh`` has fixed its block sizes; so each record is the one
a trial-by-trial loop would give, bit for bit. ``sample_conserving_instance``
and ``pointer_analysis`` are batches of one over the same kernels.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .commutant import commutant_unitary  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
from .commutant import commutant_unitary_stack
from .errors import PreconditionError
from .linalg import (
    RANK_TOL,
    as_operator,
    column_records,
    commutator,
    commutator_stack,
    frobenius_norm,
    frobenius_norm_stack,
    gather_columns,
    numerical_rank,
    random_positive_operator_stack,
    random_state_vector_stack,
    require_hermitian,
    require_unit_norm,
    require_unitary,
    sweep_chunks,
)
from .model import (
    POINTER_DEGENERACY_TOL,
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_nondestructive,
    observable_in_basis,
    pointer_analysis,
    pointer_stack,
    require_conserved,
)

__all__ = [
    "COUNTEREXAMPLE_COMMUTATOR_TOL",
    "AssumptionCheck",
    "CounterexampleSweepReport",
    "GramRankReport",
    "IdentityResidualTable",
    "SweepTrial",
    "TheoremVerdict",
    "counterexample_sweep",
    "matrix_element_identity",
    "pointer_gram_rank",
    "require_sweep_inputs",
    "sample_conserving_instance",
    "sample_instance_stack",
    "theorem_verdict",
]

# A conforming scheme whose observable commutator exceeds this would falsify
# the no-go claim.
COUNTEREXAMPLE_COMMUTATOR_TOL = 1e-6


@dataclass(frozen=True)
class AssumptionCheck:
    """One named hypothesis with its figure of merit.

    ``residual`` semantics by name: conservation / nondestructive / exact are
    Frobenius or norm residuals (small is good); la_positive / lb_positive are
    the minimum eigenvalue (positive is good); lb_full_rank is the rank
    deficit; dimension_bound is the margin 2*n1 - n2 (positive is good).
    """

    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class TheoremVerdict:
    """Hypothesis checks plus the commutator conclusion.

    ``outcome`` is ``assumptions_violated`` when any hypothesis fails,
    ``consistent`` when all hold and the measured observable commutes with the
    system factor, and ``contradiction`` otherwise -- which would falsify the
    no-go claim and is expected never. ``strict_dimension_ok`` additionally
    reports the tighter margin n2 < 2*n1 - 1 suggested by the rank counting;
    the stated bound n2 < 2*n1 is the one that gates the verdict.
    """

    assumptions: tuple[AssumptionCheck, ...]
    commutator_norm: float
    outcome: str
    strict_dimension_ok: bool

    def assumption(self, name: str) -> AssumptionCheck:
        for check in self.assumptions:
            if check.name == name:
                return check
        raise KeyError(name)


def theorem_verdict(m: MeasurementModel, q: ConservedQuantity, tol: float = 1e-9) -> TheoremVerdict:
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "theorem_verdict requires a multiplicative quantity")
    la, lb = q.system_op, q.apparatus_op
    if la.shape[0] != m.n1 or lb.shape[0] != m.n2:
        raise ValueError("conserved quantity dimensions do not match the model")

    conserved = check_conserved(m, q, tol)
    rank = numerical_rank(lb, RANK_TOL)
    la_min = float(np.linalg.eigvalsh(la)[0])
    lb_min = float(np.linalg.eigvalsh(lb)[0])
    analysis = pointer_analysis(m)

    checks = (
        AssumptionCheck("conservation", conserved.residual, conserved.verdict),
        AssumptionCheck("lb_full_rank", float(m.n2 - rank), rank == m.n2),
        AssumptionCheck("la_positive", la_min, la_min > RANK_TOL),
        AssumptionCheck("lb_positive", lb_min, lb_min > RANK_TOL),
        AssumptionCheck("dimension_bound", float(2 * m.n1 - m.n2), m.n2 < 2 * m.n1),
        AssumptionCheck("nondestructive", analysis.leakage, analysis.leakage <= tol),
        AssumptionCheck("exact", analysis.deficit, analysis.deficit <= tol),
    )
    commutator_norm = frobenius_norm(commutator(observable_in_basis(m.system_basis), la))
    if all(c.passed for c in checks):
        outcome = "consistent" if commutator_norm <= tol else "contradiction"
    else:
        outcome = "assumptions_violated"
    return TheoremVerdict(
        assumptions=checks,
        commutator_norm=commutator_norm,
        outcome=outcome,
        strict_dimension_ok=m.n2 < 2 * m.n1 - 1,
    )


@dataclass(frozen=True)
class IdentityResidualTable:
    """Residuals R(i,j) = <u(i)|la|u(j)> * (<v|lb|v> - <v(i)|lb|v(j)>)."""

    residuals: np.ndarray
    max_abs: float


def matrix_element_identity(
    m: MeasurementModel, q: ConservedQuantity, tol: float = 1e-9
) -> IdentityResidualTable:
    """Residual table of the matrix-element consequence of conservation.

    For a nondestructive conserving model the table vanishes identically, so
    ``max_abs`` stays below 1e-8 for well-scaled operators. Preconditions are
    enforced and reported by name.
    """
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "matrix_element_identity requires a multiplicative quantity")
    nd = check_nondestructive(m, tol)
    if nd.error is not None or not nd.verdict:
        raise PreconditionError(
            "check_nondestructive", nd.error or f"leakage {nd.leakage:.3e} exceeds {tol:.3e}"
        )
    require_conserved(check_conserved(m, q, tol).residual, tol)

    basis = m.system_basis
    la_elems = basis.conj() @ q.system_op @ basis.T
    ready_expect = complex(np.vdot(m.ready_state, q.apparatus_op @ m.ready_state))
    pointers = nd.pointers
    pointer_elems = pointers.conj() @ q.apparatus_op @ pointers.T
    residuals = la_elems * (ready_expect - pointer_elems)
    return IdentityResidualTable(residuals, float(np.abs(residuals).max()))


@dataclass(frozen=True)
class GramRankReport:
    gram_lb: np.ndarray
    rank: int
    constant_case: bool


def pointer_gram_rank(lb: np.ndarray, pointers: np.ndarray, tol: float = 1e-9) -> GramRankReport:
    """Rank analysis of B(i,j) = <v(i)|lb|v(j)> for (n1, n2) pointer rows v(i).

    ``constant_case`` flags an all-entries-equal table, in which case the rank
    can be at most one; that consistency is asserted.
    """
    lb = as_operator(lb)
    ptrs = np.asarray(pointers, dtype=complex)
    gram_lb = ptrs.conj() @ lb @ ptrs.T
    rank = numerical_rank(gram_lb, RANK_TOL)
    constant_case = bool(np.abs(gram_lb - gram_lb[0, 0]).max() <= tol)
    if constant_case:
        assert rank <= 1, f"constant table reported rank {rank}"
    return GramRankReport(gram_lb, rank, constant_case)


def sample_instance_stack(n1: int, n2: int, rngs) -> tuple[np.ndarray, ...]:
    """Random sweep instances, one per stream, as (la, lb, interaction, ready) stacks.

    Each stream draws la's spectrum and Haar matrix, then lb's, then (once a
    stacked ``eigh`` of la (x) lb has fixed its block sizes) its commutant
    blocks, then the ready state: the draws of one trial-by-trial sample.
    """
    la = random_positive_operator_stack(n1, rngs)
    lb = random_positive_operator_stack(n2, rngs)
    require_hermitian(la, "system_op")
    require_hermitian(lb, "apparatus_op")
    interaction = commutant_unitary_stack(la, lb, rngs)
    ready = random_state_vector_stack(n2, rngs)
    require_unit_norm(ready, "ready_state")
    require_unitary(interaction, "interaction")
    return la, lb, interaction, ready


def sample_conserving_instance(
    n1: int, n2: int, rng: np.random.Generator
) -> tuple[MeasurementModel, ConservedQuantity]:
    """One random sweep instance: positive factors, a unitary from their
    commutant, a random ready state, and the computational measured basis."""
    la, lb, interaction, ready = (a[0] for a in sample_instance_stack(n1, n2, [rng]))
    q = ConservedQuantity("multiplicative", la, lb)
    return MeasurementModel(n1, n2, np.eye(n1, dtype=complex), ready, interaction), q


@dataclass(frozen=True)
class SweepTrial:
    trial: int
    leakage: float
    deficit: float
    commutator_norm: float
    degenerate_pointer: bool
    conforming: bool
    counterexample: bool


_TRIAL_FIELDS = tuple(f.name for f in fields(SweepTrial))


@dataclass(frozen=True)
class CounterexampleSweepReport:
    """A sweep's tallies and, unless a sink took them, its trials as columns.

    ``columns`` maps each ``SweepTrial`` field to its values over the trials;
    ``trials`` builds the records from them when read.
    """

    n1: int
    n2: int
    count: int
    seed: int
    tol: float
    columns: dict[str, list] = field(hash=False)
    conforming_count: int
    counterexamples: int
    max_conforming_commutator: float

    @property
    def trials(self) -> tuple[SweepTrial, ...]:
        return column_records(SweepTrial, self.columns)

    @property
    def no_counterexample(self) -> bool:
        return self.counterexamples == 0


def require_sweep_inputs(n1: int, n2: int, count: int, seed: int) -> None:
    """The input checks of ``counterexample_sweep``, in its order, for callers that check before sampling."""
    if n1 < 1:
        raise ValueError("n1 must be at least 1")
    if n2 < 1:
        raise ValueError("n2 must be at least 1")
    if not n2 < 2 * n1:
        raise ValueError(f"dimension precondition violated: n2 = {n2} must be < 2*n1 = {2 * n1}")
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def counterexample_sweep(
    n1: int, n2: int, count: int, seed: int, tol: float = 1e-9, sink: Callable[[dict], object] | None = None
) -> CounterexampleSweepReport:
    """Seeded randomized search for schemes that would falsify the no-go claim.

    Each trial draws positive-spectrum factors (Haar-conjugated uniform
    spectra in [0.5, 2.0]), a conserving unitary sampled from the commutant of
    their product, and a random ready state, then records the scheme quality
    and the observable commutator. A counterexample is a trial that is
    simultaneously nondestructive and exact within ``tol`` yet has commutator
    norm above ``COUNTEREXAMPLE_COMMUTATOR_TOL``. Trials derive independent
    streams from (seed, index), so the report is reproducible and
    order-independent. Its inputs are checked by ``require_sweep_inputs``.

    The tallies are taken chunk by chunk. Each chunk's columns go to
    ``sink(columns)`` as the chunk finishes, if a sink is given, and the report
    then keeps none; otherwise the report collects them.
    """
    require_sweep_inputs(n1, n2, count, seed)
    basis = np.eye(n1, dtype=complex)
    observable = observable_in_basis(basis)
    tallies = Counter()
    maxima = [0.0]  # commutator norms are >= 0

    def chunks():
        for indices, rngs in sweep_chunks(seed, count, n1 * n2):
            la, _, interaction, ready = sample_instance_stack(n1, n2, rngs)
            a = pointer_stack(basis, ready, interaction, POINTER_DEGENERACY_TOL)
            comm = frobenius_norm_stack(commutator_stack(observable, la))
            conforming = (a["leakage"] <= tol) & (a["deficit"] <= tol)
            counterexample = conforming & (comm > COUNTEREXAMPLE_COMMUTATOR_TOL)
            tallies.update(
                conforming=int(np.count_nonzero(conforming)), counterexamples=int(np.count_nonzero(counterexample))
            )
            if conforming.any():
                maxima.append(float(comm[conforming].max()))
            arrays = (a["leakage"], a["deficit"], comm, a["degenerate"].any(axis=1), conforming, counterexample)
            yield dict(zip(_TRIAL_FIELDS, (list(indices), *(array.tolist() for array in arrays))))

    columns = gather_columns(chunks(), sink)
    return CounterexampleSweepReport(
        n1=n1,
        n2=n2,
        count=count,
        seed=seed,
        tol=tol,
        columns=columns,
        conforming_count=tallies["conforming"],
        counterexamples=tallies["counterexamples"],
        max_conforming_commutator=max(maxima),
    )
