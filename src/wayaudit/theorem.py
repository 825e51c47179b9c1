"""Executable form of the no-go result for multiplicatively conserved quantities.

An observable measured exactly and nondestructively must commute with the
system factor of a conserved product quantity, provided the apparatus factor
has maximal rank, both factors have strictly positive spectra, and the
apparatus dimension is below twice the system dimension. This module turns
each hypothesis and the conclusion into a residual check, reproduces the
matrix-element identity and the pointer-Gram rank argument numerically, and
runs seeded randomized sweeps that look for counterexamples (and must find
none).

The counterexample sweep evaluates its trials through the sweeps' chunk
loop (``linalg.run_sweep``), as (chunk, ...) stacks: sampling
(``sample_instance_stack``), the checks, the pointer analysis and the
commutator run once per chunk (``_sweep_chunk``), which forms only what its
records read: la, for the commutator, read off la entry by entry since the
observable is diagonal, and no lb, whose drawn eigensystem the commutant takes
and checks. Every trial keeps its own
stream, walked once per chunk (``linalg.stream_draws``): one ``random`` call
for its factors' spectra, one ``standard_normal`` call for their Ginibre
matrices, its ready state and its first 2 D commutant block normals, and,
only where the factors' eigensystems, known from their draws, give it a block
above size 1 (see ``commutant``), a third call for the rest of its blocks'
normals. Its stream consumption is unchanged, so each record is the one a
trial-by-trial loop would give, bit for bit. The bound audit's trials begin
with the same draws. The chunk reads its pointer blocks off U's images of the
inputs e(j) (x) v, the measured basis being the identity, with U applied and
checked in factor space (``commutant.FactoredCommutant``), so it forms no
(chunk, D, D) stack: no eigenvector matrix, no U and no U^dag U. Its chunks are sized by those (n1, n1,
n2) pointer blocks (``linalg.sweep_chunks``). ``CounterexampleConfig`` adds the
hypothesis n2 < 2 n1 to the sweeps' ``linalg.SweepConfig``, ``SweepTrial``'s
fields are the CSV schema, and ``CounterexampleSummary`` holds the tallies.
``sample_conserving_instance`` is a batch of one of the sampler, with its U
assembled and its lb formed; ``model.check_nondestructive`` hands the chunk's
pointer analysis the same layout, its U's ``images`` in the measured basis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .commutant import commutant_unitary  # noqa: F401  (kept bound here: bench/spans.py wraps it per namespace)
from .commutant import FactoredCommutant
from .errors import PreconditionError
from .linalg import (
    FACTOR_SPECTRUM,
    RANK_TOL,
    VERDICT_TOL,
    SweepConfig,
    SweepReport,
    as_operator,
    commutator,
    frobenius_norm_stack,
    ginibre_stack,
    haar_from_ginibre,
    hermitian_from_spectrum,
    numerical_rank,
    random_state_vector_stack,
    require_hermitian,
    require_unit_norm,
    run_sweep,
    sorted_eigensystem,
    spectral_operator_stack,
    stream_draws,
)
from .model import (
    POINTER_DEGENERACY_TOL,
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_nondestructive,
    observable_in_basis,
    pointer_stack,
    require_conserved,
)

__all__ = [
    "COUNTEREXAMPLE_COMMUTATOR_TOL",
    "AssumptionCheck",
    "CounterexampleConfig",
    "CounterexampleSummary",
    "GramRankReport",
    "IdentityResidualTable",
    "SweepTrial",
    "TheoremVerdict",
    "counterexample_sweep",
    "matrix_element_identity",
    "pointer_gram_rank",
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


def theorem_verdict(m: MeasurementModel, q: ConservedQuantity, tol: float = VERDICT_TOL) -> TheoremVerdict:
    if q.kind != "multiplicative":
        raise PreconditionError("kind", "theorem_verdict requires a multiplicative quantity")
    la, lb = q.system_op, q.apparatus_op
    conserved = check_conserved(m, q, tol)
    rank = numerical_rank(lb, RANK_TOL)
    la_min = float(np.linalg.eigvalsh(la)[0])
    lb_min = float(np.linalg.eigvalsh(lb)[0])
    analysis = check_nondestructive(m, POINTER_DEGENERACY_TOL)

    checks = (
        AssumptionCheck("conservation", conserved.residual, conserved.verdict),
        AssumptionCheck("lb_full_rank", float(m.n2 - rank), rank == m.n2),
        AssumptionCheck("la_positive", la_min, la_min > RANK_TOL),
        AssumptionCheck("lb_positive", lb_min, lb_min > RANK_TOL),
        AssumptionCheck("dimension_bound", float(2 * m.n1 - m.n2), m.n2 < 2 * m.n1),
        AssumptionCheck("nondestructive", analysis.leakage, analysis.leakage <= tol),
        AssumptionCheck("exact", analysis.deficit, analysis.deficit <= tol),
    )
    commutator_norm = float(frobenius_norm_stack(commutator(observable_in_basis(m.system_basis), la)))
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
    m: MeasurementModel, q: ConservedQuantity, tol: float = VERDICT_TOL
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


def pointer_gram_rank(lb: np.ndarray, pointers: np.ndarray, tol: float = VERDICT_TOL) -> GramRankReport:
    """Rank analysis of B(i,j) = <v(i)|lb|v(j)> for (n1, n2) pointer rows v(i).

    ``constant_case`` flags an all-entries-equal table: each entry within ``tol``
    of B(0,0), and within s = RANK_TOL max|B| / (2 n1). Its rank is then at most
    one, as asserted: B = B(0,0) J + E with J all ones, so by Weyl's inequality
    sigma_2(B) <= ||E||_2 <= n1 s <= RANK_TOL sigma_1(B) / 2, half the rank
    cutoff, the other half covering the SVD's rounding.
    """
    lb = as_operator(lb)
    ptrs = np.asarray(pointers, dtype=complex)
    gram_lb = ptrs.conj() @ lb @ ptrs.T
    rank = numerical_rank(gram_lb, RANK_TOL)
    spread = np.abs(gram_lb - gram_lb[0, 0]).max()
    constant_case = bool(spread <= min(tol, RANK_TOL * np.abs(gram_lb).max() / (2 * len(gram_lb))))
    if constant_case:
        assert rank <= 1, f"constant table reported rank {rank}"
    return GramRankReport(gram_lb, rank, constant_case)


def sample_instance_stack(n1: int, n2: int, rngs) -> tuple:
    """Random sweep instances, one per stream: the (k, n1, n1) la stack, the conserving unitaries in
    factor space (``FactoredCommutant``) and the (k, n2) ready states.

    Each stream is walked once (``stream_draws``): ``random`` for la's spectrum, then lb's;
    ``standard_normal`` for la's Ginibre matrix, lb's, the ready state, then its first 2 D commutant
    block normals; and, once the factors' drawn eigensystems have fixed its block sizes, a third call
    for the rest of its blocks' normals if it has a block above size 1. These are the bound audit's
    first draws too. Only la is formed, and checked Hermitian: lb enters through its drawn
    eigensystem alone, whose eigenvectors ``FactoredCommutant.require_valid`` checks.
    """
    (la_spectrum, lb_spectrum), (la_normals, lb_normals, ready_normals, block_normals) = stream_draws(
        rngs, ((*FACTOR_SPECTRUM, n1), (*FACTOR_SPECTRUM, n2)), ((2, n1, n1), (2, n2, n2), (2, n2), (n1 * n2, 2))
    )
    la, la_eigensystem = spectral_operator_stack(la_spectrum, la_normals)
    require_hermitian(la, "system_op")
    lb_eigensystem = sorted_eigensystem(lb_spectrum, haar_from_ginibre(ginibre_stack(lb_normals)))
    interaction = FactoredCommutant(la_eigensystem, lb_eigensystem, rngs, block_normals)
    ready = random_state_vector_stack(ready_normals)
    require_unit_norm(ready, "ready_state")
    return la, interaction, ready


def sample_conserving_instance(
    n1: int, n2: int, rng: np.random.Generator
) -> tuple[MeasurementModel, ConservedQuantity]:
    """One random sweep instance: positive factors, a unitary from their
    commutant, a random ready state, and the computational measured basis.
    lb is formed from its drawn eigensystem, in ascending-eigenvalue order."""
    la, interaction, ready = sample_instance_stack(n1, n2, [rng])
    q = ConservedQuantity("multiplicative", la[0], hermitian_from_spectrum(*interaction.lb)[0])
    return MeasurementModel(n1, n2, np.eye(n1, dtype=complex), ready[0], interaction.assembled()[0]), q


@dataclass(frozen=True)
class SweepTrial:
    """One counterexample-sweep trial; its fields, in order, are the sweep's CSV columns."""

    trial: int
    leakage: float
    deficit: float
    commutator_norm: float
    degenerate_pointer: bool
    conforming: bool
    counterexample: bool


_TRIAL_FIELDS = tuple(f.name for f in fields(SweepTrial))


class CounterexampleConfig(SweepConfig):
    """A counterexample sweep's inputs; ``n2`` must also meet the dimension hypothesis n2 < 2 n1."""

    def check_n2(self) -> None:
        super().check_n2()
        if not self.n2 < 2 * self.n1:
            raise ValueError(f"dimension precondition violated: n2 = {self.n2} must be < 2*n1 = {2 * self.n1}")


@dataclass(frozen=True)
class CounterexampleSummary:
    """A counterexample sweep's tallies; a single counterexample falsifies the no-go claim."""

    conforming_count: int
    counterexamples: int
    max_conforming_commutator: float
    no_counterexample: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "no_counterexample", self.counterexamples == 0)

    @property
    def falsified(self) -> bool:
        return not self.no_counterexample


def _sweep_chunk(config: CounterexampleConfig, trials: range, rngs) -> tuple[dict[str, list], dict]:
    """One chunk of trials as stacks: its ``SweepTrial`` columns, as lists, and its tallies."""
    la, interaction, ready = sample_instance_stack(config.n1, config.n2, rngs)
    interaction.require_valid(config.tol)
    # the measured basis is the identity: the images of e(j) (x) v, already in it
    a = pointer_stack(interaction.images(None, ready[:, None]), POINTER_DEGENERACY_TOL)
    # and the observable (``observable_in_basis``) is diag(o), o = 1..n1: [O, la](i, j) = o_i la(i, j) - la(i, j) o_j,
    # the products and differences the two matrix products would form
    o = np.arange(1.0, config.n1 + 1.0)
    comm = frobenius_norm_stack(o[:, None] * la - la * o)
    conforming = (a["leakage"] <= config.tol) & (a["deficit"] <= config.tol)
    counterexample = conforming & (comm > COUNTEREXAMPLE_COMMUTATOR_TOL)
    tallies = {
        "conforming_count": int(np.count_nonzero(conforming)),
        "counterexamples": int(np.count_nonzero(counterexample)),
        "max_conforming_commutator": float(comm[conforming].max()) if conforming.any() else 0.0,  # norms are >= 0
    }
    arrays = (a["leakage"], a["deficit"], comm, a["degenerate"].any(axis=1), conforming, counterexample)
    return dict(zip(_TRIAL_FIELDS, (list(trials), *(array.tolist() for array in arrays)))), tallies


def counterexample_sweep(config: CounterexampleConfig, sink: Callable[[dict], object] | None = None) -> SweepReport:
    """Seeded randomized search for schemes that would falsify the no-go claim.

    Each trial draws positive-spectrum factors (Haar-conjugated uniform
    spectra in [0.5, 2.0]), a conserving unitary sampled from the commutant of
    their product, and a random ready state, then records the scheme quality
    and the observable commutator. A counterexample is a trial that is
    simultaneously nondestructive and exact within ``config.tol`` yet has
    commutator norm above ``COUNTEREXAMPLE_COMMUTATOR_TOL``. Trials derive
    independent streams from (seed, index), so the report is reproducible and
    order-independent. The tallies are taken chunk by chunk; ``sink`` takes each
    chunk's columns as ``linalg.run_sweep`` says.
    """
    stack = (config.n1, config.n1, config.n2)  # the pointer blocks
    return run_sweep(config, _sweep_chunk, stack, SweepTrial, CounterexampleSummary, sink)
