"""The four benchmark workloads: their inputs, their CLI calls and their gates.

A workload is an endless sequence of ``wayaudit.cli.main`` calls, grouped in
cycles. The inputs come from the workload seed alone and are generated here
with numpy, not with wayaudit's own samplers, so that a change to the program
cannot change what it is fed. Every call is checked by the workload's gate;
a call that fails the gate counts against ``error_rate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIXTURES = ("tests/fixtures/cnot.json", "tests/fixtures/identity.json", "tests/fixtures/nonconserving.json")
INSPECT_COMMANDS = (
    ("check",),
    ("verdict",),
    ("rank",),
    ("bound", "--state", "plus"),
    ("audit-variance", "--state", "plus"),
)
INSPECT_SIZES = ((3, 5), (4, 7), (5, 9))
# Restart seeds of optimize-2x3 are fixed: one restart there costs 0.05 s or
# 3.5 s depending on its seed alone, so seed-derived restarts would make the
# metrics measure the seed instead of the code.
OPTIMIZE_RESTART_SEEDS = (0, 1, 2, 3)
CONTROL_HIT = 1e-8


@dataclass
class Call:
    """One CLI call, what it must return, and how much work it does."""

    argv: list[str]
    expected_code: int
    work: int
    tag: str
    csv_path: str | None = None


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    csv: bytes
    start: float
    end: float


@dataclass
class Facts:
    """What the gate learned from one call: an error, or figures kept for the run."""

    error: str | None = None
    values: dict = field(default_factory=dict)


def _encode_matrix(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a, dtype=complex)]


def _encode_vector(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def _block_unitary(la: np.ndarray, lb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary on each eigenspace of the diagonal product LA (x) LB."""
    joint = np.kron(la, lb)
    u = np.zeros((joint.size, joint.size), dtype=complex)
    for value in np.unique(joint):
        idx = np.flatnonzero(joint == value)
        u[np.ix_(idx, idx)] = _haar(idx.size, rng)
    return u


def _model_doc(la, lb, observable, probe, rng) -> dict:
    """A model file conserving diag(la) (x) diag(lb), with a random ready state."""
    doc = {
        "n1": len(la),
        "n2": len(lb),
        "unitary": _encode_matrix(_block_unitary(np.asarray(la), np.asarray(lb), rng)),
        "ready_state": _encode_vector(_unit_vector(len(lb), rng)),
        "conserved": {
            "kind": "multiplicative",
            "LA": _encode_matrix(np.diag(la)),
            "LB": _encode_matrix(np.diag(lb)),
        },
        "observable": _encode_matrix(observable),
    }
    if probe is not None:
        doc["probe"] = _encode_matrix(probe)
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _report(outcome: Outcome) -> tuple[dict | None, str | None]:
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not isinstance(report, dict) or "results" not in report:
        return None, "report has no results"
    return report, None


class Workload:
    """Base: ``call(i)`` gives the i-th measured call; ``check`` gates it."""

    name = ""
    op_unit = ""
    cycle = 1          # calls per cycle; runs stop only at a cycle boundary
    digest_calls = 10  # leading calls whose outputs make the run's digest

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write the input files; part of set-up."""

    def warmup(self) -> Call:
        raise NotImplementedError

    def call(self, index: int) -> Call:
        raise NotImplementedError

    def call_seed(self, index: int) -> int:
        return self.seed * 1_000_000 + index

    def check(self, call: Call, outcome: Outcome) -> Facts:
        if outcome.code != call.expected_code:
            detail = outcome.stderr.strip()[:200]
            return Facts(f"{call.tag}: exit {outcome.code}, expected {call.expected_code}: {detail}")
        if call.expected_code != 0:
            if outcome.stdout or not outcome.stderr.startswith("error:"):
                return Facts(f"{call.tag}: exit {outcome.code} without a lone error message")
            return Facts()
        report, error = _report(outcome)
        if error is not None:
            return Facts(f"{call.tag}: {error}")
        return self.check_report(call, report, outcome)

    def check_report(self, call: Call, report: dict, outcome: Outcome) -> Facts:
        return Facts()


class _Sweep(Workload):
    kind = ""
    n1 = n2 = 0
    trials_per_call = 0
    op_unit = "trials"

    def _argv(self, count: int, seed: int) -> list[str]:
        return [
            "sweep", "--kind", self.kind, "--n1", str(self.n1), "--n2", str(self.n2),
            "--count", str(count), "--seed", str(seed), "--out", self.csv_path,
        ]

    @property
    def csv_path(self) -> str:
        return f"{self.workdir}/{self.name}.csv"

    def warmup(self) -> Call:
        return Call(self._argv(4, self.call_seed(999_999)), 0, 4, "warmup", self.csv_path)

    def call(self, index: int) -> Call:
        count = self.trials_per_call
        return Call(self._argv(count, self.call_seed(index)), 0, count, self.kind, self.csv_path)

    def check_report(self, call, report, outcome) -> Facts:
        results = report["results"]
        if results.get("kind") != self.kind or results.get("count") != call.work:
            return Facts(f"{call.tag}: report is for {results.get('kind')} x {results.get('count')}")
        lines = outcome.csv.decode("utf-8").splitlines()
        return self.check_sweep(call, results, lines)

    def check_sweep(self, call, results, lines) -> Facts:
        raise NotImplementedError


class AuditSweep(_Sweep):
    name = "audit-2x3"
    kind = "bound-audit"
    n1, n2 = 2, 3
    trials_per_call = 80  # a multiple of 4: trials cycle through four regimes

    def check_sweep(self, call, results, lines) -> Facts:
        if len(lines) != call.work + 2 or not lines[-1].startswith("summary,"):
            return Facts(f"{call.tag}: csv has {len(lines)} lines, expected header + {call.work} + summary")
        if results.get("robertson_violations") != 0:
            return Facts(f"{call.tag}: {results.get('robertson_violations')} Robertson violations")
        return Facts()


class CounterexampleSweep(_Sweep):
    name = "counterexample-3x5"
    kind = "counterexample"
    n1, n2 = 3, 5
    trials_per_call = 100

    def check_sweep(self, call, results, lines) -> Facts:
        if len(lines) != call.work + 1:
            return Facts(f"{call.tag}: csv has {len(lines)} lines, expected header + {call.work}")
        if results.get("counterexamples") != 0:
            return Facts(f"{call.tag}: {results.get('counterexamples')} counterexamples")
        return Facts(values={"conforming": results["conforming_count"], "count": results["count"]})


class Optimize(Workload):
    """Feasibility search on LA=diag(1,2), LB=diag(1,2,4): commutant blocks (1,2,2,1).

    Each cycle runs every fixed restart seed once on the noncommuting X
    ("blocked", cannot reach zero) and once on diag(1,2) ("control", can).
    """

    name = "optimize-2x3"
    op_unit = "restarts"
    cycle = 2 * len(OPTIMIZE_RESTART_SEEDS)
    digest_calls = cycle
    cases = ("blocked", "control")

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        la, lb = [1.0, 2.0], [1.0, 2.0, 4.0]
        observables = {"blocked": np.array([[0.0, 1.0], [1.0, 0.0]]), "control": np.diag(la)}
        for case in self.cases:
            _write_json(Path(self._model(case)), _model_doc(la, lb, observables[case], None, rng))

    def _model(self, case: str) -> str:
        return f"{self.workdir}/optimize-{case}.json"

    def warmup(self) -> Call:
        argv = ["optimize", "--model", FIXTURES[0], "--kind", "feasibility", "--count", "1", "--seed", "0"]
        return Call(argv, 0, 1, "warmup")

    def call(self, index: int) -> Call:
        position = index % self.cycle
        case = self.cases[position % 2]
        seed = OPTIMIZE_RESTART_SEEDS[position // 2]
        argv = ["optimize", "--model", self._model(case), "--kind", "feasibility", "--count", "1", "--seed", str(seed)]
        return Call(argv, 0, 1, case)

    def check_report(self, call, report, outcome) -> Facts:
        results = report["results"]
        floors = results.get("restart_objectives")
        if results.get("restarts_used") != call.work or not isinstance(floors, list) or len(floors) != call.work:
            return Facts(f"{call.tag}: {results.get('restarts_used')} restarts, expected {call.work}")
        return Facts(values={
            "case": call.tag,
            "floor": floors[0],
            "accepted_steps": len(results["objective_trace"]) - 1,
        })


class InspectModels(Workload):
    """Five single-model commands on the three fixtures and three generated
    commutant models with geometric spectra, up to D = 45."""

    name = "inspect-models"
    op_unit = "calls"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.models = list(FIXTURES) + [f"{workdir}/inspect-{n1}x{n2}.json" for n1, n2 in INSPECT_SIZES]
        self.cycle = self.digest_calls = len(self.models) * len(INSPECT_COMMANDS)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for (n1, n2), path in zip(INSPECT_SIZES, self.models[len(FIXTURES):]):
            la, lb = 2.0 ** np.arange(n1), 2.0 ** np.arange(n2)
            doc = _model_doc(la, lb, _hermitian(n1, rng), _hermitian(n2, rng), rng)
            _write_json(Path(path), doc)

    def warmup(self) -> Call:
        return Call(["check", "--model", FIXTURES[0]], 0, 1, "warmup")

    def call(self, index: int) -> Call:
        position = index % self.cycle
        model = self.models[position // len(INSPECT_COMMANDS)]
        command = INSPECT_COMMANDS[position % len(INSPECT_COMMANDS)]
        # The nonconserving fixture fails the bound's conservation precondition.
        expected = 2 if command[0] == "bound" and model.endswith("nonconserving.json") else 0
        return Call([*command, "--model", model], expected, 1, f"{command[0]}:{Path(model).stem}")

    def check_report(self, call, report, outcome) -> Facts:
        if report.get("command", [None])[0] != call.argv[0] or "model" not in report:
            return Facts(f"{call.tag}: report does not echo the command and model")
        return Facts()


WORKLOADS = {w.name: w for w in (AuditSweep, CounterexampleSweep, Optimize, InspectModels)}
