"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import CNOT, E0, E1, I2, LA_DIAG, PLUS, X, Z, make_conforming_model
from wayaudit import (
    AuditConfig,
    ConservedQuantity,
    MeasurementModel,
    SearchConfig,
    bound_audit_sweep,
    check_conserved,
    check_exact,
    check_nondestructive,
    counterexample_sweep,
    feasibility_search,
    matrix_element_identity,
    pointer_gram_rank,
    synthesize_unitary,
    theorem_verdict,
    variance_identity_audit,
)
from wayaudit.cli import main
from wayaudit.theorem import sample_conserving_instance

REPO = Path(__file__).resolve().parent.parent


def report_line(number, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f} s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {label} ... {status}{timing}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_theorem_consistency_sweep():
    start = time.monotonic()
    contradictions = 0
    conforming_commutators = []
    for n1, n2 in [(2, 2), (2, 3), (3, 3), (3, 5)]:
        for trial in range(1000):
            m, q = sample_conserving_instance(n1, n2, np.random.default_rng((20240601, trial)))
            verdict = theorem_verdict(m, q, tol=1e-9)
            if verdict.outcome == "contradiction":
                contradictions += 1
            if all(c.passed for c in verdict.assumptions):
                conforming_commutators.append(verdict.commutator_norm)
    elapsed = time.monotonic() - start
    ok = (
        contradictions == 0
        and all(c <= 1e-8 for c in conforming_commutators)
        and elapsed <= 60.0
    )
    report_line(1, "theorem consistency sweep (4 dim pairs x 1000 trials)", ok, elapsed)


def test_criterion_2_constructive_commuting_case():
    model = synthesize_unitary(I2, E0, np.stack([E0, E1]))
    q = ConservedQuantity("multiplicative", LA_DIAG, I2)
    conserved = check_conserved(model, q, tol=1e-10)
    nd = check_nondestructive(model, tol=1e-10)
    exact = check_exact(model, tol=1e-10, nondestructive=nd)
    verdict = theorem_verdict(model, q)
    ok = (
        conserved.residual <= 1e-10
        and nd.leakage <= 1e-10
        and exact.deficit <= 1e-10
        and verdict.outcome == "consistent"
    )
    report_line(2, "constructive commuting scheme is conserving, exact, consistent", ok)


def test_criterion_3_no_go_floor():
    start = time.monotonic()
    q = ConservedQuantity("multiplicative", LA_DIAG, I2)
    config = SearchConfig(seed=424242, restarts=8, max_iter=2000)
    blocked = feasibility_search(q, X, config=config)
    control = feasibility_search(q, np.diag([1.0, 2.0]).astype(complex), config=config)
    elapsed = time.monotonic() - start
    ok = (
        all(f > 1e-3 for f in blocked.restart_objectives)
        and control.best_objective <= 1e-8
        and elapsed <= 120.0
    )
    report_line(
        3,
        f"no-go floor {min(blocked.restart_objectives):.3e} vs control {control.best_objective:.1e}",
        ok,
        elapsed,
    )


def test_criterion_4_robertson_bound_validity():
    start = time.monotonic()
    report = bound_audit_sweep(AuditConfig(n1=2, n2=3, count=10_000, seed=20240604))
    elapsed = time.monotonic() - start
    ok = report.summary.robertson_violations == 0 and elapsed <= 60.0
    report_line(4, "Robertson bound never violated over 10^4 audited trials", ok, elapsed)


def test_criterion_5_matrix_element_identity():
    dims = [(2, 2), (2, 3), (3, 3), (3, 5)]
    worst = 0.0
    for trial in range(1000):
        n1, n2 = dims[trial % 4]
        m, q = make_conforming_model(n1, n2, np.random.default_rng((20240605, trial)))
        worst = max(worst, matrix_element_identity(m, q).max_abs)
    ok = worst <= 1e-8
    report_line(5, f"matrix-element identity residual max {worst:.2e} over 1000 models", ok)


def test_criterion_6_rank_argument():
    constant = pointer_gram_rank(I2, np.stack([E0, E0]))
    cnot_model = MeasurementModel(2, 2, I2, E0, CNOT)
    pointers = check_nondestructive(cnot_model).pointers
    distinct = pointer_gram_rank(I2, pointers)
    ok = (
        constant.rank == 1
        and constant.constant_case
        and distinct.rank == 2
        and not distinct.constant_case
    )
    report_line(6, "pointer Gram rank: constant table rank 1, orthonormal pointers rank 2", ok)


def test_criterion_7_variance_claim_audit():
    fixture = variance_identity_audit(Z, Z, PLUS, E0, tol=1e-10)
    fixture_ok = (
        abs(fixture.lhs - 1.0) <= 1e-10
        and abs(fixture.paper_rhs) <= 1e-10
        and abs(fixture.corrected_rhs - 1.0) <= 1e-10
        and not fixture.paper_claim_holds
    )
    failures = 0
    for trial in range(10_000):
        rng = np.random.default_rng((20240607, trial))
        dim_a = 2 + trial % 2
        dim_b = 2 + (trial // 2) % 3
        a = rng.standard_normal((dim_a, dim_a)) + 1j * rng.standard_normal((dim_a, dim_a))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
        b = (b + b.conj().T) / 2
        sa = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
        sb = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        audit = variance_identity_audit(
            a, b, sa / np.linalg.norm(sa), sb / np.linalg.norm(sb), tol=1e-10
        )
        if not audit.corrected_holds:
            failures += 1
    ok = fixture_ok and failures == 0
    report_line(7, f"variance claim audit: fixture exact, {failures} identity failures in 10^4", ok)


def test_criterion_8_bound_audit_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    out_path = tmp_path / "audit.csv"
    code = main(
        [
            "sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3",
            "--count", "400", "--seed", "20240608", "--out", str(out_path),
        ]
    )
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    results = report["results"]
    lines = out_path.read_text().splitlines()
    ok = (
        code == 0
        and lines[-1].startswith("summary,")
        and all(
            key in results
            for key in (
                "robertson_violation_fraction",
                "paper_violation_fraction",
                "yanase_violation_fraction",
                "simplified_violation_fraction",
                "robertson_degenerate",
                "paper_undefined",
                "yanase_degenerate",
                "simplified_degenerate",
            )
        )
    )
    report_line(8, "bound audit emits violation fractions and degeneracy counts, exit 0", ok)


def test_criterion_9_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    outputs = {}
    commands = {
        "counterexample": [
            "sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2",
            "--count", "100", "--seed", "31", "--out", str(tmp_path / "ce.csv"),
        ],
        "bound-audit": [
            "sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3",
            "--count", "100", "--seed", "31", "--out", str(tmp_path / "ba.csv"),
        ],
        "optimize": [
            "optimize", "--model", "tests/fixtures/cnot.json",
            "--kind", "feasibility", "--seed", "31", "--count", "3",
        ],
    }
    ok = True
    for name, argv in commands.items():
        runs = []
        for _ in range(2):
            code = main(list(argv))
            stdout = capsys.readouterr().out
            file_bytes = None
            if "--out" in argv:
                file_bytes = Path(argv[argv.index("--out") + 1]).read_bytes()
            runs.append((code, stdout, file_bytes))
        outputs[name] = runs
        ok = ok and runs[0] == runs[1] and runs[0][0] == 0
    report_line(9, "seeded commands re-run byte-identically (JSON and CSV)", ok)
