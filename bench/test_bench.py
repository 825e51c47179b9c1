"""Tests of the benchmark itself: pinned call counts, the gate, the tracer.

Run from the repository root with ``python -m pytest -q bench``. Counts are
deterministic, so they are pinned exactly; a change that moves one of them
must say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics
import spans
import worker
from workloads import WORKLOADS, Call, Outcome

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def cli(monkeypatch):
    from wayaudit import cli

    monkeypatch.chdir(ROOT)
    return cli


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def traced_run(cli, workload, calls: int):
    """Run the first ``calls`` calls traced; returns (profile, loop)."""
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    loop = worker.Loop(cli, workload)
    try:
        loop.run_count(calls)
    finally:
        undo()
    profile = spans.self_times(tracer.table(), tracer.names, metrics.group_of(tracer.names))
    return profile, loop


def test_audit_counts_per_trial(cli, workdir):
    workload = WORKLOADS["audit-2x3"](7, workdir)
    profile, loop = traced_run(cli, workload, 1)
    trials = sum(loop.work)
    assert not loop.errors
    assert profile["calls"]["numpy.kron"] == 24 * trials
    assert profile["calls"]["noise.noise_operator"] == 4 * trials
    assert profile["calls"]["model.check_conserved"] == 4 * trials


def test_counterexample_counts_per_trial(cli, workdir):
    workload = WORKLOADS["counterexample-3x5"](7, workdir)
    profile, loop = traced_run(cli, workload, 1)
    trials = sum(loop.work)
    assert not loop.errors
    assert profile["calls"]["linalg.haar_unitary"] == 17 * trials
    assert profile["calls"].get("noise.noise_report", 0) == 0
    assert worker.conforming_ratio(loop) == 0.0


@pytest.mark.parametrize("name", ["audit-2x3", "counterexample-3x5", "inspect-models"])
def test_traced_outputs_match_untraced(cli, workdir, name):
    workload = WORKLOADS[name](3, workdir)
    workload.prepare()
    calls = min(workload.cycle, 5) if name == "inspect-models" else 2
    plain = worker.Loop(cli, workload)
    plain.run_count(calls)
    _, traced = traced_run(cli, workload, calls)
    assert not plain.errors and not traced.errors
    assert traced.digests == plain.digests


def test_inspect_cycle_passes_gate(cli, workdir):
    workload = WORKLOADS["inspect-models"](5, workdir)
    workload.prepare()
    loop = worker.Loop(cli, workload)
    loop.run_count(workload.cycle)
    assert loop.errors == []
    assert sum(c.expected_code == 2 for c in map(workload.call, range(workload.cycle))) == 1


def test_install_rebinds_every_namespace_and_undo_restores():
    import wayaudit
    from wayaudit import commutant, linalg, noise, theorem

    before = (linalg.haar_unitary, commutant.haar_unitary, noise.haar_unitary, np.kron)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for namespace in (linalg, commutant, noise):
            assert namespace.haar_unitary is not before[0]
            assert namespace.haar_unitary.__wrapped__ is before[0]
        assert noise.commutant_unitary is theorem.commutant_unitary is commutant.commutant_unitary
        assert wayaudit.noise_report is noise.noise_report
        assert np.kron is not before[3]
    finally:
        undo()
    assert (linalg.haar_unitary, commutant.haar_unitary, noise.haar_unitary, np.kron) == before


def test_self_time_subtracts_children():
    tracer = spans.Tracer()

    def leaf():
        return 1

    leaf = tracer.wrap("linalg.dagger", leaf)
    outer = tracer.wrap("linalg.as_operator", lambda: leaf() + leaf())
    root = tracer.wrap("cli.main", outer)
    assert root() == 2
    profile = spans.self_times(tracer.table(), tracer.names, metrics.group_of(tracer.names))
    table = tracer.table()
    durations = dict(zip(table[:, 0], table[:, 4] - table[:, 3]))
    assert profile["calls"] == {"linalg.dagger": 2, "linalg.as_operator": 1, "cli.main": 1}
    assert profile["root_ns"] == durations[1]
    assert profile["self_ns"]["cli.main"] == durations[1] - durations[2]
    assert profile["self_ns"]["linalg.as_operator"] == durations[2] - durations[3] - durations[4]
    # Both functions belong to linalg.checks: only the outermost span counts.
    checks = list(metrics.GROUPS).index("linalg.checks")
    assert profile["group_ns"][checks] == durations[2]


def _outcome(code=0, stdout="", stderr="", csv=b""):
    return Outcome(code, stdout, stderr, csv, 0.0, 0.0)


def test_gate_rejects_wrong_exit_code_and_non_json(workdir):
    workload = WORKLOADS["inspect-models"](1, workdir)
    call = Call(["check", "--model", "m.json"], 0, 1, "check:m")
    assert "exit 2" in workload.check(call, _outcome(2, stderr="error: x")).error
    assert "not JSON" in workload.check(call, _outcome(0, stdout="{")).error
    failing = Call(["bound", "--model", "m.json"], 2, 1, "bound:m")
    assert workload.check(failing, _outcome(2, stderr="error: precondition")).error is None
    assert workload.check(failing, _outcome(2, stdout="{}", stderr="error: x")).error is not None


def test_gate_rejects_short_csv_and_violations(workdir):
    workload = WORKLOADS["audit-2x3"](1, workdir)
    call = workload.call(0)
    report = {"command": ["sweep"], "results": {"kind": "bound-audit", "count": call.work, "robertson_violations": 0}}
    rows = ["header"] + ["row"] * call.work
    good = ("\n".join(rows + ["summary,2,3"]) + "\n").encode()
    assert workload.check(call, _outcome(0, json.dumps(report), csv=good)).error is None
    short = ("\n".join(rows) + "\n").encode()
    assert "csv" in workload.check(call, _outcome(0, json.dumps(report), csv=short)).error
    report["results"]["robertson_violations"] = 1
    assert "Robertson" in workload.check(call, _outcome(0, json.dumps(report), csv=good)).error


def test_gate_checks_restart_count(workdir):
    workload = WORKLOADS["optimize-2x3"](1, workdir)
    call = workload.call(0)
    report = {"results": {"restarts_used": 2, "restart_objectives": [0.1, 0.2], "objective_trace": []}}
    assert "restarts" in workload.check(call, _outcome(0, json.dumps(report))).error


def test_tail_quantile_keeps_ten_calls_beyond():
    assert metrics.tail_quantile(1000) == 0.9
    assert metrics.tail_quantile(50) == 0.8
    assert metrics.tail_quantile(12) == 0.5
    for n in range(20, 200):
        assert n - metrics.tail_quantile(n) * n >= 10


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "bench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-2x3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
