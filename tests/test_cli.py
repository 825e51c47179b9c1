import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wayaudit.cli as cli
from wayaudit.cli import ModelFileError, _parse_state, canonical_json, load_model, main
from wayaudit.theorem import AssumptionCheck, TheoremVerdict

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # golden reports echo the command line, so fixture paths must be stable
    monkeypatch.chdir(REPO)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadModel:
    def test_cnot_fixture(self):
        loaded = load_model(str(FIXTURES / "cnot.json"))
        assert loaded.model.n1 == 2 and loaded.model.n2 == 2
        assert loaded.quantity.kind == "multiplicative"
        assert loaded.observable is not None and loaded.probe is not None

    def test_missing_file(self):
        with pytest.raises(ModelFileError, match="model"):
            load_model("does_not_exist.json")

    def test_non_unitary_interaction(self, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        doc["unitary"][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="unitary"):
            load_model(str(path))

    def test_single_element_complex(self, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        doc["ready_state"][0] = [1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match=r"\[re, im\]"):
            load_model(str(path))

    def test_boolean_dimension_rejected(self, capsys, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        doc["n1"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "n1" in err

    def test_boolean_complex_entry_rejected(self, capsys, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        doc["ready_state"][0] = [True, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "ready_state" in err

    def test_default_basis_is_computational(self, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        assert "system_basis" not in doc
        loaded = load_model(str(FIXTURES / "cnot.json"))
        np.testing.assert_array_equal(loaded.model.system_basis, np.eye(2))


class TestStateParsing:
    def test_named_states(self):
        np.testing.assert_allclose(_parse_state("0", 2), [1.0, 0.0])
        np.testing.assert_allclose(_parse_state("plus", 2), np.full(2, 1 / np.sqrt(2)))

    def test_inline_literal(self):
        s = float(1.0 / np.sqrt(2.0))
        v = _parse_state(f"[[{s!r},0],[0,{s!r}]]", 2)
        np.testing.assert_allclose(v, [s, 1j * s])

    def test_out_of_range_index(self):
        with pytest.raises(ModelFileError, match="state"):
            _parse_state("5", 2)

    def test_unnormalized_literal(self):
        with pytest.raises(ModelFileError, match="norm"):
            _parse_state("[[1,0],[1,0]]", 2)


class TestExitCodes:
    @pytest.mark.parametrize("n1, n2, field", [("2", "1", "n2"), ("1", "1", "n2"), ("0", "3", "n1")])
    def test_bound_audit_small_dimensions_are_usage_errors(self, capsys, n1, n2, field):
        code, _, err = run(
            capsys, "sweep", "--kind", "bound-audit", "--n1", n1, "--n2", n2,
            "--count", "8", "--seed", "1", "--format", "json",
        )
        assert code == 2
        assert field in err

    def test_bound_audit_single_system_level(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--kind", "bound-audit", "--n1", "1", "--n2", "2",
            "--count", "8", "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"]["robertson_violations"] == 0

    def test_verdict_consistent(self, capsys):
        code, out, _ = run(capsys, "verdict", "--model", "tests/fixtures/cnot.json", "--tol", "1e-9")
        assert code == 0
        assert '"outcome":"consistent"' in out

    def test_check_nonconserving_still_succeeds(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "tests/fixtures/nonconserving.json")
        assert code == 0
        assert '"verdict":false' in out

    def test_missing_probe(self, capsys, tmp_path, monkeypatch):
        doc = json.load(open(FIXTURES / "cnot.json"))
        del doc["probe"]
        path = tmp_path / "noprobe.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bound", "--model", str(path), "--state", "plus")
        assert code == 2
        assert "probe" in err

    def test_sweep_requires_seed(self, capsys):
        code, _, err = run(capsys, "sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "5")
        assert code == 2
        assert "seed" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "check", "--nope", "x")
        assert code == 2

    def test_csv_format_rejected_outside_sweep(self, capsys):
        code, _, err = run(capsys, "check", "--model", "tests/fixtures/cnot.json", "--format", "csv")
        assert code == 2
        assert "format" in err

    def test_unwritable_out_path(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--kind", "counterexample",
            "--n1", "2", "--n2", "2", "--count", "2", "--seed", "1",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 2
        assert "out" in err

    def test_contradiction_exits_one(self, capsys, monkeypatch):
        # a contradiction cannot be produced by honest inputs, so force one to
        # pin the exit-code contract
        fake = TheoremVerdict(
            assumptions=(AssumptionCheck("conservation", 0.0, True),),
            commutator_norm=1.0,
            outcome="contradiction",
            strict_dimension_ok=True,
        )
        monkeypatch.setattr(cli, "theorem_verdict", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verdict", "--model", "tests/fixtures/cnot.json")
        assert code == 1
        assert '"outcome":"contradiction"' in out


    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tol):
        code, out, err = run(capsys, "check", "--model", "tests/fixtures/cnot.json", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol:") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-inf", "-nan", "-1e-3"])
    def test_bad_tolerance_as_separate_argument(self, capsys, tol):
        # argparse would read these values as options; they must reach the validation
        for argv in (
            ("check", "--model", "tests/fixtures/cnot.json", "--tol", tol),
            ("sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "3",
             "--seed", "1", "--format", "json", "--tol", tol),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: tol:") and err.count("\n") == 1

    def test_tolerance_flag_without_value_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--model", "tests/fixtures/cnot.json", "--tol")
        assert code == 2
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize("n1, n2, field", [("1", "0", "n2"), ("1", "-1", "n2"), ("0", "-1", "n1")])
    def test_counterexample_nonpositive_dimensions_are_usage_errors(self, capsys, n1, n2, field):
        code, out, err = run(
            capsys, "sweep", "--kind", "counterexample", "--n1", n1, "--n2", n2,
            "--count", "3", "--seed", "1", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {field} must be at least 1\n"

    def test_bound_audit_reports_first_failing_conservation(self, capsys):
        # with --tol 0 the rounding residual of trial 0 fails the precondition
        code, out, err = run(
            capsys, "sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3",
            "--count", "5", "--seed", "1", "--tol", "0", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == "error: check_conserved: residual 7.642e-15 exceeds 0.000e+00\n"

    def test_zero_tolerance_accepted(self, capsys):
        code, _, _ = run(capsys, "check", "--model", "tests/fixtures/cnot.json", "--tol", "0")
        assert code == 0

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError()])
    def test_crash_exits_three(self, capsys, monkeypatch, exc):
        # a crash must not read as a falsified assertion (exit 1)
        def crash(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "check_conserved", crash)
        code, out, err = run(capsys, "check", "--model", "tests/fixtures/cnot.json")
        assert code == 3
        assert out == ""
        assert err.startswith(f"internal error: {type(exc).__name__}") and err.count("\n") == 1


class TestGoldenReports:
    @pytest.mark.parametrize("name", ["cnot", "identity", "nonconserving"])
    def test_check(self, capsys, name):
        code, out, _ = run(capsys, "check", "--model", f"tests/fixtures/{name}.json")
        assert code == 0
        assert out == (GOLDEN / f"check_{name}.json").read_text()

    def test_verdict(self, capsys):
        code, out, _ = run(capsys, "verdict", "--model", "tests/fixtures/cnot.json")
        assert code == 0
        assert out == (GOLDEN / "verdict_cnot.json").read_text()

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", "plus")
        assert code == 0
        assert out == (GOLDEN / "bound_cnot_plus.json").read_text()


class TestSweepGoldens:
    """Sweep CSVs and stdout reports are pinned byte for byte."""

    @staticmethod
    def _check(capsys, monkeypatch, tmp_path, name, kind, n1, n2, count, seed):
        monkeypatch.chdir(tmp_path)  # the report echoes the relative --out path
        code, out, _ = run(
            capsys, "sweep", "--kind", kind, "--n1", str(n1), "--n2", str(n2),
            "--count", str(count), "--seed", str(seed), "--format", "csv", "--out", f"{name}.csv",
        )
        assert code == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize(
        "kind, n1, n2",
        [
            ("bound-audit", 2, 3),
            ("counterexample", 3, 5),
            ("bound-audit", 1, 2),
            ("bound-audit", 3, 5),
            ("bound-audit", 5, 9),  # 40 trials of dimension 45: more than one chunk
            ("counterexample", 2, 2),
            ("counterexample", 2, 3),
        ],
    )
    def test_byte_identical(self, capsys, monkeypatch, tmp_path, kind, n1, n2):
        name = f"sweep_{kind.replace('-', '_')}_{n1}x{n2}"
        self._check(capsys, monkeypatch, tmp_path, name, kind, n1, n2, 40, 7)

    def test_python_float_square(self, capsys, monkeypatch, tmp_path):
        # Trial 29 squares <a> in `variance`: as a Python float (libm pow) its
        # robertson_bound is 0.26799134892545035; an array square (x * x)
        # would give 0.2679913489254507.
        name = "sweep_bound_audit_2x3_count80_seed123456789"
        self._check(capsys, monkeypatch, tmp_path, name, "bound-audit", 2, 3, 80, 123456789)
        row = (tmp_path / f"{name}.csv").read_text().splitlines()[30].split(",")
        assert row[0] == "29" and row[4] == "0.26799134892545035"


class TestModelEcho:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", "--model", "tests/fixtures/cnot.json")
        assert code == 0
        echo = json.loads(out)["model"]
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(echo))
        loaded = load_model(str(path))
        original = load_model(str(FIXTURES / "cnot.json"))
        np.testing.assert_array_equal(loaded.model.interaction, original.model.interaction)
        np.testing.assert_array_equal(loaded.quantity.system_op, original.quantity.system_op)


class TestSweepCommand:
    def test_counterexample_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--kind", "counterexample",
            "--n1", "2", "--n2", "2", "--count", "20", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "trial,leakage,deficit,commutator_norm,degenerate_pointer,conforming,counterexample"
        assert len(lines) == 21
        report = json.loads(out)
        assert report["seed"] == 7
        assert report["results"]["counterexamples"] == 0

    def test_bound_audit_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "audit.csv"
        code, out, _ = run(
            capsys, "sweep", "--kind", "bound-audit",
            "--n1", "2", "--n2", "3", "--count", "8", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == (
            "trial,n1,n2,epsilon_sq,robertson_bound,paper_bound,paper_defined,"
            "yanase_applicable,yanase_bound,simplified_applicable,simplified_bound,"
            "robertson_valid,paper_valid,yanase_valid,simplified_valid"
        )
        assert len(lines) == 10  # header + 8 trials + summary
        assert lines[-1].startswith("summary,2,3,")
        report = json.loads(out)
        assert report["results"]["robertson_violations"] == 0
        assert "yanase_degenerate" in report["results"]

    def test_csv_requires_out(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--kind", "counterexample",
            "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1",
        )
        assert code == 2
        assert "out" in err


class TestDeterminism:
    def test_sweep_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "a.csv"
        argv = [
            "sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "2",
            "--count", "15", "--seed", "11", "--out", str(path),
        ]
        code1, out1, _ = run(capsys, *argv)
        first = path.read_bytes()
        code2, out2, _ = run(capsys, *argv)
        assert (code1, code2) == (0, 0)
        assert out1 == out2
        assert path.read_bytes() == first

    def test_optimize_byte_identical(self, capsys):
        argv = [
            "optimize", "--model", "tests/fixtures/cnot.json",
            "--kind", "feasibility", "--seed", "4", "--count", "2",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_byte_identical_across_processes(self):
        argv = [
            sys.executable, "-m", "wayaudit.cli", "sweep", "--kind", "counterexample",
            "--n1", "2", "--n2", "2", "--count", "10", "--seed", "13",
        ]
        # the package is imported from this checkout, installed or not
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        first = subprocess.run(argv, cwd=REPO, capture_output=True, env=env)
        second = subprocess.run(argv, cwd=REPO, capture_output=True, env=env)
        assert first.returncode == second.returncode == 2  # csv needs --out
        argv_json = argv + ["--format", "json"]
        first = subprocess.run(argv_json, cwd=REPO, capture_output=True, env=env)
        second = subprocess.run(argv_json, cwd=REPO, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestOptimizeCommand:
    def test_feasibility(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "tests/fixtures/cnot.json",
            "--kind", "feasibility", "--seed", "4", "--count", "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["kind"] == "feasibility"
        assert report["results"]["restarts_used"] == 2

    def test_epsilon_needs_probe(self, capsys, tmp_path):
        doc = json.load(open(FIXTURES / "cnot.json"))
        del doc["probe"]
        path = tmp_path / "noprobe.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "optimize", "--model", str(path), "--seed", "1")
        assert code == 2
        assert "probe" in err


class TestRankCommand:
    def test_cnot(self, capsys):
        code, out, _ = run(capsys, "rank", "--model", "tests/fixtures/cnot.json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["rank"] == 2
        assert report["results"]["constant_case"] is False


class TestAuditVarianceCommand:
    def test_identity_model_scaled_system_factor(self, capsys):
        code, out, _ = run(
            capsys, "audit-variance", "--model", "tests/fixtures/cnot.json", "--state", "plus"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["corrected_holds"] is True


class TestCanonicalSerialization:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 0.1, "a": 1})
        assert text == '{"a":1,"b":0.10000000000000001}\n'

    def test_complex_encoding(self):
        assert canonical_json(1 + 2j) == "[1,2]\n"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


class TestOptimizeGoldens:
    """Optimizer reports are pinned byte for byte: trajectories, floors and the best unitary."""

    @pytest.mark.parametrize(
        "name, model, kind, seed",
        [
            # LA=diag(1,2), LB=diag(1,2,4): commutant blocks (1,2,2,1), two block sizes
            ("optimize_feasibility_blocks_2x3", "blocks_2x3", "feasibility", "6"),
            ("optimize_epsilon_cnot", "cnot", "epsilon", "0"),
        ],
    )
    def test_byte_identical(self, capsys, name, model, kind, seed):
        code, out, _ = run(
            capsys, "optimize", "--model", f"tests/fixtures/{model}.json",
            "--kind", kind, "--count", "2", "--seed", seed,
        )
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()
