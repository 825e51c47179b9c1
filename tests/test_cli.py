import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import wayaudit.cli as cli
from wayaudit.cli import ModelFileError, _parse_state, canonical_json, load_model, main
from wayaudit.commutant import SearchConfig, feasibility_search
from wayaudit.linalg import DEFAULT_TOLERANCES, STATE_NORM_TOL, variance
from wayaudit.model import ConservedQuantity, MeasurementModel, check_conserved, check_exact, check_nondestructive
from wayaudit.noise import noise_report, variance_identity_audit
from wayaudit.theorem import AssumptionCheck, TheoremVerdict, pointer_gram_rank, theorem_verdict

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


def _cnot_doc() -> dict:
    return json.load(open(FIXTURES / "cnot.json"))


def _set(doc: dict, field: str, value) -> None:
    """Set a top-level field of a model document, or entry X of its conserved block for conserved.X."""
    owner = doc["conserved"] if field.startswith("conserved.") else doc
    owner[field.removeprefix("conserved.")] = value


NON_HERMITIAN = cli.encode_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
# One invalid value per model-file field of cnot.json, in the order the loader reads them.
BAD_FIELDS = {
    "system_basis": cli.encode_matrix(np.ones((2, 2))),
    "ready_state": cli.encode_vector(np.ones(2)),
    "unitary": cli.encode_matrix(np.diag([2.0, 1.0, 1.0, 1.0])),
    "conserved.kind": "bogus",
    "conserved.LA": NON_HERMITIAN,
    "conserved.LB": NON_HERMITIAN,
    "observable": NON_HERMITIAN,
    "probe": NON_HERMITIAN,
}


class TestLoaderFields:
    def check(self, capsys, tmp_path, doc) -> str:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("field", list(BAD_FIELDS))
    def test_each_field_is_named(self, capsys, tmp_path, field):
        doc = _cnot_doc()
        _set(doc, field, BAD_FIELDS[field])
        assert self.check(capsys, tmp_path, doc).startswith(f"error: {field}: ")

    @pytest.mark.parametrize("first, second", zip(list(BAD_FIELDS)[:-1], list(BAD_FIELDS)[1:]))
    def test_earlier_field_reported_first(self, capsys, tmp_path, first, second):
        doc = _cnot_doc()
        _set(doc, first, BAD_FIELDS[first])
        _set(doc, second, BAD_FIELDS[second])
        assert self.check(capsys, tmp_path, doc).startswith(f"error: {first}: ")

    def test_large_n1_without_basis_is_an_input_error(self, capsys, tmp_path):
        # the default basis must not be built before the unitary bounds n1
        doc = _cnot_doc()
        doc["n1"] = 10**9
        assert self.check(capsys, tmp_path, doc).startswith("error: unitary: ")


class TestThresholds:
    """Inputs just inside and just outside each structural tolerance are accepted
    and rejected alike by the loader, the dataclasses, noise_report and variance."""

    def load(self, tmp_path, field, value):
        doc = _cnot_doc()
        _set(doc, field, value)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return load_model(str(path))

    def expect(self, accepted, match, call):
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_hermiticity(self, tmp_path, scale, accepted):
        # [[1, e], [0, -1]] has Hermiticity residual sqrt(2) * e
        eps = scale * DEFAULT_TOLERANCES.hermiticity_tol / np.sqrt(2.0)
        op = np.array([[1.0, eps], [0.0, -1.0]], dtype=complex)
        cnot = load_model(str(FIXTURES / "cnot.json"))
        for field in ("conserved.LA", "conserved.LB", "observable", "probe"):
            self.expect(accepted, f"^{field}: not Hermitian",
                        lambda: self.load(tmp_path, field, cli.encode_matrix(op)))
        self.expect(accepted, "Hermitian", lambda: ConservedQuantity("multiplicative", op, np.eye(2)))
        self.expect(accepted, "Hermitian", lambda: noise_report(
            cnot.model, cnot.quantity, op, cnot.probe, np.array([1.0, 0.0]), 1e-9))
        self.expect(accepted, "Hermitian", lambda: variance(op, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_unitarity(self, tmp_path, scale, accepted):
        # (1 + d) U for unitary U of dimension 4 has residual 2 * ((1 + d)**2 - 1)
        cnot = load_model(str(FIXTURES / "cnot.json"))
        d = np.sqrt(1.0 + scale * DEFAULT_TOLERANCES.unitarity_tol / 2.0) - 1.0
        u = (1.0 + d) * cnot.model.interaction
        self.expect(accepted, "^unitary: not unitary", lambda: self.load(tmp_path, "unitary", cli.encode_matrix(u)))
        self.expect(accepted, "unitary", lambda: MeasurementModel(2, 2, np.eye(2), cnot.model.ready_state, u))

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_state_norm(self, tmp_path, scale, accepted):
        cnot = load_model(str(FIXTURES / "cnot.json"))
        # not an eigenstate of any operator below: a variance that rounds negative raises
        state = (1.0 + scale * STATE_NORM_TOL) * np.full(2, np.sqrt(0.5), dtype=complex)
        encoded = cli.encode_vector(state)
        self.expect(accepted, "^ready_state: norm", lambda: self.load(tmp_path, "ready_state", encoded))
        self.expect(accepted, "^state: norm", lambda: _parse_state(json.dumps(encoded), 2))
        self.expect(accepted, "norm", lambda: MeasurementModel(2, 2, np.eye(2), state, cnot.model.interaction))
        self.expect(accepted, "norm", lambda: noise_report(
            cnot.model, cnot.quantity, cnot.observable, cnot.probe, state, 1e-9))
        self.expect(accepted, "norm", lambda: variance(np.diag([1.0, -1.0]), state))


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

    def test_bound_accepts_state_within_norm_tolerance(self, capsys):
        # an eigenstate 9e-11 off unit norm: its variances round to -1.8e-10 and clamp to 0
        state = "[[1.00000000009,0],[0,0]]"
        code, out, _ = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", state)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["var_conserved_exact"] == 0 and results["robertson"]["var_conserved"] == 0

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

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--model", "tests/fixtures/cnot.json")
        assert code == 0
        assert out == (GOLDEN / "rank_cnot.json").read_text()

    def test_audit_variance(self, capsys):
        code, out, _ = run(capsys, "audit-variance", "--model", "tests/fixtures/cnot.json", "--state", "plus")
        assert code == 0
        assert out == (GOLDEN / "audit_variance_cnot_plus.json").read_text()


class TestSweepUsageFirst:
    """A sweep finds its usage errors before any trial runs."""

    @pytest.fixture(autouse=True)
    def _no_sweeps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran before its usage was checked")

        monkeypatch.setattr(cli, "bound_audit_sweep", refuse)
        monkeypatch.setattr(cli, "counterexample_sweep", refuse)

    @staticmethod
    def sweep(capsys, kind, n1, n2, seed, out):
        argv = ["sweep", "--kind", kind, "--n1", n1, "--n2", n2, "--count", "3000", "--seed", seed]
        code, stdout, err = run(capsys, *argv, *([] if out is None else ["--out", str(out)]))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("kind", ["counterexample", "bound-audit"])
    @pytest.mark.parametrize("out", [None, "/nonexistent-dir/x.csv", "."])
    def test_out_checked_before_sampling(self, capsys, kind, out):
        assert self.sweep(capsys, kind, "2", "3", "1", out).startswith("error: out: ")

    @pytest.mark.parametrize(
        "kind, n1, n2, seed, message",
        [
            ("counterexample", "2", "4", "1", "dimension precondition"),
            ("counterexample", "0", "1", "1", "n1 must be at least 1"),
            ("bound-audit", "2", "1", "1", "n2 must be at least 2"),
            ("bound-audit", "2", "3", "-1", "seed"),
        ],
    )
    def test_input_errors_come_first_and_touch_no_file(self, capsys, tmp_path, kind, n1, n2, seed, message):
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("kept\n")
        for out in (None, kept, absent, "/nonexistent-dir/x.csv"):
            assert message in self.sweep(capsys, kind, n1, n2, seed, out)
        assert kept.read_text() == "kept\n"
        assert not absent.exists()


class TestThinAdapter:
    """Each single-model command's results are its library report's fields, canonically encoded."""

    @staticmethod
    def results(capsys, *argv) -> dict:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return json.loads(out)["results"]

    def test_single_model_commands(self, capsys):
        loaded = load_model("tests/fixtures/cnot.json")
        m, q, tol = loaded.model, loaded.quantity, 1e-9
        psi = _parse_state("plus", m.n1)
        nd = check_nondestructive(m, tol)
        expected = {
            ("check",): {
                "conserved": asdict(check_conserved(m, q, tol)),
                "nondestructive": asdict(nd),
                "exact": asdict(check_exact(m, tol, nondestructive=nd)),
            },
            ("verdict",): asdict(theorem_verdict(m, q, tol)),
            ("bound", "--state", "plus"): asdict(noise_report(m, q, loaded.observable, loaded.probe, psi, tol)),
            ("rank",): asdict(pointer_gram_rank(q.apparatus_op, nd.pointers, tol)),
            ("audit-variance", "--state", "plus"): asdict(
                variance_identity_audit(q.system_op, q.apparatus_op, psi, m.ready_state)
            ),
        }
        for (command, *extra), report in expected.items():
            results = self.results(capsys, command, "--model", "tests/fixtures/cnot.json", *extra)
            assert canonical_json(results) == canonical_json(report), command

    def test_optimize(self, capsys):
        results = self.results(
            capsys, "optimize", "--model", "tests/fixtures/cnot.json",
            "--kind", "feasibility", "--seed", "4", "--count", "2",
        )
        assert results.pop("kind") == "feasibility"
        loaded = load_model("tests/fixtures/cnot.json")
        config = SearchConfig(seed=4, restarts=2)
        search = feasibility_search(loaded.quantity, loaded.observable, loaded.model.n2, config)
        assert canonical_json(results) == canonical_json(asdict(search))

    @pytest.mark.parametrize("command", [("verdict",), ("bound", "--state", "plus")])
    def test_additive_quantity_is_a_kind_error(self, capsys, tmp_path, command):
        doc = _cnot_doc()
        doc["conserved"]["kind"] = "additive"
        path = tmp_path / "additive.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], "--model", str(path), *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: conserved.kind: ") and err.count("\n") == 1


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


class TestParserCache:
    """One parser serves every call of a process and parses as a freshly built one would."""

    @staticmethod
    def fresh(capsys, *argv):
        try:
            cli._build_parser.__wrapped__().parse_args(list(argv))
        except SystemExit as exc:
            captured = capsys.readouterr()
            return int(exc.code or 0), captured.out, captured.err
        raise AssertionError("expected the parser to exit")

    def test_error_then_valid_then_help(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        error = ("check", "--model", "tests/fixtures/cnot.json", "--bogus")
        code, out, err = run(capsys, *error)
        assert (code, out) == (2, "") and "--bogus" in err
        assert (code, out, err) == self.fresh(capsys, *error)
        code, out, _ = run(capsys, "check", "--model", "tests/fixtures/cnot.json")
        assert code == 0
        assert out == (GOLDEN / "check_cnot.json").read_text()
        for help_argv in (("--help",), ("optimize", "--help")):
            code, out, err = run(capsys, *help_argv)
            assert (code, err) == (0, "") and out.startswith("usage: wayaudit")
            assert (code, out, err) == self.fresh(capsys, *help_argv)


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
