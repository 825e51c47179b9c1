import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import wayaudit.cli as cli
from conftest import chunk_size, chunk_sizes, sweep_stack
from wayaudit import commutant, linalg, noise, theorem
from wayaudit.cli import _parse_state, canonical_json, load_model, main
from wayaudit.commutant import SearchConfig, feasibility_search
from wayaudit.errors import PreconditionError
from wayaudit.linalg import HERMITICITY_TOL, STATE_NORM_TOL, UNITARITY_TOL, variance
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
        with pytest.raises(PreconditionError, match="model"):
            load_model("does_not_exist.json")

    def test_non_unitary_interaction(self, tmp_path):
        doc = _cnot_doc()
        doc["unitary"][0][0] = [2.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PreconditionError, match="unitary"):
            load_model(str(path))

    def test_single_element_complex(self, tmp_path):
        doc = _cnot_doc()
        doc["ready_state"][0] = [1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PreconditionError, match=r"\[re, im\]"):
            load_model(str(path))

    def test_boolean_dimension_rejected(self, capsys, tmp_path):
        doc = _cnot_doc()
        doc["n1"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "n1" in err

    def test_boolean_complex_entry_rejected(self, capsys, tmp_path):
        doc = _cnot_doc()
        doc["ready_state"][0] = [True, 0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "ready_state" in err

    def test_default_basis_is_computational(self, tmp_path):
        doc = _cnot_doc()
        assert "system_basis" not in doc
        loaded = load_model(str(FIXTURES / "cnot.json"))
        np.testing.assert_array_equal(loaded.model.system_basis, np.eye(2))

    def test_integer_beyond_float_range_in_model_file(self, capsys, tmp_path):
        # json reads 10**400 as a Python int; converting it must not crash
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_cnot_doc()).replace("[1.0, 0.0]", f"[{10**400}, 0]", 1))
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, out, err) == (2, "", "error: ready_state: complex entries must be finite\n")

    def test_integer_beyond_float_range_in_state_literal(self, capsys):
        state = f"[[{10**400},0],[0,0]]"
        code, out, err = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", state)
        assert (code, out, err) == (2, "", "error: state: complex entries must be finite\n")

    def test_deeply_nested_model_file(self, capsys, tmp_path):
        # json's decoder gives up on deep nesting with a RecursionError: an input error, not a crash
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(_cnot_doc()).replace('"ready_state": ', '"ready_state": ' + "[" * 100000, 1))
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: model: parse error in {path}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_deeply_nested_state_literal(self, capsys):
        code, out, err = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", "[" * 100000)
        assert (code, out) == (2, "")
        assert err.startswith("error: state: parse error: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_long_model_entry_is_echoed_in_short(self, capsys, tmp_path):
        # a 100000-zero ready_state entry: one message line, its echo cut with an ellipsis
        doc = _cnot_doc()
        doc["ready_state"][1] = [0] * 100000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ready_state: complex entries must be [re, im] pairs, got [0, 0, ")
        assert err.endswith("...\n") and err.count("\n") == 1 and len(err) < 200

    def test_deep_state_entry_is_echoed_in_short(self, capsys):
        # a 900-deep entry, shallow enough for json under the test runner's stack, is echoed
        # as ECHO_CHARS characters, not 1800
        state = "[[1, 0], " + "[" * 900 + "]" * 900 + "]"
        code, out, err = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", state)
        assert (code, out) == (2, "")
        echo = "[" * (cli.ECHO_CHARS - 3) + "..."
        assert err == f"error: state: complex entries must be [re, im] pairs, got {echo}\n" and len(err) < 200

    def test_non_utf8_model_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_cnot_doc()).encode("utf-16-le"))
        code, out, err = run(capsys, "check", "--model", str(path))
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert (code, out, err) == (2, "", f"error: model: parse error in {path}: {message}\n")


# Bad entries, as JSON text, and the message each gets wherever it stands.
BAD_ENTRIES = {
    "bool": ("[0.5, true]", "complex entries must be numeric, got [0.5, True]"),
    "string": ('[0.5, "1"]', "complex entries must be numeric, got [0.5, '1']"),
    "null": ("[0.5, null]", "complex entries must be numeric, got [0.5, None]"),
    "bare_bool": ("true", "complex entries must be [re, im] pairs, got True"),
    "bare_string": ('"x"', "complex entries must be [re, im] pairs, got 'x'"),
    "bare_null": ("null", "complex entries must be [re, im] pairs, got None"),
    "one": ("[0.5]", "complex entries must be [re, im] pairs, got [0.5]"),
    "three": ("[0.5, 0, 0]", "complex entries must be [re, im] pairs, got [0.5, 0, 0]"),
    "number": ("0.5", "complex entries must be [re, im] pairs, got 0.5"),
    "nan": ("[NaN, 0]", "complex entries must be finite"),
    "inf": ("[0, Infinity]", "complex entries must be finite"),
    "neg_inf": ("[-Infinity, 0]", "complex entries must be finite"),
    "1e400": ("[1e400, 0]", "complex entries must be finite"),
}


class TestLoaderEntries:
    """The complete error line for each kind of bad entry, placed after good ones."""

    def check(self, capsys, tmp_path, text) -> str:
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--model", str(path))
        assert (code, out) == (2, "")
        return err

    @staticmethod
    def with_entry(field, raw) -> str:
        doc = _cnot_doc()
        if field == "unitary":
            doc["unitary"][2][1] = "@"
        else:
            doc["ready_state"][1] = "@"
        return json.dumps(doc).replace('"@"', raw)

    @pytest.mark.parametrize("field", ["unitary", "ready_state"])
    @pytest.mark.parametrize("kind", list(BAD_ENTRIES))
    def test_bad_entry(self, capsys, tmp_path, field, kind):
        raw, message = BAD_ENTRIES[kind]
        err = self.check(capsys, tmp_path, self.with_entry(field, raw))
        assert err == f"error: {field}: {message}\n"

    def test_ragged_row(self, capsys, tmp_path):
        doc = _cnot_doc()
        doc["unitary"][2].pop()
        err = self.check(capsys, tmp_path, json.dumps(doc))
        assert err == "error: unitary: expected a vector of 4 complex entries\n"

    @pytest.mark.parametrize("field, message", [
        ("unitary", "expected 4 rows"),
        ("ready_state", "expected a vector of 2 complex entries"),
    ])
    def test_wrong_row_count(self, capsys, tmp_path, field, message):
        doc = _cnot_doc()
        doc[field].append(doc[field][0])
        assert self.check(capsys, tmp_path, json.dumps(doc)) == f"error: {field}: {message}\n"

    def test_reading_order(self, capsys, tmp_path):
        # a bad entry in row 1 is read before the short row 2, and a short row 1 before a bad entry in row 2
        doc = _cnot_doc()
        doc["unitary"][1][3] = [0.5, "1"]
        doc["unitary"][2].pop()
        err = self.check(capsys, tmp_path, json.dumps(doc))
        assert err == "error: unitary: complex entries must be numeric, got [0.5, '1']\n"
        doc = _cnot_doc()
        doc["unitary"][1].pop()
        doc["unitary"][2][0] = [0.5, "1"]
        err = self.check(capsys, tmp_path, json.dumps(doc))
        assert err == "error: unitary: expected a vector of 4 complex entries\n"


def _cnot_doc() -> dict:
    return json.loads((FIXTURES / "cnot.json").read_text())


def _pairs(a) -> list:
    """A complex array as the nested [re, im] pairs of a model file."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _set(doc: dict, field: str, value) -> None:
    """Set a top-level field of a model document, or entry X of its conserved block for conserved.X."""
    owner = doc["conserved"] if field.startswith("conserved.") else doc
    owner[field.removeprefix("conserved.")] = value


NON_HERMITIAN = _pairs(np.array([[1.0, 1.0], [0.0, 1.0]]))
# One invalid value per model-file field of cnot.json, in the order the loader reads them.
BAD_FIELDS = {
    "system_basis": _pairs(np.ones((2, 2))),
    "ready_state": _pairs(np.ones(2)),
    "unitary": _pairs(np.diag([2.0, 1.0, 1.0, 1.0])),
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
        eps = scale * HERMITICITY_TOL / np.sqrt(2.0)
        op = np.array([[1.0, eps], [0.0, -1.0]], dtype=complex)
        cnot = load_model(str(FIXTURES / "cnot.json"))
        for field in ("conserved.LA", "conserved.LB", "observable", "probe"):
            self.expect(accepted, f"^{field}: not Hermitian",
                        lambda: self.load(tmp_path, field, _pairs(op)))
        self.expect(accepted, "Hermitian", lambda: ConservedQuantity("multiplicative", op, np.eye(2)))
        self.expect(accepted, "Hermitian", lambda: noise_report(
            cnot.model, cnot.quantity, op, cnot.probe, np.array([1.0, 0.0]), 1e-9))
        self.expect(accepted, "Hermitian", lambda: variance(op, np.array([1.0, 0.0])))

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_unitarity(self, tmp_path, scale, accepted):
        # (1 + d) U for unitary U of dimension 4 has residual 2 * ((1 + d)**2 - 1)
        cnot = load_model(str(FIXTURES / "cnot.json"))
        d = np.sqrt(1.0 + scale * UNITARITY_TOL / 2.0) - 1.0
        u = (1.0 + d) * cnot.model.interaction
        self.expect(accepted, "^unitary: not unitary", lambda: self.load(tmp_path, "unitary", _pairs(u)))
        self.expect(accepted, "unitary", lambda: MeasurementModel(2, 2, np.eye(2), cnot.model.ready_state, u))

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_state_norm(self, tmp_path, scale, accepted):
        cnot = load_model(str(FIXTURES / "cnot.json"))
        # not an eigenstate of any operator below: a variance that rounds negative raises
        state = (1.0 + scale * STATE_NORM_TOL) * np.full(2, np.sqrt(0.5), dtype=complex)
        encoded = _pairs(state)
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
        with pytest.raises(PreconditionError, match="state"):
            _parse_state("5", 2)

    def test_long_basis_indices(self, capsys):
        # past Python's 4300-digit int() limit: out of range with a short message, and a
        # zero-padded index 1 still read as index 1
        code, out, err = run(capsys, "bound", "--model", "tests/fixtures/cnot.json", "--state", "1" * 5000)
        assert (code, out, err) == (2, "", "error: state: basis index of 5000 digits out of range for dimension 2\n")
        np.testing.assert_array_equal(_parse_state("0" * 5000 + "1", 2), [0.0, 1.0])
        np.testing.assert_array_equal(_parse_state("0" * 5000, 2), [1.0, 0.0])

    @pytest.mark.parametrize("spec", ["\u00b2", "\u0661", "\uff11", "1\u0660"])
    def test_non_ascii_digits_are_unknown_states(self, capsys, spec):
        # superscript two, Arabic-Indic one, fullwidth one, one then Arabic-Indic zero:
        # digits to str.isdigit, not basis indices
        for command in ("bound", "audit-variance"):
            code, out, err = run(capsys, command, "--model", "tests/fixtures/cnot.json", "--state", spec)
            assert (code, out, err) == (2, "", f"error: state: unknown state {spec!r}\n")

    def test_unnormalized_literal(self):
        with pytest.raises(PreconditionError, match="norm"):
            _parse_state("[[1,0],[1,0]]", 2)


def _without(*keys) -> dict:
    """cnot.json without the top-level ``keys``."""
    doc = _cnot_doc()
    for key in keys:
        del doc[key]
    return doc


def _swap_doc() -> dict:
    """cnot.json with SWAP for U: it moves u(1) (x) e0 to e0 (x) u(1), so pointer 1 is zero."""
    doc = _cnot_doc()
    doc["unitary"] = _pairs(np.eye(4)[[0, 2, 1, 3]])
    return doc


# One case per input the CLI refuses that no other test gives it: the model document (None for
# no --model), the command line after it, and the error line.
REFUSED_INPUTS = {
    "top_level": ([], ["check"], "file: top level must be an object"),
    "ready_state_missing": (_without("ready_state"), ["check"], "ready_state: missing"),
    "unitary_missing": (_without("unitary"), ["check"], "unitary: missing"),
    "conserved_missing": (_without("conserved"), ["check"], "conserved: missing or not an object"),
    "bound_observable": (
        _without("observable"),
        ["bound", "--state", "plus"],
        "observable: bound requires an observable in the model file",
    ),
    "rank_degenerate_pointer": (_swap_doc(), ["rank"], "model: degenerate_pointer: indices [1]"),
    "sweep_usage": (
        None,
        ["sweep", "--kind", "counterexample", "--seed", "1", "--n1", "2"],
        "usage: sweep requires --n1, --n2 and --count",
    ),
    "optimize_observable": (
        _without("observable"),
        ["optimize", "--seed", "0"],
        "observable: optimize requires an observable in the model file",
    ),
    # sweep's wording, checked before the model file, which does not exist, is read
    "optimize_count": (
        None,
        ["optimize", "--model", "tests/fixtures/missing.json", "--seed", "0", "--count", "0"],
        "count must be at least 1",
    ),
}


class TestRefusedInputs:
    @pytest.mark.parametrize("doc, argv, message", REFUSED_INPUTS.values(), ids=list(REFUSED_INPUTS))
    def test_exits_2_with_its_error(self, capsys, tmp_path, doc, argv, message):
        if doc is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps(doc))
            argv = [argv[0], "--model", str(path), *argv[1:]]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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
        doc = _cnot_doc()
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
        # eigenstates 9e-11 off unit norm: their variances round to -1.8e-10, and
        # to -7.2e-10 where <L^2> = 4, and clamp to 0
        for state in ("[[1.00000000009,0],[0,0]]", "[[0,0],[1.00000000009,0]]"):
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
        monkeypatch.setattr(theorem, "theorem_verdict", lambda *a, **k: fake)  # cli imports it per call
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

    def test_separate_negative_infinite_tolerance_reaches_the_check(self, capsys):
        code, out, err = run(capsys, "check", "--model", "tests/fixtures/cnot.json", "--tol", "-inf")
        assert (code, out, err) == (2, "", "error: tol: must be nonnegative and finite, got -inf\n")

    def test_refused_tolerance_is_echoed_as_typed(self, capsys):
        # optimize takes no --tol, so "--tol 5" is not joined into "--tol=5" before argparse refuses it
        code, out, err = run(capsys, "optimize", "--model", "tests/fixtures/cnot.json", "--seed", "0", "--tol", "5")
        assert (code, out) == (2, "")
        assert err == cli._build_parser().format_usage() + "wayaudit: error: unrecognized arguments: --tol 5\n"

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

    @pytest.mark.parametrize("kind", ["bound-audit", "counterexample"])
    def test_sweep_reports_first_failing_conservation(self, capsys, monkeypatch, kind):
        # blocks grouped within 0.5 hold eigenvalues far apart, so the block residual fails the precondition
        monkeypatch.setattr(commutant, "GROUPING_TOL", 0.5)
        code, out, err = run(
            capsys, "sweep", "--kind", kind, "--n1", "2", "--n2", "3", "--count", "5", "--seed", "1", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: check_conserved: residual \d\.\d{3}e[+-]\d{2} exceeds 1\.000e-09\n", err)

    @pytest.mark.parametrize("kind", ["bound-audit", "counterexample"])
    def test_sweep_accepts_zero_tolerance(self, capsys, kind):
        # every sampled trial has size-1 blocks only, whose block residual is exactly 0
        code, out, err = run(
            capsys, "sweep", "--kind", kind, "--n1", "2", "--n2", "3",
            "--count", "5", "--seed", "1", "--tol", "0", "--format", "json",
        )
        assert (code, err) == (0, "") and json.loads(out)["results"]

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
    @pytest.mark.parametrize("name", ["cnot", "identity", "nonconserving", "geometric_5x9"])
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

    def test_bound_geometric(self, capsys):
        # D = 45: the model echo is almost all of the report
        code, out, _ = run(capsys, "bound", "--model", "tests/fixtures/geometric_5x9.json", "--state", "plus")
        assert code == 0
        assert out == (GOLDEN / "bound_geometric_5x9_plus.json").read_text()

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

        # cli imports each sweep per call, from the module that defines it
        monkeypatch.setattr(noise, "bound_audit_sweep", refuse)
        monkeypatch.setattr(theorem, "counterexample_sweep", refuse)

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
    """Each command's results are its library report's fields, canonically encoded."""

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
                variance_identity_audit(q.system_op, q.apparatus_op, psi, m.ready_state, tol)
            ),
        }
        for (command, *extra), report in expected.items():
            results = self.results(capsys, command, "--model", "tests/fixtures/cnot.json", *extra)
            assert canonical_json(results) == canonical_json(report), command

    @pytest.mark.parametrize(
        "kind, config, sweep",
        [
            ("counterexample", theorem.CounterexampleConfig(3, 5, 40, 7), theorem.counterexample_sweep),
            ("bound-audit", noise.AuditConfig(2, 3, 40, 7), noise.bound_audit_sweep),
        ],
    )
    def test_sweep(self, capsys, kind, config, sweep):
        results = self.results(
            capsys, "sweep", "--kind", kind, "--n1", str(config.n1), "--n2", str(config.n2),
            "--count", str(config.count), "--seed", str(config.seed), "--format", "json",
        )
        summary = sweep(config).summary
        expected = {"kind": kind, "n1": config.n1, "n2": config.n2, "count": config.count, **asdict(summary)}
        assert canonical_json(results) == canonical_json(expected)

    def test_optimize(self, capsys):
        results = self.results(
            capsys, "optimize", "--model", "tests/fixtures/cnot.json",
            "--kind", "feasibility", "--seed", "4", "--count", "2",
        )
        assert results.pop("kind") == "feasibility"
        loaded = load_model("tests/fixtures/cnot.json")
        config = SearchConfig(seed=4, restarts=2)
        search = feasibility_search(loaded.quantity, loaded.observable, config)
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

    @staticmethod
    def _name(kind, n1, n2, seed=7):
        return f"sweep_{kind.replace('-', '_')}_{n1}x{n2}" + ("" if seed == 7 else f"_seed{seed}")

    GOLDENS = [
        ("bound-audit", 2, 3, 7),
        ("counterexample", 3, 5, 7),
        ("bound-audit", 1, 2, 7),
        ("bound-audit", 3, 5, 7),
        ("bound-audit", 5, 9, 7),  # 40 trials of dimension 45
        ("counterexample", 2, 2, 7),
        ("counterexample", 2, 3, 7),
        ("counterexample", 5, 9, 7),  # 40 trials of dimension 45
        # seeds of 2 and 4 words: 3 entropy words, which the seed pool pads with
        # zeros, and 5, which mix in after the pool
        ("counterexample", 3, 5, 2**32 + 5),
        ("bound-audit", 2, 3, 2**96 + 7),
    ]

    @pytest.mark.parametrize(
        "kind, n1, n2, seed",
        GOLDENS,
        ids=[f"{kind}-{n1}-{n2}" + ("" if seed == 7 else f"-seed{seed}") for kind, n1, n2, seed in GOLDENS],
    )
    def test_byte_identical(self, capsys, monkeypatch, tmp_path, kind, n1, n2, seed):
        self._check(capsys, monkeypatch, tmp_path, self._name(kind, n1, n2, seed), kind, n1, n2, 40, seed)

    @pytest.mark.parametrize("kind", ["bound-audit", "counterexample"])
    def test_no_per_trial_seeding(self, capsys, monkeypatch, tmp_path, kind):
        # every stream is built from seed words computed in batches: the sweep
        # path never seeds through default_rng or SeedSequence
        def refuse(*args, **kwargs):
            raise AssertionError("per-trial seeding on the sweep path")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        self._check(capsys, monkeypatch, tmp_path, self._name(kind, 2, 3), kind, 2, 3, 40, 7)

    def test_check_leaves_numpy_random_unloaded(self):
        # the streams' seed sequence class subclasses numpy.random's
        # ISeedSequence and is defined on the first sweep, so a command that
        # draws nothing does not import numpy.random
        code = (
            "import sys; from wayaudit.cli import main; "
            "main(['check', '--model', 'tests/fixtures/cnot.json']); print('numpy.random' in sys.modules)"
        )
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
        )
        assert done.returncode == 0 and done.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("kind", ["bound-audit", "counterexample"])
    @pytest.mark.parametrize("n1, n2", [(2, 3), (3, 5), (5, 9)])
    def test_chunk_invariant(self, capsys, monkeypatch, tmp_path, kind, n1, n2):
        # a chunk per trial writes the bytes of the default chunk rule, which
        # puts the trials in one chunk, or in two at 5x9: 298 bound-audit
        # trials in chunks of 289 and 9, 300 counterexample trials in 291 and 9
        stack = sweep_stack(kind, n1, n2)
        count = chunk_size(stack) + 9 if n1 == 5 else 40
        monkeypatch.chdir(tmp_path)  # the report echoes the relative --out path
        argv = ["sweep", "--kind", kind, "--n1", str(n1), "--n2", str(n2), "--count", str(count), "--seed", "7",
                "--format", "csv", "--out", "sweep.csv"]
        code, default_out, _ = run(capsys, *argv)
        default_csv = (tmp_path / "sweep.csv").read_bytes()
        assert len(chunk_sizes(count, stack)) == (2 if n1 == 5 else 1)
        monkeypatch.setattr(linalg, "SWEEP_CHUNK_BYTES", 1)
        assert chunk_sizes(count, stack) == [1] * count
        assert run(capsys, *argv) == (code, default_out, "") and code == 0
        assert (tmp_path / "sweep.csv").read_bytes() == default_csv

    @pytest.mark.parametrize(
        "kind, record", [("bound-audit", noise.BoundAuditRecord), ("counterexample", theorem.SweepTrial)]
    )
    def test_header_is_the_record_fields(self, capsys, tmp_path, kind, record):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--kind", kind, "--n1", "2", "--n2", "3", "--count", "3", "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0].split(",") == [f.name for f in fields(record)]


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


class TestJsonOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "tests/fixtures/cnot.json"),
            ("sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3", "--count", "5", "--seed", "1",
             "--format", "json"),
        ],
    )
    def test_out_is_the_stdout_report_serialized_once(self, capsys, monkeypatch, tmp_path, argv):
        calls = []
        serialize = cli.canonical_json
        monkeypatch.setattr(cli, "canonical_json", lambda report: calls.append(report) or serialize(report))
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()
        assert len(calls) == 1


# Each command that can write a JSON report, with the library entry point it calls first.
OUT_COMMANDS = [
    (("check", "--model", "tests/fixtures/cnot.json"), "check_conserved"),
    (("verdict", "--model", "tests/fixtures/cnot.json"), "theorem_verdict"),
    (("bound", "--model", "tests/fixtures/cnot.json", "--state", "plus"), "noise_report"),
    (("rank", "--model", "tests/fixtures/cnot.json"), "check_nondestructive"),
    (("audit-variance", "--model", "tests/fixtures/cnot.json", "--state", "plus"), "variance_identity_audit"),
    (("optimize", "--model", "tests/fixtures/cnot.json", "--kind", "feasibility", "--seed", "1"), "feasibility_search"),
    (("optimize", "--model", "tests/fixtures/cnot.json", "--kind", "epsilon", "--seed", "1"), "minimize_epsilon"),
    (("sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1",
      "--format", "json"), "counterexample_sweep"),
    (("sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3", "--count", "5", "--seed", "1",
      "--format", "json"), "bound_audit_sweep"),
]


class TestOutFirst:
    """Every command opens --out before it calls the library, and prints only once the file is committed."""

    @staticmethod
    def refuse(monkeypatch, entry, exc):
        def refused(*args, **kwargs):
            raise exc

        # cli binds its model and commutant entry points at import, and imports a theorem or
        # noise one inside the command that calls it: that one is patched where it is defined
        owner = cli if hasattr(cli, entry) else next(m for m in (theorem, noise) if hasattr(m, entry))
        monkeypatch.setattr(owner, entry, refused)

    @pytest.mark.parametrize("argv, entry", OUT_COMMANDS)
    def test_unwritable_out_comes_before_the_library(self, capsys, monkeypatch, tmp_path, argv, entry):
        self.refuse(monkeypatch, entry, AssertionError("the library ran before --out was opened"))
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: out: cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("argv, entry", OUT_COMMANDS)
    def test_failure_leaves_out_unchanged(self, capsys, monkeypatch, tmp_path, argv, entry):
        self.refuse(monkeypatch, entry, RuntimeError("library failed"))
        path = tmp_path / "report.json"
        path.write_bytes(b'{"earlier":"report"}\n')
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("internal error: RuntimeError: library failed")
        assert path.read_bytes() == b'{"earlier":"report"}\n'
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes files whatever their mode bits")
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--model", "tests/fixtures/cnot.json"),
            ("sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1"),
        ],
    )
    def test_read_only_out_is_refused(self, capsys, tmp_path, argv):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"kept\n")
        path.chmod(0o444)
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: out: cannot write {path}: Permission denied\n"
        assert path.read_bytes() == b"kept\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("name", ["", "new/"])
    def test_path_naming_no_file_is_refused(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)
        self.refuse(monkeypatch, "check_conserved", AssertionError("the library ran before --out was opened"))
        code, out, err = run(capsys, "check", "--model", str(REPO / "tests/fixtures/cnot.json"), "--out", name)
        assert (code, out) == (2, "")
        assert err == f"error: out: cannot write {name}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_error_text_is_deterministic(self, capsys, tmp_path):
        # the temporary file's random name must not reach the message
        argv = ("check", "--model", "tests/fixtures/cnot.json", "--out", str(tmp_path / "missing" / "x.json"))
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second and first[0] == 2
        assert ".tmp" not in first[2]


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

    @pytest.mark.parametrize(
        "kind, module, kernel",
        [("bound-audit", noise, "_audit_chunk"), ("counterexample", theorem, "sample_instance_stack")],
    )
    def test_failure_leaves_out_unchanged(self, capsys, monkeypatch, tmp_path, kind, module, kernel):
        # three full chunks at 2x3; the second one fails
        count = 3 * chunk_size(sweep_stack(kind, 2, 3))
        original, calls = getattr(module, kernel), []

        def failing(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise RuntimeError("chunk failed")
            return original(*args)

        monkeypatch.setattr(module, kernel, failing)
        out_path = tmp_path / "sweep.csv"
        out_path.write_bytes(b"earlier,report\n1,2\n")
        code, out, err = run(
            capsys, "sweep", "--kind", kind, "--n1", "2", "--n2", "3",
            "--count", str(count), "--seed", "1", "--out", str(out_path),
        )
        assert (code, out, len(calls)) == (3, "", 2)
        assert err.startswith("internal error: RuntimeError: chunk failed")
        assert out_path.read_bytes() == b"earlier,report\n1,2\n"
        assert list(tmp_path.iterdir()) == [out_path]

    def test_out_keeps_file_mode(self, capsys, tmp_path):
        # the CSV replaces --out with the permissions open(--out, "w") would leave
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("earlier\n")
        kept.chmod(0o640)
        for path in (kept, new):
            code, _, _ = run(
                capsys, "sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2",
                "--count", "5", "--seed", "1", "--out", str(path),
            )
            assert code == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert kept.read_bytes() == new.read_bytes()
        assert sorted(tmp_path.iterdir()) == [kept, new]

    def test_symlinked_out_is_written_through(self, capsys, tmp_path):
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "sweep.csv", tmp_path / "link.csv"
        target.write_text("earlier\n")
        link.symlink_to(target)
        argv = ["sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1"]
        assert run(capsys, *argv, "--out", str(link))[0] == 0
        assert link.is_symlink() and link.resolve() == target
        assert run(capsys, *argv, "--out", str(tmp_path / "plain.csv"))[0] == 0
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert sorted(p.name for p in target.parent.iterdir()) == ["sweep.csv"]

    def test_fifo_out_is_written_in_place(self, capsys, tmp_path):
        # a pipe is not replaced by a regular file: its reader gets the CSV bytes
        # (about 4 KB, within the pipe's buffer, so the read end is read after the run)
        fifo, plain = tmp_path / "sweep.fifo", tmp_path / "plain.csv"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        argv = ["sweep", "--kind", "bound-audit", "--n1", "2", "--n2", "3", "--count", "30", "--seed", "1"]
        try:
            assert run(capsys, *argv, "--out", str(fifo))[0] == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert run(capsys, *argv, "--out", str(plain))[0] == 0
        assert received == plain.read_bytes()
        assert sorted(tmp_path.iterdir()) == [plain, fifo]

    def test_hard_linked_out_keeps_its_links(self, capsys, tmp_path):
        out_path, other = tmp_path / "sweep.csv", tmp_path / "other.csv"
        out_path.write_text("earlier\n")
        os.link(out_path, other)
        argv = ["sweep", "--kind", "counterexample", "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1"]
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        assert os.path.samefile(out_path, other)
        assert run(capsys, *argv, "--out", str(tmp_path / "plain.csv"))[0] == 0
        assert other.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.csv", "plain.csv", "sweep.csv"]

    def test_csv_requires_out(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--kind", "counterexample",
            "--n1", "2", "--n2", "2", "--count", "5", "--seed", "1",
        )
        assert code == 2
        assert "out" in err


class TestSweepMemory:
    """A sweep's peak memory does not grow with its trial count."""

    @pytest.mark.parametrize("kind, n1, n2", [("bound-audit", 2, 3), ("counterexample", 3, 5)])
    def test_peak_flat_in_count(self, capsys, tmp_path, kind, n1, n2):
        def peak(count: int) -> int:
            argv = [
                "sweep", "--kind", kind, "--n1", str(n1), "--n2", str(n2),
                "--count", str(count), "--seed", "3", "--out", str(tmp_path / "sweep.csv"),
            ]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(4)  # one-time allocations (parser, lazy imports) fall outside the measurement
        chunk = chunk_size(sweep_stack(kind, n1, n2))
        assert chunk_sizes(2 * chunk, sweep_stack(kind, n1, n2)) == [chunk] * 2
        small, large = peak(2 * chunk), peak(20 * chunk)
        assert large <= 1.5 * small, f"peak {large} B at {20 * chunk} trials vs {small} B at {2 * chunk}"


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
        doc = _cnot_doc()
        del doc["probe"]
        path = tmp_path / "noprobe.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "optimize", "--model", str(path), "--seed", "1")
        assert code == 2
        assert "probe" in err

    def test_takes_no_tolerance(self, capsys):
        # no search reads a tolerance: --tol is refused, and the report echoes the default
        argv = ("optimize", "--model", "tests/fixtures/cnot.json", "--kind", "feasibility", "--count", "1", "--seed", "0")
        code, out, err = run(capsys, *argv, "--tol", "1e-3")
        assert (code, out) == (2, "") and "--tol" in err
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["tolerances"]["tol"] == linalg.VERDICT_TOL

    def test_help_describes_every_option(self, capsys):
        code, out, _ = run(capsys, "optimize", "--help")
        assert code == 0 and "--tol" not in out
        assert "search to run" in out and "restart seed" in out


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

    @pytest.mark.parametrize("tol", ["1e-9", "0.3", "0.5", "0.9"])
    def test_loose_tol_keeps_flag_and_rank_consistent(self, capsys, tmp_path, tol):
        # LB = diag(0.1, 0.2) on cnot: the pointer Gram table diag(0.1, 0.2) spreads by 0.2,
        # so a --tol above that must not call it constant while its rank is 2
        doc = _cnot_doc()
        doc["conserved"]["LB"] = _pairs(np.diag([0.1, 0.2]))
        path = tmp_path / "lb.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "rank", "--model", str(path), "--tol", tol)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert (results["rank"], results["constant_case"]) == (2, False)


class TestAuditVarianceCommand:
    def test_identity_model_scaled_system_factor(self, capsys):
        code, out, _ = run(
            capsys, "audit-variance", "--model", "tests/fixtures/cnot.json", "--state", "plus"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["corrected_holds"] is True

    @pytest.mark.parametrize("tol, holds", [("1e-9", False), ("100", True)])
    def test_tol_decides_the_claim(self, capsys, tol, holds):
        # on |+> (x) |0> the claim compares lhs 0.25 with paper_rhs 0: within --tol 100, not 1e-9
        code, out, _ = run(
            capsys, "audit-variance", "--model", "tests/fixtures/cnot.json", "--state", "plus", "--tol", tol
        )
        report = json.loads(out)
        assert code == 0 and report["tolerances"]["tol"] == float(tol)
        assert (report["results"]["lhs"], report["results"]["paper_rhs"]) == (0.25, 0)
        assert report["results"]["paper_claim_holds"] is holds


class TestCanonicalSerialization:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": 0.1, "a": 1})
        assert text == '{"a":1,"b":0.10000000000000001}\n'

    def test_complex_encoding(self):
        assert canonical_json(1 + 2j) == "[1,2]\n"

    def test_numpy_scalars_as_python_values(self):
        values = [np.float64(0.1), np.float32(0.5), np.int64(-3), np.bool_(True), np.complex128(-0.0 + 2j)]
        assert canonical_json(values) == "[0.10000000000000001,0.5,-3,true,[0,2]]\n"
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(np.bytes_(b"x"))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))


def _reference(value) -> str:
    """The report byte contract, written out for nested lists of Python floats and complex numbers."""
    if isinstance(value, list):
        return "[" + ",".join(map(_reference, value)) + "]"
    if isinstance(value, complex):
        return f"[{_reference(value.real)},{_reference(value.imag)}]"
    if not math.isfinite(value):
        raise ValueError("non-finite value in report")
    return format(value + 0.0, ".17g")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 + 2]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
# JSON ints, beyond 2**53 too, are converted to the nearest float as complex() converts them.
NUMBERS = st.one_of(FLOATS, st.integers(2**53, 2**64), st.integers(-(2**1000), 2**1000))
PAIRS = st.tuples(NUMBERS, NUMBERS)
MATRICES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(PAIRS, min_size=n, max_size=n), min_size=1, max_size=4)
)
# CSV columns of each type the column formatter serves (floats or None, bools
# or None, ints), and columns that mix types, which no sweep writes
CSV_COLUMNS = st.one_of(
    st.lists(st.one_of(st.none(), FLOATS), max_size=12),
    st.lists(st.one_of(st.none(), st.booleans()), max_size=12),
    st.lists(st.integers(-(2**64), 2**64), max_size=12),
)
MIXED_CSV_COLUMNS = st.lists(
    st.one_of(st.none(), FLOATS, st.integers(-10, 10), st.booleans()), min_size=2, max_size=12
).filter(lambda values: len(set(map(type, values)) - {type(None)}) > 1)
# A bound audit's summary row: the trial label, the dimensions, no epsilon^2,
# then violation fractions and counts
SUMMARY_ROWS = st.tuples(
    st.just("summary"), st.integers(1, 9), st.integers(2, 9), st.none(),
    FLOATS, FLOATS, st.integers(0, 10**6), FLOATS, st.integers(0, 10**6),
)
SUMMARY_EXAMPLE = ("summary", 2, 3, None, 0.0, 0.25, 40, -0.0, 0)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def _float_array(shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


@st.composite
def _report_arrays(draw):
    """A float array, or a complex one whose parts (signed zeros included) are drawn as floats."""
    shape = draw(SHAPES)
    if draw(st.booleans()):
        return draw(_float_array(shape))
    return draw(_float_array((*shape, 2))).view(complex).reshape(shape)


@st.composite
def _block_diagonal_arrays(draw):
    """A block-diagonal float or complex matrix: -0.0 at both off-block corners, 5e-324 and
    the largest finite float at the two ends of the diagonal, its negative at the second block's
    first diagonal cell."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=6))
    dim = sum(sizes)
    a = np.zeros((dim, dim, 2) if draw(st.booleans()) else (dim, dim))
    start = 0
    for size in sizes:
        block = a[start : start + size, start : start + size]
        block[...] = draw(_float_array(block.shape))
        start += size
    a[0, -1] = a[-1, 0] = -0.0
    a[0, 0], a[-1, -1], a[sizes[0], sizes[0]] = 5e-324, 1.7976931348623157e308, -1.7976931348623157e308
    return a.view(complex).reshape(dim, dim) if a.ndim == 3 else a


BAD_NUMBERS = st.sampled_from([True, False, "1", None, {"re": 1}, 10**400, -(10**400)])


@st.composite
def _invalid_fields(draw):
    """A matrix or vector field of a model file, as JSON reads it, with one or two entries
    spoiled, and its expected shape: a short row, a pair of length 1 or 3, a bool, str,
    None, dict or out-of-range int among the numbers, or one level of nesting too many."""
    field = json.loads(json.dumps(draw(MATRICES)))
    if draw(st.booleans()):
        field = field[0]
        shape, rows = (len(field),), [field]
    else:
        shape, rows = (len(field), len(field[0])), field
    for _ in range(draw(st.integers(1, 2))):
        row = draw(st.sampled_from(rows))
        pair = draw(st.sampled_from(row)) if row else []
        if not pair:  # spoiled to nothing by the first pass
            continue
        index = draw(st.integers(0, len(pair) - 1))
        spoil = draw(st.sampled_from(["short row", "short pair", "long pair", "number", "nested number", "nested pair"]))
        if spoil == "short row":
            row.pop()
        elif spoil == "short pair":
            pair.pop()
        elif spoil == "long pair":
            pair.append(draw(NUMBERS))
        elif spoil == "number":
            pair[index] = draw(BAD_NUMBERS)
        elif spoil == "nested number":
            pair[index] = [pair[index]]
        else:
            row[row.index(pair)] = [pair]
    return field, shape


class TestEncoderProperties:
    """Arrays are encoded in bulk exactly as their entries are one by one, for JSON and CSV alike."""

    @settings(max_examples=300, deadline=None)
    @given(_report_arrays())
    def test_array_matches_scalar_path(self, a):
        assert canonical_json(a) == cli._canonical(a.tolist()) + "\n" == _reference(a.tolist()) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(_report_arrays().filter(lambda a: a.size > 0), st.data())
    def test_non_finite_anywhere_raises(self, a, data):
        a = a.copy()
        index = data.draw(st.integers(0, a.size - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        flat = a.reshape(-1)
        flat[index] = complex(0.0, bad) if a.dtype.kind == "c" and data.draw(st.booleans()) else bad
        for value in (a, a.tolist()):
            with pytest.raises(ValueError, match="^non-finite value in report$"):
                canonical_json(value)

    @settings(max_examples=200, deadline=None)
    @given(CSV_COLUMNS, SUMMARY_ROWS)
    @example([-0.0, 5e-324, None, 1.7976931348623157e308, -1.7976931348623157e308], SUMMARY_EXAMPLE)
    def test_csv_column_matches_cells(self, values, summary):
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v) if isinstance(v, (int, str)) else _reference(v)

        columns = [values, [1.5 if v is None else None for v in values]]
        expected = "".join(f"{cell(a)},{cell(b)}\n" for a, b in zip(*columns))
        assert cli._csv_rows(columns) == expected
        # the summary row is formatted as a batch of one
        assert cli._csv_rows([[v] for v in summary]) == ",".join(map(cell, summary)) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(MIXED_CSV_COLUMNS)
    def test_csv_mixed_column_raises(self, values):
        with pytest.raises(TypeError, match="mixed types"):
            cli._csv_rows([values])

    def test_csv_column_of_another_type_raises(self):
        with pytest.raises(TypeError, match="^cannot write <class 'complex'> to csv$"):
            cli._csv_rows([[1j, None]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_csv_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="^non-finite value in report$"):
            cli._csv_rows([[1.0, None, bad]])

    @settings(max_examples=200, deadline=None)
    @given(MATRICES)
    def test_loader_converts_as_complex(self, rows):
        literal = json.loads(json.dumps(rows))  # as read from a model file: [re, im] lists, exact ints
        expected = np.array([[complex(re, im) for re, im in row] for row in literal])
        for value, want in ((literal, expected), (literal[0], expected[0])):
            loaded = cli._complex_array(value, want.shape, "field")
            assert loaded.dtype == complex and loaded.shape == want.shape
            assert np.array_equal(loaded.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(_invalid_fields())
    def test_loader_rejects_as_entry_walk(self, case):
        # the bulk checks reject every invalid field, and the error is the entry walk's
        value, shape = case
        try:
            cli._check_entries(value, shape, "field")
        except PreconditionError as exc:
            expected = (exc.check, str(exc))
        else:
            reject()  # two mutations undid each other
        with pytest.raises(PreconditionError) as bulk:
            cli._complex_array(value, shape, "field")
        assert (bulk.value.check, str(bulk.value)) == expected

    @settings(max_examples=200, deadline=None)
    @given(_block_diagonal_arrays())
    def test_sparse_arrays_match_reference(self, a):
        # mostly-zero arrays, with signed zeros, the smallest subnormal and the largest
        # finite floats at known places, and their transposes, which are not contiguous
        for value in (a, a.T):
            assert canonical_json(value) == _reference(value.tolist()) + "\n"


OPTIMIZE_GOLDENS = [
    # LA=diag(1,2), LB=diag(1,2,4): commutant blocks (1,2,2,1), two block sizes
    ("optimize_feasibility_blocks_2x3", "blocks_2x3", "feasibility", "6"),
    # the same quantity with the commuting observable diag(1,2): a control, whose
    # restarts reach zero through leak steps
    ("optimize_feasibility_control_2x3", "control_2x3", "feasibility", "0"),
    ("optimize_epsilon_cnot", "cnot", "epsilon", "0"),
    # ROTATED_2X3's factors: blocks (1,2,2,1) in a complex eigenbasis, so the
    # epsilon projections onto the eigenvector coordinates are no permutation
    ("optimize_epsilon_rotated_2x3", "rotated_2x3", "epsilon", "0"),
]


class TestOptimizeGoldens:
    """Optimizer reports are pinned byte for byte: trajectories, floors and the best unitary."""

    @staticmethod
    def _optimize(capsys, model, kind, seed):
        code, out, _ = run(
            capsys, "optimize", "--model", f"tests/fixtures/{model}.json",
            "--kind", kind, "--count", "2", "--seed", seed,
        )
        assert code == 0
        return out

    @pytest.mark.parametrize("name, model, kind, seed", OPTIMIZE_GOLDENS)
    def test_byte_identical(self, capsys, name, model, kind, seed):
        assert self._optimize(capsys, model, kind, seed) == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name, model, kind, seed", OPTIMIZE_GOLDENS)
    def test_descent_does_not_depend_on_the_assembly(self, capsys, monkeypatch, name, model, kind, seed):
        # the joint unitary, assembled once per search, as the dense V blocks V^dag:
        # every descent key of the golden keeps its bytes, and the best unitary its value to 1e-14
        dense = property(lambda point: point.vectors @ point.blocks @ point.vectors.conj().T)
        monkeypatch.setattr(commutant._BlockPoint, "joint", dense)
        ours = json.loads(self._optimize(capsys, model, kind, seed))["results"]
        golden = json.loads((GOLDEN / f"{name}.json").read_text())["results"]
        keys = ("objective_trace", "restart_objectives", "stop_reasons", "restart_min_curvature", "best_objective")
        for key in (*keys, "best_ready_state"):
            assert canonical_json(ours[key]) == canonical_json(golden[key]), key
        assert np.abs(np.array(ours["best_unitary"]) - np.array(golden["best_unitary"])).max() <= 1e-14
