"""Command-line interface: parse model files, dispatch checks, emit reports.

Exit codes: 0 on success, 1 when a falsifiable scientific assertion fails (a
theorem contradiction or a Robertson-bound violation), 2 on usage or input
errors, 3 on an internal error (a crash never reads as a falsified
assertion). Reports serialize canonically (sorted keys, floats at 17 significant
digits), so identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__
from .commutant import SearchConfig, feasibility_search, minimize_epsilon
from .errors import PreconditionError
from .linalg import DEFAULT_TOLERANCES, as_state, require_hermitian
from .model import (
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_exact,
    check_nondestructive,
)
from .noise import AuditConfig, bound_audit_sweep, noise_report, variance_identity_audit
from .theorem import counterexample_sweep, pointer_gram_rank, require_sweep_inputs, theorem_verdict

__all__ = ["LoadedModel", "ModelFileError", "emit_report", "load_model", "main"]

BOUND_AUDIT_COLUMNS = (
    "trial",
    "n1",
    "n2",
    "epsilon_sq",
    "robertson_bound",
    "paper_bound",
    "paper_defined",
    "yanase_applicable",
    "yanase_bound",
    "simplified_applicable",
    "simplified_bound",
    "robertson_valid",
    "paper_valid",
    "yanase_valid",
    "simplified_valid",
)

COUNTEREXAMPLE_COLUMNS = (
    "trial",
    "leakage",
    "deficit",
    "commutator_norm",
    "degenerate_pointer",
    "conforming",
    "counterexample",
)


class ModelFileError(ValueError):
    """Invalid model file; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# ---------------------------------------------------------------------------
# canonical serialization


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in report")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"[{_format_float(value.real)},{_format_float(value.imag)}]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, dict):
        parts = [f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in sorted(value.items())]
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(report) -> str:
    return _canonical(report) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    return str(value)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def emit_report(report, format: str = "json", path: str | None = None) -> None:
    """Serialize a report canonically and write it to ``path`` (stdout if None).

    ``format`` is "json" for a report dict, or "csv" for a dict holding
    ``columns`` and ``rows``.
    """
    if format == "json":
        text = canonical_json(report)
    elif format == "csv":
        text = _csv_text(report["columns"], report["rows"])
    else:
        raise ModelFileError("format", f"unknown format {format!r}")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelFileError("out", f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# model files


def _is_number(x) -> bool:
    """JSON numbers only: booleans are ints to Python but not numbers in a model file."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_entry(obj, field: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ModelFileError(field, f"complex entries must be [re, im] pairs, got {obj!r}")
    re, im = obj
    if not _is_number(re) or not _is_number(im):
        raise ModelFileError(field, f"complex entries must be numeric, got {obj!r}")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ModelFileError(field, "complex entries must be finite")
    return complex(re, im)


def _vector(obj, dim: int, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ModelFileError(field, f"expected a vector of {dim} complex entries")
    return np.array([_complex_entry(e, field) for e in obj], dtype=complex)


def _matrix(obj, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ModelFileError(field, f"expected {rows} rows")
    return np.stack([_vector(r, cols, field) for r in obj])


def encode_vector(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def encode_matrix(a: np.ndarray) -> list:
    return [encode_vector(row) for row in np.asarray(a, dtype=complex)]


class LoadedModel:
    def __init__(self, model, quantity, observable, probe):
        self.model = model
        self.quantity = quantity
        self.observable = observable
        self.probe = probe

    def echo(self) -> dict:
        doc = {
            "n1": self.model.n1,
            "n2": self.model.n2,
            "system_basis": encode_matrix(self.model.system_basis),
            "ready_state": encode_vector(self.model.ready_state),
            "unitary": encode_matrix(self.model.interaction),
            "conserved": {
                "kind": self.quantity.kind,
                "LA": encode_matrix(self.quantity.system_op),
                "LB": encode_matrix(self.quantity.apparatus_op),
            },
        }
        if self.observable is not None:
            doc["observable"] = encode_matrix(self.observable)
        if self.probe is not None:
            doc["probe"] = encode_matrix(self.probe)
        return doc


# The model-file field of each dataclass field a structural check names, where the two differ.
_FILE_FIELDS = {
    "interaction": "unitary",
    "kind": "conserved.kind",
    "system_op": "conserved.LA",
    "apparatus_op": "conserved.LB",
}


def _checked(build, *args):
    """``build(*args)``; a failed structural check is reported for the model-file field it names."""
    try:
        return build(*args)
    except PreconditionError as exc:
        detail = str(exc).removeprefix(f"{exc.check}: ")
        raise ModelFileError(_FILE_FIELDS.get(exc.check, exc.check), detail) from exc


def _load_document(doc: dict) -> LoadedModel:
    if not isinstance(doc, dict):
        raise ModelFileError("file", "top level must be an object")
    for key in ("n1", "n2"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ModelFileError(key, "must be a positive integer")
    n1, n2 = doc["n1"], doc["n2"]

    basis = _matrix(doc["system_basis"], n1, n1, "system_basis") if "system_basis" in doc else None
    if "ready_state" not in doc:
        raise ModelFileError("ready_state", "missing")
    ready = _vector(doc["ready_state"], n2, "ready_state")
    if "unitary" not in doc:
        raise ModelFileError("unitary", "missing")
    interaction = _matrix(doc["unitary"], n1 * n2, n1 * n2, "unitary")
    if basis is None:  # built only now that the unitary has bounded n1
        basis = np.eye(n1, dtype=complex)
    model = _checked(MeasurementModel, n1, n2, basis, ready, interaction)

    conserved = doc.get("conserved")
    if not isinstance(conserved, dict):
        raise ModelFileError("conserved", "missing or not an object")
    la = _matrix(conserved.get("LA"), n1, n1, "conserved.LA")
    lb = _matrix(conserved.get("LB"), n2, n2, "conserved.LB")
    quantity = _checked(ConservedQuantity, conserved.get("kind"), la, lb)

    operators = {}
    for field, dim in (("observable", n1), ("probe", n2)):
        if field in doc:
            operators[field] = _matrix(doc[field], dim, dim, field)
            _checked(require_hermitian, operators[field], field)
    return LoadedModel(model, quantity, operators.get("observable"), operators.get("probe"))


def load_model(path: str) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelFileError("model", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFileError("model", f"parse error in {path}: {exc}") from exc
    return _load_document(doc)


def _parse_state(spec: str, dim: int) -> np.ndarray:
    """Named states ('plus', basis index) or an inline [[re,im],...] literal."""
    if spec == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if spec.isdigit():
        index = int(spec)
        if index >= dim:
            raise ModelFileError("state", f"basis index {index} out of range for dimension {dim}")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return v
    if spec.startswith("["):
        try:
            literal = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ModelFileError("state", f"parse error: {exc}") from exc
        return _checked(as_state, _vector(literal, dim, "state"))
    raise ModelFileError("state", f"unknown state {spec!r}")


# ---------------------------------------------------------------------------
# report assembly


def _base_report(args, seed: int | None) -> dict:
    echo = [args.command]
    for name in ("model", "kind", "state", "n1", "n2", "count", "seed", "out", "format"):
        value = getattr(args, name, None)
        if value is not None:
            echo.extend([f"--{name}", str(value)])
    return {
        "command": echo,
        "version": __version__,
        "seed": seed,
        "tolerances": {"tol": args.tol, **asdict(DEFAULT_TOLERANCES)},
    }


def _emit(args, loaded: LoadedModel, results: dict, seed: int | None = None) -> None:
    """A single-model command's report: the command echo, the model and ``results``,
    to stdout and to ``--out`` if given."""
    report = _base_report(args, seed)
    report["model"] = loaded.echo()
    report["results"] = results
    sys.stdout.write(canonical_json(report))
    if args.out is not None:
        emit_report(report, "json", args.out)


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args) -> int:
    loaded = load_model(args.model)
    conserved = check_conserved(loaded.model, loaded.quantity, args.tol)
    nd = check_nondestructive(loaded.model, args.tol)
    if nd.error is None and nd.verdict:
        exact = asdict(check_exact(loaded.model, args.tol, nondestructive=nd))
    else:
        exact = {"error": nd.error or "precondition_failed: check_nondestructive"}
    _emit(args, loaded, {"conserved": asdict(conserved), "nondestructive": asdict(nd), "exact": exact})
    return 0


def _cmd_verdict(args) -> int:
    loaded = load_model(args.model)
    verdict = _checked(theorem_verdict, loaded.model, loaded.quantity, args.tol)
    _emit(args, loaded, asdict(verdict))
    return 1 if verdict.outcome == "contradiction" else 0


def _cmd_bound(args) -> int:
    loaded = load_model(args.model)
    if loaded.observable is None:
        raise ModelFileError("observable", "bound requires an observable in the model file")
    if loaded.probe is None:
        raise ModelFileError("probe", "bound requires a probe in the model file")
    psi = _parse_state(args.state, loaded.model.n1)
    nr = _checked(noise_report, loaded.model, loaded.quantity, loaded.observable, loaded.probe, psi, args.tol)
    _emit(args, loaded, asdict(nr))
    return 0 if nr.robertson.valid else 1


def _cmd_rank(args) -> int:
    loaded = load_model(args.model)
    nd = check_nondestructive(loaded.model, args.tol)
    if nd.error is not None:
        raise ModelFileError("model", nd.error)
    gram_rank = pointer_gram_rank(loaded.quantity.apparatus_op, nd.pointers, args.tol)
    _emit(args, loaded, asdict(gram_rank))
    return 0


def _cmd_audit_variance(args) -> int:
    loaded = load_model(args.model)
    psi = _parse_state(args.state, loaded.model.n1)
    audit = variance_identity_audit(
        loaded.quantity.system_op, loaded.quantity.apparatus_op, psi, loaded.model.ready_state
    )
    _emit(args, loaded, asdict(audit))
    return 0


def _require_seed(args) -> int:
    if args.seed is None:
        raise ModelFileError("seed", "--seed is required for randomized commands")
    if args.seed < 0:
        raise ModelFileError("seed", "--seed must be nonnegative")
    return args.seed


def _require_out(args) -> None:
    """The --out usage errors of a sweep, found before any trial runs; creates and truncates nothing."""
    if args.out is None:
        if args.format == "csv":
            raise ModelFileError("out", "--out is required for csv output")
        return
    target = args.out if os.path.exists(args.out) else os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out) or not os.access(target, os.W_OK):
        raise ModelFileError("out", f"cannot write {args.out}")


def _cmd_sweep(args) -> int:
    seed = _require_seed(args)
    if args.n1 is None or args.n2 is None or args.count is None:
        raise ModelFileError("usage", "sweep requires --n1, --n2 and --count")
    if args.kind == "counterexample":
        require_sweep_inputs(args.n1, args.n2, args.count, seed)
    else:
        config = AuditConfig(args.n1, args.n2, args.count, seed, args.tol)
    _require_out(args)
    report = _base_report(args, seed)
    if args.kind == "counterexample":
        sweep = counterexample_sweep(args.n1, args.n2, args.count, seed, args.tol)
        rows = [{c: getattr(t, c) for c in COUNTEREXAMPLE_COLUMNS} for t in sweep.trials]
        csv_report = {"columns": COUNTEREXAMPLE_COLUMNS, "rows": rows}
        report["results"] = {
            "kind": "counterexample",
            "n1": sweep.n1,
            "n2": sweep.n2,
            "count": sweep.count,
            "conforming_count": sweep.conforming_count,
            "counterexamples": sweep.counterexamples,
            "max_conforming_commutator": sweep.max_conforming_commutator,
            "no_counterexample": sweep.no_counterexample,
        }
        failed = sweep.counterexamples > 0
    else:
        audit = bound_audit_sweep(config)
        rows = [{c: getattr(r, c) for c in BOUND_AUDIT_COLUMNS} for r in audit.records]
        s = audit.summary
        # Summary row reuses the schema: *_bound columns carry violation
        # fractions, *_defined/_applicable carry counts, *_valid carry
        # violation counts.
        rows.append(
            {
                "trial": "summary",
                "n1": args.n1,
                "n2": args.n2,
                "epsilon_sq": None,
                "robertson_bound": s.robertson_violation_fraction,
                "paper_bound": s.paper_violation_fraction,
                "paper_defined": s.paper_defined,
                "yanase_applicable": s.yanase_applicable,
                "yanase_bound": s.yanase_violation_fraction,
                "simplified_applicable": s.simplified_applicable,
                "simplified_bound": s.simplified_violation_fraction,
                "robertson_valid": s.robertson_violations,
                "paper_valid": s.paper_violations,
                "yanase_valid": s.yanase_violations,
                "simplified_valid": s.simplified_violations,
            }
        )
        csv_report = {"columns": BOUND_AUDIT_COLUMNS, "rows": rows}
        report["results"] = {
            "kind": "bound-audit",
            "n1": args.n1,
            "n2": args.n2,
            "count": args.count,
            **asdict(s),
        }
        failed = s.robertson_violations > 0

    if args.format == "csv":
        emit_report(csv_report, "csv", args.out)
    elif args.out is not None:
        emit_report(report, "json", args.out)
    sys.stdout.write(canonical_json(report))
    return 1 if failed else 0


def _cmd_optimize(args) -> int:
    seed = _require_seed(args)
    loaded = load_model(args.model)
    if loaded.observable is None:
        raise ModelFileError("observable", "optimize requires an observable in the model file")
    restarts = args.count if args.count is not None else 8
    config = SearchConfig(seed=seed, restarts=restarts)
    if args.kind == "feasibility":
        result = feasibility_search(loaded.quantity, loaded.observable, loaded.model.n2, config)
    else:
        if loaded.probe is None:
            raise ModelFileError("probe", "optimize --kind epsilon requires a probe in the model file")
        result = minimize_epsilon(
            loaded.quantity,
            loaded.observable,
            loaded.probe,
            loaded.model.ready_state,
            config=config,
        )
    _emit(args, loaded, {"kind": args.kind, **asdict(result)}, seed)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wayaudit",
        description="Verify measurement models against a multiplicative conservation law "
        "and audit the associated noise bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=False):
        p.add_argument("--model", required=True, help="model file (JSON)")
        if state:
            p.add_argument("--state", required=True, help="system state: index, 'plus', or [[re,im],...]")
        p.add_argument("--tol", type=float, default=1e-9, help="verdict tolerance (default 1e-9)")
        p.add_argument("--out", default=None, help="write the report to this path")

    for name, func, state, summary in (
        ("check", _cmd_check, False, "conservation / nondestructive / exactness checks"),
        ("verdict", _cmd_verdict, False, "hypothesis checks plus the commutator conclusion"),
        ("bound", _cmd_bound, True, "noise figure and every lower bound for one state"),
        ("rank", _cmd_rank, False, "pointer Gram-matrix rank analysis"),
        ("audit-variance", _cmd_audit_variance, True, "product-state variance claim audit"),
    ):
        p = sub.add_parser(name, help=summary)
        common(p, state)
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="seeded randomized sweeps (CSV records)")
    p.add_argument("--kind", choices=("counterexample", "bound-audit"), required=True)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="search the commutant for low-noise or exact schemes")
    common(p)
    p.add_argument("--kind", choices=("epsilon", "feasibility"), default="epsilon")
    p.add_argument("--count", type=int, default=None, help="number of restarts (default 8)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_optimize)

    return parser


def _bind_tol(argv: list[str]) -> list[str]:
    """Join "--tol VALUE" into "--tol=VALUE": argparse would take a value such as
    -inf, -nan or -1e-3 for an option and reject it before it is validated."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--tol" else None
        out.append(arg if value is None else f"--tol={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_bind_tol(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ModelFileError("tol", f"must be nonnegative and finite, got {args.tol!r}")
        return args.func(args)
    except ValueError as exc:  # ModelFileError and PreconditionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"({os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
