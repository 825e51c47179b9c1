"""Command-line interface: parse model files, dispatch checks, emit reports.

Exit codes: 0 on success, 1 when a falsifiable scientific assertion fails (a
theorem contradiction or a Robertson-bound violation), 2 on usage or input
errors, 3 on an internal error (a crash never reads as a falsified
assertion). Reports serialize canonically (sorted keys, floats at 17 significant
digits), so identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import traceback
from dataclasses import asdict

import numpy as np

from . import __version__
from .commutant import SearchConfig, feasibility_search, minimize_epsilon
from .errors import PreconditionError
from .linalg import GROUPING_TOL, HERMITICITY_TOL, RANK_TOL, UNITARITY_TOL, as_state, require_hermitian
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


def _format_floats(values: list[float]) -> list[str]:
    """Python floats as every report, JSON or CSV, writes them: 17 significant
    digits, with -0.0 written as 0. One finite check covers the whole batch."""
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value in report")
    # 0.0 and -0.0 are the falsy floats: both are written as format(0.0, ".17g"),
    # and the zeros that fill block-structured matrices skip format()
    return [format(x, ".17g") if x else "0" for x in values]


def _encode_array(a: np.ndarray) -> str:
    """A float array as nested JSON numbers; a complex one with [re,im] pairs for numbers."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    if a.size == 0:  # nothing to format: only the nesting of empty lists is written
        return _canonical(a.tolist())
    cells = _format_floats(a.ravel().tolist())
    for size in reversed(a.shape):  # group the cells, innermost axis first
        rows = iter(cells)
        cells = ["[" + ",".join(row) + "]" for row in zip(*[rows] * size)]
    return cells[0]


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_floats([float(value)])[0]
    if isinstance(value, (complex, np.complexfloating)):
        return "[" + ",".join(_format_floats([value.real, value.imag])) + "]"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _encode_array(value) if value.dtype.kind in "fc" else _canonical(value.tolist())
    if isinstance(value, dict):
        parts = [f"{json.dumps(str(k))}:{_canonical(v)}" for k, v in sorted(value.items())]
        return "{" + ",".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(report) -> str:
    return _canonical(report) + "\n"


_BOOL_CELLS = {None: "", False: "false", True: "true"}


def _csv_column(values: list) -> list[str]:
    """One column's cells, by the type of its values; None is an empty cell.

    Floats are formatted as one batch, as JSON formats them, bools map through
    a table, and ints and strs are written by ``str``. A column of several
    types is formatted one type at a time.
    """
    kinds = set(map(type, values)) - {type(None)}
    if len(kinds) > 1:
        cells = [""] * len(values)
        for kind in kinds:
            where = [i for i, v in enumerate(values) if type(v) is kind]
            for i, cell in zip(where, _csv_column([values[i] for i in where])):
                cells[i] = cell
        return cells
    if not kinds or kinds == {bool}:
        return [_BOOL_CELLS[v] for v in values]
    if kinds == {float}:
        floats = _format_floats([v for v in values if v is not None])
        if len(floats) == len(values):
            return floats
        floats = iter(floats)
        return ["" if v is None else next(floats) for v in values]
    if kinds <= {int, str}:
        return ["" if v is None else str(v) for v in values]
    raise TypeError(f"cannot write {kinds.pop()!r} to csv")


def _csv_rows(columns: list[list]) -> str:
    """The CSV lines, each ending in a newline, of the rows given as ``columns``."""
    return "".join(f"{row}\n" for row in map(",".join, zip(*map(_csv_column, columns))))


@contextlib.contextmanager
def _staged_out(path: str):
    """A text file whose contents reach ``path`` as ``open(path, "w")`` would leave them.

    A device or pipe is written in place: it has no contents to keep. Otherwise
    the text goes to a temporary file beside ``path`` (beside its target, for a
    symlink) and reaches ``path`` only when the block ends without error:
    renamed onto it with its permissions, or copied into it where a rename
    would break its hard links or change its owner or group. If the block
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    directory, base = os.path.split(target)
    fd, temp = tempfile.mkstemp(suffix=".tmp", prefix=f".{base}.", dir=directory)
    try:
        new = os.fstat(fd)
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        if old is None or (old.st_nlink, old.st_uid, old.st_gid) == (1, new.st_uid, new.st_gid):
            os.chmod(temp, _new_file_mode() if old is None else stat.S_IMODE(old.st_mode))
            os.replace(temp, target)
        else:
            with open(temp, "rb") as src, open(target, "wb") as dst:
                shutil.copyfileobj(src, dst)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)


def _new_file_mode() -> int:
    """The permissions ``open(path, "w")`` gives a new file: 0o666 less the umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextlib.contextmanager
def _csv_sink(path: str | None, names: tuple[str, ...]):
    """A sink for a sweep's column chunks that writes their ``names`` columns to ``path``.

    Each chunk's rows are written as it arrives, under one header line, through
    ``_staged_out``: if the block raises, a regular file at ``path`` is left as
    it was. With no path the chunks are dropped.
    """
    if path is None:
        yield lambda columns: None
        return
    try:
        with _staged_out(path) as fh:
            fh.write(",".join(names) + "\n")
            yield lambda columns: fh.write(_csv_rows([columns[name] for name in names]))
    except OSError as exc:  # a sweep does no I/O of its own: the error is the file's
        raise ModelFileError("out", f"cannot write {path}: {exc}") from exc


def emit_report(text: str, path: str | None = None) -> None:
    """Write a report serialized by ``canonical_json`` to ``path`` (stdout if None).

    Sweep CSVs are written chunk by chunk as the sweep runs.
    """
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


def _check_entries(obj, shape: tuple[int, ...], field: str) -> None:
    """Raise for the first bad row or entry of a vector or matrix field, in reading order."""
    if not shape:  # one entry
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ModelFileError(field, f"complex entries must be [re, im] pairs, got {obj!r}")
        # JSON numbers only: booleans are ints to Python but not numbers in a model file
        if not {type(obj[0]), type(obj[1])} <= {int, float}:
            raise ModelFileError(field, f"complex entries must be numeric, got {obj!r}")
        try:
            finite = math.isfinite(obj[0]) and math.isfinite(obj[1])
        except OverflowError:  # an int literal beyond float range
            finite = False
        if not finite:
            raise ModelFileError(field, "complex entries must be finite")
        return
    if not isinstance(obj, list) or len(obj) != shape[0]:
        expected = f"{shape[0]} rows" if len(shape) == 2 else f"a vector of {shape[0]} complex entries"
        raise ModelFileError(field, f"expected {expected}")
    for item in obj:
        _check_entries(item, shape[1:], field)


def _complex_array(obj, shape: tuple[int, ...], field: str) -> np.ndarray:
    """A vector or matrix field of [re, im] pairs as a complex array of ``shape``.

    One numpy conversion validates and converts the whole field: the pairs must
    stack to ``shape + (2,)``, hold Python ints and floats only (no bools) and be
    finite. Only a field that fails is walked entry by entry, to name what is wrong.
    """
    leaves = np.array(obj, dtype=object)  # ragged nesting leaves lists among the leaves
    if leaves.shape == (*shape, 2) and {*map(type, leaves.ravel().tolist())} <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int literal beyond float range
            pairs = leaves.astype(float)
            if np.isfinite(pairs).all():
                return pairs.view(complex).reshape(shape)
    _check_entries(obj, shape, field)
    raise AssertionError(f"{field}: rejected in bulk, but every entry is valid")


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
            "system_basis": self.model.system_basis,
            "ready_state": self.model.ready_state,
            "unitary": self.model.interaction,
            "conserved": {
                "kind": self.quantity.kind,
                "LA": self.quantity.system_op,
                "LB": self.quantity.apparatus_op,
            },
        }
        if self.observable is not None:
            doc["observable"] = self.observable
        if self.probe is not None:
            doc["probe"] = self.probe
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

    basis = _complex_array(doc["system_basis"], (n1, n1), "system_basis") if "system_basis" in doc else None
    if "ready_state" not in doc:
        raise ModelFileError("ready_state", "missing")
    ready = _complex_array(doc["ready_state"], (n2,), "ready_state")
    if "unitary" not in doc:
        raise ModelFileError("unitary", "missing")
    interaction = _complex_array(doc["unitary"], (n1 * n2, n1 * n2), "unitary")
    if basis is None:  # built only now that the unitary has bounded n1
        basis = np.eye(n1, dtype=complex)
    model = _checked(MeasurementModel, n1, n2, basis, ready, interaction)

    conserved = doc.get("conserved")
    if not isinstance(conserved, dict):
        raise ModelFileError("conserved", "missing or not an object")
    la = _complex_array(conserved.get("LA"), (n1, n1), "conserved.LA")
    lb = _complex_array(conserved.get("LB"), (n2, n2), "conserved.LB")
    quantity = _checked(ConservedQuantity, conserved.get("kind"), la, lb)

    operators = {}
    for field, dim in (("observable", n1), ("probe", n2)):
        if field in doc:
            operators[field] = _complex_array(doc[field], (dim, dim), field)
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
        return _checked(as_state, _complex_array(literal, (dim,), "state"))
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
        "tolerances": {
            "tol": args.tol,
            "hermiticity_tol": HERMITICITY_TOL,
            "unitarity_tol": UNITARITY_TOL,
            "rank_tol": RANK_TOL,
            "grouping_tol": GROUPING_TOL,
        },
    }


def _emit(args, loaded: LoadedModel, results: dict, seed: int | None = None) -> None:
    """A single-model command's report: the command echo, the model and ``results``,
    to stdout and to ``--out`` if given."""
    report = _base_report(args, seed)
    report["model"] = loaded.echo()
    report["results"] = results
    text = canonical_json(report)
    emit_report(text)
    if args.out is not None:
        emit_report(text, args.out)


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
        loaded.quantity.system_op, loaded.quantity.apparatus_op, psi, loaded.model.ready_state, args.tol
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
    targets = [args.out] if os.path.exists(args.out) else []
    if not targets or (args.format == "csv" and os.path.isfile(args.out)):  # a CSV is staged beside it
        targets.append(os.path.dirname(os.path.realpath(args.out)))
    if os.path.isdir(args.out) or not all(os.access(target, os.W_OK) for target in targets):
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
    csv_path = args.out if args.format == "csv" else None
    if args.kind == "counterexample":
        with _csv_sink(csv_path, COUNTEREXAMPLE_COLUMNS) as sink:
            sweep = counterexample_sweep(args.n1, args.n2, args.count, seed, args.tol, sink)
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
        with _csv_sink(csv_path, BOUND_AUDIT_COLUMNS) as sink:
            s = bound_audit_sweep(config, sink).summary
            # Summary row reuses the schema: *_bound columns carry violation
            # fractions, *_defined/_applicable carry counts, *_valid carry
            # violation counts.
            summary_row = {
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
            sink({name: [value] for name, value in summary_row.items()})
        report["results"] = {
            "kind": "bound-audit",
            "n1": args.n1,
            "n2": args.n2,
            "count": args.count,
            **asdict(s),
        }
        failed = s.robertson_violations > 0

    text = canonical_json(report)
    if csv_path is None and args.out is not None:
        emit_report(text, args.out)
    emit_report(text)
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
