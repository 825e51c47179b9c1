"""Command-line interface: parse model files, dispatch checks, emit reports.

Every command checks its inputs, opens ``--out`` (``_staged_out``, the one
writer), calls the library, serializes its report once, commits ``--out``, then
prints (``_report``). An unwritable ``--out`` exits 2 before any work is done.
A command imports ``theorem`` or ``noise`` itself, so a process loads only the modules its command runs.

Exit codes: 0 on success, 1 when a falsifiable scientific assertion fails (a
theorem contradiction or a Robertson-bound violation), 2 on usage or input
errors, 3 on an internal error (a crash never reads as a falsified
assertion). Reports serialize canonically (sorted keys, floats at 17 significant
digits), so identical runs produce byte-identical output. Model-file fields are read, and
report arrays written, a whole array at a time: the one per-entry step formats a nonzero cell.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .commutant import SearchConfig, feasibility_search, minimize_epsilon
from .errors import PreconditionError
from .linalg import GROUPING_TOL, HERMITICITY_TOL, RANK_TOL, UNITARITY_TOL, VERDICT_TOL, as_state, require_hermitian
from .model import (
    ConservedQuantity,
    MeasurementModel,
    check_conserved,
    check_exact,
    check_nondestructive,
)

__all__ = ["LoadedModel", "load_model", "main"]

# ---------------------------------------------------------------------------
# canonical serialization


def _format_floats(values: list[float]) -> list[str]:
    """Python floats as every report, JSON or CSV, writes them: 17 significant digits, with
    0.0 and -0.0, the falsy floats, written as 0. One finite check covers the whole batch."""
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value in report")
    return [format(x, ".17g") if x else "0" for x in values]


@functools.lru_cache(maxsize=64)
def _nesting(shape: tuple[int, ...]) -> np.ndarray:
    """The JSON text of an all-zero array of ``shape``, split: nesting at even places, each 0 at an odd one."""
    text = "0"
    for size in reversed(shape):
        text = "[" + ",".join([text] * size) + "]"
    nests = list(map(sys.intern, text.split("0")))  # a few distinct strings, shared
    pieces = np.full(2 * len(nests) - 1, "0", dtype=object)
    pieces[::2] = nests
    pieces.flags.writeable = False  # cached: each array's text starts from a copy
    return pieces


def _encode_array(a: np.ndarray) -> str:
    """A float array as nested JSON numbers; a complex one with [re,im] pairs for numbers.
    Only nonzero cells are formatted, the rest stay 0: every NaN and infinity is nonzero."""
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a, dtype=complex).view(float).reshape(*a.shape, 2)
    flat = np.asarray(a, dtype=float).ravel()
    nonzero = flat.nonzero()[0]
    pieces = _nesting(a.shape).copy()
    pieces[1::2][nonzero] = _format_floats(flat[nonzero].tolist())
    return "".join(pieces.tolist())


_key = functools.lru_cache(maxsize=256, typed=True)(lambda key: json.dumps(str(key)) + ":")

# The encoder of each exact type a report holds. A numpy scalar is encoded as its
# Python value, and a library report as the dict of its fields, with no deep copy.
_ENCODERS = {
    dict: lambda d: "{" + ",".join([_key(k) + _canonical(v) for k, v in sorted(d.items())]) + "}",
    np.ndarray: lambda a: _encode_array(a) if a.dtype.kind in "fc" else _canonical(a.tolist()),
    float: lambda x: _format_floats([x])[0],
    **dict.fromkeys((list, tuple), lambda items: "[" + ",".join(map(_canonical, items)) + "]"),
    str: json.dumps,
    int: str,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    complex: lambda z: "[" + ",".join(_format_floats([z.real, z.imag])) + "]",
}


def _canonical(value) -> str:
    encode = _ENCODERS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, np.generic) and type(value.item()) in _ENCODERS:
        return _canonical(value.item())
    if is_dataclass(value):
        return _canonical(_field_dict(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


def _field_dict(report) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report)}


def canonical_json(report) -> str:
    return _canonical(report) + "\n"


_BOOL_CELLS = {None: "", False: "false", True: "true"}


def _csv_column(values: list) -> list[str]:
    """One column's cells, by the one type of its values; None is an empty cell.

    Floats are formatted as one batch, as JSON formats them, bools map through
    a table, and ints and strs are written by ``str``.
    """
    kinds = set(map(type, values)) - {type(None)}
    if len(kinds) > 1:
        raise TypeError(f"cannot write a column of mixed types {sorted(k.__name__ for k in kinds)} to csv")
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
    """``--out``, open for writing: its text reaches ``path`` as ``open(path, "w")``
    would leave it, and only once the block ends without error.

    It is opened before the block runs, so a directory, a missing or unwritable
    parent, or an existing file that ``os.access`` refuses (a rename would
    replace it) fails before any work. A device or pipe is written in place.
    Otherwise the text goes to a temporary file beside ``path`` (beside its
    target, for a symlink), then is renamed onto it with its permissions, or
    copied into it where a rename would break its hard links or change its
    owner or group; if the block raises, it is removed. The block does no I/O,
    so every OSError is the file's: an ``out`` error naming ``path``, not the
    temporary file.
    """
    try:
        try:
            old = os.stat(path)
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        if old is None and not os.path.basename(path):  # "" or "new/": open() would refuse it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if old is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
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
    except OSError as exc:
        raise PreconditionError("out", f"cannot write {path}: {exc.strerror or exc}") from exc


def _new_file_mode() -> int:
    """The permissions ``open(path, "w")`` gives a new file: 0o666 less the umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _csv_sink(out, record: type):
    """A sink for a sweep's column chunks that writes them to the open file ``out``,
    one column per field of the sweep's ``record`` dataclass, in field order.

    Each chunk's rows are written as it arrives, under one header line. With no
    file the chunks are dropped.
    """
    if out is None:
        return lambda columns: None
    names = [f.name for f in fields(record)]
    out.write(",".join(names) + "\n")
    return lambda columns: out.write(_csv_rows([columns[name] for name in names]))


# ---------------------------------------------------------------------------
# model files


# Characters of an offending input that an error message echoes at most.
ECHO_CHARS = 60


def _echo(obj) -> str:
    """``repr(obj)``, cut to ``ECHO_CHARS`` characters with an ellipsis."""
    text = repr(obj)
    return text if len(text) <= ECHO_CHARS else text[: ECHO_CHARS - 3] + "..."


def _check_entries(obj, shape: tuple[int, ...], field: str) -> None:
    """Raise for the first bad row or entry of a vector or matrix field, in reading order."""
    if not shape:  # one entry
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise PreconditionError(field, f"complex entries must be [re, im] pairs, got {_echo(obj)}")
        # JSON numbers only: booleans are ints to Python but not numbers in a model file
        if not {type(obj[0]), type(obj[1])} <= {int, float}:
            raise PreconditionError(field, f"complex entries must be numeric, got {_echo(obj)}")
        try:
            finite = math.isfinite(obj[0]) and math.isfinite(obj[1])
        except OverflowError:  # an int literal beyond float range
            finite = False
        if not finite:
            raise PreconditionError(field, "complex entries must be finite")
        return
    if not isinstance(obj, list) or len(obj) != shape[0]:
        expected = f"{shape[0]} rows" if len(shape) == 2 else f"a vector of {shape[0]} complex entries"
        raise PreconditionError(field, f"expected {expected}")
    for item in obj:
        _check_entries(item, shape[1:], field)


def _complex_array(obj, shape: tuple[int, ...], field: str) -> np.ndarray:
    """A vector or matrix field of [re, im] pairs as a complex array of ``shape``.

    Each nesting level is checked by set operations over all its items (lists of the level's
    size, down to the pairs; then Python ints and floats only, no bools) and flattened; one numpy
    conversion makes floats, which must be finite. A field that fails is walked entry by entry."""
    level = [obj]
    for size in (*shape, 2):
        if {*map(type, level)} != {list} or {*map(len, level)} != {size}:
            break
        level = list(itertools.chain.from_iterable(level))
    else:
        if {*map(type, level)} <= {int, float}:
            with contextlib.suppress(OverflowError):  # an int literal beyond float range
                pairs = np.array(level, dtype=float)
                if np.isfinite(pairs).all():
                    return pairs.view(complex).reshape(shape)
    _check_entries(obj, shape, field)
    raise AssertionError(f"{field}: rejected in bulk, but every entry is valid")


@dataclass(frozen=True)
class LoadedModel:
    model: MeasurementModel
    quantity: ConservedQuantity
    observable: np.ndarray | None
    probe: np.ndarray | None

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
        raise PreconditionError(_FILE_FIELDS.get(exc.check, exc.check), detail) from exc


def _load_document(doc: dict) -> LoadedModel:
    if not isinstance(doc, dict):
        raise PreconditionError("file", "top level must be an object")
    for key in ("n1", "n2"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise PreconditionError(key, "must be a positive integer")
    n1, n2 = doc["n1"], doc["n2"]

    basis = _complex_array(doc["system_basis"], (n1, n1), "system_basis") if "system_basis" in doc else None
    if "ready_state" not in doc:
        raise PreconditionError("ready_state", "missing")
    ready = _complex_array(doc["ready_state"], (n2,), "ready_state")
    if "unitary" not in doc:
        raise PreconditionError("unitary", "missing")
    interaction = _complex_array(doc["unitary"], (n1 * n2, n1 * n2), "unitary")
    if basis is None:  # built only now that the unitary has bounded n1
        basis = np.eye(n1, dtype=complex)
    model = _checked(MeasurementModel, n1, n2, basis, ready, interaction)

    conserved = doc.get("conserved")
    if not isinstance(conserved, dict):
        raise PreconditionError("conserved", "missing or not an object")
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
        raise PreconditionError("model", f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise PreconditionError("model", f"parse error in {path}: {exc}") from exc
    return _load_document(doc)


def _parse_state(spec: str, dim: int) -> np.ndarray:
    """Named states ('plus', basis index) or an inline [[re,im],...] literal."""
    if spec == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if spec.isascii() and spec.isdigit():
        digits = spec.lstrip("0") or "0"
        # an index with more digits than dim is out of range, and int() refuses over 4300 digits
        if len(digits) > len(str(dim)) or int(digits) >= dim:
            shown = digits if len(digits) <= len(str(dim)) else f"of {len(digits)} digits"
            raise PreconditionError("state", f"basis index {shown} out of range for dimension {dim}")
        v = np.zeros(dim, dtype=complex)
        v[int(digits)] = 1.0
        return v
    if spec.startswith("["):
        try:
            literal = json.loads(spec)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PreconditionError("state", f"parse error: {exc}") from exc
        return _checked(as_state, _complex_array(literal, (dim,), "state"), "state")
    raise PreconditionError("state", f"unknown state {_echo(spec)}")


# ---------------------------------------------------------------------------
# report assembly


@contextlib.contextmanager
def _report(args, loaded: LoadedModel | None = None, seed: int | None = None):
    """Every command's one order, entered once its inputs are checked: open
    ``--out``, run the block, serialize the report once, commit ``--out``, print.

    Yields the report (the command echo, and the model if given) for the block
    to add its ``results`` to, and the open ``--out`` of a csv sweep, which gets
    the per-trial records in place of the report (None otherwise).
    """
    echo = [args.command]
    for name in ("model", "kind", "state", "n1", "n2", "count", "seed", "out", "format"):
        value = getattr(args, name, None)
        if value is not None:
            echo.extend([f"--{name}", str(value)])
    report = {
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
    if loaded is not None:
        report["model"] = loaded.echo()
    csv = getattr(args, "format", None) == "csv"
    with (_staged_out(args.out) if args.out is not None else contextlib.nullcontext()) as out:
        yield report, out if csv else None
        text = canonical_json(report)
        if out is not None and not csv:
            out.write(text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _cmd_check(args) -> int:
    loaded = load_model(args.model)
    with _report(args, loaded) as (report, _):
        conserved = check_conserved(loaded.model, loaded.quantity, args.tol)
        nd = check_nondestructive(loaded.model, args.tol)
        if nd.error is None and nd.verdict:
            exact = check_exact(loaded.model, args.tol, nondestructive=nd)
        else:
            exact = {"error": nd.error or "precondition_failed: check_nondestructive"}
        report["results"] = {"conserved": conserved, "nondestructive": nd, "exact": exact}
    return 0


def _cmd_verdict(args) -> int:
    from .theorem import theorem_verdict

    loaded = load_model(args.model)
    with _report(args, loaded) as (report, _):
        report["results"] = verdict = _checked(theorem_verdict, loaded.model, loaded.quantity, args.tol)
    return 1 if verdict.outcome == "contradiction" else 0


def _cmd_bound(args) -> int:
    from .noise import noise_report

    loaded = load_model(args.model)
    if loaded.observable is None:
        raise PreconditionError("observable", "bound requires an observable in the model file")
    if loaded.probe is None:
        raise PreconditionError("probe", "bound requires a probe in the model file")
    psi = _parse_state(args.state, loaded.model.n1)
    with _report(args, loaded) as (report, _):
        nr = _checked(noise_report, loaded.model, loaded.quantity, loaded.observable, loaded.probe, psi, args.tol)
        report["results"] = nr
    return 0 if nr.robertson.valid else 1


def _cmd_rank(args) -> int:
    from .theorem import pointer_gram_rank

    loaded = load_model(args.model)
    with _report(args, loaded) as (report, _):
        nd = check_nondestructive(loaded.model, args.tol)
        if nd.error is not None:
            raise PreconditionError("model", nd.error)
        report["results"] = pointer_gram_rank(loaded.quantity.apparatus_op, nd.pointers, args.tol)
    return 0


def _cmd_audit_variance(args) -> int:
    from .noise import variance_identity_audit

    loaded = load_model(args.model)
    psi = _parse_state(args.state, loaded.model.n1)
    with _report(args, loaded) as (report, _):
        report["results"] = variance_identity_audit(
            loaded.quantity.system_op, loaded.quantity.apparatus_op, psi, loaded.model.ready_state, args.tol
        )
    return 0


def _require_seed(args) -> int:
    if args.seed is None:
        raise PreconditionError("seed", "--seed is required for randomized commands")
    if args.seed < 0:
        raise PreconditionError("seed", "--seed must be nonnegative")
    return args.seed


def _cmd_sweep(args) -> int:
    seed = _require_seed(args)
    if args.n1 is None or args.n2 is None or args.count is None:
        raise PreconditionError("usage", "sweep requires --n1, --n2 and --count")
    # Per kind: config, sweep, record, CSV summary row. Imported per call from the kind's module,
    # so a sweep rebound there is the one run.
    if args.kind == "counterexample":
        from .theorem import CounterexampleConfig, SweepTrial, counterexample_sweep

        make_config, sweep, record, summary_row = CounterexampleConfig, counterexample_sweep, SweepTrial, None
    else:
        from .noise import AuditConfig, BoundAuditRecord, audit_summary_row, bound_audit_sweep

        make_config, sweep, record, summary_row = AuditConfig, bound_audit_sweep, BoundAuditRecord, audit_summary_row
    config = make_config(args.n1, args.n2, args.count, seed, args.tol)
    if args.out is None and args.format == "csv":
        raise PreconditionError("out", "--out is required for csv output")
    with _report(args, seed=seed) as (report, csv):
        sink = _csv_sink(csv, record)
        summary = sweep(config, sink).summary
        if summary_row is not None:
            sink(summary_row(config, summary))
        report["results"] = {
            "kind": args.kind, "n1": config.n1, "n2": config.n2, "count": config.count, **_field_dict(summary)
        }
    return 1 if summary.falsified else 0


def _cmd_optimize(args) -> int:
    seed = _require_seed(args)
    if args.count is not None and args.count < 1:
        raise ValueError("count must be at least 1")  # sweep's wording, from its config
    loaded = load_model(args.model)
    if loaded.observable is None:
        raise PreconditionError("observable", "optimize requires an observable in the model file")
    if args.kind == "epsilon" and loaded.probe is None:
        raise PreconditionError("probe", "optimize --kind epsilon requires a probe in the model file")
    config = SearchConfig(seed=seed, restarts=SearchConfig.restarts if args.count is None else args.count)
    with _report(args, loaded, seed) as (report, _):
        if args.kind == "feasibility":
            result = feasibility_search(loaded.quantity, loaded.observable, config)
        else:
            ready = loaded.model.ready_state
            result = minimize_epsilon(loaded.quantity, loaded.observable, loaded.probe, ready, config)
        report["results"] = {"kind": args.kind, **_field_dict(result)}
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

    tol = np.format_float_scientific(VERDICT_TOL, trim="-", exp_digits=1)  # "1e-9", not repr's "1e-09"

    def common(p, state=False):
        p.add_argument("--model", required=True, help="model file (JSON)")
        if state:
            p.add_argument("--state", required=True, help="system state: index, 'plus', or [[re,im],...]")
        p.add_argument("--tol", type=float, default=VERDICT_TOL, help=f"verdict tolerance (default {tol})")
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
    p.add_argument("--kind", choices=("counterexample", "bound-audit"), required=True, help="sweep to run")
    p.add_argument("--n1", type=int, help="system dimension (required)")
    p.add_argument("--n2", type=int, help="apparatus dimension (required)")
    p.add_argument("--count", type=int, help="number of trials (required)")
    p.add_argument("--seed", type=int, default=None, help="nonnegative sweep seed (required)")
    p.add_argument("--tol", type=float, default=VERDICT_TOL, help=f"verdict tolerance (default {tol})")
    p.add_argument("--out", default=None, help="write the per-trial records (csv) or the report (json) to this path")
    p.add_argument("--format", choices=("json", "csv"), default="csv", help="--out format (default csv)")
    p.set_defaults(func=_cmd_sweep)

    # no search reads a tolerance: optimize takes no --tol, and its report echoes the default
    p = sub.add_parser("optimize", help="search the commutant for low-noise or exact schemes")
    p.add_argument("--model", required=True, help="model file (JSON)")
    p.add_argument(
        "--kind", choices=("epsilon", "feasibility"), default="epsilon",
        help="search to run: epsilon minimizes the mean squared noise, feasibility looks for an exact "
        "nondestructive scheme (default epsilon)",
    )
    p.add_argument("--count", type=int, default=None, help=f"number of restarts (default {SearchConfig.restarts})")
    p.add_argument("--seed", type=int, default=None, help="nonnegative restart seed (required)")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.set_defaults(func=_cmd_optimize, tol=VERDICT_TOL)

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
            raise PreconditionError("tol", f"must be nonnegative and finite, got {args.tol!r}")
        return args.func(args)
    except ValueError as exc:  # PreconditionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"({os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
