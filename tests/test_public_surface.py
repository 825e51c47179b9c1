"""The public surface: every public function and class has a caller, the
README's library tour runs and gives the values its comments state, the package
exports a fixed list of names, and each command loads only the modules it runs.
That every name in each ``__all__`` resolves is checked by
``tests/test_model.py::test_public_names_resolve``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wayaudit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wayaudit"

# Public names with no caller in src/, each with the reason it stays.
KEEP = {
    "haar_unitary": "bench/spans.py wraps it, and the bench test checks its per-namespace rebinding",
    "commutant_unitary": "bench/spans.py wraps it, and the bench test checks its per-namespace rebinding",
    "synthesize_unitary": "acceptance criterion 2 builds its nondestructive schemes with it",
    "matrix_element_identity": "acceptance criterion 5 checks the matrix-element identity with it",
    "sample_conserving_instance": "acceptance criterion 1 samples its instances with it",
    "random_hermitian": "the tests' sampler; moving it into tests/ would not reduce code",
    "variance": "wayaudit exports it as the public scalar variance; the package reads images it already holds",
}
# unitary_completion, IdentityResidualTable and check_nondestructive need no
# entry: synthesize_unitary, matrix_element_identity, theorem_verdict and the
# CLI call them.

# Imports bound in a module that does not use them, so that bench/spans.py can
# rebind its wrapper there; bench/test_bench.py checks these bindings.
KEEP_REEXPORTS = {
    ("commutant", "haar_unitary"),
    ("noise", "haar_unitary"),
    ("noise", "commutant_unitary"),
    ("theorem", "commutant_unitary"),
}


def tour_code() -> str:
    """The python block of the README's "Library tour" section."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def tour_names() -> set[str]:
    """The ``wa.<name>`` attributes the tour uses."""
    return {
        node.attr
        for node in ast.walk(ast.parse(tour_code()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wa"
    }


def src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree: ast.AST, skip: ast.AST | None = None) -> list[str]:
    """The names read anywhere in ``tree``, outside the subtree ``skip``."""
    names, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def relative_imports(tree: ast.Module):
    """Each relative ``from . import`` in ``tree``, at any depth, with the scope that must read
    its names: the innermost function that holds it, or the module."""
    stack = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node, scope
        inner = node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def uncalled(trees: dict[str, ast.Module]) -> set[str]:
    """Public functions and classes that src/ reads nowhere outside their own definition."""
    found = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not any(node.name in loaded_names(t, skip=node) for t in trees.values()):
                    found.add(node.name)
    return found


def test_every_public_name_has_a_caller():
    without_caller = uncalled(src_trees()) - tour_names()
    assert without_caller - set(KEEP) == set(), "delete these, or give them a caller"
    # an entry whose name gained a caller, or is gone, leaves the list
    assert set(KEEP) <= without_caller


def test_every_import_is_used_or_a_kept_reexport():
    unused = set()
    for name, tree in src_trees().items():
        if name == "__init__":
            continue
        for node, scope in relative_imports(tree):
            used = set(loaded_names(scope))
            unused |= {(name, a.asname or a.name) for a in node.names if (a.asname or a.name) not in used}
    assert unused == KEEP_REEXPORTS


def test_readme_tour_gives_the_values_it_states():
    code = tour_code()
    lines = code.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(code).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = re.search(r"#\s*(.*?)(?::\s.*)?$", lines[node.lineno - 1]).group(1)
        expected = eval(comment, {})
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(node.value)
        checked += 1
    # residual, leakage, deficit, outcome, counterexamples, floor and stop reasons
    assert checked == 7


# wayaudit.__all__, in its order: every name the package exports.
EXPORTS = [
    "AuditConfig", "BlockDecomposition", "ConservationReport", "ConservedQuantity", "CounterexampleConfig",
    "DegeneratePointerError", "ExactnessReport", "IdentityResidualTable", "MeasurementModel", "NoiseReport",
    "PointerReport", "PreconditionError", "SearchConfig", "SearchResult", "SweepReport", "TheoremVerdict",
    "VarianceAudit", "bound_audit_sweep", "check_conserved", "check_exact", "check_nondestructive", "commutant",
    "commutator", "conserved_eigenspaces", "conserved_operator", "counterexample_sweep", "default_probe_states",
    "errors", "feasibility_search", "hermitian_eigensystem", "linalg", "matrix_element_identity",
    "minimize_epsilon", "model", "noise", "noise_report", "numerical_rank", "pointer_gram_rank",
    "synthesize_unitary", "tensor_product", "theorem", "theorem_verdict", "unitary_completion", "variance",
    "variance_identity_audit",
]


def test_package_exports():
    assert wayaudit.__all__ == EXPORTS
    namespace = {}
    exec("from wayaudit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert set(EXPORTS) <= set(dir(wayaudit))
    assert wayaudit.noise.noise_report is namespace["noise_report"]


# The wayaudit modules that every command loads: the CLI and what it imports at module level.
CLI_MODULES = {"wayaudit", "wayaudit.cli", "wayaudit.commutant", "wayaudit.errors", "wayaudit.linalg", "wayaudit.model"}
CNOT = ["--model", "tests/fixtures/cnot.json"]
SWEEP = ["--n1", "2", "--n2", "3", "--count", "5", "--seed", "1", "--format", "json"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["check", *CNOT], set()),
        (["optimize", *CNOT, "--kind", "feasibility", "--count", "1", "--seed", "1"], set()),
        (["verdict", *CNOT], {"theorem"}),
        (["rank", *CNOT], {"theorem"}),
        (["sweep", "--kind", "counterexample", *SWEEP], {"theorem"}),
        (["bound", *CNOT, "--state", "plus"], {"noise"}),
        (["audit-variance", *CNOT, "--state", "plus"], {"noise"}),
        (["sweep", "--kind", "bound-audit", *SWEEP], {"noise"}),
    ],
    ids=["check", "optimize", "verdict", "rank", "sweep-counterexample", "bound", "audit-variance",
         "sweep-bound-audit"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, extra):
    code = (
        "import contextlib, io, sys\n"
        "from wayaudit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules,\n"
        "      *sorted(name for name in sys.modules if name.split('.')[0] == 'wayaudit'))\n"
    )
    # a fresh interpreter, importing the package from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    status, masked, *modules = done.stdout.split()
    assert status == "0"
    assert masked == "False"  # numpy.ma is not loaded: np.unique, for one, imports it
    assert set(modules) == CLI_MODULES | {f"wayaudit.{name}" for name in extra}
