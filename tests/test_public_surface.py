"""The public surface: every public function and class has a caller, and the
README's library tour runs and gives the values its comments state. That every
name in each ``__all__`` resolves is checked by
``tests/test_model.py::test_public_names_resolve``."""

import ast
import re
from pathlib import Path

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
        used = set(loaded_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
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
