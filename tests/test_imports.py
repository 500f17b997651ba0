"""Every name a module of the package imports is used, or kept for the
benchmark harness to wrap (``perfbench/tracing.py``'s ``WRAP_POINTS``), and
every private module-level function or class has a reader in the package.

No linter is part of the test environment, so this reads each module's
syntax tree: a leftover import fails here, and so does an import kept only
for a wrap point that the harness no longer has, or a private helper that
only the tests call.
"""

import ast
from pathlib import Path

import pytest

import rscontrol

PACKAGE = Path(rscontrol.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrap_points() -> dict:
    """{module: set of attributes} of the harness's ``WRAP_POINTS``, read
    from its source."""
    for node in ast.parse(HARNESS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAP_POINTS"
                                                for t in node.targets):
            points = {}
            for _, module, attr in ast.literal_eval(node.value):
                points.setdefault(module, set()).add(attr)
            return points
    raise AssertionError(f"no WRAP_POINTS in {HARNESS}")


def _imported(tree) -> set:
    """Names bound by the imports anywhere in ``tree``, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return _imported(tree) - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_unused_imports_are_wrap_points(path):
    wrapped = _wrap_points().get(f"rscontrol.{path.stem}", set())
    unused = _unused_imports(path)
    assert unused <= wrapped, f"{path.name} imports {sorted(unused - wrapped)} and never uses them"


def test_imports_kept_for_the_harness():
    # the imports that only the harness reads, so the guard above is not vacuous
    unused = {path.stem: _unused_imports(path) for path in MODULES}
    assert {module: names for module, names in unused.items() if names} == {
        "adjoint": {"integrate_against"},
        "dynamics": {"integrate_against"},
        "maxprinciple": {"integrate_against"},
        "optimizer": {"integrate_against", "solve_adjoint_phi", "variational_derivative"},
    }


def _read_names(tree, skip) -> set:
    """Names read in ``tree``, as a name or an attribute, outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unread_private(trees: dict) -> list:
    """``module.name`` of each private module-level function or class in
    ``trees`` ({module: syntax tree}) that no module reads outside its own body."""
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not any(node.name in _read_names(t, node) for t in trees.values())):
                unread.append(f"{module}.{node.name}")
    return unread


def test_private_definitions_are_read_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private(trees) == []


def test_private_guard_catches_a_test_only_helper():
    # a helper that only calls itself, or is only imported, has no reader
    source = {"a": "def _used(): pass\ndef _recursive(n): _recursive(n)\ndef _imported(): pass\n"
                   "X = _used()\n",
              "b": "from .a import _imported\n"}
    trees = {module: ast.parse(text) for module, text in source.items()}
    assert _unread_private(trees) == ["a._recursive", "a._imported"]
