"""Every top-level function and class of the package is used by the package,
and every function the benchmark traces is defined where it looks for it.

A definition counts as used when some module of the package other than
`__init__.py` names it (as a name, an attribute or a `from` import), or its
own module names it outside the definition. The allowlist would hold a
definition that only tests call; it is empty. Names are matched as text, so a
definition that shares its name with a variable or an attribute read
elsewhere counts as used. An annotated field declaration in a class body
declares a name and does not use it.
"""

import ast
import importlib
import inspect

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "influence_gate"
TRACING = REPO_ROOT / "perfbench" / "tracing.py"

ALLOWED = {}


def _names(node, skip=None) -> set:
    """Every name that `node` refers to, leaving out the subtree `skip` and
    the names that annotated field declarations of a class body declare."""
    found, stack, declared = set(), [node], set()
    while stack:
        current = stack.pop()
        if current is skip or id(current) in declared:
            continue
        if isinstance(current, ast.ClassDef):
            declared.update(id(stmt.target) for stmt in current.body
                            if isinstance(stmt, ast.AnnAssign))
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.ImportFrom):
            found.update(alias.name for alias in current.names)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _unreferenced() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used_by = {module: _names(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in used_by.items() if other != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name not in elsewhere and node.name not in _names(tree, skip=node):
                    unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_used_or_allowlisted():
    assert [name for name in _unreferenced() if name.split(".")[1] not in ALLOWED] == []


def test_allowlist_names_only_unreferenced_definitions():
    assert sorted(name.split(".")[1] for name in _unreferenced()) == sorted(ALLOWED)


def _traced_functions() -> list:
    """(module, function) pairs of the benchmark's `TARGETS` and `COUNTED`
    tables, read from the text of its tracing module."""
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TARGETS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert sorted(tables) == ["COUNTED", "TARGETS"]
    return [(module, fn) for table in tables.values()
            for module, functions in table.items() for fn in functions]


def test_every_traced_name_is_a_function_of_its_module():
    """The tracer wraps each name at `influence_gate.<module>.<name>` and
    fails on a missing one, so a rename must show here first."""
    missing = []
    for module, fn in _traced_functions():
        home = importlib.import_module(f"influence_gate.{module}")
        value = getattr(home, fn, None)
        if not (inspect.isfunction(value) and value.__module__ == home.__name__):
            missing.append(f"{module}.{fn}")
    assert missing == []
