"""Every top-level function and class of the package is used by the package.

A definition counts as used when some module of the package other than
`__init__.py` names it (as a name, an attribute or a `from` import), or its
own module names it outside the definition. The allowlist holds the N=1
views that no command calls but the benchmark's trace sites wrap, so they
must stay until the trace sites move. Names are matched as text, so a
definition that shares its name with a variable or an attribute read
elsewhere counts as used. An annotated field declaration in a class body
declares a name and does not use it.
"""

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "influence_gate"

ALLOWED = {
    "moment_index_linear": "benchmark trace site; N=1 wrapper of the batched Thm 3.1 kernel",
    "moment_index_mm": "benchmark trace site; N=1 wrapper of the Thm 4.1 kernel",
    "moment_index_logit": "benchmark trace site; N=1 wrapper of the batched Thm 5.1 kernel",
    "leverage_minor": "benchmark trace site; N=1 view of the leverage spectrum for tests",
    "theorem31_verdict": "benchmark trace site; N=1 wrapper of the batched Thm 3.1 kernel",
    "theorem51_verdict": "benchmark trace site; N=1 wrapper of the batched Thm 5.1 kernel",
    "max_h_l1_sphere": "benchmark trace site; N=1 view of the vertex table",
    "scan_kappa": "benchmark trace site; N=1 wrapper of kappa_profile(...).scan(r)",
}


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
