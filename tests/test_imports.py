"""Every module of the package uses each name it imports, and every
module-level function and class is read somewhere else in the package
or exported by `__init__`."""

import ast
from pathlib import Path

import pytest

import dycknums

MODULES = sorted(
    path for path in Path(dycknums.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def read_names(node: ast.AST) -> set[str]:
    """Every name and attribute the node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def test_every_module_level_definition_is_used():
    init = Path(dycknums.__file__)
    exported = set(imported_names(ast.parse(init.read_text(), filename=str(init))))
    # Each top-level statement of each module, with the names it reads;
    # a definition counts as used when any other statement reads it.
    statements = []
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path.name, node, read_names(node)))
    unused = [
        f"{module}:{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exported
        and not any(node.name in reads for _, other, reads in statements if other is not node)
    ]
    assert not unused, f"definitions nothing in the package reads: {unused}"
