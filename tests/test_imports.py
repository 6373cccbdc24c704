"""Every module of the package uses each name it imports, every
module-level function and class is read somewhere else in the package
or exported by `__init__`, and every defaulted parameter of a private
function is passed by some call in the package."""

import ast
import sys
from collections import defaultdict
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


def passes(call: ast.Call, name: str, param: str, index: int | None) -> bool:
    """Whether the call is one of the function `name` that passes
    `param`, by keyword or, at positional `index`, by position."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return called == name and (
        any(kw.arg == param for kw in call.keywords)
        or (index is not None and len(call.args) > index)
    )


def test_every_default_of_a_private_function_is_passed():
    # A defaulted parameter that only its default, or only the tests,
    # ever set is a knob: a constant does its work with one
    # configuration fewer to test.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    knobs = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            private = isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            if not private or node.name.startswith("__"):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            # A method called on an object passes its first parameter implicitly.
            skip = 1 if params and params[0].arg in ("self", "cls") else 0
            first = len(params) - len(args.defaults)
            defaulted = [(p, i - skip) for i, p in enumerate(params) if i >= first]
            defaulted += [
                (p, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            knobs += [
                f"{module}:{node.name}({param.arg})" for param, index in defaulted
                if not any(passes(call, node.name, param.arg, index) for call in calls)
            ]
    assert not knobs, f"defaulted parameters no call in the package passes: {knobs}"


def package_imports(module: str) -> dict[str, set[str]]:
    """The names a package module imports from each sibling module."""
    path = Path(dycknums.__file__).parent / f"{module}.py"
    found = defaultdict(set)
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found[node.module] |= {alias.name for alias in node.names}
    return found


def test_patterns_is_the_algebra_alone():
    found = package_imports("patterns")
    assert "report" not in found
    assert found["levels"] <= {"TermArray", "_balance_ok", "mersenne"}


def test_dyck_core_imports_only_the_standard_library_and_errors():
    # The scalar path stays free of numpy, and of its import cost.
    path = Path(dycknums.__file__).parent / "dyck_core.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    # A relative import has an empty first part, never a standard module.
    outside = [
        m for m in imported if m != ".errors" and m.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"dyck_core imports {outside}"


def test_conjectures_takes_only_the_copy_layout_from_patterns():
    assert package_imports("conjectures")["patterns"] <= {"_copy_chain"}


def test_conjectures_takes_only_the_outcome_records_from_report():
    # No claim compares two streams term by term: each is certified
    # against the members between two bounds.
    assert package_imports("conjectures")["report"] <= {
        "Counterexample", "VerificationOutcome", "check"
    }


def test_conjectures_takes_only_the_class_helper_and_core_sizes_from_cores():
    assert package_imports("conjectures")["cores"] == {"_class_of", "core_size"}


def test_every_check_is_defined_in_conjectures():
    path = Path(dycknums.__file__).parent / "conjectures.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    (checks,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CHECKS" for t in node.targets)
    ]
    called = {
        sub.func.id for sub in ast.walk(checks)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
    }
    assert len(called) == len(checks.keys)
    assert called <= defined, f"checks defined elsewhere: {called - defined}"
