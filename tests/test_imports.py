"""The engine runs on the Python standard library alone and imports only what it uses."""

import ast
import importlib
import pathlib
import sys

import equidist

PACKAGE = pathlib.Path(equidist.__file__).parent


def absolute_imports():
    """(file name, module) for every absolute import in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module


def test_every_import_is_relative_or_standard_library():
    foreign = [(name, module) for name, module in absolute_imports()
               if module.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_no_rational_or_decimal_arithmetic():
    # integers decide every exact sign; fractions stay in the test oracles
    found = [(name, module) for name, module in absolute_imports()
             if module.split(".")[0] in ("fractions", "decimal")]
    assert found == []


# bench/spans.py counts the calls made through this binding
UNUSED_ALLOWED = {("polygon.py", "incircle")}


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        module = importlib.import_module(f"equidist.{path.stem}")
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))  # a package re-exports its names
        unused += [(path.name, name) for name in imported
                   if name not in used and (path.name, name) not in UNUSED_ALLOWED]
    assert unused == []
