"""The engine runs on the Python standard library alone."""

import ast
import pathlib
import sys

import equidist

PACKAGE = pathlib.Path(equidist.__file__).parent


def test_every_import_is_relative_or_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
