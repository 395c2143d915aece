"""The engine runs on the Python standard library alone and imports only what it uses.

Its modules import one another's private names only where listed here.

The benchmark's tracer, ``bench/spans.py``, wraps engine functions by name, so
the names it lists must stay in the engine.  Every float tolerance the engine
keeps is listed here, where it stands.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys
from collections import Counter

import equidist

PACKAGE = pathlib.Path(equidist.__file__).parent
SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """bench/spans.py, loaded from its path as it stands."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


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


# (importing module, imported module): the private names it imports, as they stand; a new
# one is declared here
PRIVATE_IMPORTS = {
    ("polygon", "body"): {"_float_point", "_orientation_det", "_scaled", "_tables"},
    ("polygon", "primitives"): {"_circumcircle_ints"},
    ("cli", "type32"): {"_construct_quad"},
    ("type32", "body"): {"_meet", "_signed_ratio"},
}


def test_private_cross_module_imports_are_declared():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    found.setdefault((path.stem, node.module), set()).update(names)
    assert found == PRIVATE_IMPORTS


# the float line layer: only primitives, where it lives, and the package, which re-exports it
FLOAT_LINE_LAYER = {"Line", "compose_three_reflections", "reflect_point"}


def test_the_engine_does_not_use_the_float_line_layer():
    # the engine constructs exactly; the float lines stay a public tool for callers
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("primitives.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, a.name) for a in node.names if a.name in FLOAT_LINE_LAYER]
            elif isinstance(node, ast.Attribute) and node.attr in FLOAT_LINE_LAYER:
                found.append((path.name, node.attr))
    assert found == []


# bench/spans.py counts the calls made through these bindings
UNUSED_ALLOWED = {(f"{caller}.py", name) for caller, name in SPANS.COUNTED}


def test_traced_names_exist_in_the_engine():
    # a name the tracer cannot find stops every traced benchmark run
    layers = {name: importlib.import_module(f"equidist.{name}") for name in SPANS.LAYERS}
    missing = [(module, name) for module, name in SPANS.SPANNED + SPANS.COUNTED
               if not callable(getattr(layers[module], name, None))]
    assert missing == []


def test_cli_import_loads_every_traced_layer_and_not_svg():
    # a fresh interpreter, as a CLI process starts: only render needs svg, and the tracer
    # finds each of its layers in sys.modules once equidist.cli is imported; no engine class
    # is a dataclass, so dataclasses and the inspect it imports stay unloaded; integers
    # decide every exact step, so fractions (a few ms to import) stays unloaded too
    code = "import sys, equidist.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    assert not {"equidist.svg", "dataclasses", "inspect", "fractions"} & loaded
    assert {f"equidist.{name}" for name in SPANS.LAYERS} <= loaded


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


# float literals 0 < |v| < 1e-6 by (module, enclosing def); a new tolerance is declared here
TOLERANCES = {
    ("primitives", ""): 2,  # EPS_GEO, TAU_CONC
}


def small_float_literals():
    """Counter of (module, dotted enclosing def or class) for each small float literal."""
    found = Counter()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if (isinstance(child, ast.Constant) and type(child.value) is float
                    and 0.0 < abs(child.value) < 1e-6):
                found[module, ".".join(scope)] += 1
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def test_float_tolerances_are_declared():
    assert small_float_literals() == Counter(TOLERANCES)


# (public callable, parameter) of every tolerance a caller can pass; a new one is declared here
TOLERANCE_PARAMETERS = {
    ("extract_boundary", "eps"),  # the vertex merge of the boundary chains
}


def test_tolerance_parameters_are_declared():
    found = {(name, param) for name in equidist.__all__
             if callable(getattr(equidist, name))
             for param in inspect.signature(getattr(equidist, name)).parameters
             if param in ("tol", "eps", "tolerance", "atol", "rtol")}
    assert found == TOLERANCE_PARAMETERS
