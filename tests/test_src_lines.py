"""scripts/src_lines.py on a synthetic package: each line counted once, by kind, and the change."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "src_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment alone

import math  # code with a comment


def f(x):
    """One line."""
    text = """a string,

    not a docstring"""
    return math.floor(x) + len(text)


class C:
    """A class docstring.

    With a blank line inside it.
    """

    # another comment
    def g(self):
        return (1 +
                2)
'''
# 26 lines: docstrings 2 + 1 + 4, comments 2, blank 7 (not the one inside the string), code 10
WANT = {"code": 10, "docstring": 7, "comment": 2, "blank": 7, "total": 26}


def tree(root: pathlib.Path, files: dict) -> pathlib.Path:
    package = root / "src" / "equidist"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return root


def run(*trees):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, trees)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {row.split()[0]: [int(v) for v in row.split()[1:]]
            for row in proc.stdout.splitlines()[1:]}


def test_each_line_counts_once_by_kind(tmp_path):
    got = run(tree(tmp_path / "a", {"m.py": MODULE}))
    assert {kind: values[0] for kind, values in got.items()} == WANT


def test_two_trees_and_their_change(tmp_path):
    base = tree(tmp_path / "a", {"m.py": MODULE, "n.py": "x = 1\n"})
    # the second tree drops the comment lines and one line of code, and adds a blank
    head_text = MODULE.replace("# a comment alone\n", "").replace("    # another comment\n", "")
    head = tree(tmp_path / "b", {"m.py": head_text + "\n", "n.py": ""})
    got = run(base, head)
    assert got["code"] == [11, 10, -1]
    assert got["comment"] == [2, 0, -2]
    assert got["blank"] == [7, 8, 1]
    assert got["docstring"] == [7, 7, 0]
    assert got["total"] == [27, 25, -2]


def test_a_tree_without_the_package_is_an_error(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "no package" in proc.stderr
