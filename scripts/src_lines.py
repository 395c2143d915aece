"""Count the lines of a tree's ``src/equidist`` as code, docstring, comment and blank.

usage: python scripts/src_lines.py TREE [TREE]

TREE is the root of a checkout.  Each line of each ``*.py`` file of its
``src/equidist`` counts once, as the first that holds of:

- docstring: inside the string that opens a module, class or function body (``ast``);
- code: it holds a token of code, such as a line of a multi-line expression or
  string, or code with a comment after it (``tokenize``);
- comment: it holds a comment and nothing else;
- blank: it holds nothing.

With two trees the last column is the second tree's count minus the first's.  So a
change that deletes comments along with code shows its code lines apart.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize
from collections import Counter

KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_kinds(text: str) -> list[str]:
    """The kind of each line of the Python source text."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return ["docstring" if n in docstring else "code" if n in code
            else "comment" if n in comment else "blank"
            for n in range(1, len(text.splitlines()) + 1)]


def count(tree: pathlib.Path) -> Counter:
    """The lines of each kind over the ``*.py`` files of tree's ``src/equidist``."""
    package = tree / "src" / "equidist"
    if not package.is_dir():
        raise SystemExit(f"src_lines: no package at {package}")
    total = Counter()
    for path in sorted(package.rglob("*.py")):
        total.update(line_kinds(path.read_text(encoding="utf-8")))
    return total


def table(trees: list[str]) -> str:
    counts = [count(pathlib.Path(tree)) for tree in trees]
    for c in counts:
        c["total"] = sum(c[kind] for kind in KINDS)
    header = ["kind", *trees] + (["change"] if len(trees) == 2 else [])
    rows = [header]
    for kind in (*KINDS, "total"):
        values = [c[kind] for c in counts]
        rows.append([kind, *map(str, values)]
                    + ([f"{values[1] - values[0]:+d}"] if len(values) == 2 else []))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join([row[0].ljust(widths[0])]
                               + [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])])
                     for row in rows)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print(table(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
