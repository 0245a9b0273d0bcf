"""Count the lines of Python modules by kind, from their AST and tokens.

Usage::

    python tools/src_lines.py src/fraclap

For each ``.py`` file under the given paths, and in total, it prints the
total lines and how many are code, docstring, comment-only and blank.
Docstring lines are all the lines spanned by the docstring of a module,
class or function.  Outside docstrings, a comment-only line holds a comment
and no code, a blank line holds nothing, and every other line is code (a
line inside a string that is not a docstring is code).

Each module's row ends with its code digest: the first 12 hex digits of the
sha256 of ``ast.dump`` of the module with every docstring removed.  Editing
docstrings and comments keeps the digest; any change to the code moves it.
"""

from __future__ import annotations

import ast
import hashlib
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_COLUMNS = ("total", "code", "docstring", "comment", "blank")


def _documented(tree: ast.AST) -> list:
    """The modules, classes and functions in ``tree`` that have a docstring,
    which is then the first statement of their ``body``."""
    nodes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                nodes.append(node)
    return nodes


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the docstrings of ``tree``."""
    return {line for node in _documented(tree)
            for line in range(node.body[0].lineno,
                              node.body[0].end_lineno + 1)}


def digest(source: str) -> str:
    """The first 12 hex digits of the sha256 of ``ast.dump`` of ``source``
    with every docstring removed (a body left empty becomes ``pass``)."""
    tree = ast.parse(source)
    for node in _documented(tree):
        node.body = node.body[1:] or [ast.Pass()]
    return hashlib.sha256(ast.dump(tree).encode()).hexdigest()[:12]


def count(source: str) -> dict:
    """The line counts of one module's ``source``, keyed by ``_COLUMNS``."""
    total = len(source.splitlines())
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    blank = total - len(code) - len(docstring) - len(comment)
    return dict(total=total, code=len(code), docstring=len(docstring),
                comment=len(comment), blank=blank)


def main(argv: list) -> int:
    files = sorted(f for p in map(Path, argv)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    sources = [(str(f), f.read_text(encoding="utf-8")) for f in files]
    rows = [(name, count(s), digest(s)) for name, s in sources]
    rows.append(("total", {c: sum(r[c] for _, r, _ in rows)
                           for c in _COLUMNS}, ""))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in _COLUMNS)
          + f"{'digest':>14}")
    for name, r, d in rows:
        print((f"{name:<{width}}" + "".join(f"{r[c]:>11}" for c in _COLUMNS)
               + f"{d:>14}").rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
