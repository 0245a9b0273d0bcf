import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

_SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment is code

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring
        # not a comment
        """
        text = """a string that is
        # not a docstring"""
        return text
'''


def test_counts_each_kind_once():
    # Docstrings 1-2, 10 and 13-16; comment 6; blank 3, 5, 7, 8, 11; the
    # rest code, a non-docstring string's lines among them.
    assert src_lines.count(_SOURCE) == dict(
        total=19, code=6, docstring=7, comment=1, blank=5)


def test_digest_sees_code_and_not_prose():
    reworded = (_SOURCE.replace("Class docstring.", "Reworded.")
                .replace("# a comment-only line", "# another comment")
                .replace("  # a trailing comment is code", ""))
    no_docstring = _SOURCE.replace('    """Class docstring."""\n', "")
    # With its only statement, a docstring, gone, a body becomes ``pass``.
    no_body = 'def g():\n    """Only a docstring."""\n'
    assert src_lines.digest(reworded) == src_lines.digest(_SOURCE)
    assert src_lines.digest(no_docstring) == src_lines.digest(_SOURCE)
    assert src_lines.digest(no_body) == src_lines.digest("def g():\n    pass\n")
    constant = "X = 1  # one\n"
    assert src_lines.digest(constant.replace("1", "2")) \
        != src_lines.digest(constant)
