import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = """a string
        that is no docstring"""
        return x
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, class, def, the two lines of the string, return
    assert _tool().code_lines(SOURCE) == 6


def test_prints_the_total_of_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert _tool().main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "8\n"
