"""scripts/code_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import numpy as np  # a trailing comment leaves its line counted

# a comment line


def f(x):
    """Function docstring."""
    y = ("a string that is not a docstring, "
         "over two lines")
    return np.sqrt(x), y


class C:
    """Class docstring."""
    z = 1
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, def, the two lines of y, return, class and z
    assert load_script().code_lines(SOURCE) == 7


def test_prints_a_count_per_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert load_script().main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == f"7 {path}\n7 {path}\n14 total\n"
