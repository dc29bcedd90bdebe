"""The line classes of ``tools/src_lines.py`` on a module whose counts are known."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# Docstring: lines 1-3 (with the blank line inside) and 11. Comment: 7.
# Blank: 4, 6, 8 and 9. Code: 5, 10 and 12-15, among them a trailing
# comment's line and both lines of a multi-line string that is a value.
SAMPLE = '''"""A module docstring

over three lines."""

import os  # a comment after code

# a comment alone


def f(x):
    """One line."""
    text = """a value
over two lines"""
    return (os.sep,
            text)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_known_module(tmp_path, capsys):
    src_lines = _tool()
    expected = {"code": 6, "docstring": 4, "comment": 1, "blank": 4}
    assert src_lines.count_lines(SAMPLE) == expected
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    src_lines.main([str(path), str(path)])
    assert capsys.readouterr().out == f"6 4 1 4 15 {path}\n6 4 1 4 15 {path}\n12 8 2 8 30 total\n"
