"""The README's python examples run as written, and its tables match the code."""

import re
from pathlib import Path

from fbqp import SolveStatus

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].solved


def test_readme_status_table_matches_the_enum():
    text = README.read_text()
    table = text.split("`solve` ends with one of these statuses:", 1)[1].split("\n\n")[1]
    cells = re.findall(r"^\| `([^`]+)`", table, re.M)
    assert sorted(cells) == sorted(s.value for s in SolveStatus)
