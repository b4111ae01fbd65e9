"""``tools/loc.py``: the total and code-only line counts ``make loc`` prints."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc_tool", Path(__file__).resolve().parents[1] / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment counts as code


def f(x):
    """One-line docstring."""
    text = """a string
    that is data"""
    "a bare string statement"
    return "x".join(
        [text, os.sep]
    )
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SOURCE)
    (tmp_path / "pkg" / "empty.py").write_text("")
    # Code: import, def, the two lines of the data string, return + its 2 lines.
    assert loc.code_lines(tmp_path / "pkg" / "mod.py") == 7
    assert loc.count([str(tmp_path)]) == (2, SOURCE.count("\n"), 7)
