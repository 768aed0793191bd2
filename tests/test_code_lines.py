"""The code-size tool counts code lines only."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line


class Box:
    """Class docstring."""

    # a comment line
    size = 1

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * self.size


async def wait():
    """One more."""
'''


def test_counts_only_code_lines():
    # import, class, size, def, text (two lines), return, async def
    assert _tool().code_lines(SOURCE) == 8


def test_main_prints_every_module_and_the_total(capsys):
    tool = _tool()
    assert tool.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in tool.PACKAGE.glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0])
