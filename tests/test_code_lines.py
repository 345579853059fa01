"""tools/code_lines.py counts code lines the way ROADMAP's figures do.

A code line holds a token other than a comment and is not part of a
docstring. The tool is loaded from its source, so nothing is written next
to it.
"""

import types
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,

on three lines."""

import os  # code and a comment: one line


# a comment line
def f(x):
    """Function docstring."""
    y = (x +
         1)
    s = """a string that is not a docstring
spans two lines"""
    return y, s


class C:
    \'\'\'Class docstring.\'\'\'

    z = os.sep
'''
# import, def, the two lines of y, the two of s, return, class, z
FIXTURE_LINES = 9


@pytest.fixture
def code_lines():
    module = types.ModuleType("code_lines")
    module.__file__ = str(TOOL_PATH)
    code = compile(TOOL_PATH.read_text(), str(TOOL_PATH), "exec")
    exec(code, module.__dict__)
    return module


def test_counts_code_but_no_blank_comment_or_docstring_line(code_lines):
    assert code_lines.code_lines(FIXTURE) == FIXTURE_LINES


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    package = tmp_path / "relaysim"
    package.mkdir()
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "mod.py").write_text(FIXTURE)
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [[str(FIXTURE_LINES), "mod.py"], ["0", "__init__.py"],
                    [str(FIXTURE_LINES), "total"]]


def test_refuses_a_directory_without_the_package(code_lines, tmp_path):
    with pytest.raises(SystemExit) as exc:
        code_lines.main([str(tmp_path)])
    assert exc.value.code == 2
