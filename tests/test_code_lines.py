"""The counting rules of scripts/code_lines.py, the measure of every simplicity gate."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


@pytest.mark.parametrize(
    "source, expected",
    [
        ('"""Module docstring,\nover two lines."""\n', 0),
        ("# a comment\n\n\n    \n", 0),
        ("x = 1  # a trailing comment\n", 1),
        ('def f():\n    """Function\n    docstring."""\n\n    return 1\n', 2),
        ('class C:\n    """Class docstring."""\n\n    y = 2\n', 2),
        ('async def g():\n    """Docstring."""\n    return 3\n', 2),
        # a multi-line call counts once per physical line
        ("print(\n    1,\n    2,\n)\n", 4),
        ('s = """a\nb\nc"""\n', 3),
        # a string expression that is not a body's first statement is code
        ('x = 1\n"""not a docstring"""\n', 2),
        ('def f():\n    x = 1\n    "not a docstring"\n', 3),
        ('class C:\n    """Docstring."""\n    "a second string"\n', 2),
    ],
)
def test_counted_lines(tmp_path, source, expected):
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    assert code_lines.code_lines(path) == expected


def test_fixture_module(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(
        '"""Module docstring."""\n'
        "\n"
        "# a comment line\n"
        "import os  # counted once with its code\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return os.path.join(\n"
        "        x,\n"
        '        "y",\n'
        "    )\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        '    "a string expression after the docstring"\n'
        "    value = 1\n",
        encoding="utf-8",
    )
    # import, def, the four lines of the call, class, the string, value
    assert code_lines.code_lines(path) == 9
