import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a multi-line
    string that is not a docstring"""
    return (x +
            math.pi)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    # import, def, the string's two lines, the return's two lines, class, y
    assert code_lines.code_lines(tmp_path / "sample.py") == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [["a.py", "8"], ["b.py", "1"], ["total", "9"]]
