import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# A docstring, a comment and a multi-line string: lines 5, 7-9 and 10 hold code.
SOURCE = '''"""Module docstring
over two lines."""

# a comment
def f():
    """Function docstring."""
    s = """a
multi-line string
"""
    return s  # a trailing comment
'''


def test_code_lines_skip_docstrings_and_comments_but_count_multi_line_strings():
    assert src_lines.code_lines(SOURCE) == 5


def test_main_first_column_is_the_newline_count(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SOURCE + "x = 1")  # the last line has no newline
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["10", "6", "mod.py"], ["10", "6", "total"]]
