from code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code


class Point:
    """A class docstring."""

    # a comment line
    def norm(self):
        """A function docstring
        over two lines."""
        text = """a string that is
no docstring"""
        return math.hypot(
            1.0, 2.0)
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    # code: import, class, def, the two lines of the string, return and its
    # continuation
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    assert code_lines(path) == 7
