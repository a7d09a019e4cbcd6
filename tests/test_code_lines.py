from code_lines import main

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


# a comment-only line
class Shape:
    """Class docstring."""

    sides = 4

    def area(self, r):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
        not a docstring"""
        return math.pi * (
            r
            * r
        )


async def wait():
    """Async docstring."""
    return text
'''
# code lines: import, class, sides, def area, text (2), return (4),
# async def, return
CODE_LINES = 12


def test_counts_code_lines_per_file_and_in_total(tmp_path, capsys):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n\n# done\n")
    assert main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{CODE_LINES:6d} {first}",
        f"{1:6d} {second}",
        f"{CODE_LINES + 1:6d} total",
    ]
