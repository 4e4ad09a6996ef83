from code_lines import count_code_lines

SNIPPET = '''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment line


def join(a):
    """A function docstring."""
    return os.path.join(
        a,
        "b",
    )
'''


def test_code_lines_count_a_snippet_by_hand():
    # import, def, and the four lines of the call: docstrings, comment
    # lines and blank lines do not count
    assert count_code_lines(SNIPPET) == 6
