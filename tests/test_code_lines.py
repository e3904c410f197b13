from code_lines import code_lines


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment line
def f(x):
    """A function docstring."""  # and a comment after it

    y = (x +
         1)
    text = """a string that is assigned,
not a docstring"""
    return y, text
'''
    # import, def, the two lines of y, the two lines of text, return
    assert code_lines(source) == 7
