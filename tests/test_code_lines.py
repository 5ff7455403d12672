"""The size measure of ``tests/code_lines.py`` on small sources.

``code_lines`` counts the lines that hold a token other than a comment or
a docstring, a string standing as a statement of its own (adjacent
strings joined into one); a token that spans several lines counts each of
them.  ``knobs`` counts the parameters with a default of the public
module-level functions and of the public methods of public classes.
"""

import textwrap

import pytest

from code_lines import code_lines, knobs


def source(text):
    return textwrap.dedent(text).lstrip("\n")


CODE_LINES = {
    # a docstring, a bare string beside it and implicitly joined strings
    # (two tokens that make one string) stand as statements; a string
    # inside an expression is code
    "docstrings": ('''
        """Module docstring."""
        def f():
            """Function docstring."""
            "a bare string expression"
            return "a string in an expression"
        x = "assigned"
        "implicitly" "joined"
        ("a string" + "sum")
        ''', 4),
    # a token on several lines counts each of them, a docstring none
    "multiline tokens": ('''
        def f():
            """One
            docstring
            on three lines."""
            return """a string
            on two lines"""
        y = f(1,
              2)
        ''', 5),
    # comment-only and blank lines count nothing, a comment after code
    # leaves its line counted once
    "comments": ('''
        # a comment

        x = 1  # after code
            # an indented comment
        if x:
            # inside a block
            pass
        ''', 3),
}


@pytest.mark.parametrize("name", sorted(CODE_LINES))
def test_code_lines(name):
    text, want = CODE_LINES[name]
    assert code_lines(source(text)) == want


KNOBS = {
    # positional and keyword-only defaults, and a keyword-only parameter
    # without one
    "keyword-only": ('''
        def f(a, b=1, *args, c=2, d, **kw):
            pass
        ''', 2),
    # private functions, private classes and dunder methods are no knobs;
    # neither is a function nested in another
    "private and dunder": ('''
        def _private(a=1):
            pass
        class _Hidden:
            def method(self, a=1):
                pass
        class Shown:
            def __init__(self, a=1):
                pass
            def _helper(self, a=1):
                pass
            def method(self, a=1, *, b=None):
                def inner(c=3):
                    pass
        def public(a=None):
            pass
        ''', 3),
}


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_knobs(name):
    text, want = KNOBS[name]
    assert knobs(source(text)) == want
