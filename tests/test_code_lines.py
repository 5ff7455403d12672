"""The size measure of ``tests/code_lines.py`` on small sources.

``code_lines`` counts the lines that hold a token other than a comment or
a docstring, a string standing as a statement of its own (adjacent
strings joined into one); a token that spans several lines counts each of
them.  ``knobs`` counts the parameters with a default of the public
module-level functions and of the public methods of public classes.
``since_table`` compares two sets of module sources, and ``format_since``
prints the comparison that ``--since REF`` shows.  ``knob_names`` names
each knob ``module:Class.method(param)``, which ``--knobs`` lists, and
``knob_changes`` gives the knobs added and removed that ``--since REF
--knobs`` lists.
"""

import textwrap

import pytest

from code_lines import (code_lines, format_since, knob_changes, knob_names,
                        knobs, main, since_table)


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


def test_knob_names():
    assert knob_names(source(KNOBS["keyword-only"][0]), "m") == ["m:f(b)", "m:f(c)"]
    assert knob_names(source(KNOBS["private and dunder"][0]), "mod") == [
        "mod:Shown.method(a)", "mod:Shown.method(b)", "mod:public(a)"]
    # positional-only defaults count; the defaults belong to the last
    # positional parameters
    assert knob_names(source('''
        def g(a, b=1, /, c=2):
            pass
        '''), "m") == ["m:g(b)", "m:g(c)"]


# two module sets: a module that grows a knob, one that loses a line, one
# that is removed and one that is added
BEFORE = {"a.py": source('''
    def f(x):
        return x
    '''), "b.py": source('''
    y = 1
    z = 2
    '''), "gone.py": "w = 3\n"}
AFTER = {"a.py": source('''
    def f(x, scale=1):
        """Docstring."""
        return x * scale
    '''), "b.py": "y = 1\n", "new.py": source('''
    def g(a=None, *, b=2):
        pass
    ''')}


def test_since_table():
    assert since_table(BEFORE.items(), AFTER.items()) == [
        ("a.py", 2, 2, 0, 0, 1, 1),
        ("b.py", 2, 1, -1, 0, 0, 0),
        ("gone.py", 1, 0, -1, 0, 0, 0),
        ("new.py", 0, 2, 2, 0, 2, 2),
        ("total", 5, 5, 0, 0, 3, 3)]


def test_format_since():
    assert format_since(since_table(BEFORE.items(), AFTER.items()), "abc1234") == (
        "REF = abc1234; now = the working tree\n"
        "module           code@REF    now   diff knobs@REF    now   diff\n"
        "a.py                    2      2     +0         0      1     +1\n"
        "b.py                    2      1     -1         0      0     +0\n"
        "gone.py                 1      0     -1         0      0     +0\n"
        "new.py                  0      2     +2         0      2     +2\n"
        "total                   5      5     +0         0      3     +3")


def test_knob_changes():
    # a knob moved to another parameter is one removed and one added
    before = {"a.py": source('''
        def f(x, scale=1):
            pass
        class C:
            def run(self, *, fast=True):
                pass
        ''')}
    after = {"a.py": source('''
        def f(x, factor=1):
            pass
        class C:
            def run(self, *, fast=True):
                pass
        '''), "new.py": source('''
        def g(a=None):
            pass
        ''')}
    assert knob_changes(before.items(), after.items()) == [
        "+ a:f(factor)", "+ new:g(a)", "- a:f(scale)"]
    assert knob_changes(after.items(), after.items()) == []


def test_the_knob_listing_names_every_counted_knob(capsys):
    main(["-v"])
    total = int(capsys.readouterr().out.splitlines()[-1].split()[-1])
    main(["--knobs"])
    listed = capsys.readouterr().out.split()
    assert len(listed) == len(set(listed)) == total
    assert all(":" in k and k.endswith(")") for k in listed)
