"""Code lines of ``src/carlitz``, at a git ref or in the working tree.

A code line is a non-blank line that holds a token other than a comment
or a docstring (a string that stands as a statement of its own, adjacent
strings joined into one), as ``tokenize`` reads it; a token spanning
several lines counts each of them.

A knob is a parameter with a default of a public function, or of a public
method of a public class, defined at module level; dunder methods and
names that start with ``_`` are not counted.  A knob is named
``module:function(param)`` or ``module:Class.method(param)``.

    python3 tests/code_lines.py            # the working tree
    python3 tests/code_lines.py HEAD~1     # a commit
    python3 tests/code_lines.py REF -v     # code lines and knobs per module
    python3 tests/code_lines.py --since REF
        # code lines and knobs per module at REF and in the working tree,
        # with their differences and a total row
    python3 tests/code_lines.py [REF] --knobs
        # each knob by name, one a line
    python3 tests/code_lines.py --since REF --knobs
        # the knobs added (+) and removed (-) since REF
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = "src/carlitz"

#: Tokens that hold no code, and the ones after which a string opens a statement.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    before = tokenize.NEWLINE  # the last token that is not a comment or NL
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if tok.type in (tokenize.COMMENT, tokenize.NL):
            continue
        if tok.type == tokenize.STRING and before in _STATEMENT_START:
            # adjacent strings ("a" "b") join into one string
            end = i
            while end < len(tokens) and tokens[end].type == tokenize.STRING:
                end += 1
            if end == len(tokens) or tokens[end].type in (tokenize.NEWLINE,
                                                          tokenize.ENDMARKER):
                i, before = end, tokenize.STRING  # a docstring: no code
                continue
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        before = tok.type
    return len(lines)


def knob_names(source: str, module: str = "") -> list:
    """The knobs in ``source``, in source order, each named
    ``module:function(param)`` or ``module:Class.method(param)``."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions.extend(("%s.%s" % (node.name, f.name), f) for f in node.body
                             if isinstance(f, ast.FunctionDef))
    names = []
    for name, f in functions:
        if f.name.startswith("_"):
            continue
        args = f.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        names += ["%s:%s(%s)" % (module, name, a.arg) for a in defaulted]
    return names


def knobs(source: str) -> int:
    """The number of knobs in ``source``."""
    return len(knob_names(source))


def module_knobs(modules):
    """The knob names of every module of an iterable of (module file name,
    source)."""
    return [knob for name, source in modules
            for knob in knob_names(source, pathlib.PurePosixPath(name).stem)]


def knob_changes(before, after):
    """Lines ``+ knob`` for each knob of ``after`` that ``before`` lacks,
    then ``- knob`` for each knob of ``before`` that ``after`` lacks, each
    an iterable of (module file name, source)."""
    old, new = set(module_knobs(before)), set(module_knobs(after))
    return (["+ " + k for k in sorted(new - old)]
            + ["- " + k for k in sorted(old - new)])


def sources(ref=None):
    """(module name, source) of each module of the package, by name."""
    if ref is None:
        for path in sorted((ROOT / PACKAGE).glob("*.py")):
            yield path.name, path.read_text()
        return
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "--name-only", ref,
                            PACKAGE + "/"], check=True, capture_output=True,
                           text=True).stdout.split()
    for name in sorted(n for n in names if n.endswith(".py")):
        yield pathlib.PurePosixPath(name).name, subprocess.run(
            ["git", "-C", str(ROOT), "show", "%s:%s" % (ref, name)],
            check=True, capture_output=True, text=True).stdout


def since_table(before, after):
    """Rows (module, code lines before, after, difference, knobs before,
    after, difference) over the modules of two source sets, each an
    iterable of (module name, source), then a total row; a module missing
    from one set counts nothing there."""
    old, new = dict(before), dict(after)
    rows = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, ""), new.get(name, "")
        lines, knob = (code_lines(a), code_lines(b)), (knobs(a), knobs(b))
        rows.append((name, *lines, lines[1] - lines[0], *knob, knob[1] - knob[0]))
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, 7))))
    return rows


def format_since(rows, ref):
    """The rows of :func:`since_table` as text, under a line naming ``ref``."""
    out = ["REF = %s; now = the working tree" % ref,
           "%-16s %8s %6s %6s %9s %6s %6s" % ("module", "code@REF", "now", "diff",
                                               "knobs@REF", "now", "diff")]
    out += ["%-16s %8d %6d %+6d %9d %6d %+6d" % row for row in rows]
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default=None,
                        help="git ref (default: the working tree)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each module's code lines and knobs, "
                             "and the knob total")
    parser.add_argument("--since", metavar="REF",
                        help="compare each module at REF with the working tree")
    parser.add_argument("--knobs", action="store_true",
                        help="name each knob; with --since, the knobs added "
                             "and removed")
    args = parser.parse_args(argv)
    if args.since and args.knobs:
        print("\n".join(knob_changes(sources(args.since), sources())
                        or ["no knob added or removed since %s" % args.since]))
        return 0
    if args.since:
        print(format_since(since_table(sources(args.since), sources()), args.since))
        return 0
    if args.knobs:
        print("\n".join(module_knobs(sources(args.ref))))
        return 0
    total = total_knobs = 0
    for name, source in sources(args.ref):
        count, knob_count = code_lines(source), knobs(source)
        total += count
        total_knobs += knob_count
        if args.verbose:
            print("%-16s %5d %5d" % (name, count, knob_count))
    if args.verbose:
        print("%-16s %5d %5d" % ("total", total, total_knobs))
    else:
        print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
