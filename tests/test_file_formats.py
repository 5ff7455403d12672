"""The refusals and round trips of the file formats.

Each case edits one fault into a shipped file (``PERFFUNC``,
``PERFPROBLEM``, ``PERFHYPER``) or a field-config file, and pins the
exception type and the whole message of the refusal.  The shipped files
print back byte for byte.
"""

import pathlib

import pytest

from carlitz import cli
from carlitz.cauchy import format_problem, parse_problem
from carlitz.errors import ParseError
from carlitz.funcspace import MultiFunction

DATA = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data"
FUNC = (DATA / "func.txt").read_text()
PROBLEM = (DATA / "problem_n2.txt").read_text()
HYPER = (DATA / "hyper.txt").read_text()
CONFIG = "p 3\nv 1\nm 1\nmodulus 0,1\n"


def _read_config(tmp_path, text):
    path = tmp_path / "field.cfg"
    path.write_text(text)
    args = cli.build_parser().parse_args(["--field-config", str(path),
                                          "bracket", "--n", "1"])
    return cli._field_params(args)


READERS = {
    "func": lambda tmp_path, text: MultiFunction.from_text(text),
    "problem": lambda tmp_path, text: parse_problem(text),
    "hyper": lambda tmp_path, text: cli._load_hyper_file(text),
    "config": _read_config,
}
BASES = {"func": FUNC, "problem": PROBLEM, "hyper": HYPER, "config": CONFIG}

#: (file kind, text replaced, its replacement, the refusal's message)
FAULTS = [
    ("func", "PERFFUNC 1\n", "", "expected a PERFFUNC file"),
    ("func", "END\n", "", "missing END marker"),
    ("func", "n 1\n", "n 1\nsorted\n", "malformed header line 'sorted'"),
    ("func", "coeff 0 4 : 1", "coeff 0 4 1",
     "payload line missing ' : ' separator: 'coeff 0 4 1'"),
    ("func", "n 1\n", "", "missing function key 'n'"),
    ("func", "truncM 4", "truncM four",
     "function key 'truncM' is not an integer: 'four'"),
    ("func", "p 2\n", "", "missing field-config key 'p'"),
    ("func", "m 1\n", "m one\n", "field-config key 'm' is not an integer: 'one'"),
    ("func", "modulus 0,1", "modulus 0,a",
     "modulus coefficient is not an integer: 'a'"),
    ("func", "coeff 0 4 : 1", "coeff 0 : 1",
     "payload line 'coeff 0' needs 3 fields before ' : '"),
    ("func", "coeff 0 4 : 1", "coeff z 4 : 1", "coeff index is not an integer: 'z'"),
    ("func", "coeff 0 4 : 1", "coeff 0 4,z : 1",
     "coeff index is not an integer: 'z'"),
    ("func", "coeff 0 4 : 1", "coeff 0 4 : x^^2", "expected (, found '^' (at 2..3)"),
    ("problem", "PERFPROBLEM 1\n", "", "expected a PERFPROBLEM file"),
    ("problem", "END\n", "", "missing END marker"),
    ("problem", "truncI 5\n", "truncI 5\nverbose\n",
     "malformed header line 'verbose'"),
    ("problem", "Q 1,1 : 2", "Q 1,1 2",
     "payload line missing ' : ' separator: 'Q 1,1 2'"),
    ("problem", "truncI 5\n", "", "missing problem key 'truncI'"),
    ("problem", "n 2", "n two", "problem key 'n' is not an integer: 'two'"),
    ("problem", "v 1\n", "", "missing field-config key 'v'"),
    ("problem", "p 3", "p three", "field-config key 'p' is not an integer: 'three'"),
    ("problem", "init 0,0 : 1", "init : 1",
     "payload line 'init' needs 2 fields before ' : '"),
    ("problem", "P 1,1 : 1", "P 1,x : 1", "P index is not an integer: 'x'"),
    ("problem", "Q 0,1 : 2*x^3", "Q 0,1. : 2*x^3",
     "Q index is not an integer: '1.'"),
    ("problem", "init 0,0 : 1", "init 0,0 : x^(1/2)",
     "exponent denominator 2 is not a power of q (token '2') (at 5..6)"),
    ("hyper", "PERFHYPER 1\n", "", "expected a PERFHYPER file"),
    ("hyper", "END\n", "", "missing END marker"),
    ("hyper", "m 1\n", "m 1\nq\n", "malformed header line 'q'"),
    ("hyper", "a : x\n", "a x\n", "payload line missing ' : ' separator: 'a x'"),
    ("hyper", "m 1\n", "", "missing field-config key 'm'"),
    ("hyper", "v 1", "v 1.0", "field-config key 'v' is not an integer: '1.0'"),
    ("hyper", "b : 1 + x^5", "b : 1 + $", "unexpected character '$' (at 4..5)"),
    ("hyper", "a : x^3 + x^(1/2)\na : x\nb : 1 + x^5\n", "alpha : 2\nbeta : one\n",
     "beta is not an integer: 'one'"),
    ("hyper", "a : x^3 + x^(1/2)\na : x\nb : 1 + x^5\n", "alpha : z\n",
     "alpha is not an integer: 'z'"),
    ("hyper", "a : x\n", "alpha : 2\n", "mix of series and integer parameters"),
    ("config", "p 3\n", "", "missing field-config key 'p'"),
    ("config", "v 1", "v one", "field-config key 'v' is not an integer: 'one'"),
    ("config", "modulus 0,1", "modulus 0;1",
     "modulus coefficient is not an integer: '0;1'"),
    # whitespace around the payload colon may be tabs, as in header lines
    ("func", "coeff 0 4 : 1", "coeff 0 z\t:\t1", "coeff index is not an integer: 'z'"),
    ("hyper", "a : x\n", "a 7,junk : x\n",
     "payload line 'a 7,junk' has fields after its kind 'a'"),
    ("func", "PERFFUNC 1\n", "PERFFUNCTIONS 9\n", "expected a PERFFUNC file"),
    ("func", "PERFFUNC 1\n", "PERFFUNC 2\n",
     "expected version 1 of the PERFFUNC format, got '2'"),
]


@pytest.mark.parametrize("kind, old, new, message", FAULTS,
                         ids=["%s-%d" % (f[0], i) for i, f in enumerate(FAULTS)])
def test_a_fault_is_refused_with_its_message(kind, old, new, message, tmp_path):
    base = BASES[kind]
    assert old in base
    with pytest.raises(ParseError) as exc:
        READERS[kind](tmp_path, base.replace(old, new, 1))
    assert type(exc.value) is ParseError
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", sorted(READERS))
def test_the_unfaulted_files_are_read(kind, tmp_path):
    READERS[kind](tmp_path, BASES[kind])


def test_a_tab_beside_the_payload_colon_is_read():
    tabbed = FUNC.replace("coeff 0 4 : 1", "coeff 0 4\t: 1").replace(
        "coeff 1 4 : x^3", "coeff 1 4 :\tx^3")
    assert tabbed != FUNC
    assert MultiFunction.from_text(tabbed).to_text() == FUNC


@pytest.mark.parametrize("path", sorted(DATA.glob("problem_*.txt")),
                         ids=lambda p: p.name)
def test_problem_files_print_back(path):
    text = path.read_text()
    assert format_problem(*parse_problem(text)) == text


def test_function_file_prints_back():
    assert MultiFunction.from_text(FUNC).to_text() == FUNC
