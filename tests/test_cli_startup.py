"""Which library modules each CLI verb loads.

Every ``carlitz`` run is a fresh interpreter serving one verb, and
importing a module costs more than the work of the small verbs, so a verb
imports the modules it runs when it runs.  Each case runs ``cli.main`` in
a new interpreter and compares the ``carlitz`` modules it leaves in
``sys.modules`` with the verb's footprint.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from carlitz import FieldParams, PerfSeries
from carlitz.cauchy import InitialData, format_problem, hypergeometric_equation
from carlitz.funcspace import MultiFunction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
from carlitz import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("carlitz."))]))
"""

#: What every verb loads: the package, the CLI and the modules at its top.
BASE = {"brackets", "cli", "errors", "ffield", "series", "textio"}

CASES = [
    ("bracket", ["--q", "2", "bracket", "--n", "3"], 0, set()),
    ("factorial", ["--q", "3", "factorial", "--kind", "D", "--n", "4"], 0, set()),
    ("pochhammer", ["--q", "2", "pochhammer", "--a", "x^3 + x", "--n", "3"], 0, set()),
    ("usage-error", ["--q", "2", "bracket"], 2, set()),
    ("bad-choice", ["op-normalize", "tau", "--convention", "bogus"], 2, set()),
    ("op-normalize", ["--q", "2", "op-normalize", "d^2*tau^2"], 0,
     {"opring", "funcspace"}),
    ("dim-count", ["dim-count", "--kind", "qh", "--n", "2", "--nu-max", "12", "--fit"], 0,
     {"opring", "funcspace"}),
    ("hyper-eval", ["--q", "2", "hyper-eval", "--a", "x", "--b", "1", "--z", "x^2",
                    "--M", "4"], 0, {"hyper", "funcspace"}),
    ("hyper-residual", ["--q", "3", "hyper-residual", "--form", "thakur", "--alpha", "2",
                        "--beta", "1", "--M", "5"], 0, {"hyper", "funcspace"}),
    ("cauchy-solve", ["cauchy-solve", "{dir}/problem.txt"], 0,
     {"cauchy", "opring", "funcspace"}),
    ("op-apply", ["op-apply", "delta1", "--function", "{dir}/f.txt"], 0,
     {"opring", "funcspace"}),
    ("parse-series", ["--q", "2", "parse-roundtrip", "--kind", "series", "x + x^2"], 0,
     set()),
    ("parse-operator", ["--q", "2", "parse-roundtrip", "--kind", "operator", "d*tau"], 0,
     {"opring", "funcspace"}),
    ("parse-function", ["parse-roundtrip", "--kind", "function", "--file", "{dir}/f.txt"], 0,
     {"funcspace"}),
    ("identity-5.7", ["--q", "2", "identity-check", "--id", "5.7", "--trials", "2"], 0,
     {"sampling", "hyper", "opring", "funcspace"}),
    ("identity-2.2", ["--q", "2", "identity-check", "--id", "2.2", "--trials", "2"], 0,
     {"sampling", "opring", "funcspace"}),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory with a problem file and a function file."""
    params = FieldParams.default(2)
    eq = hypergeometric_equation(params, [PerfSeries.x(params)],
                                 [PerfSeries.one(params)], 1)
    path = tmp_path_factory.mktemp("startup")
    (path / "problem.txt").write_text(
        format_problem(eq, InitialData.delta(params, 1), 3, 3))
    f = MultiFunction(params, 1, 3, 3, {(0, 1): PerfSeries.one(params)})
    (path / "f.txt").write_text(f.to_text())
    return str(path)


@pytest.mark.parametrize("argv, code, extra", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_verb_loads_only_its_modules(argv, code, extra, files):
    argv = [a.replace("{dir}", files) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CARLITZ_FIELD_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", CHILD] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got_code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert got_code == code
    assert set(modules) == {"carlitz." + m for m in BASE | extra}
