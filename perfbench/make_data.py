"""Regenerate the benchmark's checked-in inputs and reference outputs.

    python3 perfbench/make_data.py

Inputs (problem, function and parameter files, the CLI script) come from a
fixed seed.  References (``data/golden.json``) are the outputs of the code
in ``src/`` for the fixed cases of each workload and for every CLI
invocation; regenerate them only on the commit whose outputs are the
reference, since the oracle accepts a later result only if it keeps every
reference coefficient and does not lose precision.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import run
import workloads

SEED = 2005
DATA = workloads.DATA

#: verb, argv (``{data}`` is the data directory), how to compare fields
CLI_SCRIPT = [
    ("bracket", "bracket", ["--q", "2", "--json", "bracket", "--n", "3"],
     {"value": "series"}),
    ("factorial", "factorial", ["--q", "3", "--json", "factorial", "--kind", "D", "--n", "4"],
     {"value": "series"}),
    ("pochhammer", "pochhammer",
     ["--q", "2", "--json", "pochhammer", "--a", "x^3 + x^(1/2)", "--n", "5"],
     {"value": "series"}),
    ("op-normalize", "op-normalize", ["--q", "2", "--json", "op-normalize", "d^4*tau^4"],
     {"terms": "series_map"}),
    ("op-apply", "op-apply",
     ["--json", "op-apply", "d*tau*delta1 + (x)*tau", "--function", "{data}/func.txt"],
     {"function": "perffunc"}),
    ("cauchy-solve.n2", "cauchy-solve", ["--json", "cauchy-solve", "{data}/problem_n2.txt"],
     {"solution": "perffunc"}),
    ("cauchy-solve.general", "cauchy-solve",
     ["--json", "cauchy-solve", "{data}/problem_general.txt"], {"solution": "perffunc"}),
    ("cauchy-solve.refusal", "cauchy-solve",
     ["--json", "cauchy-solve", "{data}/problem_inadmissible.txt"], {}),
    ("hyper-eval", "hyper-eval",
     ["--json", "hyper-eval", "--params", "{data}/hyper.txt", "--z", "x^20", "--M", "6"],
     {"value": "series"}),
    ("hyper-residual", "hyper-residual",
     ["--json", "hyper-residual", "--form", "gauss", "--params", "{data}/hyper.txt",
      "--M", "5"], {}),
    ("identity-check", "identity-check",
     ["--q", "2", "--json", "identity-check", "--id", "5.7", "--seed", "7",
      "--trials", "5"], {}),
    ("dim-count", "dim-count",
     ["--json", "dim-count", "--kind", "qh", "--n", "2", "--nu-max", "12", "--fit"], {}),
    ("parse-roundtrip", "parse-roundtrip",
     ["--json", "parse-roundtrip", "--kind", "function", "--file", "{data}/func.txt"],
     {"printed": "perffunc"}),
    ("usage-error", "pochhammer", ["--q", "2", "--json", "pochhammer", "--n", "3"], {}),
]

HYPER_FILE = """PERFHYPER 1
p 2
v 1
m 1
modulus 0,1
a : x^3 + x^(1/2)
a : x
b : 1 + x^5
END
"""


def write(name, text):
    with open(os.path.join(DATA, name), "w") as fh:
        fh.write(text)


def make_inputs(lib):
    rng = random.Random("data:%d" % SEED)
    f2 = lib.ffield.FieldParams.default(2)
    f3 = lib.ffield.FieldParams.default(3)
    for n, params, trunc in ((1, f2, 6), (2, f3, 5), (3, f2, 4)):
        problem = workloads.make_problem(lib, params, rng, "product", n, trunc)
        write("problem_n%d.txt" % n, problem.text)
    write("problem_general.txt",
          workloads.make_problem(lib, f2, rng, "general", 3, 4).text)
    # Q = t - [2] vanishes at index 2: cauchy-solve must refuse it
    DeltaPoly = lib.cauchy.DeltaPoly
    t = DeltaPoly.variable(f2, 1, 1)
    eq = lib.cauchy.EvolutionEquation(
        f2, 1, t, t - DeltaPoly.constant(f2, 1, lib.brackets.bracket(f2, 2)))
    write("problem_inadmissible.txt",
          lib.cauchy.format_problem(eq, lib.cauchy.InitialData.delta(f2, 1), 3, 3))
    write("func.txt", lib.sampling.random_multifunction(rng, f2, 1, 4, 5).to_text())
    write("hyper.txt", HYPER_FILE)
    script = [{"id": i, "verb": verb, "argv": argv, "kinds": kinds}
              for i, verb, argv, kinds in CLI_SCRIPT]
    write("cli_script.json", json.dumps(script, indent=1) + "\n")


def make_references(lib):
    golden = {}
    for name, workload in workloads.all_workloads(run.ROOT).items():
        if hasattr(workload, "golden"):
            golden[name] = {case: value for case, (_, value)
                            in sorted(workload.golden(lib).items())}
    env = dict(os.environ, PYTHONPATH=run.SRC)
    with open(os.path.join(DATA, "cli_script.json")) as fh:
        script = json.load(fh)
    golden["cli"] = {}
    for entry in script:
        argv = [a.replace("{data}", DATA) for a in entry["argv"]]
        proc = subprocess.run([sys.executable, "-m", "carlitz.cli"] + argv, env=env,
                              cwd=run.ROOT, capture_output=True, text=True, timeout=120)
        golden["cli"][entry["id"]] = {"exit": proc.returncode, "stdout": proc.stdout}
    write("golden.json", json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main():
    sys.path.insert(0, run.SRC)
    os.makedirs(DATA, exist_ok=True)
    lib = run.fresh_import()
    make_inputs(lib)
    make_references(lib)


if __name__ == "__main__":
    main()
