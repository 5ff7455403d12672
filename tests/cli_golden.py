"""The pinned CLI surface: runs of ``carlitz`` and what each one printed.

``tests/data/cli_golden.json`` holds every run below with its exit code,
stdout and stderr, in text mode and in ``--json`` mode, together with the
input files the runs read.  ``tests/test_cli_golden.py`` reruns each one
through ``cli.main`` in-process and compares every byte.

Regenerate the corpus, only on a commit whose output is the reference:

    PYTHONPATH=src python tests/cli_golden.py --regen
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "data" / "cli_golden.json"
PERFBENCH_DATA = HERE.parent / "perfbench" / "data"

#: Placeholder for the directory holding the input files, in argv and output.
DIR = "{dir}"

#: Input files that only refusal runs read.
EXTRA_FILES = {
    "problem_no_index.txt": "PERFPROBLEM 1\np 2\nv 1\nm 1\nmodulus 0,1\nn 1\n"
                            "truncM 2\ntruncI 2\nP : x\nQ 0 : 1\ninit 0 : 1\nEND\n",
    "func_no_index.txt": "PERFFUNC 1\np 2\nv 1\nm 1\nmodulus 0,1\nn 1\n"
                         "truncM 2\ntruncI 2\ncoeff 0 : 1\nEND\n",
}


def _script_runs():
    """The benchmark's CLI script, with its ``{data}`` files."""
    script = json.loads((PERFBENCH_DATA / "cli_script.json").read_text())
    return [("script." + entry["id"],
             [a.replace("{data}", DIR) for a in entry["argv"]])
            for entry in script]


def _edge_runs():
    hyper = DIR + "/hyper.txt"
    runs = []
    for M in (10, 30):
        for window in (None, 7, 32, 0):
            argv = ["hyper-eval", "--params", hyper, "--z", "x^20", "--M", str(M)]
            if window is not None:
                argv += ["--window", str(window)]
            runs.append(("hyper-eval.M%d.w%s" % (M, window), argv))
    runs.append(("hyper-eval.a-b.w0", ["--q", "2", "hyper-eval", "--a", "x",
                                       "--b", "1", "--z", "x^3", "--window", "0"]))
    runs.append(("hyper-eval.alpha-beta", ["--q", "3", "hyper-eval", "--alpha", "-1",
                                           "--beta", "2", "--z", "x^4", "--M", "4"]))
    for alpha in (-2, -1, 0):
        for window in (None, 9):
            argv = ["--q", "2", "hyper-residual", "--form", "thakur",
                    "--alpha", str(alpha), "--beta", "1"]
            if window is not None:
                argv += ["--window", str(window)]
            runs.append(("hyper-residual.thakur.a%d.w%s" % (alpha, window), argv))
    runs.append(("hyper-residual.product", ["--q", "3", "hyper-residual", "--a", "x",
                                            "--b", "1 + x^2", "--M", "4"]))
    for k in range(1, 6):
        for convention in ("standard", "alt"):
            for strategy in ("leftmost", "rightmost"):
                runs.append(("op-normalize.d%dtau%d.%s.%s" % (k, k, convention, strategy),
                             ["--q", "2", "op-normalize", "d^%d*tau^%d" % (k, k),
                              "--convention", convention, "--strategy", strategy]))
    runs.append(("op-normalize.q3.vars2", ["--q", "3", "op-normalize",
                                           "delta2*d*tau + (x)*delta1", "--vars", "2"]))
    for q, kind, n in ((2, "D", 6), (2, "L", 6), (3, "D", 3), (3, "L", 5), (4, "L", 0)):
        runs.append(("factorial.q%d.%s%d" % (q, kind, n),
                     ["--q", str(q), "factorial", "--kind", kind, "--n", str(n)]))
    for q, a in ((2, "x^3 + x^(1/2)"), (3, "x + 2*x^(1/3)")):
        runs.append(("pochhammer.recurrent.q%d" % q,
                     ["--q", str(q), "pochhammer", "--a", a, "--n", "4",
                      "--mode", "recurrent"]))
    runs.append(("pochhammer.direct.q3", ["--q", "3", "pochhammer", "--a", "1 + x^2",
                                          "--n", "3", "--mode", "direct"]))
    for alpha in (-2, 0, 3):
        runs.append(("pochhammer.alpha%d" % alpha,
                     ["--q", "2", "pochhammer", "--alpha", str(alpha), "--n", "1"]))
    for n in ("inf", "-2", "0"):
        runs.append(("bracket.%s" % n, ["--q", "3", "bracket", "--n", n]))
    for name in ("n1", "n3"):
        runs.append(("cauchy-solve.%s" % name,
                     ["cauchy-solve", DIR + "/problem_%s.txt" % name]))
    runs.append(("cauchy-solve.n2.window", ["cauchy-solve", DIR + "/problem_n2.txt",
                                            "--imax", "3", "--window", "9"]))
    # refusals, among them every one mended in an earlier change
    runs += [
        ("refusal.problem-no-index", ["cauchy-solve", DIR + "/problem_no_index.txt"]),
        ("refusal.func-no-index", ["parse-roundtrip", "--kind", "function",
                                   "--file", DIR + "/func_no_index.txt"]),
        ("refusal.negative-vars", ["--q", "2", "op-normalize", "d*tau", "--vars", "-2"]),
        ("refusal.negative-vars-roundtrip", ["--q", "2", "parse-roundtrip", "--kind",
                                             "operator", "--vars", "-1", "d"]),
        ("refusal.mode-with-alpha", ["--q", "2", "pochhammer", "--alpha", "2", "--n",
                                     "2", "--mode", "recurrent"]),
        ("refusal.missing-file", ["cauchy-solve", DIR + "/missing.txt"]),
        ("refusal.unknown-verb", ["--q", "2", "frobnicate"]),
        ("refusal.bad-index", ["--q", "2", "bracket", "--n", "x"]),
    ]
    return runs


def runs():
    """(id, argv) of every pinned run, each in text mode and in --json mode."""
    out = []
    for name, argv in _script_runs() + _edge_runs():
        text = [a for a in argv if a != "--json"]
        out.append((name + ".text", text))
        out.append((name + ".json", ["--json"] + text))
    return out


def input_files():
    """Name -> text of every file the runs read."""
    files = {p.name: p.read_text() for p in sorted(PERFBENCH_DATA.glob("*.txt"))}
    files.update(EXTRA_FILES)
    return files


def write_files(files, directory):
    for name, text in files.items():
        (pathlib.Path(directory) / name).write_text(text)


def run(argv, directory):
    """Run ``carlitz argv`` in-process with ``{dir}`` standing for
    ``directory``; returns (exit code, stdout, stderr), with ``directory``
    written back as ``{dir}``."""
    from carlitz import cli
    directory = str(directory)
    argv = [a.replace(DIR, directory) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in ("COLUMNS", "CARLITZ_FIELD_CONFIG")}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("CARLITZ_FIELD_CONFIG", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return (code, out.getvalue().replace(directory, DIR),
            err.getvalue().replace(directory, DIR))


def regenerate(directory):
    files = input_files()
    write_files(files, directory)
    records = []
    for name, argv in runs():
        code, stdout, stderr = run(argv, directory)
        records.append({"id": name, "argv": argv, "exit": code,
                        "stdout": stdout, "stderr": stderr})
    return {"files": files, "runs": records}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regen", action="store_true",
                        help="rewrite tests/data/cli_golden.json")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to rewrite the corpus")
    import tempfile
    with tempfile.TemporaryDirectory() as directory:
        corpus = regenerate(directory)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print("wrote %d runs to %s" % (len(corpus["runs"]), CORPUS))


if __name__ == "__main__":
    sys.exit(main())
