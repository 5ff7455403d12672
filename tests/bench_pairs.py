"""Paired benchmark runs of two commits, for a before/after comparison.

Each ref is exported with ``git archive`` into a temporary directory
outside the repository, and ``perfbench/run.py`` runs in each export,
one seed after another, the two sides alternating which runs first:

    python3 tests/bench_pairs.py PARENT CHANGE --workload opring --seeds 101-110

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median [lower-upper quartile], the change's wins out of the pairs (ties
count for neither side), and whether the change's median is within the
metric's bound of the parent's.  A gain is claimable when there are at
least ten pairs, the change wins at least nine pairs in ten and the medians
differ by more than the parent's interquartile spread; the ``claimable``
column says whether that holds.  A metric is unresolved when the parent's
interquartile spread is wider than the metric's bound, so that the runs
cannot tell a change of that size from noise, unless every change run
beats every parent run; the ``spread`` column says which.
Each run's line and the summary also give the number of ops the run
attempted, since ``peak_rss_mb`` grows with it, and the summary gives each
side's median ``peak_rss_mb`` per 1000 attempted ops: memory that the
harness keeps per op reads the same on both sides, and memory that the
library keeps shows as a change in it.
``git stash create`` gives a ref for uncommitted changes to tracked files.

With ``--out FILE`` the same report is also written as JSON, under the
workload's name in FILE, so runs of several workloads fill one file:

    python3 tests/bench_pairs.py PARENT CHANGE --workload cauchy --seeds 1-10 --out BENCH.json

Each workload's entry holds the refs, seeds and run length, each
end-to-end metric's medians and quartiles per side, wins out of pairs,
``within_bound``, ``claimable`` and ``unresolved``, each side's median
attempted ops, and each side's median ``peak_rss_mb`` per 1000 attempted
ops as ``rss_mb_per_kop``.

With ``--trajectory`` it runs nothing and reads such files back, ordered
by the number in their names, and prints for each workload one row per
file: the change's median of each end-to-end metric and its
``rss_mb_per_kop`` ("-" where a file predates that key):

    python3 tests/bench_pairs.py --trajectory BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(ref, directory):
    """The tree of ``ref``, written into ``directory``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def run_once(tree, workload, seed, seconds):
    """The result object (the last stdout line) of one untraced run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed in %s (seed %d):\n%s" % (tree, seed, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def summary(metrics, parent, change):
    """Per end-to-end metric: each side's median and quartiles, the
    change's wins out of the pairs, whether its median is within the
    bound, whether a gain is claimable, and whether the parent's spread
    leaves the metric unresolved."""
    pairs = len(parent)
    out = {}
    for spec in metrics:
        name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        qa = quartiles(a)
        limit = ma * (1 - bound) if higher else ma * (1 + bound)
        apart = min(b) > max(a) if higher else max(b) < min(a)
        out[name] = {
            "better": spec["better"], "bound": bound,
            "parent": {"median": ma, "quartiles": list(qa)},
            "change": {"median": mb, "quartiles": list(quartiles(b))},
            "wins": wins, "pairs": pairs,
            "within_bound": mb >= limit if higher else mb <= limit,
            "claimable": (pairs >= 10 and wins * 10 >= 9 * pairs
                          and abs(mb - ma) > qa[1] - qa[0]),
            "unresolved": qa[1] - qa[0] > bound * abs(ma) and not apart}
    return out


def report(rows):
    """One line per metric of ``summary``: medians, quartiles, wins,
    bound, claim and spread."""
    lines = ["%-12s %-28s %-28s %5s  %-6s %-9s %s"
             % ("metric", "parent median [quartiles]", "change median [quartiles]",
                "wins", "bound", "claimable", "spread")]
    for name, row in rows.items():
        a, b = row["parent"], row["change"]
        lines.append("%-12s %-28s %-28s %2d/%-2d  %-6s %-9s %s" % (
            name, "%.4g [%.4g-%.4g]" % (a["median"], *a["quartiles"]),
            "%.4g [%.4g-%.4g]" % (b["median"], *b["quartiles"]),
            row["wins"], row["pairs"], "within" if row["within_bound"] else "OVER",
            "yes" if row["claimable"] else "no",
            "unresolved" if row["unresolved"] else "resolved"))
    return lines


def write_out(path, workload, entry):
    """``entry`` under ``workload`` in the JSON object at ``path``, the
    other workloads already there kept."""
    path = pathlib.Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[workload] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def trajectory(metrics, records):
    """One line per workload and file of ``records`` (pairs of a label
    and a file's JSON, in the order given): the change's median of each
    named metric, then its ``rss_mb_per_kop``."""
    lines = ["%-8s %-10s" % ("workload", "file")
             + "".join(" %12s" % name for name in metrics + ["rss_mb_per_kop"])]
    workloads = sorted({w for _, data in records for w in data})
    for workload in workloads:
        for label, data in records:
            entry = data.get(workload)
            if entry is None:
                continue
            cells = [entry["metrics"][name]["change"]["median"] for name in metrics]
            cells.append(entry.get("rss_mb_per_kop", {}).get("change"))
            lines.append("%-8s %-10s" % (workload, label) + "".join(
                " %12s" % ("-" if v is None else "%.4g" % v) for v in cells))
    return lines


def pr_number(path):
    """The number in a file name such as BENCH_21.json."""
    found = re.search(r"\d+", pathlib.Path(path).name)
    if found is None:
        raise SystemExit("no number in the file name %s" % path)
    return int(found.group())


def seed_list(text):
    """'101-110' or '7,9,11' as a list of ints."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=seed_list,
                        help="one run pair per seed: '101-110' or '7,9,11'")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report as JSON under the workload's "
                             "name in FILE")
    parser.add_argument("--trajectory", nargs="+", metavar="FILE",
                        help="run nothing: print the change medians recorded in "
                             "these --out files, in the order of their numbers")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trajectory:
        paths = sorted(args.trajectory, key=pr_number)
        records = [(pathlib.Path(p).stem, json.loads(pathlib.Path(p).read_text()))
                   for p in paths]
        for line in trajectory([m["name"] for m in bench["end_to_end"]], records):
            print(line)
        return 0
    if None in (args.parent, args.change, args.workload, args.seeds):
        parser.error("PARENT, CHANGE, --workload and --seeds are required "
                     "without --trajectory")
    seconds = bench["run_seconds"]
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = pathlib.Path(tmp) / side
            trees[side].mkdir()
            export(getattr(args, side), trees[side])
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, seconds)
                results[side].append(result)
                values = result["metrics"]
                print("seed %d %-6s correct=%s attempted=%d failed=%d  %s" % (
                    seed, side, result["correct"], result["attempted"], result["failed"],
                    " ".join("%s=%.4g" % (m["name"], values[m["name"]]["value"])
                             for m in bench["end_to_end"])),
                    flush=True)
    print("%s, %d pairs of %g s runs, %s -> %s"
          % (args.workload, len(args.seeds), seconds, args.parent, args.change))
    rows = summary(bench["end_to_end"], results["parent"], results["change"])
    for line in report(rows):
        print(line)
    attempted = {side: statistics.median(r["attempted"] for r in results[side])
                 for side in ("parent", "change")}
    print("attempted ops, median: parent %g, change %g"
          % (attempted["parent"], attempted["change"]))
    rss_per_kop = {side: statistics.median(
        r["metrics"]["peak_rss_mb"]["value"] * 1000 / r["attempted"] for r in results[side])
        for side in ("parent", "change")}
    print("peak_rss_mb per 1000 attempted ops, median: parent %.4g, change %.4g"
          % (rss_per_kop["parent"], rss_per_kop["change"]))
    if args.out:
        write_out(args.out, args.workload, {
            "parent": args.parent, "change": args.change, "seeds": args.seeds,
            "seconds": seconds, "metrics": rows, "attempted": attempted,
            "rss_mb_per_kop": rss_per_kop})
    return 0


if __name__ == "__main__":
    sys.exit(main())
