"""The verdicts of ``bench_pairs.summary`` on hand-made run pairs, and the
``--trajectory`` table of hand-made ``--out`` files."""

import json

import bench_pairs

SPEC = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
        {"name": "p50_ms", "better": "lower", "bound": 0.25}]


def runs(ops, p50):
    return [{"metrics": {"ops_per_s": {"value": a}, "p50_ms": {"value": b}}}
            for a, b in zip(ops, p50)]


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = runs([60, 100, 140, 100, 100, 60, 140, 100],
                  [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    change = runs([101, 99, 102, 98, 100, 103, 97, 100],
                  [0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])
    rows = bench_pairs.summary(SPEC, parent, change)
    assert rows["ops_per_s"]["unresolved"]
    assert not rows["p50_ms"]["unresolved"]
    lines = bench_pairs.report(rows)
    assert lines[1].endswith("unresolved") and lines[2].endswith(" resolved")
    assert set(rows["ops_per_s"]) >= {"within_bound", "claimable", "wins", "pairs"}


def test_a_change_that_beats_every_parent_run_is_resolved():
    parent = runs([60, 100, 140, 100, 100, 60, 140, 100], [1.0] * 8)
    change = runs([150, 151, 152, 153, 154, 155, 156, 157], [1.0] * 8)
    assert not bench_pairs.summary(SPEC, parent, change)["ops_per_s"]["unresolved"]


#: the end-to-end metric names, as ``bench_pairs.main`` reads them
NAMES = [m["name"] for m in json.loads(
    (bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def recorded(ops, rss_per_kop=None):
    """A workload's entry in an ``--out`` file: ``ops`` as the change's
    median ops_per_s, 1.0 for every other metric."""
    entry = {"metrics": {name: {"change": {"median": ops if name == "ops_per_s" else 1.0}}
                         for name in NAMES}}
    if rss_per_kop is not None:
        entry["rss_mb_per_kop"] = {"parent": 1.0, "change": rss_per_kop}
    return entry


def test_the_trajectory_lists_change_medians_in_pr_order(tmp_path, capsys):
    files = {"BENCH_12.json": {"cauchy": recorded(700, 5.5), "hyper": recorded(1300, 1.7)},
             "BENCH_9.json": {"cauchy": recorded(500)}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    records = [(name[:-5], files[name]) for name in ("BENCH_9.json", "BENCH_12.json")]
    lines = bench_pairs.trajectory(["ops_per_s", "p50_ms"], records)
    assert lines[1].split() == ["cauchy", "BENCH_9", "500", "1", "-"]
    assert lines[2].split() == ["cauchy", "BENCH_12", "700", "1", "5.5"]
    assert lines[3].split() == ["hyper", "BENCH_12", "1300", "1", "1.7"]
    assert len(lines) == 4
    # the command line orders the files by number, not by name
    paths = [str(tmp_path / name) for name in sorted(files)]
    assert bench_pairs.main(["--trajectory"] + paths) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["cauchy", "BENCH_9", "500"],
                                         ["cauchy", "BENCH_12", "700"],
                                         ["hyper", "BENCH_12", "1300"]]
    assert [row[-1] for row in rows] == ["-", "5.5", "1.7"]
