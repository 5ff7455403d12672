"""The verdicts of ``bench_pairs.summary`` on hand-made run pairs."""

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
