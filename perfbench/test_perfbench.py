"""Self-tests of the benchmark code: python3 -m pytest perfbench -q"""

import importlib
import sys
from types import SimpleNamespace

import pytest

import oracle
import run
import spans


# -- percentiles and the sample-count rule ----------------------------------

def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([3, 1, 2], 50) == 2


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert run.samples_beyond(100, 90) == 10
    assert all(run.samples_beyond(n, 90) < 10 for n in range(1, 100))
    assert run.MIN_OPS >= 100


def test_speed_scales_to_the_reference_machine():
    speed = run.Speed()
    speed.probes = [run.CAL_REF_S, 3 * run.CAL_REF_S]   # machine at half speed
    assert speed.factor(0, 1) == pytest.approx(0.5)
    _, scaled, raw = speed.timed(lambda: None)
    assert scaled == pytest.approx(raw * speed.factor(2, 3))


# -- self time on a synthetic span tree ---------------------------------------

def test_self_time_subtracts_children():
    t = spans.Tracer(clock=None)
    t.enter("a", 0.0)
    t.enter("b", 1.0)
    t.enter("c", 2.0)
    t.exit(3.0)          # c: 1
    t.exit(4.0)          # b: 3, self 2
    t.enter("d", 5.0)
    t.exit(9.0)          # d: 4
    t.exit(10.0)         # a: 10, self 10 - 3 - 4
    assert t.self_s("a") == pytest.approx(3.0)
    assert t.self_s("b") == pytest.approx(2.0)
    assert t.self_s("c") == pytest.approx(1.0)
    assert t.self_s("d") == pytest.approx(4.0)
    assert t.incl_s("a") == pytest.approx(10.0)
    assert sum(s[1] for s in t.stats.values()) == pytest.approx(10.0)


def test_recursion_counts_inclusive_time_once():
    t = spans.Tracer(clock=None)
    t.enter("e", 0.0)
    t.enter("e", 1.0)
    t.exit(2.0)
    t.exit(5.0)
    assert t.calls("e") == 2
    assert t.incl_s("e") == pytest.approx(5.0)
    assert t.self_s("e") == pytest.approx(5.0)


# -- the oracle's precision rule ----------------------------------------------

def test_oracle_accepts_gain_in_precision():
    assert oracle.compare_series("x + x^2 + O(x^3)", "x + O(x^2)") is None
    assert oracle.compare_series("x + x^2", "x + O(x^2)") is None
    assert oracle.compare_series("2*x^(1/3) + g^3*x^2 + O(x^5)",
                                 "2*x^(1/3) + g^3*x^2 + O(x^4)") is None


def test_oracle_rejects_loss_of_precision():
    assert "precision lost" in oracle.compare_series("x + O(x^2)", "x + x^2 + O(x^3)")
    assert "precision lost" in oracle.compare_series("x + O(x^2)", "x + x^5")


def test_oracle_rejects_changed_coefficient():
    assert "coefficient" in oracle.compare_series("x + 2*x^2 + O(x^3)", "x + x^2 + O(x^3)")
    assert "coefficient" in oracle.compare_series("x + O(x^3)", "x + x^2 + O(x^3)")
    assert "coefficient" in oracle.compare_series("g^2*x^(-1)", "g*x^(-1)")


def test_oracle_perffunc_and_records():
    ref = "PERFFUNC 1\nn 1\ncoeff 0 1 : x + O(x^4)\nEND\n"
    assert oracle.compare_perffunc("PERFFUNC 1\nn 1\ncoeff 0 1 : x + O(x^5)\nEND\n",
                                   ref) is None
    assert oracle.compare_perffunc("PERFFUNC 1\nn 1\ncoeff 0 1 : x + O(x^3)\nEND\n", ref)
    assert oracle.compare_perffunc("PERFFUNC 1\nn 2\ncoeff 0 1 : x + O(x^4)\nEND\n", ref)
    kinds = {"value": "series"}
    assert oracle.compare_record({"n": 1, "value": "x + O(x^3)"},
                                 {"n": 1, "value": "x + O(x^2)"}, kinds) is None
    assert oracle.compare_record({"n": 2, "value": "x"}, {"n": 1, "value": "x"}, kinds)
    assert oracle.compare_record({"value": "x"}, {"n": 1, "value": "x"}, kinds)


# -- wrapping and rebinding -----------------------------------------------------

def _library():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    return SimpleNamespace(**{m: importlib.import_module("carlitz." + m)
                              for m in run.MODULES})


def test_install_rebinds_names_imported_elsewhere_and_removes_cleanly():
    lib = _library()
    original = lib.brackets.bracket
    tracer = spans.Tracer()
    installed = spans.install(tracer, lib)
    try:
        assert lib.hyper.bracket is lib.brackets.bracket is not original
        params = lib.ffield.FieldParams.default(2)
        lib.hyper.admissible_profile(lib.textio.parse_series("x + x^5", params))
    finally:
        installed.remove()
    assert lib.hyper.bracket is original and lib.brackets.bracket is original
    assert tracer.calls("brackets.bracket") > 0       # reached through hyper's import
    assert tracer.calls("hyper.admissible_profile") == 1
    assert spans.layer_calls(tracer, "ffield") > 0     # counted, not timed
    spans.check_layers(tracer, ("series", "brackets", "hyper"), ("series.add",))
    with pytest.raises(RuntimeError, match="cauchy"):
        spans.check_layers(tracer, ("cauchy",), ())


# -- the recorded op mix matches the generated passes ---------------------------

def test_spec_op_mix_matches_workloads():
    import collections
    import json
    import os
    import workloads

    with open(os.path.join(run.HERE, "spec.json")) as fh:
        spec = json.load(fh)["workloads"]
    lib = _library()
    for name, workload in workloads.all_workloads(run.ROOT).items():
        state = workload.setup(lib)
        ops = workload.pass_ops(lib, state, 7)
        assert dict(collections.Counter(op.name for op in ops)) == spec[name]["op_mix_per_pass"]
