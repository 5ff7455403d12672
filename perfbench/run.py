"""Benchmark of the carlitz library: one workload per run.

    python3 perfbench/run.py --workload hyper --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
workload is one closed-loop client in this process and thread (``cli``
runs one child process at a time).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a separate traced run, whose spans come from wrappers this benchmark puts
around the library's public functions.  Every operation's output is
checked outside the timed interval, and the last line of standard output
is one JSON object with the result.

Times are reported at a reference machine speed.  On a shared host the
speed of one CPU swings by up to 1.7x within seconds, as other tenants
come and go, and the swing reaches library code and plain interpreter
loops alike.  So the benchmark times a fixed calibration between
operations and scales each measured interval by CAL_REF_S over the
calibration time around it: a reported time is the time the work takes on
a machine where the calibration takes CAL_REF_S.  The raw figures are
printed above the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = spans.LAYERS + ("errors", "sampling")

MIN_OPS = 100           # p90 keeps at least ten samples beyond it
OP_CAP_S = 30           # per-operation time cap, recorded as "timeout"
LOOP_WALL_S = 120       # the timed loop stops here even if MIN_OPS is short
SETUP_REPS = 5          # setup_s is the median of these
COLD_REPS = 5           # cold_pass_s is the mean of these (the last setups)
SWEEP_REPS = 3
INTERP_REPS = 5
CLI_VERB_PASSES = 3     # untraced child-process passes behind cli.<verb>.p50_ms

CAL_ITERS = 6000        # iterations of the calibration loop
CAL_REF_S = 0.0006      # the reference machine's loop time (an idle 2 vCPU box)
PROBE_EVERY_S = 0.05    # operations closer together share a probe

VERBS = ("bracket", "factorial", "pochhammer", "op-normalize", "op-apply",
         "cauchy-solve", "hyper-eval", "hyper-residual", "identity-check",
         "dim-count", "parse-roundtrip")


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100 * n))


def calibration_time():
    """Time of a fixed interpreter loop over a small dict.  Contention from
    other tenants slows it and library code alike: over minutes of 1.7x
    swings their ratio stays within about 5%."""
    t0 = time.perf_counter()
    d = {}
    for i in range(CAL_ITERS):
        k = i % 97
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


class Speed:
    """Calibration probes, in order; ``factor(a, b)`` converts a wall
    interval that lies between probes a and b to reference seconds."""

    def __init__(self):
        self.probes = []
        self.last = -math.inf

    def probe(self, force=True):
        """Time the calibration, unless it ran within PROBE_EVERY_S."""
        if force or time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(calibration_time())
            self.last = time.perf_counter()

    def factor(self, a, b):
        return CAL_REF_S / ((self.probes[a] + self.probes[b]) / 2)

    def timed(self, fn):
        """Call fn; returns (result, reference seconds, raw seconds)."""
        self.probe()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.probe()
        n = len(self.probes)
        return result, raw * self.factor(n - 2, n - 1), raw


class OpTimeout(BaseException):
    """Raised inside an operation that exceeds OP_CAP_S.  A BaseException,
    so no handler in the library can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Pass:
    """One pass's results: (op, reference seconds, status, output) per op,
    plus the raw seconds."""

    def __init__(self, results, raw):
        self.results = results
        self.raw = raw

    @property
    def latencies(self):
        return [dt for _, dt, _, _ in self.results]

    @property
    def busy(self):
        return sum(self.latencies)


def run_pass(ops, speed):
    """Run each op once under the time cap, between calibration probes.
    Status is "ok", "timeout" or the exception raised."""
    timed = []
    raw_total = 0.0
    speed.probe()
    for op in ops:
        status, out = "ok", None
        before = len(speed.probes) - 1
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            out = op.run()
        except (OpTimeout, workloads.ChildTimeout):
            status = "timeout"
        except Exception as exc:  # an unexpected exception is a failed op
            status = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = time.perf_counter() - t0
        raw_total += raw
        timed.append((op, raw, status, out, before))
        speed.probe(force=False)
    speed.probe()
    # the probe after an op is the next one taken, whenever that was
    results = [(op, raw * speed.factor(a, a + 1), status, out)
               for op, raw, status, out, a in timed]
    return Pass(results, raw_total)


def check_results(done, failures):
    """Check each output (outside the timed interval); append failures."""
    for op, _, status, out in done.results:
        if status == "ok":
            try:
                status = op.check(out) or "ok"
            except Exception as exc:
                status = "check raised %s: %s" % (type(exc).__name__, exc)
        if status != "ok":
            failures.append((op.name, status))
    return len(done.results)


def check_golden(lib, workload, failures):
    """Compare the workload's fixed cases with the seed-commit references."""
    if not hasattr(workload, "golden"):
        return 0
    with open(os.path.join(workloads.DATA, "golden.json")) as fh:
        refs = json.load(fh)[workload.name]
    got = workload.golden(lib)
    if sorted(got) != sorted(refs):
        failures.append(("golden", "cases %r, references %r" % (sorted(got), sorted(refs))))
        return max(len(refs), 1)
    for case, (kind, value) in sorted(got.items()):
        why = oracle.compare_value(value, refs[case], kind)
        if why:
            failures.append(("golden." + case, why))
    return len(refs)


def fresh_import():
    """Import carlitz from ``src/`` with every module state reset, as in a
    new process: module-level caches and FieldParams are rebuilt."""
    for name in [n for n in sys.modules if n == "carlitz" or n.startswith("carlitz.")]:
        del sys.modules[name]
    package = importlib.import_module("carlitz")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError("carlitz imported from %s, not from %s" % (package.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("carlitz." + m) for m in MODULES})


def settle_heap():
    """Collect garbage and freeze what survives, so that a collection inside
    a timed operation scans only what the pass allocated, not the
    benchmark's own inputs and bookkeeping."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def timed_passes(make_ops, seed, speed, budget_s, failures, min_ops=MIN_OPS, seeds=None,
                 around=contextlib.nullcontext):
    """Run passes with inputs from seed + 1, seed + 2, ... until ``budget_s``
    seconds of operation time on the clock and ``min_ops`` operations (or
    over the given ``seeds``).  Each pass makes its inputs and runs inside
    ``around()``; checks run outside it.  Returns (passes, seeds used, ops
    checked)."""
    passes, used, checked = [], [], 0
    started = time.monotonic()
    while True:
        if seeds is not None:
            if len(used) == len(seeds):
                break
            s = seeds[len(used)]
        else:
            ran = sum(len(p.results) for p in passes)
            if sum(p.raw for p in passes) >= budget_s and ran >= min_ops:
                break
            if time.monotonic() - started > LOOP_WALL_S:
                break
            s = seed + 1 + len(used)
        with around():
            ops = make_ops(s)
            settle_heap()
            done = run_pass(ops, speed)
        checked += check_results(done, failures)
        done.results = [(op, dt, status, None) for op, dt, status, _ in done.results]
        passes.append(done)
        used.append(s)
        del ops
    return passes, used, checked


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_ms(fn, reps, speed):
    fn()  # warm caches and lazy set-up
    return statistics.median(speed.timed(fn)[1] for _ in range(reps)) * 1e3


def latencies_of(passes):
    return [dt for p in passes for dt in p.latencies]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds):
    speed = Speed()
    failures = []
    attempted = 0
    setups, colds = [], []
    for rep in range(SETUP_REPS):
        # the last COLD_REPS set-ups each run one cold pass, on inputs of
        # their own, and cold_pass_s is their mean
        cold = workload.name != "cli" and rep >= SETUP_REPS - COLD_REPS
        pass_seed = seed - (SETUP_REPS - 1 - rep) if cold else seed

        def setup():
            lib = fresh_import()
            state = workload.setup(lib)
            return lib, state, workload.pass_ops(lib, state, pass_seed)
        (lib, state, ops), dt, _ = speed.timed(setup)
        setups.append(dt)
        if cold:
            settle_heap()
            done = run_pass(ops, speed)
            colds.append(done.busy)
            attempted += check_results(done, failures)
        del ops
    passes, _, checked = timed_passes(lambda s: workload.pass_ops(lib, state, s),
                                      seed, speed, seconds, failures)
    attempted += checked
    attempted += check_golden(lib, workload, failures)
    if workload.name == "cli":
        colds = [p.busy for p in passes]  # every invocation starts a fresh interpreter
    latencies = latencies_of(passes)
    busy = sum(latencies)
    raw = sum(p.raw for p in passes)
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "cold_pass_s": (statistics.mean(colds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli"), "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    notes = ["latency samples %d (p90 has %d beyond it), %d passes"
             % (len(latencies), samples_beyond(len(latencies), 90), len(passes)),
             "fail_ratio %.6f (%d of %d)" % (len(failures) / attempted, len(failures),
                                             attempted),
             "raw ops_per_s %.3f; calibration median %.4f ms (reference %.4f ms)"
             % (len(latencies) / raw, statistics.median(speed.probes) * 1e3,
                CAL_REF_S * 1e3)]
    return metrics, attempted, failures, notes


def traced(workload, seed, seconds):
    speed = Speed()
    failures = []
    lib = fresh_import()
    state = workload.setup(lib)
    attempted = check_golden(lib, workload, failures)
    metrics = {}
    sweeps = {}
    for wl in workloads.all_workloads(ROOT).values():
        if hasattr(wl, "sweeps"):
            sweeps.update(wl.sweeps(lib))
    for name, fn in sorted(sweeps.items()):
        metrics[name] = (median_ms(fn, SWEEP_REPS, speed), "ms")
    env = dict(os.environ, PYTHONPATH=SRC)
    metrics["cli.interp_ms"] = (median_ms(
        lambda: workloads.run_child([sys.executable, "-c", "pass"], env, ROOT),
        INTERP_REPS, speed), "ms")
    by_verb = {}
    make_ops = lambda s: workload.pass_ops(lib, state, s)  # noqa: E731
    if workload.name == "cli":
        for k in range(CLI_VERB_PASSES):
            done = run_pass(make_ops(seed + k), speed)
            attempted += check_results(done, failures)
            for op, dt, _, _ in done.results:
                by_verb.setdefault(op.name, []).append(dt)
        make_ops = lambda s: workload.inprocess_ops(lib, state, s)  # noqa: E731
    for verb in VERBS:
        times = by_verb.get("cli." + verb)
        metrics["cli.%s.p50_ms" % verb] = (statistics.median(times) * 1e3 if times else 0.0, "ms")

    attempted += check_results(run_pass(make_ops(seed), speed), failures)  # warm-up
    plain, seeds, checked = timed_passes(make_ops, seed, speed, seconds / 2, failures,
                                         min_ops=1)
    attempted += checked
    tracer = spans.Tracer()

    @contextlib.contextmanager
    def tracing():
        installed = spans.install(tracer, lib)
        try:
            yield
        finally:
            installed.remove()
    traced_passes, _, checked = timed_passes(make_ops, seed, speed, 0, failures,
                                             seeds=seeds, around=tracing)
    attempted += checked
    spans.check_layers(tracer, workload.LAYERS, workload.GROUPS)

    busy = sum(p.busy for p in traced_passes)
    to_ref = busy / sum(p.raw for p in traced_passes)  # span times are raw
    values = spans.group_metrics(tracer)
    for name in PER_LAYER_GROUPS:
        if name.endswith("_s"):
            metrics[name] = (values[name] * to_ref, "s")
        else:
            metrics[name] = (values[name], "count")
    metrics["series.mul.kept_ratio"] = (values["series.mul.kept_ratio"], "ratio")
    for layer in spans.LAYERS:
        metrics[layer + ".calls"] = (spans.layer_calls(tracer, layer), "count")
        if layer not in spans.COUNT_ONLY:
            metrics[layer + ".self_s"] = (to_ref * sum(
                s[1] for n, s in tracer.stats.items() if n.startswith(layer + ".")), "s")
    metrics["opring.normalize.incl_share"] = (
        values["opring.normalize.incl_s"] * to_ref / busy, "ratio")
    solve = values["cauchy.cauchy_solve.incl_s"]
    metrics["cauchy.admissibility_check.incl_share"] = (
        values["cauchy.admissibility_check.incl_s"] / solve if solve else 0.0, "ratio")
    metrics["brackets.cache_entries"] = (cache_entries(lib, workload, state), "count")
    plain_busy = sum(p.busy for p in plain)
    metrics["trace.overhead_ratio"] = (busy / plain_busy, "ratio")

    top = sorted(((values[g + ".self_s"] * to_ref, g) for g in spans.GROUPS),
                 reverse=True)[:6]
    notes = ["traced %d ops over %d passes; untraced %.3f s, traced %.3f s"
             % (len(latencies_of(traced_passes)), len(seeds), plain_busy, busy),
             "largest self times: " + ", ".join("%s %.3f s" % (g, t) for t, g in top)]
    return metrics, attempted, failures, notes


#: Per-layer metrics read straight from spans.group_metrics.
PER_LAYER_GROUPS = (
    "ffield.mul.calls", "ffield.add.calls",
    "series.mul.calls", "series.mul.term_pairs", "series.mul.self_s",
    "series.invert.calls", "series.invert.self_s",
    "series.frobenius.calls", "series.frobenius.self_s", "series.add.self_s",
    "brackets.bracket.calls", "brackets.pochhammer.calls", "brackets.pochhammer.self_s",
    "brackets.factorial.self_s",
    "hyper.hyper_coeff.calls", "hyper.hyper_coeff.self_s", "hyper.hyper_eval.self_s",
    "hyper.contiguous_check.self_s", "hyper.residual.self_s",
    "hyper.admissible_profile.self_s",
    "opring.normalize.calls", "opring.normalize.terms_out", "opring.normalize.self_s",
    "opring.op_mul.self_s", "opring.op_apply.self_s",
    "funcspace.action.calls", "funcspace.action.self_s", "funcspace.evaluate.self_s",
    "cauchy.eval_at.calls", "cauchy.eval_at.self_s", "cauchy.admissibility_check.self_s",
    "cauchy.cauchy_solve.self_s", "cauchy.residual.self_s",
    "textio.parse.self_s", "textio.format.self_s",
)


def cache_entries(lib, workload, state):
    """Bracket, D and L cache entries over the FieldParams the last pass used."""
    seen = {}
    for params in list(lib.ffield._params_cache.values()) + workload.params_in_use(state):
        seen[id(params)] = params
    return sum(len(p.bracket_cache) + len(p.d_cache) + len(p.l_cache)
               for p in seen.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hyper", "opring", "cauchy", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "carlitz")):
        print("error: no carlitz sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _alarm)
    workload = workloads.all_workloads(ROOT)[args.workload]
    run = traced if args.trace else end_to_end
    metrics, attempted, failures, notes = run(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print("%s %s %s %s" % (args.workload, name, value, unit))
    for note in notes:
        print("%s %s" % (args.workload, note))
    for name, why in failures[:20]:
        print("FAILED %s: %s" % (name, why))
    print(json.dumps({
        "correct": not any(why != "timeout" for _, why in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
