"""Per-layer tracing from outside the library.

The benchmark wraps the public functions and methods of every carlitz
module in spans and counters, without changing the library.  A span's self
time is its duration minus the part covered by its child spans; the
coefficient field layer ``ffield`` is only counted, since its operations
are too small to time.

Functions imported by name into other modules (``from .brackets import
bracket``) are rebound there as well, and :func:`check_layers` fails a
traced run in which a layer expected to be busy records no calls, so a
missed rebinding cannot read as zero time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: The library's modules, one layer each; ``sampling`` only makes inputs.
LAYERS = ("ffield", "series", "brackets", "funcspace", "opring", "cauchy",
          "hyper", "textio", "cli")

#: Layers whose calls are counted but not timed.
COUNT_ONLY = ("ffield",)

#: Arithmetic dunders wrapped alongside public methods.
DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
           "__pow__", "__eq__")

#: Metric groups: metric prefix -> wrapped names whose numbers it sums.
GROUPS = {
    "ffield.mul": ["ffield.FieldParams.mul"],
    "ffield.add": ["ffield.FieldParams.add"],
    "series.mul": ["series.PerfSeries.__mul__"],
    "series.invert": ["series.PerfSeries.invert"],
    "series.frobenius": ["series.PerfSeries.frobenius"],
    "series.add": ["series.PerfSeries.__add__"],
    "brackets.bracket": ["brackets.bracket"],
    "brackets.pochhammer": ["brackets.pochhammer"],
    "brackets.factorial": ["brackets.carlitz_D", "brackets.carlitz_L",
                           "brackets.pochhammer_thakur"],
    "hyper.hyper_coeff": ["hyper.hyper_coeff"],
    "hyper.hyper_eval": ["hyper.hyper_eval"],
    "hyper.contiguous_check": ["hyper.contiguous_check"],
    "hyper.residual": ["hyper.hyper_residual", "hyper.thakur_residual"],
    "hyper.admissible_profile": ["hyper.admissible_profile"],
    "opring.normalize": ["opring.normalize"],
    "opring.op_mul": ["opring.NormalForm.op_mul"],
    "opring.op_apply": ["opring.NormalForm.op_apply"],
    "funcspace.action": ["funcspace.LinearSeries.tau", "funcspace.LinearSeries.d",
                         "funcspace.LinearSeries.delta", "funcspace.LinearSeries.scale",
                         "funcspace.MultiFunction.apply_tau",
                         "funcspace.MultiFunction.apply_d",
                         "funcspace.MultiFunction.apply_delta",
                         "funcspace.MultiFunction.apply_delta_z",
                         "funcspace.MultiFunction.scale"],
    "funcspace.evaluate": ["funcspace.LinearSeries.evaluate",
                           "funcspace.MultiFunction.evaluate"],
    "cauchy.eval_at": ["cauchy.DeltaPoly.eval_at"],
    "cauchy.admissibility_check": ["cauchy.admissibility_check"],
    "cauchy.cauchy_solve": ["cauchy.cauchy_solve"],
    "cauchy.residual": ["cauchy.residual"],
    "textio.parse": ["textio.parse_series", "textio.parse_operator",
                     "textio.parse_field_header"],
    "textio.format": ["textio.format_series", "textio.format_exponent",
                      "textio.format_operator_word", "textio.format_operator_words",
                      "textio.format_field_header"],
}


class Tracer:
    """Span stack that keeps, per name, calls, self time and inclusive
    time.  Inclusive time counts only the outermost of nested spans of one
    name, so recursion is not counted twice.  ``counters`` holds the calls
    of count-only functions and ``tallies`` the sums that observers add."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []      # [name, start, time covered by children]
        self.depth = {}
        self.stats = {}      # name -> [calls, self_s, incl_s]
        self.counters = {}
        self.tallies = {}

    def enter(self, name, t=None):
        self.stack.append([name, self.clock() if t is None else t, 0.0])
        self.depth[name] = self.depth.get(name, 0) + 1

    def exit(self, t=None):
        end = self.clock() if t is None else t
        name, start, children = self.stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration - children
        self.depth[name] -= 1
        if not self.depth[name]:
            stat[2] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def tally(self, name, k):
        self.tallies[name] = self.tallies.get(name, 0) + k

    def calls(self, name):
        stat = self.stats.get(name)
        return stat[0] if stat else self.counters.get(name, 0)

    def self_s(self, name):
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def incl_s(self, name):
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0


def _span(tracer, name, fn, observe=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapped


def _counted(tracer, name, fn):
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapped


def _observe_series_mul(tracer, args, result):
    a, b = args
    pairs = len(a.terms) * len(b.terms)
    tracer.tally("series.mul.term_pairs", pairs)
    tracer.tally("series.mul.terms_kept", len(result.terms))


def _observe_normalize(tracer, args, result):
    if not tracer.depth.get("opring.normalize"):
        tracer.tally("opring.normalize.terms_out", len(result.terms))


OBSERVERS = {
    "series.PerfSeries.__mul__": _observe_series_mul,
    "opring.normalize": _observe_normalize,
}


def _targets(lib):
    """Yield (owner, attribute, wrapped name, function, rewrap) for every
    public function of each layer module and every public method of the
    classes it defines."""
    for layer in LAYERS:
        module = getattr(lib, layer)
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield module, attr, "%s.%s" % (layer, attr), obj, None
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, raw in sorted(vars(obj).items()):
                    if meth.startswith("_") and meth not in DUNDERS:
                        continue
                    name = "%s.%s.%s" % (layer, attr, meth)
                    if isinstance(raw, (classmethod, staticmethod)):
                        yield obj, meth, name, raw.__func__, type(raw)
                    elif inspect.isfunction(raw):
                        yield obj, meth, name, raw, None


class Installation:
    """Wrappers put in place by :func:`install`; ``remove`` undoes them."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, old in reversed(self.undo):
            setattr(owner, attr, old)
        self.undo.clear()


def install(tracer, lib):
    """Wrap every target of ``lib`` and rebind each wrapped module-level
    function in every ``carlitz`` module that holds it under some name.
    Returns the :class:`Installation`."""
    inst = Installation()
    importers = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "carlitz" or name.startswith("carlitz."))]
    for owner, attr, name, fn, rewrap in list(_targets(lib)):
        if name.split(".", 1)[0] in COUNT_ONLY:
            wrapped = _counted(tracer, name, fn)
        else:
            wrapped = _span(tracer, name, fn, OBSERVERS.get(name))
        if isinstance(owner, type):
            inst.set(owner, attr, rewrap(wrapped) if rewrap else wrapped)
            continue
        for module in importers:
            for key, value in list(vars(module).items()):
                if value is fn:
                    inst.set(module, key, wrapped)
    return inst


def layer_calls(tracer, layer):
    """All calls recorded in one layer, spans and counters together."""
    prefix = layer + "."
    return (sum(s[0] for n, s in tracer.stats.items() if n.startswith(prefix))
            + sum(c for n, c in tracer.counters.items() if n.startswith(prefix)))


def check_layers(tracer, layers, groups):
    """Raise RuntimeError when a named layer or metric group saw no calls."""
    missing = [layer for layer in layers if not layer_calls(tracer, layer)]
    missing += [g for g in groups if not sum(tracer.calls(n) for n in GROUPS[g])]
    if missing:
        raise RuntimeError("traced run recorded no calls in: %s (a wrapper "
                           "was not reached)" % ", ".join(missing))


def group_metrics(tracer):
    """Per-layer metric values derived from the recorded spans and counts."""
    out = {}
    for group, names in GROUPS.items():
        out[group + ".calls"] = sum(tracer.calls(n) for n in names)
        out[group + ".self_s"] = sum(tracer.self_s(n) for n in names)
        out[group + ".incl_s"] = sum(tracer.incl_s(n) for n in names)
    pairs = tracer.tallies.get("series.mul.term_pairs", 0)
    out["series.mul.term_pairs"] = pairs
    out["series.mul.kept_ratio"] = (
        tracer.tallies.get("series.mul.terms_kept", 0) / pairs if pairs else 0.0)
    out["opring.normalize.terms_out"] = tracer.tallies.get("opring.normalize.terms_out", 0)
    return out
