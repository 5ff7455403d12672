"""One form per value a series carries.

A field configuration is one FieldParams object, whether it is built
directly, read as ``FieldParams.default`` or parsed from a header, so the
containers of every layer compare fields by identity.  A precision is a
Fraction or the INF object, whatever form the caller passed: an int, a
Fraction, a finite float or a float infinity.
"""

import copy
import pickle
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, FieldParams, PerfSeries, bracket, ffield
from carlitz.cauchy import DeltaPoly, InitialData
from carlitz.errors import (NotInvertibleError, ParameterMismatchError,
                            UsageError)
from carlitz.funcspace import LinearSeries, MultiFunction
from carlitz.hyper import HyperParams
from carlitz.opring import NormalForm
from carlitz.textio import parse_field_header
from oracles import window_of

SHIPPED = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2)]
FIELDS = [FieldParams.default(q, m) for q, m in SHIPPED]


# ---------------------------------------------------------------------------
# one object per configuration
# ---------------------------------------------------------------------------

def test_two_parses_of_one_header_give_one_object():
    header = {"p": "5", "v": "1", "m": "1", "modulus": "3,1"}
    first = parse_field_header(header)
    assert parse_field_header(dict(header)) is first
    assert first is not FieldParams.default(5)


def test_constructing_again_keeps_tables_and_caches():
    params = FieldParams.default(3)
    bracket(params, 2)
    cached = dict(params.bracket_cache)
    log = params._log
    assert cached
    assert FieldParams(3, 1, 1) is params
    assert params.bracket_cache == cached and params._log is log


def test_copies_and_pickles_keep_the_stored_object():
    params = FieldParams(3, 1, 1, (1, 1))
    s = PerfSeries.x(params).truncate(Fraction(7, 2))
    for copied in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert copied.params is params and copied == s and copied.prec == s.prec
    assert pickle.loads(pickle.dumps(params)) is params


def test_racing_builds_share_the_stored_object(monkeypatch):
    # every thread is inside the table build of one new configuration
    # before any stores it, so each build races the others to the store
    workers = 4
    monkeypatch.setattr(ffield, "_params_cache", {})
    all_building = threading.Barrier(workers, timeout=10)
    build = FieldParams._build_tables

    def racing_build(self):
        all_building.wait()
        build(self)
    monkeypatch.setattr(FieldParams, "_build_tables", racing_build)
    got = [None] * workers

    def construct(i):
        got[i] = FieldParams(7, 1, 2, (1, 0, 1))
    threads = [threading.Thread(target=construct, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert got[0] is not None and all(g is got[0] for g in got)
    assert list(ffield._params_cache.values()) == [got[0]]


def _over(params):
    """One object of each container class over ``params``, by class name."""
    x, one = PerfSeries.x(params), PerfSeries.one(params)
    return {
        "PerfSeries": x,
        "LinearSeries": LinearSeries(params, {0: x, 1: one}, None),
        "MultiFunction": MultiFunction(params, 1, 1, 1, {(0, 1): x}),
        "NormalForm": NormalForm.scalar(params, 1, x),
        "DeltaPoly": DeltaPoly(params, 1, {(1,): x}),
        "InitialData": InitialData(params, 1, {(0,): one}),
    }


MISMATCH_TEXTS = {
    "PerfSeries": "series over different field configurations",
    "LinearSeries": "different field configurations",
    "MultiFunction": "incompatible functions",
    "NormalForm": "normal forms over different rings or conventions",
    "DeltaPoly": "polynomials over different rings",
    "InitialData": "incompatible initial data",
}


def test_containers_combine_over_one_configuration_and_refuse_another():
    built, default, other = (_over(FieldParams(2, 1, 1)), _over(FieldParams.default(2)),
                             _over(FieldParams.default(3)))
    for name, text in MISMATCH_TEXTS.items():
        a, b, c = built[name], default[name], other[name]
        assert a + b == b + a and a - b == b - a
        assert a == b
        with pytest.raises(ParameterMismatchError) as refused:
            a + c
        assert str(refused.value) == text
        assert (a == c) is False
    x2 = PerfSeries.x(FieldParams.default(2))
    hp = HyperParams(FieldParams(2, 1, 1), [x2], [PerfSeries.one(FieldParams(2, 1, 1))])
    assert hp.params is x2.params
    with pytest.raises(ParameterMismatchError) as refused:
        HyperParams(FieldParams.default(2), [PerfSeries.x(FieldParams.default(3))], [])
    assert str(refused.value) == "parameter over a different field"


# ---------------------------------------------------------------------------
# every precision is a Fraction or INF itself
# ---------------------------------------------------------------------------

def precisions():
    """Every form a caller may pass: an int, a Fraction, a finite float
    (a multiple of 1/4, so exact) and a float infinity, INF among them."""
    return st.one_of(
        st.integers(-3, 12),
        st.builds(Fraction, st.integers(-9, 40), st.sampled_from((1, 2, 3, 5, 9))),
        st.integers(-12, 48).map(lambda n: n / 4),
        st.sampled_from((float("inf"), INF)))


def in_form(s):
    return type(s.prec) is Fraction or s.prec is INF


@st.composite
def series(draw, params):
    items = draw(st.dictionaries(
        st.builds(Fraction, st.integers(-4, 12), st.sampled_from((1, params.q))),
        st.integers(1, params.p - 1), max_size=3))
    return PerfSeries.from_terms(params, items, prec=draw(precisions()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
           st.just(f), series(f), series(f), precisions(), precisions())),
       st.integers(-2, 2), st.integers(-3, 3))
def test_every_prec_is_a_fraction_or_inf(drawn, e, k):
    params, a, b, prec, other = drawn
    results = [PerfSeries.zero(params, prec=prec), a, b, a.truncate(prec),
               a + b, a - b, a * b, a.frobenius(e), a.shift(Fraction(k, params.q))]
    calls = [lambda: a.divide(b), lambda: b.invert()]
    # a finite absolute precision P is asked for as the window P + val(b)
    if other != INF:
        calls.append(lambda: a.divide(b, window=window_of(other, b)))
    if prec != INF:
        calls.append(lambda: b.invert(window=window_of(prec, b)))
    for call in calls:
        try:
            results.append(call())
        except (NotInvertibleError, UsageError):
            pass
    for s in results:
        assert in_form(s), (s, type(s.prec))
