"""Every series result is canonical by construction.

Canonical means: no zero coefficient, no term at or above ``prec``, and
the least exponent grid ``dexp`` that holds every exponent (0 for a series
without terms).  Terms from outside the kernels (``from_terms``,
``truncate``, and sums whose sides differ in precision) are filtered by
``PerfSeries._make``; the products, quotients, Frobenius images and
q-twisted steps (the Frobenius image of a quotient) only lower ``dexp``
(``PerfSeries._canonical``).  Each
result is checked against the invariant directly, and against
``oracles.MakePath``, the same operations with every result re-filtered:
same terms, same dexp, same prec (value and type), same refusals.  The
operands are exact, truncated, zero-at-precision and monomial series over
every shipped (q, m) and the field without an addition table.

``PerfSeries._canonical`` reads the least grid from one gcd of the
exponents; it is compared with ``oracles.ref_canonical``, the scan one
q-power at a time, over exponent sets that are empty, zero, negative and
multiples of q^k.

The work-count guards check that the kernels' results never pass through
the filter, that Frobenius images take no grid scan except for e < 0 on
the integer grid, that operands over one FieldParams object compare no
field tuples, and that subtraction, the hypergeometric series and the
Cauchy solver build no negated series.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, FieldParams, PerfSeries, hyper, sampling
from carlitz.cauchy import InitialData, cauchy_solve, hypergeometric_equation
from oracles import MakePath, assert_same, ref_canonical
from test_quotient_kernel import (SHIPPED_FIELDS, WINDOWS, as_window,
                                  assert_same_outcome, factors, outcome,
                                  quotient_kwargs, twisted_step)
from test_series_kernel import FIELDS

EXACT_KINDS = ("exact", "monomial", "exact-zero")


def assert_canonical(s):
    q = s.params.q
    assert all(c != 0 for c in s.terms.values())
    if s.prec != INF:
        bound = Fraction(s.prec) * q ** s.dexp
        assert all(k < bound for k in s.terms)
    if s.terms:
        assert s.dexp >= 0
        assert s.dexp == 0 or any(k % q for k in s.terms)
    else:
        assert s.dexp == 0


def check(got, want):
    assert_same_outcome(got, want)
    if not isinstance(got, tuple):
        assert_canonical(got)


@st.composite
def pairs(draw):
    """Two series over one field; ``b`` is sometimes a sum with ``a``, so
    that ``b - a`` cancels terms and can drop to a coarser grid."""
    params = draw(st.sampled_from(FIELDS))
    a = draw(factors(params))
    b = draw(factors(params))
    if draw(st.booleans()):
        b = MakePath.add(b, a)
    return a, b


def exponents(params):
    """Exponents in Z[1/p], and some with a denominator prime to p."""
    return st.builds(Fraction, st.integers(-6, 12),
                     st.sampled_from((1, params.p, params.q, params.q ** 2, 7)))


# ---------------------------------------------------------------------------
# results are canonical and equal to the filtered path
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None, derandomize=True)
@given(pairs())
def test_sum_difference_and_product(ab):
    a, b = ab
    check(a + b, MakePath.add(a, b))
    check(a - b, MakePath.sub(a, b))
    check(b - a, MakePath.sub(b, a))
    check(a * b, MakePath.mul(a, b))
    check(a - a, MakePath.sub(a, a))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs(), quotient_kwargs())
def test_divide_and_invert(ab, kwargs):
    a, b = ab
    kwargs = as_window(kwargs, b)
    check(outcome(a.divide, b, **kwargs), outcome(MakePath.divide, a, b, **kwargs))
    check(outcome(b.invert, **kwargs), outcome(MakePath.invert, b, **kwargs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
           factors(f), st.integers(0, f.Q - 1), exponents(f),
           st.one_of(exponents(f), st.just(INF)))))
def test_unary_operations(drawn):
    a, c, exponent, prec = drawn
    for e in range(-2, 3):
        check(a.frobenius(e), MakePath.frobenius(a, e))
    check(a.scale(c), MakePath.scale(a, c))
    check(outcome(a.shift, exponent), outcome(MakePath.shift, a, exponent))
    check(a.truncate(prec), MakePath.truncate(a, prec))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
           factors(f), st.lists(factors(f), max_size=2),
           st.lists(factors(f), min_size=1, max_size=3))),
       WINDOWS)
def test_twisted_step(step, window):
    c, num, den = step
    check(outcome(twisted_step, c, num, den, window),
          outcome(MakePath.twisted_step, c, num, den, window))


@st.composite
def grid_terms(draw):
    """A field, a dexp in 0..4 and nonzero terms whose exponents are
    multiples of q^k: none, x^0, negative and positive ones."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    dexp = draw(st.integers(0, 4))
    step = params.q ** draw(st.integers(0, 5))
    keys = draw(st.lists(st.integers(-20, 20), max_size=5, unique=True))
    return params, dexp, {k * step: draw(st.integers(1, params.Q - 1)) for k in keys}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid_terms())
def test_canonical_grid_matches_the_scan(drawn):
    params, dexp, terms = drawn
    got = PerfSeries._canonical(params, dexp, dict(terms), INF)
    assert_same(got, ref_canonical(params, dexp, dict(terms), INF))
    assert_canonical(got)


def test_dexp_drops_when_fractional_terms_cancel(F2):
    # x^(1/2) + x  minus  x^(1/2): the difference lives on the integer grid
    a = PerfSeries.from_terms(F2, {Fraction(1, 2): 1, 1: 1})
    b = PerfSeries.from_terms(F2, {Fraction(1, 2): 1})
    assert a.dexp == 1
    for got in (a - b, a + b, a * a, b.frobenius(1), a.truncate(Fraction(1, 2) + 1)
                - b.truncate(3)):
        assert_canonical(got)
    assert (a - b).dexp == 0 and (a - b).terms == {1: 1}
    assert (b * b).dexp == 0 and (b * b).terms == {1: 1}


# ---------------------------------------------------------------------------
# work-count guards
# ---------------------------------------------------------------------------

class Counted:
    """Counts the calls of one function while it is patched in."""

    def __init__(self, monkeypatch, owner, name):
        raw = vars(owner)[name]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name,
                            classmethod(counted) if isinstance(raw, classmethod)
                            else counted)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
           factors(f), factors(f), factors(f, EXACT_KINDS),
           factors(f, EXACT_KINDS))),
       WINDOWS)
def test_kernel_results_skip_the_filter(drawn, window):
    a, b, c, d = drawn
    with pytest.MonkeyPatch.context() as mp:
        made = Counted(mp, PerfSeries, "_make")
        a * b
        c + d
        c - d
        outcome(a.divide, b, window=window)
        outcome(b.invert)
        for e in range(-2, 3):
            a.frobenius(e)
        outcome(twisted_step, a, [b], [b, a], window)
        outcome(twisted_step, a, [], [b], window)
        assert made.calls == 0
        # a Frobenius image is canonical in closed form, except for e < 0
        # on the integer grid, where the exponents' gcd decides
        scanned = Counted(mp, PerfSeries, "_canonical")
        for e in range(-2, 3):
            a.frobenius(e)
        assert scanned.calls == (0 if a.dexp else 2)


def test_shared_params_compare_by_identity():
    # one object per configuration: FieldParams keeps the identity
    # comparison of object, so no operand check compares field tuples
    assert "__eq__" not in vars(FieldParams)
    assert "__hash__" not in vars(FieldParams)
    for params in FIELDS:
        a = PerfSeries.x(params).frobenius(-1) + PerfSeries.one(params)
        b = PerfSeries.x(params).truncate(5)
        for op in (PerfSeries.__add__, PerfSeries.__sub__, PerfSeries.__mul__,
                   PerfSeries.divide):
            assert op(a, b).params is op(b, a).params is params


def test_exact_hyper_series_negates_nothing(monkeypatch):
    rng = random.Random(9)
    for params in FIELDS:
        a = sampling.random_series(rng, params, terms=(1, 3), lo=0, hi=3)
        b = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
        hp = hyper.HyperParams(params, [a, b.frobenius(1)], [b])
        negated = Counted(monkeypatch, PerfSeries, "__neg__")
        series = hyper.hyper_series(hp, 4)
        assert negated.calls == 0
        assert series.known == 4
        monkeypatch.undo()


def test_cauchy_solve_negates_nothing(monkeypatch):
    rng = random.Random(9)
    for params in FIELDS:
        a = sampling.random_series(rng, params, terms=(1, 3), lo=0, hi=3)
        b = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
        eq = hypergeometric_equation(params, [a], [b], 2)
        init = InitialData.delta(params, 2)
        negated = Counted(monkeypatch, PerfSeries, "__neg__")
        u = cauchy_solve(eq, init, 4, 4)
        assert negated.calls == 0
        assert len(u.coeffs) == 5
        monkeypatch.undo()
