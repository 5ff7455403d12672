"""The dominant-term certificate of the admissibility check.

Every bracket value is [0] = 0 or has valuation exactly 1, so when Q's
constant coefficient has its lowest term at v and every other monomial
c_e t^e has ``c_e._val_lb() + |e| > v``, Q has valuation exactly v at
every tuple and ``admissibility_check`` answers without evaluating Q.  The
oracle is the scan it skips, ``oracles.ref_admissibility_check``: every
report must match it in status, witness, ``i_max`` and the value and type
of ``mu_valuation``, over the shipped fields, for exact, truncated and
zero-at-precision coefficients, dominated Qs, ties (which must scan) and
exact zeros at chosen tuples.  A completion test fills each truncated
coefficient of a certified Q at random at or above its precision and
checks that the exact values keep valuation v.  The work tests count
``DeltaPoly.eval_at`` calls.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, PerfSeries, bracket, cauchy
from carlitz.brackets import INFINITY
from carlitz.cauchy import (DeltaPoly, EvolutionEquation, admissibility_check,
                            hypergeometric_equation)
from carlitz.ffield import FFElement
from carlitz.series import _grid_bound
from oracles import ref_admissibility_check
from test_quotient_kernel import SHIPPED_FIELDS, factors

COEFFICIENT_KINDS = ("exact", "truncated", "zero-at-prec")


@contextmanager
def evaluations():
    """The value tuples ``DeltaPoly.eval_at`` receives, as a list."""
    calls = []
    original = DeltaPoly.eval_at

    def counted(self, values):
        calls.append(values)
        return original(self, values)
    DeltaPoly.eval_at = counted
    try:
        yield calls
    finally:
        DeltaPoly.eval_at = original


def equation(params, n, Q):
    return EvolutionEquation(params, n, DeltaPoly.constant(params, n, PerfSeries.one(params)),
                             DeltaPoly(params, n, Q))


def with_lower_bound(c, bound):
    """``c`` moved so that its ``_val_lb()`` is ``bound`` (a point of Z[1/q])."""
    if c.terms:
        return c.shift(bound - c._val_lb())
    return PerfSeries.zero(c.params, prec=bound)


@st.composite
def problems(draw):
    """(params, n, i_max, shape, Q coefficients).  ``dominated`` puts
    every other monomial strictly above the constant term, ``tie`` puts at
    least one exactly on it, ``zero`` is R - R(b) for a chosen tuple b,
    and ``random`` is left as drawn."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    n = draw(st.integers(1, 3))
    i_max = draw(st.integers(0, 4 - n))
    shape = draw(st.sampled_from(("random", "dominated", "tie", "zero")))
    coefficient = factors(params, kinds=COEFFICIENT_KINDS)
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                              min_size=int(shape == "tie"), max_size=3, unique=True))
    zero = (0,) * n
    c0 = draw(factors(params, kinds=("exact", "truncated")) if shape in ("dominated", "tie")
              else coefficient)
    coeffs = {zero: c0}
    for e in exponents:
        coeffs[e] = draw(coefficient)
    if shape in ("dominated", "tie"):
        v = c0.valuation()
        ties = {exponents[0]} if shape == "tie" else set()
        for e in exponents:
            if e in ties:
                gap = Fraction(0)
            else:
                gap = Fraction(draw(st.integers(1, 2 * params.q)),
                               draw(st.sampled_from((1, params.q))))
            coeffs[e] = with_lower_bound(coeffs[e], v - sum(e) + gap)
    elif shape == "zero":
        combo = draw(st.tuples(*[st.sampled_from(list(range(i_max + 1)) + [INFINITY])] * n))
        at = DeltaPoly(params, n, coeffs).eval_at([bracket(params, i) for i in combo])
        coeffs[zero] = c0 - at
        if coeffs[zero].is_zero():
            del coeffs[zero]
    return params, n, i_max, shape, coeffs


def assert_same_report(got, want):
    assert got == want
    assert type(got.mu_valuation) is type(want.mu_valuation)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problems())
def test_reports_match_the_full_scan(problem):
    params, n, i_max, shape, coeffs = problem
    Q = DeltaPoly(params, n, coeffs)
    if Q.is_zero():
        return
    eq = equation(params, n, coeffs)
    with evaluations() as calls:
        got = admissibility_check(eq, i_max)
    assert_same_report(got, ref_admissibility_check(eq, i_max))
    if shape == "dominated":
        assert not calls and got.status == "ok"
    if shape in ("tie", "zero"):
        assert calls


@pytest.mark.parametrize("i_max", range(4))
def test_the_f2_example_scans_to_its_zero(F2, i_max):
    # Q = x^2 + x^2 t_1 + t_1 t_2 is x (x + t_1) at t_2 = [1], zero at
    # (inf, 1); the t_1 t_2 term ties the constant term's valuation 2
    x2 = PerfSeries.monomial(F2, 2)
    eq = equation(F2, 2, {(0, 0): x2, (1, 0): x2, (1, 1): PerfSeries.one(F2)})
    with evaluations() as calls:
        got = admissibility_check(eq, i_max)
    assert calls
    assert_same_report(got, ref_admissibility_check(eq, i_max))
    assert got.witness == (None if i_max == 0 else (INFINITY, 1))


@pytest.mark.parametrize("params", SHIPPED_FIELDS[:4], ids=repr)
def test_exact_zeros_at_chosen_tuples(params):
    # (t_1 - [i]) + x^(1/q) (t_2 - [j]) vanishes at (i, j) alone: its
    # other terms sit off the integers; the t_1 term ties or beats the
    # constant term
    root = PerfSeries.monomial(params, Fraction(1, params.q))
    one = PerfSeries.one(params)
    for i, j in ((1, 0), (2, INFINITY), (INFINITY, 1), (0, 2)):
        constant = -bracket(params, i) - root * bracket(params, j)
        eq = equation(params, 2, {(0, 0): constant, (1, 0): one, (0, 1): root})
        with evaluations() as calls:
            got = admissibility_check(eq, 2)
        assert calls
        assert_same_report(got, ref_admissibility_check(eq, 2))
        assert got.status == "fail" and got.witness == (i, j)


def complete(c, draw):
    """An exact series that agrees with ``c`` below its precision, with
    random terms at or above it."""
    if c.prec is INF:
        return c
    params = c.params
    scale = params.q ** draw(st.integers(0, 2))
    start = _grid_bound(c.prec, scale)
    keys = draw(st.lists(st.integers(start, start + 3 * scale), max_size=3, unique=True))
    terms = dict(c.items())
    for k in keys:
        terms[Fraction(k, scale)] = FFElement(params, draw(st.integers(1, params.Q - 1)))
    return PerfSeries.from_terms(params, terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(1, 3), st.data())
def test_completions_of_a_certified_q_keep_its_valuation(params, n, data):
    draw = data.draw
    c0 = draw(factors(params, kinds=("truncated",)))
    v = c0.valuation()
    coeffs = {(0,) * n: c0}
    for e in draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(any),
                           min_size=1, max_size=3, unique=True)):
        gap = Fraction(draw(st.integers(1, 2 * params.q)), draw(st.sampled_from((1, params.q))))
        c = draw(factors(params, kinds=("truncated", "zero-at-prec")))
        coeffs[e] = with_lower_bound(c, v - sum(e) + gap)
    with evaluations() as calls:
        report = admissibility_check(equation(params, n, coeffs), 5)
    assert not calls and report.mu_valuation == v
    choices = list(range(5)) + [INFINITY]
    tuples = draw(st.lists(st.tuples(*[st.sampled_from(choices)] * n), min_size=1, max_size=3))
    for _ in range(2):
        exact = DeltaPoly(params, n, {e: complete(c, draw) for e, c in coeffs.items()})
        for combo in tuples:
            value = exact.eval_at([bracket(params, i) for i in combo])
            assert value.is_exact() and value.valuation() == v


def test_the_n4_row_evaluates_nothing(F2):
    a = PerfSeries.from_terms(F2, {3: 1, Fraction(1, 2): 1})
    b = PerfSeries.from_terms(F2, {0: 1, 5: 1})
    eq = hypergeometric_equation(F2, [a] * 4, [b] * 4, 4)
    with evaluations() as calls:
        got = admissibility_check(eq, 5)
    assert not calls
    assert got == ("ok", 0, None, 5) and type(got.mu_valuation) is Fraction
    assert_same_report(admissibility_check(eq, 1), ref_admissibility_check(eq, 1))


def recommend_cases():
    F2, F3 = SHIPPED_FIELDS[0], SHIPPED_FIELDS[1]
    x = PerfSeries.x(F2)
    one = PerfSeries.one(F2)
    b = PerfSeries.from_terms(F3, {0: 1, 5: 2})
    return {
        # dominated: v = 0, v = 5, v = -2 with slack, a truncated constant
        "product": hypergeometric_equation(F3, [], [b, b], 2),
        "v5": equation(F2, 2, {(0, 0): x.shift(4), (1, 0): x.shift(4),
                               (1, 1): x.shift(5).truncate(9)}),
        "negative": equation(F2, 1, {(0,): x.shift(-3), (1,): one}),
        "truncated": equation(F3, 1, {(0,): b.truncate(4), (2,): b}),
        # undominated: a tie, no constant term, and a zero-at-prec constant
        "tie": equation(F2, 2, {(0, 0): x.shift(1), (1, 0): x.shift(1), (1, 1): one}),
        "no-constant": equation(F2, 1, {(1,): x}),
        "zero-at-prec": equation(F2, 1, {(0,): PerfSeries.zero(F2, prec=3), (1,): one}),
    }


#: the index bound each case is scanned at, 4 unless named here: the bound
#: that a valuation probe of Q at the tuples over {0..4, inf} recommends
RECOMMENDED_IMAX = {"tie": 5}


@pytest.mark.parametrize("name", sorted(recommend_cases()))
def test_the_recommended_bound_gives_the_scan_report(name):
    eq = recommend_cases()[name]
    dominated = cauchy._dominant_valuation(eq.Q) is not None
    assert dominated == (name in ("product", "v5", "negative", "truncated"))
    i_max = RECOMMENDED_IMAX.get(name, 4)
    with evaluations() as calls:
        got = admissibility_check(eq, i_max)
    assert bool(calls) != dominated
    assert_same_report(got, ref_admissibility_check(eq, i_max))
