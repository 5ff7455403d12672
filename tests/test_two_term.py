"""Differential tests of the one two-term builder.

Every bracket and every symbol factor is ``brackets._two_term``, the
exact x^(q^i) - x^(q^j) built straight on its grid, and the exact D_n,
L_n and (alpha)_n, alpha >= 1, are each one product of their factor list.
The oracles are the builders they replaced (``oracles``): the bracket as
``from_terms(...) - x``, the recursions D_n = [n] D_(n-1)^q and
L_n = [n] L_(n-1), (alpha)_n as D_(n+alpha-1)^(q^(1-alpha)), and the
factor lists as twisted brackets [k]^(q^j).  Every result must match
exactly (terms, dexp, prec value and type), and every refusal must have
the same exception type and text, over the 12 shipped fields.  D_n and
L_n have exactly 2^n terms, the count the refusal of a large product
reads.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import (INFINITY, PerfSeries, bracket, carlitz_D, carlitz_L,
                     pochhammer_thakur)
from carlitz.brackets import (_CACHE_LIMIT, _factorial_factors,
                              _thakur_factors, _two_term)
from carlitz.errors import UsageError
from oracles import (assert_same, ref_bracket, ref_carlitz_D, ref_carlitz_L,
                     ref_factorial_factors, ref_pochhammer_thakur,
                     ref_thakur_factors)
from test_quotient_kernel import SHIPPED_FIELDS, assert_same_outcome, outcome

fields = pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)


def assert_same_lists(got, want):
    """Two outcomes of a factor-list builder: the same refusal, or lists
    of the same length whose factors match one by one."""
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)


@fields
def test_two_term_sits_on_its_least_grid(params):
    q = Fraction(params.q)
    for i in range(-5, 6):
        for j in range(-5, 6):
            if i != j:
                got = _two_term(params, i, j)
                assert got.dexp == max(0, -i, -j)
                assert_same(got, PerfSeries.from_terms(params, {q ** i: 1,
                                                                q ** j: -1}))


@fields
def test_brackets_match_the_oracle(params):
    # twice each, so an index inside _CACHE_LIMIT is also read from the cache
    for n in [*range(-80, 81), INFINITY] * 2:
        assert_same(bracket(params, n), ref_bracket(params, n))
        assert (n in params.bracket_cache) == (n == INFINITY
                                               or abs(n) <= _CACHE_LIMIT)
    for n in (1.5, "2", None):
        assert outcome(bracket, params, n) == outcome(ref_bracket, params, n)
    assert isinstance(outcome(bracket, params, None), tuple)


@fields
def test_factorials_match_the_recursions(params):
    for n in range(-2, 11):
        for got, want in ((carlitz_D, ref_carlitz_D), (carlitz_L, ref_carlitz_L)):
            assert_same_outcome(outcome(got, params, n), outcome(want, params, n))
            if n >= 0:
                # the subset sums of the exponents are distinct
                assert len(got(params, n).terms) == 2 ** n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(1, 8), st.integers(-1, 5))
def test_pochhammer_thakur_matches_the_twisted_factorial(params, alpha, n):
    assert_same_outcome(outcome(pochhammer_thakur, params, alpha, n),
                        outcome(ref_pochhammer_thakur, params, alpha, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(-1, 12))
def test_factorial_factors_match_the_twisted_brackets(params, m):
    assert_same_lists(outcome(_factorial_factors, params, m),
                      outcome(ref_factorial_factors, params, m))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(-12, 8), st.integers(-1, 6))
def test_thakur_factors_match_the_twisted_brackets(params, alpha, n):
    got = outcome(_thakur_factors, params, alpha, n)
    want = outcome(ref_thakur_factors, params, alpha, n)
    if isinstance(want[0], type):
        assert got == want
    else:
        for g, w in zip(got, want, strict=True):
            assert_same_lists(g, w)


@fields
def test_products_above_the_term_limit_are_refused(params):
    limit = "an expanded product must have at most 1048576 terms, got 2^%d"
    for fn, count in ((carlitz_D, 21), (carlitz_L, 21), (carlitz_D, 10 ** 30)):
        assert outcome(fn, params, count) == (UsageError, limit % count)
    assert outcome(pochhammer_thakur, params, 20, 2) == (UsageError, limit % 21)
    assert outcome(pochhammer_thakur, params, 3000, 3) == (UsageError,
                                                           limit % 3002)
