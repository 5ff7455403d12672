"""Differential tests of the Thakur symbols as lists of two-term factors.

(alpha)_n enters every quotient as ``brackets._thakur_factors``: for
alpha >= 1 the factors [k]^(q^(n-k)), k = 1..n+alpha-1, of
D_(n+alpha-1)^(q^(1-alpha)) above; for alpha <= 0 < n + alpha the exact
zero above; otherwise the sign (-1)^(n-alpha) above and the factors
[k]^(q^n), k = 1..-alpha-n, of L_(-alpha-n)^(q^n) below.
``hyper._thakur_quotient`` and the middle case of ``pochhammer_thakur``
pass these lists to the quotient kernel, so neither D nor L is expanded.
The oracles expand the symbols: ``oracles.ref_thakur_quotient`` puts an
inverted L^(q^m) into the divisor, multiplies it out and inverts it, and
``oracles.ref_pochhammer_thakur`` inverts the expanded L.  Every result
must match exactly (terms, dexp, prec value and type), and every refusal
must have the same exception type and text, over the 12 shipped fields,
alpha in -7..6, beta in 1..6, m <= 6 and windows None, small and large.
A work guard checks that neither path builds D or L at all.
"""

import sys
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from carlitz import FieldParams, PerfSeries, brackets, hyper, pochhammer_thakur
from carlitz.brackets import _thakur_factors
from oracles import (assert_same, ref_pochhammer_thakur, ref_thakur_quotient,
                     ref_thakur_symbol)
from test_quotient_kernel import SHIPPED_FIELDS, assert_same_outcome, outcome

WINDOWS = (None, 3, Fraction(7, 2), 64)


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_factor_lists_multiply_to_the_symbols(params):
    one = PerfSeries.one(params)
    for alpha in range(-7, 7):
        for n in range(7):
            upper, lower = _thakur_factors(params, alpha, n)
            value, inverted = ref_thakur_symbol(params, alpha, n)
            assert all(len(f.terms) == 2 for f in lower)
            if inverted:
                assert len(upper) == 1
                assert_same(reduce(mul, lower, upper[0]), value)
            else:
                assert lower == []
                assert all(len(f.terms) == 2 for f in upper) or value.is_zero()
                assert_same(reduce(mul, upper, one), value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS),
       st.lists(st.integers(-7, 6), min_size=1, max_size=2),
       st.lists(st.integers(1, 6), max_size=1),
       st.integers(0, 6), st.sampled_from(WINDOWS + (0, -1)))
def test_thakur_quotient_matches_the_expanded_symbols(params, alphas, betas, m,
                                                      window):
    # the oracle multiplies each side out, and D_n has up to 2^n terms: two
    # upper D_11 take 4M term pairs, so the upper indices m + alpha - 1 sum
    # to at most 16, and one lower symbol is drawn (test_symbol_quotient
    # draws two at smaller indices)
    assume(sum(max(m + alpha - 1, 0) for alpha in alphas) <= 16)
    assert_same_outcome(
        outcome(hyper._thakur_quotient, params, alphas, betas, m, window),
        outcome(ref_thakur_quotient, params, alphas, betas, m, window))


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_lower_parameters_below_one_are_refused_alike(params):
    for betas in ([0], [2, -3]):
        want = outcome(ref_thakur_quotient, params, [1], betas, 2, None)
        assert isinstance(want, tuple)
        assert outcome(hyper._thakur_quotient, params, [1], betas, 2, None) == want


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_pochhammer_thakur_matches_the_expanded_symbols(params):
    for alpha in range(-7, 7):
        for n in range(-1, 7):
            assert_same_outcome(outcome(pochhammer_thakur, params, alpha, n),
                                outcome(ref_pochhammer_thakur, params, alpha, n))


# ---------------------------------------------------------------------------
# work: neither D nor L is built
# ---------------------------------------------------------------------------

def test_no_factorial_is_built(monkeypatch):
    # every module binding of carlitz_D and carlitz_L is counted, so a
    # path that builds either through any of them shows
    built = []

    def counted(name, fn):
        def wrapper(params, n):
            built.append((name, n))
            return fn(params, n)
        return wrapper
    for module in [m for name, m in sys.modules.items()
                   if name == "carlitz" or name.startswith("carlitz.")]:
        for name in ("carlitz_D", "carlitz_L"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(brackets, name)))
    F2 = FieldParams.default(2)
    assert hyper.thakur_correspondence(F2, [2], [3], 16).ok
    assert pochhammer_thakur(F2, -6, 2).terms
    assert built == []
