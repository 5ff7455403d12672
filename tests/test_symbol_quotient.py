"""Differential tests of the symbol quotient prod(upper) / (D_m * prod(lower)).

``hyper._coeff_quotient`` hands the numerator symbols and D_m followed by
the lower symbols to the quotient kernel ``series._quotient``, which
long-divides by each factor up to the quotient's precision and never
builds the product, whatever the symbols: exact or truncated, with terms
or without.  The oracle multiplies both sides out and multiplies by the
built inverse of the denominator (``oracles.ref_coeff_quotient``); every
coefficient must match it exactly (terms, dexp, prec value and type), and
every kind of symbol takes exactly one kernel call from the unit, and
``hyper_coeff`` and t_m exactly m more: the q-twisted steps of the stream
that carry h_0 to h_m and t_0 to t_m, whatever the parameters.
The cases: exact monomial denominators (m = 0), exact non-monomial ones
(the field family at m >= 1 and the integer family with alpha >= 1),
truncated parameters, and negative alpha, whose symbols are inverses of L:
the quotient divides by the factors of L, where the oracle multiplies by
the truncated inverse of the expanded L; windows None, an int and a
Fraction, all within the default invert window, and above it, where the
quotient keeps the window's precision.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import PerfSeries, hyper, pochhammer, pochhammer_thakur
from carlitz.series import DEFAULT_INVERT_WINDOW
from oracles import (assert_same, ref_coeff_quotient, ref_hyper_coeff,
                     ref_pochhammer_thakur, ref_thakur_coeff, ref_thakur_symbol,
                     window_of)
from test_hyper_stream import FIELDS, families

WINDOWS = (None, 9, Fraction(23, 2))


def _kernel_calls(monkeypatch):
    """Record the dividend of each call hyper makes of the quotient kernel."""
    dividends = []
    kernel = hyper._quotient

    def counted(c, *args):
        dividends.append(c)
        return kernel(c, *args)
    monkeypatch.setattr(hyper, "_quotient", counted)
    return dividends


def _split(dividends, params):
    """(the calls from the unit, the others): a symbol quotient divides
    the unit, and a step of the stream its last coefficient."""
    unit = PerfSeries.one(params)
    from_unit = sum(c is unit for c in dividends)
    return from_unit, len(dividends) - from_unit


@settings(max_examples=80, deadline=None, derandomize=True)
@given(families(), st.integers(0, 5), st.sampled_from(WINDOWS))
def test_field_family_symbol_quotient(hp, m, window):
    params = hp.params
    upper = [pochhammer(a, m) for a in hp.a_list]
    lower = [pochhammer(b, m) for b in hp.b_list]
    want = ref_hyper_coeff(hp, m, window)
    with pytest.MonkeyPatch.context() as mp:
        calls = _kernel_calls(mp)
        assert_same(hyper._coeff_quotient(params, m, upper, lower, window), want)
    assert _split(calls, params) == (1, 0)
    # every h_m is h_0 and m steps of the stream, whatever the parameters
    with pytest.MonkeyPatch.context() as mp:
        calls = _kernel_calls(mp)
        assert_same(hyper.hyper_coeff(hp, m, window=window), want)
    assert _split(calls, params) == (1, m)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS),
       st.lists(st.integers(-4, 3), min_size=1, max_size=2),
       st.lists(st.integers(1, 3), max_size=2),
       st.integers(0, 5), st.sampled_from(WINDOWS))
def test_integer_family_symbol_quotient(params, alphas, betas, m, window):
    with pytest.MonkeyPatch.context() as mp:
        calls = _kernel_calls(mp)
        got = hyper.hyper_thakur_coeff(params, alphas, betas, m, window=window)
    assert_same(got, ref_thakur_coeff(params, alphas, betas, m, window))
    assert _split(calls, params) == (1, m)


@pytest.mark.parametrize("params", FIELDS, ids=repr)
@pytest.mark.parametrize("window", WINDOWS)
def test_each_kind_of_symbol(params, window, monkeypatch):
    # (alphas, betas, m, every symbol exact with terms): a monomial
    # denominator, non-monomial ones, the truncated inverses of L that
    # negative alpha gives at m = 0, and a vanishing numerator symbol
    cases = [([1], [1], 0, True),
             ([2], [1, 3], 3, True),
             ([3, 1], [2], 4, True),
             ([-2], [1], 2, True),
             ([-1], [2], 0, False),
             ([-2, 2], [1], 0, False),
             ([-1], [1], 2, False)]
    for alphas, betas, m, exact in cases:
        symbols = [pochhammer_thakur(params, k, m) for k in alphas + betas]
        assert all(s.terms and s.is_exact() for s in symbols) == exact
        calls = _kernel_calls(monkeypatch)
        got = hyper.hyper_thakur_coeff(params, alphas, betas, m, window=window)
        monkeypatch.undo()
        assert _split(calls, params) == (1, m)
        assert_same(got, ref_thakur_coeff(params, alphas, betas, m, window))
    # D_0 (1)_0 = 1: the quotient of monomials is exact unless a window cuts it
    assert hyper.hyper_thakur_coeff(params, [1], [1], 0, window=window).is_exact() \
        == (window is None)


@pytest.mark.parametrize("params", FIELDS[:4], ids=repr)
@pytest.mark.parametrize("alpha, m", [(-2, 0), (-3, 1), (-3, 2)])
def test_window_governs_the_division_by_L(params, alpha, m):
    # alpha <= 0 divides by L^(q^m), so a window above the default invert
    # window buys precision there too; the oracle inverts L far enough
    base = hyper.hyper_thakur_coeff(params, [alpha], [1], m)
    for window in (64, 200):
        got = hyper.hyper_thakur_coeff(params, [alpha], [1], m, window=window)
        assert got.prec == base.prec + window - DEFAULT_INVERT_WINDOW
        assert_same(got.truncate(base.prec), base)
        value, inverted = ref_thakur_symbol(params, alpha, m)
        assert inverted
        upper = ref_pochhammer_thakur(params, alpha, m,
                                      window=window_of(got.prec + 10, value))
        want = ref_coeff_quotient(params, m, [upper],
                                  [ref_pochhammer_thakur(params, 1, m)], window)
        assert_same(got, want)
