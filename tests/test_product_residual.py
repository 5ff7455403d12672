"""Differential tests of the product-form residual.

``hyper._product_residual`` applies prod(Delta - a_i) - prod(Delta - b_j) d
slot by slot: Delta multiplies the coefficient of t^(q^k) by [k], so the
residual's coefficient k is u_k prod([k] - a_i) - (du)_k prod([k] - b_j).
The oracle is the body it replaced, ``oracles.ref_product_residual``,
which applies each factor Delta - a to the whole series as Delta u - a u.

Over the 12 shipped fields, r, s = 0..2 and M = 0..5, with exact and
truncated parameters and parameters near a bracket (where [k] - a cancels
and the slot residual states a higher precision), ``hyper_residual`` and
``thakur_residual`` at integer parameters must give
the oracle's residual of the same series: ``known`` and
``is_zero_on_known()`` identical, and every coefficient, a missing one
reading as exact zero, equal at the common precision and stated at no
lower precision.  A drawn series that solves no equation, with exact,
truncated and zero-at-precision coefficients, checks the same rule on
residuals that do not vanish; there a precision that rose can reveal a
term, so the slot residual is zero on its known range only if the
oracle's is.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from carlitz import PerfSeries, bracket, sampling
from carlitz.errors import CarlitzError
from carlitz.funcspace import LinearSeries
from carlitz.hyper import (HyperParams, _bracket_hyper_params,
                           _product_residual, hyper_residual, hyper_series,
                           thakur_residual, thakur_series)
from oracles import ref_product_residual
from test_quotient_kernel import SHIPPED_FIELDS, factors

UPPER_KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
               "truncated-monomial", "exact-zero")
COEFF_KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
               "truncated-monomial")


def assert_no_worse(got, want):
    """``got`` has ``want``'s ``known``; each coefficient of either, a
    missing one read as exact zero, agrees at the common precision and is
    stated at no lower precision in ``got``.  Returns the number of
    coefficients whose precision rose."""
    assert got.known == want.known
    zero = PerfSeries.zero(got.params)
    rose = 0
    for k in set(got.coeffs) | set(want.coeffs):
        g, w = got.coeffs.get(k, zero), want.coeffs.get(k, zero)
        assert g == w, (k, g, w)
        assert g.prec >= w.prec, (k, g, w)
        rose += g.prec > w.prec
    return rose


def assert_same_residual(got, want):
    assert_no_worse(got, want)
    assert got.is_zero_on_known() == want.is_zero_on_known()


@st.composite
def parameter(draw, params, M):
    """A parameter of every kind, or one near a bracket: [j] + e with
    j <= M and val(e) > 1 for most e, so that [j] - a cancels to beyond
    both valuations at slot j."""
    a = draw(factors(params, kinds=UPPER_KINDS))
    if draw(st.booleans()):
        return a
    return bracket(params, draw(st.integers(0, M))) + a.shift(3)


@st.composite
def hyper_params(draw):
    """HyperParams with r, s = 0..2 over a shipped field: upper parameters
    as :func:`parameter` draws them, lower ones exact admissible or
    truncated above their highest term and above x; None when the lower
    parameters are refused."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    uppers = [draw(parameter(params, 5))
              for _ in range(draw(st.integers(0, 2)))]
    lowers = []
    for _ in range(draw(st.integers(0, 2))):
        b = sampling.random_admissible(rng, params, terms=(1, 2), lo=-1, hi=3)
        if draw(st.booleans()):
            top = max(max(b.exponents()), 1)
            b = b.truncate(top + Fraction(draw(st.integers(1, 8)),
                                          draw(st.sampled_from((1, params.q)))))
        lowers.append(b)
    try:
        return HyperParams(params, uppers, lowers)
    except CarlitzError:
        return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(hyper_params(), st.integers(0, 5))
def test_hyper_residual_is_the_operator_passes(hp, M):
    if hp is None:
        return
    got = hyper_residual(hp, M)
    want = ref_product_residual(hyper_series(hp, M), hp.a_list, hp.b_list)
    assert_same_residual(got, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS),
       st.lists(st.integers(-3, 4), max_size=2),
       st.lists(st.integers(1, 4), max_size=2), st.integers(0, 5))
def test_thakur_residual_is_the_operator_passes(params, alphas, betas, M):
    got = thakur_residual(params, alphas, betas, M)
    hp = _bracket_hyper_params(params, alphas, betas)
    want = ref_product_residual(thakur_series(params, alphas, betas, M),
                                hp.a_list, hp.b_list)
    assert_same_residual(got, want)


@st.composite
def drawn_residual_inputs(draw):
    """(series, a_list, b_list): a LinearSeries with up to M + 1 drawn
    coefficients, known to M = 0..5 or exact, and r, s = 0..2 parameters."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    M = draw(st.integers(0, 5))
    slots = draw(st.lists(st.integers(0, M), max_size=M + 1, unique=True))
    coeffs = {k: draw(factors(params, kinds=COEFF_KINDS)) for k in slots}
    series = LinearSeries(params, coeffs, draw(st.sampled_from((M, None))))
    a_list, b_list = ([draw(parameter(params, M))
                       for _ in range(draw(st.integers(0, 2)))]
                      for _ in range(2))
    return series, a_list, b_list


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn_residual_inputs())
def test_a_drawn_series_residual_is_the_operator_passes(drawn):
    got = _product_residual(*drawn)
    want = ref_product_residual(*drawn)
    assert_no_worse(got, want)
    assert not got.is_zero_on_known() or want.is_zero_on_known()
