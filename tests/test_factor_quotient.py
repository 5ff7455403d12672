"""Differential tests of the quotients that divide by the two-term factors
of the Carlitz symbols.

D_m = [m] [m-1]^q ... [1]^(q^(m-1)) and <a>_m = prod_(k<m) ([k]-a)^(q^(m-k))
enter every quotient as their factor lists, ``brackets._factorial_factors``
and ``brackets._pochhammer_factors``, never expanded:
``hyper._coeff_quotient`` long-divides by the factors of D_m, and
``MultiFunction.evaluate`` takes one quotient pass per slot.  The oracles
expand the symbols: ``oracles.ref_coeff_quotient`` multiplies by the built
inverse of D_m times the lower symbols, and ``oracles.ref_evaluate``
multiplies each slot by the inverse of D_m.  Every result must match
exactly (terms, dexp, prec value and type), and every refusal must have
the same exception type and text, over the 12 shipped fields, m <= 8,
windows None, small and large, and exact, truncated and zero-at-precision
parameters.  A work guard checks that none of these paths builds a D_m at
all.

Every h_m is h_0 and m q-twisted steps of ``hyper._hyper_stream``,
whatever the precision of the parameters.  ``hyper_series`` and
``hyper_eval`` at M <= 12 are compared coefficient by coefficient with
``oracles.ref_kernel_hyper_coeff``, which takes the direct quotient over
every symbol's factors for parameters of finite precision: near-bracket
upper parameters, truncated lower parameters without a window (whose
factors keep more relative precision than the default invert window, so a
step that divided at R/q before twisting loses precision there), Fraction
windows and the refused windows 0, -1 and 2.5.
"""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from carlitz import (INF, FieldParams, PerfSeries, bracket, brackets, funcspace,
                     hyper, sampling, textio)
from carlitz.brackets import _factorial_factors, _pochhammer_factors, carlitz_D
from carlitz.errors import CarlitzError
from carlitz.funcspace import MultiFunction
from carlitz.series import DEFAULT_INVERT_WINDOW
from oracles import (assert_same, ref_coeff_quotient, ref_evaluate,
                     ref_hyper_coeff, ref_kernel_hyper_coeff,
                     ref_pochhammer_recurrent)
from test_quotient_kernel import (SHIPPED_FIELDS, assert_same_outcome, factors,
                                  outcome)

WINDOWS = (None, 3, Fraction(7, 2), 64)


# ---------------------------------------------------------------------------
# the factor lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_factor_lists_multiply_to_the_symbols(params):
    one = PerfSeries.one(params)
    a = PerfSeries.x(params) + one
    for m in range(7):
        assert all(len(f.terms) == 2 for f in _factorial_factors(params, m))
        assert_same(reduce(mul, _factorial_factors(params, m), one),
                    carlitz_D(params, m))
        assert_same(reduce(mul, _pochhammer_factors(a, m), one),
                    ref_pochhammer_recurrent(a, m))


# ---------------------------------------------------------------------------
# the symbol quotient
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(lambda f: st.tuples(
           st.just(f), st.lists(factors(f), max_size=2),
           st.lists(factors(f), max_size=2))),
       st.integers(0, 8), st.sampled_from(WINDOWS))
def test_coeff_quotient_matches_the_expanded_D(drawn, m, window):
    params, upper, lower = drawn
    assert_same_outcome(
        outcome(hyper._coeff_quotient, params, m, upper, lower, window),
        outcome(ref_coeff_quotient, params, m, upper, lower, window))


def _parameter(rng, params, kind, m):
    """An upper or lower parameter of the kind: exact; truncated a few
    units above its valuation; truncated wide, so that its twisted
    factors keep more relative precision than the default invert window;
    a bracket [k] with k < m (k = 0 at m = 0), exact or cut so that the
    factor [k] - a is zero at its precision; a bracket moved a few units
    above x^(q^k); or zero at its own precision."""
    if kind == "zero-at-prec":
        return PerfSeries.zero(params, prec=Fraction(rng.randint(1, 2 * params.q),
                                                     params.q))
    if kind == "near-bracket":
        # [k] - a is a monomial a few units above x^(q^k), maybe truncated
        k = rng.randint(0, 3)
        e = params.q ** k + rng.randint(1, params.q)
        s = bracket(params, k) + PerfSeries.monomial(params, e)
        if rng.random() < .5:
            s = s.truncate(e + rng.randint(1, 2 * params.q))
        return s
    if kind.endswith("bracket"):
        k = rng.randint(0, max(m - 1, 0))
        s = bracket(params, k)
        return s.truncate(params.q ** k + 1) if kind == "cut-bracket" else s
    s = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
    if kind == "truncated":
        s = s.truncate(s.valuation() + rng.randint(1, 2 * params.q))
    elif kind == "wide-truncated":
        wide = DEFAULT_INVERT_WINDOW // params.q
        s = s.truncate(s.valuation() + rng.randint(wide + 1, 2 * wide))
    return s


UPPER_KINDS = ("exact", "truncated", "bracket", "cut-bracket", "zero-at-prec")


@st.composite
def truncated_families(draw, m):
    """HyperParams with one or two upper and zero or one lower parameters,
    the first upper one of finite precision, so that every coefficient is
    the direct quotient."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    upper = [draw(st.sampled_from(("truncated", "cut-bracket", "zero-at-prec")))]
    upper += draw(st.lists(st.sampled_from(UPPER_KINDS), max_size=1))
    lower = draw(st.lists(st.sampled_from(("exact", "truncated")), max_size=1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    try:
        return hyper.HyperParams(params, [_parameter(rng, params, k, m) for k in upper],
                                 [_parameter(rng, params, k, m) for k in lower])
    except CarlitzError:
        # a truncated lower parameter can be indeterminate at its precision
        assume(False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(st.just(m),
                                                     truncated_families(m))),
       st.sampled_from(WINDOWS))
def test_truncated_parameter_coeff_matches_the_expanded_symbols(drawn, window):
    m, hp = drawn
    assert hp.a_list[0].prec is not INF
    assert_same(hyper.hyper_coeff(hp, m, window=window),
                ref_hyper_coeff(hp, m, window))
    series = hyper.hyper_series(hp, m, window=window)
    for k in range(m + 1):
        assert_same(series.coeffs.get(k, PerfSeries.zero(hp.params)),
                    ref_hyper_coeff(hp, k, window))


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
@pytest.mark.parametrize("window", WINDOWS)
def test_each_kind_of_truncated_coefficient(params, window):
    # a coefficient with terms, one without terms at a finite precision (a
    # factor [1] - a zero at its precision, or a parameter zero at its
    # own) and an exact zero (the vanishing factor [1] - [1] of an exact
    # bracket parameter beside a truncated one)
    x, one = PerfSeries.x(params), PerfSeries.one(params)
    q = params.q
    cut = (x * x + x * x * x).truncate(5)
    cases = [([cut], [one + x], 3, "terms"),
             ([bracket(params, 1).truncate(q + 1)], [], 3, "zero at prec"),
             ([PerfSeries.zero(params, prec=Fraction(1, q))], [one + x], 2,
              "zero at prec"),
             ([cut, bracket(params, 1)], [one + x], 3, "exact zero")]
    for upper, lower, m, kind in cases:
        hp = hyper.HyperParams(params, upper, lower)
        got = hyper.hyper_coeff(hp, m, window=window)
        assert ("terms" if got.terms else "exact zero" if got.prec is INF
                else "zero at prec") == kind
        assert_same(got, ref_hyper_coeff(hp, m, window))


# ---------------------------------------------------------------------------
# the one coefficient path: hyper_series and hyper_eval
# ---------------------------------------------------------------------------

SERIES_WINDOWS = (None, Fraction(5, 2), 3, Fraction(7, 2), 16)
REFUSED_WINDOWS = (0, -1, 2.5)


def _family(rng, params, upper, lower):
    """HyperParams of the kinds, redrawn while a truncated lower parameter
    is indeterminate at its precision."""
    while True:
        try:
            return hyper.HyperParams(
                params, [_parameter(rng, params, k, 2) for k in upper],
                [_parameter(rng, params, k, 2) for k in lower])
        except CarlitzError:
            continue


def _argument(rng, hp):
    """A z strictly above the convergence threshold of ``hp``."""
    low = max(int(hyper.convergence_bound(hp)) + 1, 1) + rng.randint(0, 2)
    step = Fraction(1, hp.params.q)
    return PerfSeries.from_terms(hp.params, {low: 1, low + step: 1})


def _series_outcome(hp, M, window):
    series = hyper.hyper_series(hp, M, window=window)
    zero = PerfSeries.zero(hp.params)
    return [series.coeffs.get(m, zero) for m in range(M + 1)]


def _ref_series(hp, M, window):
    return [ref_kernel_hyper_coeff(hp, m, window) for m in range(M + 1)]


def _ref_eval(hp, z, M, window):
    """Every term summed, cut at the tail bound of index M + 1."""
    acc = PerfSeries.zero(hp.params)
    for m, h in enumerate(_ref_series(hp, M, window)):
        acc = acc + h * z.frobenius(m)
    return acc.truncate(hyper._tail_valuation(hp, z.valuation(), M + 1))


def assert_one_path(hp, z, M, window):
    """hyper_series and hyper_eval against the oracle: every coefficient
    and the sum the same, or the same refusal."""
    got, want = (outcome(_series_outcome, hp, M, window),
                 outcome(_ref_series, hp, M, window))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        for g, w in zip(got, want, strict=True):
            assert_same(g, w)
    assert_same_outcome(outcome(hyper.hyper_eval, hp, z, M, window=window),
                        outcome(_ref_eval, hp, z, M, window))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS),
       st.lists(st.sampled_from(UPPER_KINDS + ("near-bracket",)), min_size=1,
                max_size=2),
       st.lists(st.sampled_from(("exact", "truncated", "wide-truncated")),
                max_size=1),
       st.integers(0, 12),
       st.one_of(st.none(), st.sampled_from(SERIES_WINDOWS[1:] + REFUSED_WINDOWS)),
       st.integers(0, 2 ** 32))
def test_series_and_eval_match_the_direct_quotient(params, upper, lower, M,
                                                   window, seed):
    rng = random.Random(seed)
    hp = _family(rng, params, upper, lower)
    assert_one_path(hp, _argument(rng, hp), M, window)


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_truncated_lower_parameter_without_window(params):
    # the direct quotient keeps the lower factors' own relative precision,
    # above the default invert window: the twisted step divides by the
    # twisted factors, not at R/q before twisting
    rng = random.Random("lower-%d-%d" % (params.q, params.m))
    hp = _family(rng, params, ["exact"], ["wide-truncated"])
    assert_one_path(hp, _argument(rng, hp), 12, None)


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_refused_windows(params):
    rng = random.Random("refused-%d-%d" % (params.q, params.m))
    hp = _family(rng, params, ["exact", "truncated"], ["truncated"])
    for window in REFUSED_WINDOWS:
        assert_one_path(hp, _argument(rng, hp), 3, window)


def test_the_twisted_step_keeps_the_precision_of_the_lower_factor(F4):
    # (b^q) keeps relative precision 4 * 9 = 36 > 32: the quotient that
    # divided at 32 / q before twisting gave O(x^39)
    x = PerfSeries.x(F4)
    b = textio.parse_series("g*x + x^2 + O(x^10)", F4)
    hp = hyper.HyperParams(F4, [x * x * x], [b])
    h_1 = hyper.hyper_series(hp, 1).coeffs[1]
    assert h_1.prec == 43
    assert_same(h_1, ref_kernel_hyper_coeff(hp, 1))
    assert_one_path(hp, _argument(random.Random(4), hp), 12, None)


# ---------------------------------------------------------------------------
# MultiFunction.evaluate
# ---------------------------------------------------------------------------

@st.composite
def evaluations(draw):
    """A MultiFunction in one or two s-variables with slots m <= 8 and
    coefficients of every kind, and arguments z, s_1..s_n of every kind."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    n = draw(st.integers(1, 2))
    slots = draw(st.lists(st.tuples(st.integers(0, 8),
                                    *[st.integers(0, 2)] * n),
                          min_size=1, max_size=3))
    coeffs = {(m,) + tuple(m + i for i in ivec): draw(factors(params))
              for m, *ivec in slots}
    f = MultiFunction(params, n, 8, 10, coeffs)
    args = [draw(factors(params)) for _ in range(n + 1)]
    return f, args[0], args[1:]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(evaluations(), st.sampled_from(WINDOWS + (0, -1)))
def test_evaluate_matches_the_inverted_D(drawn, window):
    f, z, svec = drawn
    assert_same_outcome(outcome(f.evaluate, z, svec, window=window),
                        outcome(ref_evaluate, f, z, svec, window=window))


# ---------------------------------------------------------------------------
# work: no D_m is built
# ---------------------------------------------------------------------------

def test_no_factorial_is_built(monkeypatch):
    # every module binding of carlitz_D is counted, so a path that builds
    # D_m through any of them shows
    built = []

    def counted(params, m):
        built.append(m)
        return carlitz_D(params, m)
    for module in (brackets, hyper, funcspace):
        if hasattr(module, "carlitz_D"):
            monkeypatch.setattr(module, "carlitz_D", counted)
    F2 = FieldParams.default(2)
    x = PerfSeries.x(F2)
    one = PerfSeries.one(F2)
    f = MultiFunction(F2, 1, 12, 12, {(m, 12): one for m in range(13)})
    assert f.evaluate(x, [one + x]).terms
    assert built == []
    hp = hyper.HyperParams(F2, [x.truncate(5)], [one + x])
    for M in (8, 16, 24):
        assert hyper.hyper_series(hp, M).known == M
        assert built == []
