"""Differential tests of the hypergeometric coefficient paths against the
direct quotient they replaced.

The field-parameter family is read from the q-twisted recursion
h_(m+1) = h_m^q * Q_m^q, whatever the precision of its parameters, and so
is the integer family, at the bracket parameters [-alpha], [-beta] and
started from its t_0.  The oracle is
the former direct quotient prod(upper) / (D_m * prod(lower)), kept only in
``oracles``.  Every coefficient must match it exactly: same terms, same dexp,
same prec (value and type), over every shipped (q, m), indices m <= 6 and
windows None, 20 and 7 (and 32 for the integer family).  A recursion that
lost precision on truncated parameters (at q = 9, h_1 went from O(x^45) to
O(x^18)) fails here.
"""

import random
from itertools import cycle

import pytest
from hypothesis import assume, given, settings, strategies as st

from carlitz import FieldParams, PerfSeries, bracket, brackets, hyper, sampling
from carlitz.errors import CarlitzError, UsageError
from oracles import assert_same, ref_hyper_coeff, ref_thakur_coeff

SHIPPED = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2)]
FIELDS = [FieldParams.default(q, m) for q, m in SHIPPED]
WINDOWS = (None, 20, 7)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def _parameter(rng, params, kind, admissible=False):
    if kind == "bracket":
        return bracket(params, rng.randint(-1, 3))
    draw = sampling.random_admissible if admissible else sampling.random_series
    s = draw(rng, params, terms=(1, 2), lo=0, hi=3)
    if kind == "truncated" and s.terms:
        # a few exponent units of relative precision, so any loss shows
        s = s.truncate(s.valuation() + rng.randint(1, 2 * params.q))
    return s


@st.composite
def families(draw):
    """HyperParams with one or two upper and zero or one lower parameters,
    each exact, truncated, or (upper only) a bracket [k]."""
    params = draw(st.sampled_from(FIELDS))
    upper = draw(st.lists(st.sampled_from(("exact", "truncated", "bracket")),
                          min_size=1, max_size=2))
    lower = draw(st.lists(st.sampled_from(("exact", "truncated")), max_size=1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    try:
        return hyper.HyperParams(
            params, [_parameter(rng, params, k) for k in upper],
            [_parameter(rng, params, k, admissible=True) for k in lower])
    except CarlitzError:
        # a truncated lower parameter can be indeterminate at its precision
        assume(False)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True)
@given(families(), st.integers(0, 6), st.sampled_from(WINDOWS))
def test_stream_matches_direct_quotient(hp, M, window):
    series = hyper.hyper_series(hp, M, window=window)
    for m in range(M + 1):
        want = ref_hyper_coeff(hp, m, window)
        assert_same(series.coeffs.get(m, PerfSeries.zero(hp.params)), want)
    assert_same(hyper.hyper_coeff(hp, M, window=window), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS),
       st.lists(st.integers(-4, 3), min_size=1, max_size=2),
       st.lists(st.integers(1, 3), min_size=1, max_size=2),
       st.integers(0, 6), st.sampled_from(WINDOWS))
def test_capped_quotient_matches_direct_quotient(params, alphas, betas, M, window):
    # alpha >= 1 gives exact factors D, alpha <= 0 truncated inverses of L,
    # exact +-1 or exact zero
    series = hyper.thakur_series(params, alphas, betas, M, window=window)
    for m in range(M + 1):
        want = ref_thakur_coeff(params, alphas, betas, m, window)
        assert_same(series.coeffs.get(m, PerfSeries.zero(params)), want)
        assert_same(hyper.hyper_thakur_coeff(params, alphas, betas, m,
                                             window=window), want)


FAMILIES = {
    "exact": ("exact", "exact"),
    "bracket": ("bracket", "exact"),
    "truncated upper": ("truncated", "exact"),
    "truncated lower": ("exact", "truncated"),
}


#: integer parameters: three at once, then each alpha in -3..3 (the symbol
#: D, 1, or the inverse of a signed L that vanishes past m = -alpha) with
#: beta cycling through 1..3
THAKUR_SETS = [([2, -1, -3], [2])] + [
    ([alpha], [beta]) for alpha, beta in zip(range(-3, 4), cycle((1, 2, 3)))]


@pytest.mark.parametrize("params", FIELDS, ids=repr)
def test_every_field_and_window_to_index_six(params):
    # the strategies above draw m <= 6 in a few fields only; this covers
    # each field, window and kind of parameter once, and the integer
    # family with exact, truncated and vanishing numerator factors
    rng = random.Random("six-%d-%d" % (params.q, params.m))
    for window in WINDOWS:
        for upper, lower in FAMILIES.values():
            while True:
                try:
                    hp = hyper.HyperParams(
                        params, [_parameter(rng, params, upper)],
                        [_parameter(rng, params, lower, admissible=True)])
                    break
                except CarlitzError:
                    continue
            series = hyper.hyper_series(hp, 6, window=window)
            for m in range(7):
                want = ref_hyper_coeff(hp, m, window)
                assert_same(series.coeffs.get(m, PerfSeries.zero(params)), want)
    for window in WINDOWS + (32,):
        for alphas, betas in THAKUR_SETS:
            series = hyper.thakur_series(params, alphas, betas, 6, window=window)
            for m in range(7):
                want = ref_thakur_coeff(params, alphas, betas, m, window)
                assert_same(series.coeffs.get(m, PerfSeries.zero(params)), want)


def ref_correspondence(params, alphas, betas, M, window):
    hp = hyper.HyperParams(params, [bracket(params, -al) for al in alphas],
                           [bracket(params, -be) for be in betas])
    rho = None
    for m in range(M + 1):
        t_m = ref_thakur_coeff(params, alphas, betas, m, window)
        h_m = ref_hyper_coeff(hp, m, window)
        if t_m.is_zero() or h_m.is_zero():
            return "coefficient family vanishes at m = %d" % m
        if rho is None:
            rho = t_m.divide(h_m, window=window)
        elif t_m != h_m * rho.frobenius(m):
            return "inconsistent at m = %d" % m
    return "consistent: rho = %r" % (rho,)


@pytest.mark.parametrize("params", FIELDS, ids=repr)
def test_correspondence_matches_direct_quotients(params):
    rng = random.Random("corr-%d-%d" % (params.q, params.m))
    for window in WINDOWS:
        alphas = [rng.choice([1, 2, 3, -1, -2]) for _ in range(rng.randint(1, 2))]
        betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        want = ref_correspondence(params, alphas, betas, 4, window)
        try:
            got = hyper.thakur_correspondence(params, alphas, betas, 4,
                                              window=window).describe()
        except UsageError as exc:
            got = str(exc).split(";")[0]
        assert got == want


# ---------------------------------------------------------------------------
# the benchmark's traced runs wrap hyper.hyper_coeff in the module
# ---------------------------------------------------------------------------

def test_coefficient_paths_call_hyper_coeff_through_the_module(monkeypatch, F3):
    calls = []
    original = hyper.hyper_coeff

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hyper, "hyper_coeff", counted)
    x = PerfSeries.x(F3)
    exact = hyper.HyperParams(F3, [x + x * x], [PerfSeries.one(F3)])
    hyper.hyper_series(exact, 3)
    assert calls == [0]
    truncated = hyper.HyperParams(F3, [(x + x * x).truncate(5)], [PerfSeries.one(F3)])
    del calls[:]
    hyper.hyper_series(truncated, 3)
    assert calls == [0]
    del calls[:]
    hyper.thakur_correspondence(F3, [2, 1], [1], 3)
    assert calls == [0]


@pytest.mark.parametrize("family", ("thakur_series", "thakur_residual"))
def test_integer_family_builds_its_symbols_once(family, F2, monkeypatch):
    # t_0 is the one quotient of symbols, and it divides by the factors of
    # D_0 and of its Thakur symbols, which are built before counting; every
    # later t_m is a step of the stream, so no D_m is built
    quotients, factorials = [], []
    coeff_quotient, carlitz_D = hyper._coeff_quotient, brackets.carlitz_D
    symbols = {(k, 0): hyper._thakur_factors(F2, k, 0) for k in (2, 3)}

    def counted_quotient(params, m, *args):
        quotients.append(m)
        return coeff_quotient(params, m, *args)

    def counted_D(params, m):
        factorials.append(m)
        return carlitz_D(params, m)

    monkeypatch.setattr(hyper, "_coeff_quotient", counted_quotient)
    monkeypatch.setattr(hyper, "_thakur_factors", lambda params, k, m: symbols[k, m])
    for module in (brackets, hyper):  # every binding of carlitz_D
        if hasattr(module, "carlitz_D"):
            monkeypatch.setattr(module, "carlitz_D", counted_D)
    getattr(hyper, family)(F2, [2], [3], 12)
    assert quotients == [0]
    assert factorials == []


# ---------------------------------------------------------------------------
# truncation orders below zero are refused
# ---------------------------------------------------------------------------

def _hp(params):
    x = PerfSeries.x(params)
    return hyper.HyperParams(params, [x, x * x], [PerfSeries.one(params) + x])


NEGATIVE_M = {
    "hyper_eval": lambda p: hyper.hyper_eval(_hp(p), PerfSeries.x(p).pow(20), -3),
    "hyper_eval at z = 0": lambda p: hyper.hyper_eval(_hp(p), PerfSeries.zero(p), -1),
    "hyper_series": lambda p: hyper.hyper_series(_hp(p), -1),
    "hyper_residual": lambda p: hyper.hyper_residual(_hp(p), -1),
    "hyper_residual gauss": lambda p: hyper.hyper_residual(_hp(p), -1, form="gauss"),
    "thakur_series": lambda p: hyper.thakur_series(p, [2], [1], -1),
    "thakur_residual": lambda p: hyper.thakur_residual(p, [2], [1], -1),
    "thakur_correspondence": lambda p: hyper.thakur_correspondence(p, [2], [1], -1),
    "5.7": lambda p: hyper.contiguous_check("5.7", p, a=_hp(p).a_list[0],
                                            b=_hp(p).a_list[1],
                                            c=_hp(p).b_list[0], M=-2),
    "5.8": lambda p: hyper.contiguous_check("5.8", p, a=_hp(p).a_list[0],
                                            b=_hp(p).a_list[1],
                                            c=_hp(p).b_list[0], M=-1),
}


@pytest.mark.parametrize("call", NEGATIVE_M.values(), ids=list(NEGATIVE_M))
def test_negative_truncation_is_refused(call, F2):
    with pytest.raises(UsageError, match="need M >= 0"):
        call(F2)


def test_58_at_truncation_zero(F3):
    hp = _hp(F3)
    a, b = hp.a_list
    result = hyper.contiguous_check("5.8", F3, a=a, b=b, c=hp.b_list[0], M=0)
    assert result.ok and len(result.residuals) == 1
