"""Test oracles shared by the differential tests.

The direct hypergeometric coefficient quotient prod(upper) / (D_m *
prod(lower)), which the library replaced by the q-twisted recursion for
exact field parameters, and the exact comparison of two series.  Each is
kept here once and in no library module.
"""

from carlitz import PerfSeries, carlitz_D, pochhammer, pochhammer_thakur


def ref_coeff_quotient(params, m, upper, lower, window):
    num = PerfSeries.one(params)
    for factor in upper:
        num = num * factor
    den = carlitz_D(params, m)
    for factor in lower:
        den = den * factor
    return num * den.invert(window=window)


def ref_hyper_coeff(hp, m, window=None):
    return ref_coeff_quotient(hp.params, m, [pochhammer(a, m) for a in hp.a_list],
                              [pochhammer(b, m) for b in hp.b_list], window)


def ref_thakur_coeff(params, alphas, betas, m, window=None):
    return ref_coeff_quotient(
        params, m, [pochhammer_thakur(params, alpha, m) for alpha in alphas],
        [pochhammer_thakur(params, beta, m) for beta in betas], window)


def assert_same(got, want):
    """Same terms, same dexp, same prec, value and type."""
    assert got.terms == want.terms
    assert got.dexp == want.dexp
    assert got.prec == want.prec
    assert type(got.prec) is type(want.prec)
