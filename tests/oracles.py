"""Test oracles shared by the differential tests.

The direct hypergeometric coefficient quotient prod(upper) / (D_m *
prod(lower)), which the library replaced by the q-twisted recursion for
exact field parameters; the exact comparison of two series; and
trial-division irreducibility of a field modulus, which the library
decides through its table build.  Each is kept here once and in no
library module.
"""

from itertools import product

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


def ref_is_irreducible(mod, p):
    """Whether the monic ``mod`` (ascending coefficients) is irreducible over
    Z/p: no monic divisor of degree 1..deg//2 leaves remainder zero."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            rem = [c % p for c in mod]
            for top in range(deg, d - 1, -1):
                f = rem[top]
                for i, c in enumerate(divisor):
                    rem[top - d + i] = (rem[top - d + i] - f * c) % p
            if not any(rem[:d]):
                return False
    return True
