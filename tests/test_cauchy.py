import random
from fractions import Fraction

import pytest

from carlitz import (FieldParams, InadmissibleError, ParameterMismatchError,
                     PerfSeries, PrecisionError, bracket, pochhammer)
from carlitz.brackets import INFINITY
from carlitz.cauchy import (DeltaPoly, EvolutionEquation,
                            InitialData, admissibility_check, cauchy_solve,
                            format_problem, growth_check,
                            hypergeometric_equation, parse_problem,
                            recommend_imax, residual)
from carlitz.funcspace import MultiFunction
from carlitz import sampling


def linear_eq(params, a, b, n=1):
    """P = t - a, Q = t - b, taken literally (no sign folding)."""
    t = DeltaPoly.variable(params, n, 1)
    P = t - DeltaPoly.constant(params, n, a)
    Q = t - DeltaPoly.constant(params, n, b)
    return EvolutionEquation(params, n, P, Q)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissibility_constructed_zero(F2):
    eq = linear_eq(F2, PerfSeries.x(F2), bracket(F2, 2))
    report = admissibility_check(eq, 3)
    assert report.status == "fail"
    assert report.witness == (2,)


def test_admissibility_fails_at_infinity(F3):
    # Q(t) = t + x vanishes at [inf] = -x
    t = DeltaPoly.variable(F3, 1, 1)
    Q = t + DeltaPoly.constant(F3, 1, PerfSeries.x(F3))
    eq = EvolutionEquation(F3, 1, t, Q)
    report = admissibility_check(eq, 3)
    assert report.status == "fail"
    assert report.witness == (INFINITY,)
    assert "inf" in report.witness_str()


def test_admissibility_mu_matches_profile(F2, rng):
    from carlitz.hyper import admissible_profile
    b = sampling.random_admissible(rng, F2, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    report = admissibility_check(eq, 8)
    assert report.ok
    # mu = q^(-max val(b - [nu])); the profile computes the same max
    assert report.mu_valuation == admissible_profile(b)


def test_admissibility_indeterminate(F2):
    # Q(t) = t - (b + O(x^k)) where b matches [1] below the precision
    b = bracket(F2, 1).truncate(Fraction(3))
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    report = admissibility_check(eq, 2)
    assert report.status == "indeterminate"
    assert report.witness == (1,)


def test_recommend_imax_is_usable(F2, rng):
    b = sampling.random_admissible(rng, F2, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    i = recommend_imax(eq)
    assert admissibility_check(eq, i).ok


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_first_coefficient_char2(F2):
    # literal P = t-a, Q = t-b: c_11 = -(a/b)^q, and -1 = 1 over F_2
    a = PerfSeries.x(F2)
    b = PerfSeries.one(F2) + PerfSeries.x(F2)
    eq = linear_eq(F2, a, b)
    u = cauchy_solve(eq, InitialData.delta(F2, 1), 3, 3)
    expect = a.divide(b, window=32).frobenius(1)
    assert u.coefficient(1, 1) == expect


def test_first_coefficient_sign_odd_char(F3):
    # the recursion carries a minus; over F_3 it is visible
    a = PerfSeries.x(F3)
    b = PerfSeries.one(F3)
    eq = linear_eq(F3, a, b)
    u = cauchy_solve(eq, InitialData.delta(F3, 1), 2, 2)
    ratio = a.divide(b)
    assert u.coefficient(1, 1) == -(ratio.frobenius(1))
    # the hypergeometric builder folds that sign away
    heq = hypergeometric_equation(F3, [a], [b], 1)
    v = cauchy_solve(heq, InitialData.delta(F3, 1), 2, 2)
    assert v.coefficient(1, 1) == ratio.frobenius(1)


def test_zero_initial_data_gives_zero(F2):
    b = PerfSeries.one(F2)
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    u = cauchy_solve(eq, InitialData(F2, 1, {}), 4, 4)
    assert u.is_zero_on_box()


def test_diagonal_matches_pochhammer_products(F3, rng):
    a_list = [sampling.random_series(rng, F3, terms=(1, 2), lo=0, hi=3)]
    b_list = [sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=3),
              sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=3)]
    n = 2
    eq = hypergeometric_equation(F3, a_list, b_list, n)
    u = cauchy_solve(eq, InitialData.delta(F3, n), 5, 5)
    for m in range(6):
        num = pochhammer(a_list[0], m)
        den = pochhammer(b_list[0], m) * pochhammer(b_list[1], m)
        assert u.coefficient(m, m, m) == num * den.invert(window=32)
        # off-diagonal slots stay zero under delta data
    for key in u.support():
        m, ivec = key[0], key[1:]
        assert all(i == m for i in ivec)


def test_refuses_inadmissible(F2):
    eq = linear_eq(F2, PerfSeries.x(F2), bracket(F2, 2))
    with pytest.raises(InadmissibleError):
        cauchy_solve(eq, InitialData.delta(F2, 1), 3, 3)


def test_refuses_indeterminate(F2):
    b = bracket(F2, 1).truncate(Fraction(3))
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    with pytest.raises(PrecisionError):
        cauchy_solve(eq, InitialData.delta(F2, 1), 3, 3)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_uniqueness_determinism(q):
    params = FieldParams.default(q)
    rng = random.Random(q)
    b = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(params, PerfSeries.x(params), b)
    init = InitialData(params, 1, {
        (0,): PerfSeries.one(params),
        (2,): PerfSeries.x(params),
    })
    u1 = cauchy_solve(eq, init, 4, 4)
    u2 = cauchy_solve(eq, init, 4, 4)
    assert u1.support() == u2.support()
    assert u1 == u2


def test_linearity_in_initial_data(F3, rng):
    b = sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(F3, PerfSeries.x(F3), b)
    i1 = InitialData(F3, 1, {(0,): PerfSeries.one(F3),
                             (1,): PerfSeries.x(F3)})
    i2 = InitialData(F3, 1, {(1,): PerfSeries.one(F3),
                             (3,): bracket(F3, 1)})
    u12 = cauchy_solve(eq, i1 + i2, 5, 5)
    u1 = cauchy_solve(eq, i1, 5, 5)
    u2 = cauchy_solve(eq, i2, 5, 5)
    assert u12 == u1 + u2
    # scaling by alpha passes through the recursion as alpha^(q^m)
    alpha = sampling.random_series(rng, F3, terms=(1, 2))
    ua = cauchy_solve(eq, i1.scale(alpha), 5, 5)
    for key in u1.support():
        m = key[0]
        assert ua.coefficient(*key) == u1.coefficient(*key) * alpha.frobenius(m)


def test_support_shape(F2, rng):
    b = sampling.random_admissible(rng, F2, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(F2, PerfSeries.x(F2), b)
    init = InitialData(F2, 1, {(0,): PerfSeries.one(F2),
                               (2,): PerfSeries.x(F2)})
    u = cauchy_solve(eq, init, 5, 5)
    for key in u.support():
        assert key[0] <= min(key[1:])


@pytest.mark.parametrize("q", [2, 3])
def test_residual_zero_on_solutions(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 3)
    for _ in range(3):
        r = rng.randint(1, 2)
        s = rng.randint(1, 2)
        a_list = [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
                  for _ in range(r)]
        b_list = [sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
                  for _ in range(s)]
        n = max(r, s)
        eq = hypergeometric_equation(params, a_list, b_list, n)
        u = cauchy_solve(eq, InitialData.delta(params, n), 5, 5)
        assert residual(eq, u).is_zero_on_box()


def test_residual_of_zero(F2):
    eq = linear_eq(F2, PerfSeries.x(F2), PerfSeries.one(F2))
    z = MultiFunction.zero(F2, 1, 4, 4)
    assert residual(eq, z).is_zero_on_box()


def test_residual_general_initial_data(F3, rng):
    # residual vanishes for off-diagonal initial data too
    b = sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=3)
    eq = linear_eq(F3, PerfSeries.x(F3), b)
    init = InitialData(F3, 1, {(0,): PerfSeries.one(F3),
                               (2,): bracket(F3, 1),
                               (4,): PerfSeries.x(F3)})
    u = cauchy_solve(eq, init, 5, 5)
    assert residual(eq, u).is_zero_on_box()


# ---------------------------------------------------------------------------
# growth certificates
# ---------------------------------------------------------------------------

def test_growth_zero_solution_passes(F2):
    z = MultiFunction.zero(F2, 1, 3, 3)
    report = growth_check(z, log_r=Fraction(0), log_c=Fraction(0))
    assert report.ok


def test_growth_certificate_and_negative_control(F3, rng):
    a = [sampling.random_series(rng, F3, terms=(1, 2), lo=0, hi=2)]
    b = [sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=2)]
    eq = hypergeometric_equation(F3, a, b, 1)
    u = cauchy_solve(eq, InitialData.delta(F3, 1), 5, 5)
    tight = growth_check(u)
    assert growth_check(u, log_r=tight.log_r, log_c=tight.log_c).ok
    # corrupt one coefficient far below the certified valuations
    key = max(u.support())
    bad = dict(u.coeffs)
    bad[key] = bad[key] * PerfSeries.monomial(F3, -10 ** 4, 1)
    v = MultiFunction(F3, u.n, u.trunc_m, u.trunc_i, bad)
    assert not growth_check(v, log_r=tight.log_r, log_c=tight.log_c).ok


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def test_problem_file_roundtrip(F3, rng):
    a = [sampling.random_series(rng, F3, terms=(1, 2), lo=0, hi=2)]
    b = [sampling.random_admissible(rng, F3, terms=(1, 2), lo=0, hi=2)]
    eq = hypergeometric_equation(F3, a, b, 1)
    init = InitialData(F3, 1, {(0,): PerfSeries.one(F3),
                               (1,): bracket(F3, -1)})
    text = format_problem(eq, init, 4, 4)
    eq2, init2, tm, ti = parse_problem(text)
    assert (tm, ti) == (4, 4)
    assert eq2.P == eq.P and eq2.Q == eq.Q
    assert cauchy_solve(eq, init, tm, ti) == cauchy_solve(eq2, init2, tm, ti)
    assert format_problem(eq2, init2, tm, ti) == text


def test_delta_poly_checks_field_and_arity(F2, F3):
    # the field and the number of indeterminates must match: + and * refuse,
    # == answers False (zip would otherwise truncate exponent tuples)
    assert DeltaPoly.zero(F2, 1) == DeltaPoly.zero(F2, 1)
    assert DeltaPoly.zero(F2, 1) != DeltaPoly.zero(F2, 2)
    assert DeltaPoly.zero(F2, 1) != DeltaPoly.zero(F3, 1)
    t1 = DeltaPoly.variable(F2, 1, 1)
    for other in (DeltaPoly.variable(F2, 2, 1), DeltaPoly.variable(F3, 1, 1)):
        with pytest.raises(ParameterMismatchError):
            t1 * other
        with pytest.raises(ParameterMismatchError):
            t1 + other
        with pytest.raises(ParameterMismatchError):
            t1 - other
    assert (t1 * t1).coeffs == {(2,): PerfSeries.one(F2)}
