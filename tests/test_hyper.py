import random
from fractions import Fraction

import pytest

from carlitz import (FieldParams, InadmissibleError, ParameterMismatchError,
                     PerfSeries, PrecisionError, UsageError, bracket, carlitz_D,
                     pochhammer, shift_down, shift_up)
from carlitz.cauchy import InitialData, cauchy_solve, hypergeometric_equation
from carlitz.hyper import (CONTIGUOUS_IDS, HyperParams, admissible_profile,
                           contiguous_check, convergence_bound, hyper_coeff,
                           hyper_eval, hyper_residual, hyper_thakur_coeff,
                           thakur_correspondence, thakur_residual,
                           thakur_series)
from carlitz import hyper, sampling
from oracles import assert_same


def draw_params(rng, params, r, s, lo=0, hi=3):
    a = [sampling.random_series(rng, params, terms=(1, 2), lo=lo, hi=hi)
         for _ in range(r)]
    b = [sampling.random_admissible(rng, params, terms=(1, 2), lo=lo, hi=hi)
         for _ in range(s)]
    return HyperParams(params, a, b)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissible_profile_rejects_brackets(F2):
    for nu in (0, 1, 3):
        with pytest.raises(InadmissibleError):
            admissible_profile(bracket(F2, nu))
    with pytest.raises(InadmissibleError):
        admissible_profile(PerfSeries.monomial(F2, 1, -1))  # [inf]


def test_admissible_profile_indeterminate(F2):
    nearly = bracket(F2, 2).truncate(Fraction(3))
    with pytest.raises(PrecisionError):
        admissible_profile(nearly)


def test_admissible_profile_value(F3):
    # b = [1] + x^9: distance to [1] has val 9, to [inf] val 3, to any
    # other bracket val <= 3, so the profile is 9
    b = bracket(F3, 1) + PerfSeries.monomial(F3, 9, 1)
    assert admissible_profile(b) == 9


def test_hyper_params_validates(F2):
    with pytest.raises(InadmissibleError):
        HyperParams(F2, [PerfSeries.x(F2)], [bracket(F2, 1)])


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_coeff_zero_is_one(F3, rng):
    hp = draw_params(rng, F3, 2, 1)
    assert hyper_coeff(hp, 0) == PerfSeries.one(F3)


def test_coeff_vanishes_for_zero_upper(F2, rng):
    b = sampling.random_admissible(rng, F2, terms=(1, 2), lo=0, hi=3)
    hp = HyperParams(F2, [PerfSeries.zero(F2)], [b])
    for m in range(1, 4):
        assert hyper_coeff(hp, m).is_zero()
    z = PerfSeries.monomial(F2, 5, 1)
    assert hyper_eval(hp, z, 4) == z


@pytest.mark.parametrize("q", [2, 3])
def test_ratio_law(q):
    # h_(m+1) / h_m^q = { prod([m]-a_i) / (prod([m]-b_j) ([m]-[-1])) }^q
    params = FieldParams.default(q)
    rng = random.Random(q * 13)
    for _ in range(5):
        hp = draw_params(rng, params, rng.randint(1, 2), rng.randint(1, 2))
        for m in range(5):
            num = PerfSeries.one(params)
            for a in hp.a_list:
                num = num * (bracket(params, m) - a)
            den = bracket(params, m) - bracket(params, -1)
            for b in hp.b_list:
                den = den * (bracket(params, m) - b)
            ratio = num.divide(den, window=40).frobenius(1)
            lhs = hyper_coeff(hp, m + 1, window=60)
            rhs = hyper_coeff(hp, m, window=60).frobenius(1) * ratio
            assert lhs == rhs


def test_coefficients_of_eval_match(F3, rng):
    hp = draw_params(rng, F3, 1, 1)
    thr = convergence_bound(hp)
    z = PerfSeries.monomial(F3, max(1, int(thr) + 1), 1)
    total = hyper_eval(hp, z, 4)
    recomputed = PerfSeries.zero(F3)
    for m in range(5):
        recomputed = recomputed + hyper_coeff(hp, m) * z.frobenius(m)
    assert total == recomputed


def test_eval_at_zero(F3, rng):
    hp = draw_params(rng, F3, 1, 1)
    assert hyper_eval(hp, PerfSeries.zero(F3), 5).is_zero()


def test_eval_refuses_large_z(F2, rng):
    hp = draw_params(rng, F2, 1, 1)
    big = PerfSeries.monomial(F2, -50, 1)
    with pytest.raises(InadmissibleError):
        hyper_eval(hp, big, 5)


# ---------------------------------------------------------------------------
# convergence bound
# ---------------------------------------------------------------------------

def test_convergence_bound_explicit(F2):
    # a = x (val 1), b = 1 (val 0): profile of b is max val(1 - [nu]) = 0
    # threshold = (1 + q(B - alpha)) / (q - 1) = (1 + 2(0 - 1)) / 1 = -1
    hp = HyperParams(F2, [PerfSeries.x(F2)], [PerfSeries.one(F2)])
    assert convergence_bound(hp) == -1


def test_convergence_bound_monotone_in_b(F2):
    small = HyperParams(F2, [PerfSeries.x(F2)],
                        [PerfSeries.monomial(F2, -4, 1)])   # large |b|
    large = HyperParams(F2, [PerfSeries.x(F2)],
                        [PerfSeries.one(F2)])
    assert convergence_bound(small) < convergence_bound(large)


def test_convergence_bound_grows_near_bracket(F2):
    # b close to [2] but distinct: profile grows, threshold grows, finite
    close = bracket(F2, 2) + PerfSeries.monomial(F2, 9, 1)
    far = PerfSeries.one(F2)
    hp_close = HyperParams(F2, [PerfSeries.x(F2)], [close])
    hp_far = HyperParams(F2, [PerfSeries.x(F2)], [far])
    assert convergence_bound(hp_close) > convergence_bound(hp_far)
    assert admissible_profile(close) == 9


def test_tail_bound_caps_precision(F3, rng):
    hp = draw_params(rng, F3, 1, 1)
    thr = convergence_bound(hp)
    z = PerfSeries.monomial(F3, max(1, int(thr) + 2), 1)
    v4 = hyper_eval(hp, z, 4)
    v7 = hyper_eval(hp, z, 7)
    assert v4 == v7  # they agree below the M=4 tail cap


def test_a_stopped_stream_reads_no_tail_bound_at_M(F2, monkeypatch):
    # the stream stops at m = 4, where the tail bound has reached the
    # precision of the sum; the bound at M + 1 is no lower, so it is not
    # built, and the result is the one a loop run to M = 3 gives
    hp = HyperParams(F2, [PerfSeries.x(F2)], [PerfSeries.one(F2)])
    z = PerfSeries.monomial(F2, 3, 1)
    want = hyper_eval(hp, z, 3)
    seen = []
    tail = hyper._tail_valuation

    def recorded(hp, val_z, m):
        seen.append(m)
        return tail(hp, val_z, m)
    monkeypatch.setattr(hyper, "_tail_valuation", recorded)
    assert_same(hyper_eval(hp, z, 10 ** 6), want)
    assert seen == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# integer-parameter family
# ---------------------------------------------------------------------------

def test_thakur_coeff_all_ones(F2):
    assert hyper_thakur_coeff(F2, [1, 1], [1], 0) == PerfSeries.one(F2)


def test_thakur_coeff_zero_alpha(F2):
    assert hyper_thakur_coeff(F2, [0], [1], 1).is_zero()
    assert hyper_thakur_coeff(F2, [0], [1], 3).is_zero()


def test_thakur_coeff_telescoping(F3):
    for m in range(4):
        got = hyper_thakur_coeff(F3, [2], [2], m)
        assert got == carlitz_D(F3, m).invert(window=32)


def test_thakur_coeff_rejects_bad_beta(F2):
    with pytest.raises(UsageError):
        hyper_thakur_coeff(F2, [1], [0], 1)


def test_a_lower_parameter_below_one_is_refused_before_its_bracket(F2):
    # the integer family refuses beta < 1 as a usage error before its
    # bracket parameters are built, and a bad M before that; the
    # correspondence builds them first and refuses [-0] = [0]
    with pytest.raises(UsageError,
                       match="^lower parameters must be positive integers, got 0$"):
        thakur_series(F2, [2], [0], 3)
    with pytest.raises(UsageError,
                       match="^lower parameters must be positive integers, got 0$"):
        thakur_residual(F2, [2], [0], 3)
    with pytest.raises(UsageError, match="^need M >= 0$"):
        thakur_series(F2, [2], [0], -1)
    with pytest.raises(InadmissibleError, match="^parameter equals \\[0\\]$"):
        thakur_correspondence(F2, [2], [0], 3)


@pytest.mark.parametrize("q", [2, 3])
def test_thakur_equation_residual(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 19)
    for _ in range(5):
        alphas = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 2))]
        betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        assert thakur_residual(params, alphas, betas, 5).is_zero_on_known()


def test_correspondence_consistent(F2):
    result = thakur_correspondence(F2, [2, 1], [1], 5)
    assert result.ok
    # rho = prod (alpha_i)_0 / prod (beta_j)_0; here (2)_0 = D_1^(1/q)
    expected_rho = carlitz_D(F2, 1).frobenius(-1)
    assert result.rho == expected_rho


def test_correspondence_single_term(F3):
    result = thakur_correspondence(F3, [1], [2], 0)
    assert result.ok
    assert result.rho == carlitz_D(F3, 1).frobenius(-1).invert(window=32)


def test_correspondence_negative_control(F2):
    # corrupting the lower parameters breaks the rescaling at m = 1
    t = [hyper_thakur_coeff(F2, [2], [1], m) for m in range(3)]
    hp_bad = HyperParams(F2, [bracket(F2, -2)], [bracket(F2, -2)])
    h_bad = [hyper_coeff(hp_bad, m) for m in range(3)]
    rho = t[0].divide(h_bad[0], window=32)
    assert t[1] != h_bad[1] * rho.frobenius(1)


def test_correspondence_refuses_vanishing_family(F2):
    with pytest.raises(UsageError):
        thakur_correspondence(F2, [0], [1], 3)


# ---------------------------------------------------------------------------
# differential equations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_product_form_residual(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 23)
    for _ in range(5):
        hp = draw_params(rng, params, rng.randint(1, 2), rng.randint(1, 2))
        assert hyper_residual(hp, 5, form="product").is_zero_on_known()


@pytest.mark.parametrize("q", [2, 3])
def test_gauss_form_residual(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 29)
    for _ in range(5):
        hp = draw_params(rng, params, 2, 1)
        assert hyper_residual(hp, 5, form="gauss").is_zero_on_known()


def test_gauss_form_needs_2f1(F2, rng):
    hp = draw_params(rng, F2, 1, 1)
    with pytest.raises(UsageError):
        hyper_residual(hp, 4, form="gauss")


def test_factorization_against_solver(F3, rng):
    hp = draw_params(rng, F3, 2, 1)
    n = 2
    eq = hypergeometric_equation(F3, hp.a_list, hp.b_list, n)
    u = cauchy_solve(eq, InitialData.delta(F3, n), 5, 5)
    thr = convergence_bound(hp)
    base = max(1, int(thr) + 1)
    for _ in range(3):
        z = PerfSeries.monomial(F3, base + rng.randint(0, 2), rng.randrange(1, 3))
        svec = [PerfSeries.monomial(F3, base + rng.randint(0, 2), 1)
                for _ in range(n)]
        w = z
        for s in svec:
            w = w * s
        assert u.evaluate(z, svec) == hyper_eval(hp, w, 5)


# ---------------------------------------------------------------------------
# contiguous relations
# ---------------------------------------------------------------------------

def test_53_explicit_m1(F3):
    # both sides equal (-1)^q (a - [1]) at m = 1
    a = PerfSeries.x(F3)
    res = contiguous_check("5.3", F3, a=a, m=1)
    assert res.ok
    lhs = pochhammer(shift_up(a), 1)
    assert lhs == -(a - bracket(F3, 1))  # (-1)^q = -1


def test_54_explicit_m0(F2, rng):
    a = sampling.random_series(rng, F2, terms=(1, 2))
    assert contiguous_check("5.4", F2, a=a, m=0).ok
    assert pochhammer(a, 1) == -(a.frobenius(1))


def test_53_side_condition(F2):
    with pytest.raises(UsageError):
        contiguous_check("5.3", F2, a=PerfSeries.zero(F2), m=2)


def test_56_side_condition(F2):
    with pytest.raises(UsageError):
        contiguous_check("5.6", F2, a=bracket(F2, 1), m=2)


def test_58_side_conditions(F2, rng):
    b = sampling.random_series(rng, F2, terms=(1, 2))
    c = sampling.random_admissible(rng, F2, terms=(1, 2))
    with pytest.raises(UsageError):
        contiguous_check("5.8", F2, a=bracket(F2, -1), b=b, c=c, M=2)


@pytest.mark.parametrize("ident", CONTIGUOUS_IDS[:4])
def test_symbol_identities_refuse_a_parameter_over_another_field(F2, F3, ident):
    # as 5.7 and 5.8 refuse it, through HyperParams
    a = PerfSeries.x(F3) + PerfSeries.one(F3)
    c = sampling.random_admissible(random.Random(5), F2, terms=(1, 2))
    with pytest.raises(ParameterMismatchError) as function_identity:
        contiguous_check("5.7", F2, a=a, b=c, c=c, M=1)
    with pytest.raises(ParameterMismatchError) as symbol_identity:
        contiguous_check(ident, F2, a=a, m=2)
    assert str(symbol_identity.value) == str(function_identity.value) \
        == "parameter over a different field"


def test_57_coefficient_identity(F2, rng):
    # (a - [m]) h_m is the m-th coefficient of F(T1(a), b; c; a z)
    hp = draw_params(rng, F2, 2, 1)
    a, b = hp.a_list
    c = hp.b_list[0]
    shifted = HyperParams(F2, (shift_up(a), b), (c,))
    for m in range(4):
        lhs = hyper_coeff(shifted, m) * a.frobenius(m)
        rhs = (a - bracket(F2, m)) * hyper_coeff(hp, m)
        assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ident", CONTIGUOUS_IDS)
def test_contiguous_random_sweep(q, ident):
    params = FieldParams.default(q)
    rng = random.Random(hash((q, ident)) & 0xFFFF)
    for _ in range(6):
        a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
        b = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
        c = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
        if ident in ("5.3", "5.4", "5.5", "5.6"):
            m = rng.randint(1, 5)
            if ident == "5.3" and a.is_zero_at_prec():
                continue
            if ident == "5.6" and (bracket(params, m - 1) - a).is_zero():
                continue
            assert contiguous_check(ident, params, a=a, m=m).ok
        else:
            if ident == "5.8" and (c.is_zero() or shift_down(a).is_zero()):
                continue
            assert contiguous_check(ident, params, a=a, b=b, c=c, M=5).ok


def test_unknown_identity(F2):
    with pytest.raises(UsageError):
        contiguous_check("5.99", F2, a=PerfSeries.x(F2), m=1)


# ---------------------------------------------------------------------------
# local analyticity proxy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_parameter_perturbation_is_contractive(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 41)
    hp = draw_params(rng, params, 1, 1, lo=0, hi=2)
    delta_val = 256
    window = 600
    bump = PerfSeries.monomial(params, delta_val, 1)
    perturbed_a = HyperParams(params, [hp.a_list[0] + bump], list(hp.b_list))
    perturbed_b = HyperParams(params, list(hp.a_list), [hp.b_list[0] + bump])
    for m in range(4):
        base = hyper_coeff(hp, m, window=window)
        for other in (perturbed_a, perturbed_b):
            diff = hyper_coeff(other, m, window=window) - base
            v = diff._val_lb()
            assert v >= delta_val


def test_correspondence_reports_first_bad_index(F2, monkeypatch):
    # the t side is the direct symbol quotient, independent of the stream
    # that gives h_m; a wrong t_m there is caught at its index
    import carlitz.hyper as hyper_mod
    real = hyper_mod._thakur_quotient

    def corrupted(params, alphas, betas, m, window):
        v = real(params, alphas, betas, m, window)
        return v * PerfSeries.monomial(params, 1, 1) if m >= 1 else v

    monkeypatch.setattr(hyper_mod, "_thakur_quotient", corrupted)
    result = hyper_mod.thakur_correspondence(F2, [2], [1], 3)
    assert not result.ok
    assert result.first_bad_m == 1
    assert "inconsistent" in result.describe()
