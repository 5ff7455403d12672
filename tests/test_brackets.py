import random
from fractions import Fraction

import pytest

from carlitz import (FieldParams, INF, INFINITY, PerfSeries, bracket,
                     carlitz_D, carlitz_L, pochhammer, pochhammer_thakur,
                     shift_down, shift_up, UsageError)
from carlitz.textio import parse_series
from carlitz import sampling
from oracles import ref_pochhammer_recurrent


def S(text, params):
    return parse_series(text, params)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_zero_index(F2):
    assert bracket(F2, 0).is_zero()


def test_bracket_infinity(F3):
    assert bracket(F3, INFINITY) == S("2*x", F3)  # -x over F_3
    assert bracket(F3, INFINITY) is bracket(F3, INFINITY)


def test_bracket_small(F2):
    assert bracket(F2, 1) == S("x^2 + x", F2)
    assert bracket(F2, -1) == S("x^(1/2) + x", F2)


def test_bracket_negative_deep(F3):
    b = bracket(F3, -2)
    assert b.exponents() == [Fraction(1, 9), Fraction(1)]


def test_bracket_limit_point(F3):
    # [n] -> [inf]: the difference is the single monomial x^(q^n)
    for n in range(1, 5):
        diff = bracket(F3, n) - bracket(F3, INFINITY)
        assert diff.valuation() == 3 ** n


# ---------------------------------------------------------------------------
# factorials
# ---------------------------------------------------------------------------

def test_d_and_l_base_cases(F2):
    assert carlitz_D(F2, 0) == PerfSeries.one(F2)
    assert carlitz_L(F2, 0) == PerfSeries.one(F2)
    assert carlitz_D(F2, 1) == bracket(F2, 1)
    assert carlitz_L(F2, 1) == bracket(F2, 1)


def test_d2_expansion(F2):
    assert carlitz_D(F2, 2) == S("x^8 + x^6 + x^5 + x^3", F2)
    assert carlitz_D(F2, 2).valuation() == 3


def test_l2_expansion(F2):
    assert carlitz_L(F2, 2) == S("x^6 + x^5 + x^3 + x^2", F2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_factorial_recursion_and_valuation(q):
    params = FieldParams.default(q)
    for m in range(1, 9):
        assert carlitz_D(params, m) == (bracket(params, m)
                                        * carlitz_D(params, m - 1).frobenius(1))
        assert carlitz_D(params, m).valuation() == Fraction(q ** m - 1, q - 1)
        assert carlitz_L(params, m) == (bracket(params, m)
                                        * carlitz_L(params, m - 1))


# ---------------------------------------------------------------------------
# integer-parameter Pochhammer symbol
# ---------------------------------------------------------------------------

def test_thakur_symbol_alpha_one_is_d(F3):
    for n in range(5):
        assert pochhammer_thakur(F3, 1, n) == carlitz_D(F3, n)


def test_thakur_symbol_zero_cases(F2):
    assert pochhammer_thakur(F2, 0, 2).is_zero()
    assert pochhammer_thakur(F2, 0, 0) == PerfSeries.one(F2)
    assert pochhammer_thakur(F2, -2, 3).is_zero()


def test_thakur_symbol_negative_alpha_inverts_l(F3):
    # (-1)_0 = -1/L_1: check by clearing the denominator
    v = pochhammer_thakur(F3, -1, 0)
    assert v * carlitz_L(F3, 1) == PerfSeries.constant(F3, -1)
    # boundary value (alpha)_(-alpha) = 1
    for alpha in (0, -1, -2):
        assert pochhammer_thakur(F3, alpha, -alpha) == PerfSeries.one(F3)


def test_thakur_symbol_fractional_powers(F2):
    # (2)_1 = D_2^(1/q)
    assert pochhammer_thakur(F2, 2, 1) == carlitz_D(F2, 2).frobenius(-1)


# ---------------------------------------------------------------------------
# field-parameter Pochhammer symbol
# ---------------------------------------------------------------------------

def test_pochhammer_base(F3, rng):
    a = sampling.random_series(rng, F3)
    assert pochhammer(a, 0) == PerfSeries.one(F3)


def test_pochhammer_one_factor(F3, rng):
    a = sampling.random_series(rng, F3)
    assert pochhammer(a, 1) == (-a).frobenius(1)


def test_pochhammer_x_squared_example(F2):
    assert pochhammer(PerfSeries.x(F2), 2) == S("x^8", F2)


@pytest.mark.parametrize("q", [2, 3])
def test_pochhammer_modes_agree(q):
    params = FieldParams.default(q)
    rng = random.Random(q)
    for _ in range(10):
        a = sampling.random_series(rng, params, terms=(1, 3), frac_depth=1)
        for m in range(7):
            d = pochhammer(a, m)
            r = ref_pochhammer_recurrent(a, m)
            assert d == r
            assert d.is_exact()


def test_pochhammer_recurrence(F3, rng):
    a = sampling.random_series(rng, F3, terms=(1, 2))
    for m in range(5):
        lhs = pochhammer(a, m + 1)
        rhs = (bracket(F3, m) - a).frobenius(1) * pochhammer(a, m).frobenius(1)
        assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3])
def test_bracket_parameter_shift_identity(q):
    # ([m] - [-alpha])^q = [m+alpha]^(q^(1-alpha))
    params = FieldParams.default(q)
    for alpha in range(-2, 4):
        for m in range(6):
            lhs = (bracket(params, m) - bracket(params, -alpha)).frobenius(1)
            rhs = bracket(params, m + alpha).frobenius(-(alpha - 1))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# unit shifts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_shift_up_extends_integer_shift(q, alpha):
    params = FieldParams.default(q)
    assert shift_up(bracket(params, -alpha)) == bracket(params, -alpha - 1)


def test_shift_up_of_zero(F2):
    assert shift_up(PerfSeries.zero(F2)) == S("x + x^(1/2)", F2)


def test_shifts_are_inverse(F3, rng):
    for _ in range(10):
        a = sampling.random_series(rng, F3, terms=(1, 3), frac_depth=1)
        assert shift_down(shift_up(a)) == a
        assert shift_up(shift_down(a)) == a
