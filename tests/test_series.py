import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import (AtLeast, FieldParams, INF, NotInvertibleError,
                     ParameterMismatchError, PerfSeries, UsageError)
from carlitz.ffield import FFElement
from carlitz.textio import parse_series
from carlitz import sampling


def S(text, params):
    return parse_series(text, params)


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------

def test_add_char_p_cancellation(F2):
    x = PerfSeries.x(F2)
    assert (x + x).is_zero()


def test_add_identity(F2):
    a = S("x^2 + x", F2)
    assert a + PerfSeries.zero(F2) == a


def test_add_coefficientwise(F2):
    assert S("x^4 + x", F2) + S("x^4 + x^2", F2) == S("x^2 + x", F2)


def test_add_precision_is_min(F2):
    a = S("x + O(x^3)", F2)
    b = S("x^2 + O(x^5)", F2)
    c = a + b
    assert c.prec == 3
    assert c == S("x + x^2", F2)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_mul_frobenius_square(F2):
    a = S("x^2 + x", F2)
    assert a * a == S("x^4 + x^2", F2)


def test_mul_expansion_is_d2(F2):
    prod = S("x^4 + x", F2) * S("x^4 + x^2", F2)
    assert prod == S("x^8 + x^6 + x^5 + x^3", F2)


def test_mul_identity(F3):
    a = S("2*x + x^2", F3)
    assert a * PerfSeries.one(F3) == a


def test_mul_precision_shifts_by_valuation(F2):
    a = S("x^2 + O(x^6)", F2)   # val 2, prec 6
    b = S("x^3 + O(x^4)", F2)   # val 3, prec 4
    c = a * b
    # min(prec_a + val_b, prec_b + val_a) = min(9, 6)
    assert c.prec == 6
    assert c == S("x^5 + O(x^6)", F2)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_monomial_is_exact(F2):
    inv = PerfSeries.x(F2).invert()
    assert inv == S("x^(-1)", F2)
    assert inv.is_exact()


def test_invert_geometric(F2):
    inv = S("1 + x", F2).invert(window=4)
    assert inv == S("1 + x + x^2 + x^3 + O(x^4)", F2)
    assert inv.prec == 4


def test_invert_zero_refuses(F2):
    with pytest.raises(NotInvertibleError):
        PerfSeries.zero(F2).invert()
    with pytest.raises(NotInvertibleError):
        PerfSeries.zero(F2, prec=Fraction(5)).invert()


def test_invert_default_window_documented(F2):
    from carlitz.series import DEFAULT_INVERT_WINDOW
    a = S("x^(-2) + 1", F2)     # val -2, exact
    inv = a.invert()
    assert inv.prec == 2 + DEFAULT_INVERT_WINDOW  # -val + window
    assert a * inv == PerfSeries.one(F2)


def test_invert_truncated_precision_rule(F2):
    a = S("x^2 + x^3 + O(x^9)", F2)   # val 2, prec 9
    inv = a.invert()
    assert inv.prec == 9 - 2 * 2
    assert a * inv == PerfSeries.one(F2)


def test_invert_exact_precision_of_a_monomial(F3):
    inv = S("2*x^(-3)", F3).invert()
    assert inv.is_exact()
    assert inv.terms == S("2*x^3", F3).terms and inv.dexp == 0


def test_divide(F3):
    a = S("x^2 + 2*x^3", F3)
    b = S("x + x^2", F3)
    c = a.divide(b, window=10)
    assert b * c == a


@pytest.mark.parametrize("window", [0, -5, Fraction(-1, 2)])
def test_invert_non_positive_window_is_a_usage_error(F2, window):
    for s in (S("1 + x", F2), PerfSeries.zero(F2), S("x^3", F2)):
        with pytest.raises(UsageError, match="window must be positive"):
            s.invert(window=window)


@pytest.mark.parametrize("window", [float("inf"), float("nan"), 2.0, "3"])
def test_a_window_that_is_no_int_or_fraction_is_a_usage_error(F2, window):
    a, b = S("1 + x", F2), S("x^3 + x^4", F2)
    for call in (lambda: a.invert(window=window), lambda: b.divide(a, window=window)):
        with pytest.raises(UsageError, match="window must be an int or a Fraction"):
            call()


# ---------------------------------------------------------------------------
# frobenius
# ---------------------------------------------------------------------------

def test_frobenius_forward(F2):
    assert S("x^2 + x", F2).frobenius(1) == S("x^4 + x^2", F2)


def test_frobenius_inverse_halves_exponents(F2):
    assert S("x^2 + x", F2).frobenius(-1) == S("x + x^(1/2)", F2)


def test_frobenius_round_trip(F3, rng):
    a = sampling.random_series(rng, F3, terms=(1, 4), frac_depth=2)
    assert a.frobenius(-3).frobenius(3) == a


def test_frobenius_scales_precision(F2):
    a = S("x + O(x^3)", F2)
    assert a.frobenius(1).prec == 6
    assert a.frobenius(-1).prec == Fraction(3, 2)


def test_frobenius_extension_coefficients():
    # over F_4 = F_q (m = 1) the q-power map fixes every coefficient
    params = FieldParams.default(4)
    g = params.gen()
    s = PerfSeries.from_terms(params, {1: g})
    assert s.frobenius(1) == PerfSeries.from_terms(params, {4: g})
    # with m = 2 it does not: the coefficient moves through the automorphism
    ext = FieldParams.default(4, m=2)
    h = ext.gen()
    t = PerfSeries.from_terms(ext, {1: h}).frobenius(1)
    assert t.coefficient(4) == h ** 4
    assert h ** 4 != h


# ---------------------------------------------------------------------------
# valuation
# ---------------------------------------------------------------------------

def test_valuation_examples(F2):
    assert S("x^8 + x^6 + x^5 + x^3", F2).valuation() == 3
    assert PerfSeries.zero(F2).valuation() == INF
    assert S("x^(1/2) + x", F2).valuation() == Fraction(1, 2)


def test_valuation_zero_at_precision_is_lower_bound(F2):
    z = PerfSeries.zero(F2, prec=Fraction(7))
    v = z.valuation()
    assert isinstance(v, AtLeast)
    assert v.bound == 7
    assert not z.is_zero()
    assert z.is_zero_at_prec()


# ---------------------------------------------------------------------------
# equality and params
# ---------------------------------------------------------------------------

def test_equality_at_common_precision(F2):
    a = S("x + x^5 + O(x^9)", F2)
    b = S("x + O(x^3)", F2)
    assert a == b            # agree below 3
    c = S("x + x^2 + O(x^9)", F2)
    assert a != c


def test_params_mismatch_raises(F2, F3):
    with pytest.raises(ParameterMismatchError):
        PerfSeries.x(F2) + PerfSeries.x(F3)
    with pytest.raises(ParameterMismatchError):
        PerfSeries.x(F2) * PerfSeries.x(F3)


def test_params_of_one_configuration_are_one_object():
    # two FieldParams built apart are one field configuration and one
    # object; the same q with another modulus is not
    a = S("1 + x", FieldParams(2, 1, 1))
    b = S("x + x^3", FieldParams(2, 1, 1))
    other = S("x + x^3", FieldParams(2, 1, 1, (1, 1)))
    assert a.params is b.params and a.params.q == other.params.q
    for op in (PerfSeries.__add__, PerfSeries.__sub__, PerfSeries.__mul__,
               PerfSeries.divide):
        assert op(a, b) == op(a, S("x + x^3", a.params))
        with pytest.raises(ParameterMismatchError):
            op(a, other)


def test_exponent_lattice_enforced(F3):
    with pytest.raises(UsageError):
        PerfSeries.from_terms(F3, {Fraction(1, 2): 1})


def test_an_int_coefficient_is_a_rational_integer(F4):
    # k mod p in every field, not an element index: over F_4 the index 3
    # is g^2, but the integer 3 is 1 and the integer 2 is 0
    assert repr(PerfSeries.from_terms(F4, {0: 3})) == "1"
    assert repr(PerfSeries.from_terms(F4, {1: 2})) == "0"
    assert repr(PerfSeries.constant(F4, 3)) == "1"
    assert repr(PerfSeries.x(F4).scale(2)) == "0"
    assert repr(PerfSeries.from_terms(F4, {0: FFElement(F4, 3)})) == "g^2"


# ---------------------------------------------------------------------------
# algebraic properties (random sweeps)
# ---------------------------------------------------------------------------

_QM = [(2, 1), (3, 1), (4, 1), (4, 2)]


@pytest.mark.parametrize("q,m", _QM)
def test_field_axioms_on_series(q, m):
    params = FieldParams.default(q, m)
    rng = random.Random(q * 100 + m)
    for _ in range(25):
        a = sampling.random_series(rng, params, terms=(0, 3), allow_zero=True)
        b = sampling.random_series(rng, params, terms=(0, 3), allow_zero=True)
        c = sampling.random_series(rng, params, terms=(0, 3), allow_zero=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q,m", _QM)
def test_frobenius_is_ring_homomorphism(q, m):
    params = FieldParams.default(q, m)
    rng = random.Random(q * 10 + m)
    for e in (-2, -1, 1, 2):
        a = sampling.random_series(rng, params, terms=(1, 4), frac_depth=2)
        b = sampling.random_series(rng, params, terms=(1, 4), frac_depth=2)
        assert (a + b).frobenius(e) == a.frobenius(e) + b.frobenius(e)
        assert (a * b).frobenius(e) == a.frobenius(e) * b.frobenius(e)


@pytest.mark.parametrize("q,m", _QM)
def test_valuation_rules(q, m):
    params = FieldParams.default(q, m)
    rng = random.Random(q + m)
    for _ in range(25):
        a = sampling.random_series(rng, params, terms=(1, 3), frac_depth=1)
        b = sampling.random_series(rng, params, terms=(1, 3), frac_depth=1)
        assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        lo = min(a.valuation(), b.valuation())
        if not s.is_zero():
            assert s.valuation() >= lo
        if a.valuation() != b.valuation():
            assert s.valuation() == lo


def test_qth_root_of_every_coefficient():
    for q, m in [(2, 2), (3, 2), (9, 1), (8, 1)]:
        params = FieldParams.default(q, m)
        for idx in range(params.Q):
            root = params.frob(idx, -1)
            assert params.pow_int(root, params.q) == idx


# hypothesis: structural invariants of the canonical representation
@st.composite
def f2_series(draw):
    params = FieldParams.default(2)
    n = draw(st.integers(0, 5))
    items = {}
    for _ in range(n):
        num = draw(st.integers(-8, 16))
        dexp = draw(st.integers(0, 2))
        items[Fraction(num, 2 ** dexp)] = draw(st.integers(0, 1))
    return PerfSeries.from_terms(params, items)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f2_series(), f2_series())
def test_hypothesis_add_sub_cancel(a, b):
    assert (a + b) - b == a
    assert a - a == PerfSeries.zero(a.params)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(f2_series())
def test_hypothesis_canonical_grid(a):
    # minimal denominator exponent: either integral grid or some odd key
    assert a.dexp == 0 or any(k % a.params.q for k in a.terms)
    assert all(c != 0 for c in a.terms.values())


def test_every_map_of_series_shares_one_arithmetic():
    from carlitz import cauchy, funcspace, opring, series
    for cls in (funcspace.LinearSeries, funcspace.MultiFunction,
                opring.NormalForm, cauchy.DeltaPoly, cauchy.InitialData):
        assert issubclass(cls, series.SeriesMap)
        assert not {"__add__", "__sub__", "__neg__", "__eq__"} & set(vars(cls))
        assert cls.__hash__ is None
    assert not hasattr(series, "_add_maps")
