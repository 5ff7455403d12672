"""Exact operands skip precision arithmetic.

An exact series (prec INF) contributes only its valuation to the
precision of a product, and exact times exact is exact at once, so the
products, Frobenius images, quotients and q-twisted steps test exactness
first.  Every infinite precision is the one ``INF`` object, which makes
that test an identity check.

Products, quotients and q-twisted steps are compared with their oracles
in ``test_series_kernel`` and ``test_quotient_kernel``; here the
Frobenius draws exact, truncated, zero-at-precision and exact-zero
operands over the 12 shipped fields and is compared with the Frobenius of
``oracles.MakePath`` (prec times Fraction(q)^e).  The work tests count
the Fractions the library builds.

The exact one is one object per field, ``PerfSeries.one(params)``, and a
product with it returns the other operand; a product with an exact zero
returns the zero, and no product of a problem-file solve hands the kernel
an empty term map.  Products with the unit are
compared with ``MakePath.mul``, which runs the kernel, over every shipped
field and every kind.  Every exact one built from terms (parsed,
``constant`` or ``from_terms``) is that object, while a one that
arithmetic produces still takes the kernel.  Work tests check that no
product in an admissibility scan, an operator normalisation or a Cauchy
solve of a problem file hands the kernel the unit's term map.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, ParameterMismatchError, PerfSeries, bracket, series
from carlitz.cauchy import (DeltaPoly, admissibility_check, cauchy_solve,
                            hypergeometric_equation, parse_problem)
from carlitz.opring import D, TAU, OperatorWord, normalize
from carlitz.series import _quotient
from carlitz.textio import parse_series
from cli_golden import PERFBENCH_DATA
from oracles import MakePath, assert_same
from test_quotient_kernel import SHIPPED_FIELDS, factors

KINDS = ("exact", "truncated", "zero-at-prec", "exact-zero", "monomial")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(lambda f: factors(f, kinds=KINDS)),
       st.integers(1, 3))
def test_frobenius_matches_the_oracle(a, e):
    for k in (e, -e):
        assert_same(a.frobenius(k), MakePath.frobenius(a, k))


@pytest.mark.parametrize("prec", [3, Fraction(5, 2), Fraction(-7, 3)],
                         ids=["int", "fraction", "negative"])
@pytest.mark.parametrize("e", [1, 2, -1, -2])
def test_frobenius_keeps_the_type_of_prec(F3, prec, e):
    a = PerfSeries.from_terms(F3, {Fraction(-8, 3): 1, -2: 2}, prec=prec)
    assert_same(a.frobenius(e), MakePath.frobenius(a, e))
    assert type(a.frobenius(e).prec) is Fraction


def test_infinite_precisions_are_the_one_inf(F2):
    x = PerfSeries.x(F2)
    assert PerfSeries(F2, 0, {1: 1}, float("inf")).prec is INF
    assert PerfSeries.zero(F2, prec=float("inf")).prec is INF
    assert PerfSeries.from_terms(F2, {1: 1}, prec=float("inf")).prec is INF
    # the oracle's product holds an infinity of its own making
    assert_same(MakePath.mul(x, x) * x, x.shift(2))
    monomial = x.shift(3)
    assert (x * monomial).prec is INF
    assert x.divide(monomial).prec is INF
    assert _quotient(x, [x], [monomial], None).frobenius(1).prec is INF
    assert (x * PerfSeries.zero(F2, prec=4)).prec == 5
    assert (PerfSeries.zero(F2) * PerfSeries.zero(F2, prec=4)).prec is INF


# ---------------------------------------------------------------------------
# the exact one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_product_with_the_unit_is_the_other_operand(params, kind, data):
    a = data.draw(factors(params, kinds=(kind,)))
    one = PerfSeries.one(params)
    assert PerfSeries.one(params) is one
    for got, want in ((a * one, MakePath.mul(a, one)),
                      (one * a, MakePath.mul(one, a))):
        assert got is a
        assert_same(got, want)


@pytest.fixture
def kernel_operands(monkeypatch):
    """The (ta, tb) term maps series._product_terms receives, as a list,
    recorded from here on."""
    operands = []
    kernel = series._product_terms

    def recorded(params, ta, tb, bound):
        operands.append((ta, tb))
        return kernel(params, ta, tb, bound)
    monkeypatch.setattr(series, "_product_terms", recorded)
    return operands


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_a_one_built_from_terms_is_the_unit(params, kernel_operands):
    q = params.q
    a = PerfSeries(params, 1, {-q: 1, 1: params.minus_one_idx}, Fraction(7, 2))
    unit = PerfSeries.one(params)
    for other in (parse_series("1", params), PerfSeries.constant(params, 1),
                  PerfSeries.from_terms(params, {0: 1}),
                  PerfSeries.from_terms(params, {Fraction(1, q): 0, 0: 1})):
        assert other is unit
        assert a * other is a and other * a is a
    assert not kernel_operands
    # a one that arithmetic produces is another object, and the kernel's
    # product with it is the same series
    made = PerfSeries.x(params).shift(-1)
    assert made is not unit
    assert_same(made, unit)
    assert_same(a * made, a)
    assert_same(made * a, a)
    assert len(kernel_operands) == 2


def test_the_unit_of_another_field_is_refused(F2, F3):
    x = PerfSeries.x(F2)
    for left, right in ((PerfSeries.one(F3), x), (x, PerfSeries.one(F3)),
                        (PerfSeries.one(F3), PerfSeries.one(F2))):
        with pytest.raises(ParameterMismatchError):
            left * right


def test_no_product_hands_the_kernel_the_unit(F2, kernel_operands):
    # the x^0 powers of eval_at, the seed of pow, the unit coefficient of
    # -prod(t_j - b_j) (the negated unit is the unit over F_2) and the
    # starting coefficient of normalize are all the one object
    a = PerfSeries.from_terms(F2, {3: 1, Fraction(1, 2): 1})
    b = PerfSeries.from_terms(F2, {0: 1, 5: 1})
    eq = hypergeometric_equation(F2, [a] * 3, [b] * 3, 3)
    assert admissibility_check(eq, 4).status == "ok"
    scanned = len(kernel_operands)
    assert not normalize(OperatorWord(0, [D] * 4 + [TAU] * 4), F2).is_zero()
    assert 0 < scanned < len(kernel_operands)
    unit = {0: F2.one_idx}
    assert not [pair for pair in kernel_operands if unit in pair]


def test_a_problem_file_solve_hands_the_kernel_no_one(kernel_operands):
    # the 1s a problem file writes read as the unit, so a solve of one
    # multiplies by none of them
    text = (PERFBENCH_DATA / "problem_n3.txt").read_text()
    eq, init, trunc_m, trunc_i = parse_problem(text)
    assert cauchy_solve(eq, init, trunc_m, trunc_i).coeffs
    assert kernel_operands
    unit = {0: eq.params.one_idx}
    assert not [pair for pair in kernel_operands if unit in pair]


# ---------------------------------------------------------------------------
# the exact zero
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
def test_a_product_with_an_exact_zero_is_the_exact_zero(params, kernel_operands):
    q = params.q
    zero = PerfSeries.zero(params)
    for other in (PerfSeries(params, 1, {-q: 1, 1: params.minus_one_idx}, INF),
                  PerfSeries(params, 1, {-q: 1, 1: params.minus_one_idx},
                             Fraction(7, 2)),
                  PerfSeries.zero(params, prec=Fraction(5, q))):
        for got in (zero * other, other * zero):
            assert_same(got, zero)
            assert got.dexp == 0
    assert not kernel_operands


def test_a_problem_file_solve_hands_the_kernel_no_empty_map(kernel_operands):
    # [0] is the exact zero, and the scan and the steps multiply by it
    text = (PERFBENCH_DATA / "problem_n3.txt").read_text()
    eq, init, trunc_m, trunc_i = parse_problem(text)
    assert cauchy_solve(eq, init, trunc_m, trunc_i).coeffs
    assert kernel_operands
    assert not [pair for pair in kernel_operands if not all(pair)]


# ---------------------------------------------------------------------------
# work: exact operands build no Fraction
# ---------------------------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """The number of Fractions carlitz.series constructs, as a one-element
    list, counted from here on."""
    count = [0]

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            count[0] += 1
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(series, "Fraction", Counting)
    return count


def test_exact_products_build_no_fraction(F3, built):
    a = PerfSeries.from_terms(F3, {Fraction(1, 3): 1, 2: 2})
    b = PerfSeries.from_terms(F3, {-1: 2, Fraction(5, 9): 1})
    built[0] = 0
    for left, right in ((a, b), (b, a), (a, a), (a, PerfSeries.zero(F3))):
        assert (left * right).prec is INF
    assert built[0] == 0


def test_exact_times_truncated_builds_one_fraction(F3, built):
    a = PerfSeries.from_terms(F3, {Fraction(1, 3): 1, 2: 2})
    t = PerfSeries.from_terms(F3, {1: 1, 3: 2}, prec=Fraction(9, 2))
    built[0] = 0
    assert (a * t).prec == (t * a).prec == Fraction(9, 2) + Fraction(1, 3)
    assert built[0] == 2


def test_eval_at_exact_coefficients_builds_no_fraction(F2, built):
    a = PerfSeries.from_terms(F2, {3: 1, Fraction(1, 2): 1})
    b = PerfSeries.from_terms(F2, {0: 1, 5: 1})
    eq = hypergeometric_equation(F2, [a, b], [b, a])
    values = [bracket(F2, 2), bracket(F2, 3)]
    built[0] = 0
    for poly in (eq.P, eq.Q):
        assert isinstance(poly, DeltaPoly)
        assert poly.eval_at(values).is_exact()
    assert built[0] == 0
