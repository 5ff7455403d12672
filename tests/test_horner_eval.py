"""``DeltaPoly.eval_at`` by Horner's rule against the flat monomial sum.

The library folds a delta polynomial in each indeterminate, last first;
the oracle ``oracles.ref_eval_at`` multiplies out each monomial c_e v^e
and adds them up.  With exact values (the brackets, [0] and [inf]
included, which is all any library caller passes) the two must agree in
terms, ``dexp``, ``prec`` and the type of ``prec``: a product with an exact
side adds exactly its valuation to the other side's precision, and a sum
keeps the least precision of its parts, in any order.  With truncated
values the nested value must agree with the flat one at their common
precision, and its ``prec`` may only be higher (the ultrametric
inequality).  Draws cover the 12 shipped fields, n = 1..3, degree at most
3 in each indeterminate, and exact, truncated and zero-at-precision
coefficients.  The work test counts the kernel products of one
evaluation.
"""

import itertools

from hypothesis import given, settings, strategies as st

from carlitz import INF, PerfSeries, bracket, series
from carlitz.brackets import INFINITY
from carlitz.cauchy import DeltaPoly
from carlitz.ffield import FieldParams
from oracles import assert_same, ref_eval_at
from test_quotient_kernel import SHIPPED_FIELDS, factors

COEFFICIENT_KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
                     "truncated-monomial")
INDICES = list(range(5)) + [INFINITY]


@st.composite
def polynomials(draw):
    """(params, poly): up to six monomials of degree at most 3 in each of
    n = 1..3 indeterminates."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    n = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                              max_size=6, unique=True))
    coefficient = factors(params, kinds=COEFFICIENT_KINDS)
    return params, DeltaPoly(params, n, {e: draw(coefficient) for e in exponents})


@st.composite
def truncated_values(draw, params, n):
    """n values, each a bracket ([0] and [inf] among them) or a drawn
    series, and at least one truncated."""
    values = []
    for _ in range(n):
        if draw(st.booleans()):
            value = bracket(params, draw(st.sampled_from(INDICES)))
            if draw(st.booleans()):
                value = value.truncate(draw(st.integers(0, 3 * params.q)))
        else:
            value = draw(factors(params, kinds=COEFFICIENT_KINDS))
        values.append(value)
    j = draw(st.integers(0, n - 1))
    if values[j].is_exact():
        values[j] = draw(factors(params, kinds=("truncated", "zero-at-prec",
                                                "truncated-monomial")))
    return values


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomials().flatmap(lambda drawn: st.tuples(
    st.just(drawn), st.tuples(*[st.sampled_from(INDICES)] * drawn[1].n))))
def test_at_brackets_the_nested_value_is_the_flat_sum(drawn):
    (params, poly), combo = drawn
    values = [bracket(params, i) for i in combo]
    assert_same(poly.eval_at(values), ref_eval_at(poly, values))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polynomials().flatmap(lambda drawn: st.tuples(
    st.just(drawn), truncated_values(drawn[0], drawn[1].n))))
def test_at_truncated_values_the_nested_value_is_no_less_precise(drawn):
    (params, poly), values = drawn
    got, want = poly.eval_at(values), ref_eval_at(poly, values)
    assert got == want
    assert (got.prec is INF if want.prec is INF
            else got.prec is INF or got.prec >= want.prec), (got, want)


def test_a_full_multilinear_q_takes_seven_products(monkeypatch):
    # 2^3 - 1 kernel products by Horner's rule; one per monomial and
    # factor (3 * 2^2) by the flat sum
    F3 = FieldParams.default(3)
    poly = DeltaPoly(F3, 3, {
        e: PerfSeries.from_terms(F3, {sum(e): 1, sum(e) + 2: 2})
        for e in itertools.product((0, 1), repeat=3)})
    values = [bracket(F3, i) for i in (1, 2, INFINITY)]
    calls = []
    kernel = series._product_terms

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(series, "_product_terms", counted)
    got = poly.eval_at(values)
    assert len(calls) == 7
    del calls[:]
    assert_same(got, ref_eval_at(poly, values))
    assert len(calls) == 12
