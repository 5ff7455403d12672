"""Every stated precision is a true guarantee.

A truncated series a stands for every series that agrees with it below
``a.prec``.  Here each truncated input is completed at random: random
terms are added at or above its precision, and the completion A is exact.
An operation f is sound when f(a) == f(A) at f(a)'s precision, for every
completion.  Exact inputs are their own completions.  Where f takes a
window (``divide``, ``invert``, ``_twisted_step`` and ``_quotient``), f(A)
is computed with a window wider than any relative precision the drawn
inputs can give, so that f(A) is known at least as far as f(a) claims.

Unlike the differential tests, which compare each precision rule with an
oracle written from the same rules, this checks the rules against the
series they describe.  Inputs come from ``test_quotient_kernel.factors``
over the 12 shipped fields; a refusal of f(a) is not a stated precision
and is skipped.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from carlitz import INF, PerfSeries
from carlitz.brackets import pochhammer
from carlitz.errors import CarlitzError
from carlitz.ffield import FFElement
from carlitz.series import _quotient, _twisted_step
from test_quotient_kernel import SHIPPED_FIELDS, factors

#: the window f(A) is computed with: above the default invert window and
#: above the relative precision of any drawn input
WIDE = 48

#: every kind of ``factors`` but the exact zero, which has no other
#: completion and is refused as a divisor
KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
         "truncated-monomial")


@st.composite
def completed(draw, params):
    """A drawn series a and an exact completion A of it: a's terms and up
    to three random terms at exponents in [a.prec, a.prec + 3)."""
    a = draw(factors(params, kinds=KINDS))
    if a.prec is INF:
        return a, a
    terms = dict(a.items())
    for _ in range(draw(st.integers(0, 3))):
        scale = params.q ** draw(st.integers(0, 2))
        low = -(-a.prec.numerator * scale // a.prec.denominator)
        e = Fraction(low + draw(st.integers(0, 3 * scale)), scale)
        terms[e] = FFElement(params, draw(st.integers(1, params.Q - 1)))
    return a, PerfSeries.from_terms(params, terms)


def operands(count):
    """A field and ``count`` (a, A) pairs over it."""
    return st.sampled_from(SHIPPED_FIELDS).flatmap(
        lambda params: st.tuples(*[completed(params)] * count))


def assert_sound(f_a, f_A):
    """f(A) is known at least as far as f(a), and agrees with it there.
    Each side is a thunk; a refusal of f(a) states no precision."""
    try:
        f_a = f_a()
    except CarlitzError:
        return
    f_A = f_A()
    # an exact f(a) is compared as far as f(A)'s window reaches
    assert f_a.prec is INF or f_A.prec >= f_a.prec, (f_a, f_A)
    assert f_A == f_a, (f_a, f_A)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operands(2), st.integers(1, 2))
def test_ring_operations_and_frobenius(pairs, e):
    (a, A), (b, B) = pairs
    assert_sound(lambda: a + b, lambda: A + B)
    assert_sound(lambda: a - b, lambda: A - B)
    assert_sound(lambda: a * b, lambda: A * B)
    for k in (e, -e):
        assert_sound(lambda: a.frobenius(k), lambda: A.frobenius(k))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(operands(2))
def test_divide_and_invert(pairs):
    (a, A), (b, B) = pairs
    assert_sound(lambda: a.divide(b), lambda: A.divide(B, window=WIDE))
    assert_sound(lambda: b.invert(), lambda: B.invert(window=WIDE))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(operands(1), st.integers(0, 2))
def test_pochhammer(pairs, m):
    ((a, A),) = pairs
    assert_sound(lambda: pochhammer(a, m), lambda: pochhammer(A, m))


def quotient(c, num, den, window):
    return PerfSeries._canonical(c.params, *_quotient(c, num, den, None, window))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operands(5), st.booleans())
def test_twisted_step_and_two_factor_quotient(pairs, negate):
    (c, C), (n1, N1), (n2, N2), (d1, D1), (d2, D2) = pairs
    assert_sound(lambda: _twisted_step(c, [n1], [d1], None, negate),
                 lambda: _twisted_step(C, [N1], [D1], WIDE, negate))
    assert_sound(lambda: quotient(c, (n1, n2), (d1, d2), None),
                 lambda: quotient(C, (N1, N2), (D1, D2), WIDE))
