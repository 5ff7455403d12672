"""Differential tests of the quotient kernel's cuts and of the chain walk.

``series._quotient`` works out its precision, bound and refusals from the
full factor lists, then passes only over the factors that act.  Each
factor, above the line or below it, is x^k0 * lead * (1 + eps): the exact
parts 1 + eps count +1 above and -1 below and cancel, also those of
factors equal only up to a monomial and a scalar; a part whose least step
lands at or past the bound from the quotient's valuation is not passed
over, on either side (only its lead acts); and the dividend's seeds are
cut at the bound.  The oracle is the kernel's body before these cuts,
``oracles.ref_quotient``, which multiplies by every numerator and divides
by every divisor with the heap loop ``oracles.ref_long_division``.  Every
result must match it in terms, dexp and prec value and type, and every
refusal in exception type and text.

``series._long_division`` walks a divisor with one step as chains, one
residue class mod the step at a time, restarting a class's chain at its
next seed after a seed cancels it; it must give the heap loop's terms.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from carlitz import INF, FFElement, PerfSeries, series
from carlitz.series import _grid_bound, _long_division, _quotient
from oracles import ref_long_division, ref_quotient, ref_quotient_terms
from test_quotient_kernel import (SHIPPED_FIELDS, WINDOWS, assert_same_outcome,
                                  factors, outcome)
from test_series_kernel import ref_make

EXACT = ("exact", "monomial")
NONZERO = ("exact", "truncated", "monomial", "truncated-monomial")


def _copy(f):
    """An equal exact factor that is a different object, as two symbols
    built apart give."""
    return PerfSeries(f.params, f.dexp, dict(f.terms), f.prec)


def _twin(f, draw):
    """f cut at a precision above its terms: equal terms, not exact, so it
    never cancels against f."""
    top = Fraction(max(f.terms), f.params.q ** f.dexp)
    return f.truncate(top + Fraction(draw(st.integers(1, 6)), f.params.q))


# ---------------------------------------------------------------------------
# shared factors
# ---------------------------------------------------------------------------

@st.composite
def shared_quotients(draw):
    """(c, num, den): factors of any kind on both sides, plus exact factors
    that occur on both sides with unequal multiplicities and, for some,
    a truncated twin on the other side, shuffled together."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    c = draw(factors(params))
    num = draw(st.lists(factors(params), max_size=2))
    den = draw(st.lists(factors(params, kinds=NONZERO), max_size=2))
    for _ in range(draw(st.integers(1, 2))):
        f = draw(factors(params, kinds=EXACT))
        num += [_copy(f) for _ in range(draw(st.integers(0, 3)))]
        den += [_copy(f) for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            side = draw(st.sampled_from((num, den)))
            side.append(_twin(f, draw))
    assume(den)
    return c, draw(st.permutations(num)), draw(st.permutations(den))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shared_quotients(), WINDOWS, st.booleans())
def test_shared_factors_cancel_as_the_oracle_divides(quotient, window, negate):
    c, num, den = quotient
    assert_same_outcome(outcome(_quotient, c, num, den, window, negate),
                        outcome(ref_quotient, c, num, den, window, negate))


def _multiple(f, draw):
    """s * x^e * f for a drawn scalar s != 0 and exponent e in Z[1/q]: an
    exact factor with f's part 1 + eps, on its own grid."""
    params = f.params
    e = Fraction(draw(st.integers(-6, 6)), params.q ** draw(st.integers(0, 2)))
    return f.shift(e).scale(FFElement(params, draw(st.integers(1, params.Q - 1))))


@st.composite
def multiples_on_both_sides(draw):
    """(c, num, den, balanced): exact factors s * x^e * f on both sides,
    each with its own s and e, for one or two drawn f.  When ``balanced``
    each f has as many multiples above the line as below and nothing else
    is on either side; otherwise the counts are unequal and factors of any
    kind join them."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    c = draw(factors(params))
    balanced = draw(st.booleans())
    num, den = [], []
    if not balanced:
        num = draw(st.lists(factors(params), max_size=2))
        den = draw(st.lists(factors(params, kinds=NONZERO), max_size=1))
    for _ in range(draw(st.integers(1, 2))):
        f = draw(factors(params, kinds=EXACT))
        above = draw(st.integers(1, 2))
        below = above if balanced else draw(st.integers(0, 3))
        num += [_multiple(f, draw) for _ in range(above)]
        den += [_multiple(f, draw) for _ in range(below)]
    assume(den)
    return c, draw(st.permutations(num)), draw(st.permutations(den)), balanced


@settings(max_examples=40, deadline=None, derandomize=True)
@given(multiples_on_both_sides(), WINDOWS, st.booleans())
def test_multiples_of_one_factor_cancel_as_the_oracle_divides(quotient, window,
                                                              negate):
    c, num, den, balanced = quotient
    with mock.patch.object(series, "_product_terms",
                           wraps=series._product_terms) as products, \
            mock.patch.object(series, "_long_division",
                              wraps=series._long_division) as divisions:
        got = outcome(_quotient, c, num, den, window, negate)
    assert_same_outcome(got, outcome(ref_quotient, c, num, den, window, negate))
    if balanced:
        # every part cancels: only c's seeds, moved and scaled, are left
        assert products.call_count == divisions.call_count == 0


# ---------------------------------------------------------------------------
# factors whose least step lands at the bound
# ---------------------------------------------------------------------------

@st.composite
def factors_at_the_bound(draw, above):
    """(c, num, den, window, negate): a quotient with one more factor,
    above the line when ``above`` and below it otherwise, whose least step
    from the quotient's valuation lands one unit below, at or one unit
    past the bound.  A divisor is exact; a numerator may be truncated at a
    precision that leaves the bound where it is."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    c = draw(factors(params, kinds=NONZERO))
    num = draw(st.lists(factors(params, kinds=NONZERO), max_size=2))
    den = draw(st.lists(factors(params, kinds=NONZERO), max_size=2))
    window = draw(st.one_of(st.integers(1, 12), st.builds(
        Fraction, st.integers(1, 40), st.sampled_from((2, 3, 7)))))
    # a monomial x^0 does not move the bound above the valuation
    probe = ref_make(params, 0, {0: params.one_idx}, INF)
    d, terms, prec = ref_quotient_terms(c, num, den + [probe], window)
    assert terms
    reach = _grid_bound(prec, params.q ** d) - min(terms)
    miss = draw(st.sampled_from((-1, 0, 1)))
    assume(reach + miss >= 1)
    k0 = draw(st.integers(-2 * params.q ** d, 2 * params.q ** d))
    steps = [reach + miss] + draw(st.lists(st.integers(reach + miss + 1,
                                                       2 * reach + 4),
                                           max_size=2, unique=True))
    coeffs = draw(st.lists(st.integers(1, params.Q - 1),
                           min_size=len(steps) + 1, max_size=len(steps) + 1))
    prec = INF
    if above and draw(st.booleans()):
        # its own relative precision lies past the bound
        prec = Fraction(k0 + 2 * reach + 8, params.q ** d)
    factor = ref_make(params, d, dict(zip([k0] + [k0 + j for j in steps],
                                          coeffs)), prec)
    side = num if above else den
    side.insert(draw(st.integers(0, len(side))), factor)
    return c, num, den, window, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factors_at_the_bound(above=False))
def test_divisors_that_reach_the_bound_fold_as_the_oracle_divides(division):
    c, num, den, window, negate = division
    assert_same_outcome(_quotient(c, num, den, window, negate),
                        ref_quotient(c, num, den, window, negate))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factors_at_the_bound(above=True))
def test_numerators_that_reach_the_bound_fold_as_the_oracle_multiplies(product):
    c, num, den, window, negate = product
    assert_same_outcome(_quotient(c, num, den, window, negate),
                        ref_quotient(c, num, den, window, negate))


# ---------------------------------------------------------------------------
# the chain walk of a one-step divisor
# ---------------------------------------------------------------------------

@st.composite
def one_step_divisions(draw):
    """(params, seeds, steps, bound, cancelled): a one-step division whose
    seeds include, for some classes, one that cancels the class's chain
    mid-way and a later one that restarts it; ``cancelled`` holds the
    exponents where a chain dies."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    log, exp, neg = params._log, params._exp, params._neg
    n = params.Q - 1
    j = draw(st.integers(1, 5))
    lu = draw(st.integers(0, n - 1))
    bound = draw(st.integers(8, 60))
    seeds = {}
    for k in draw(st.lists(st.integers(-10, bound + 5), max_size=8)):
        seeds[k] = draw(st.integers(1, n))
    cancelled, classes = set(), set()
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(-10, bound - 1))
        if start % j in classes:
            continue
        classes.add(start % j)
        hops = draw(st.integers(1, 4))
        restart = draw(st.integers(1, 6))
        c = draw(st.integers(1, n))
        # with no other seed of its class up to there, the chain from
        # start reaches start + hops j with u^hops c
        seeds = {k: x for k, x in seeds.items()
                 if k % j != start % j or k > start + hops * j}
        seeds[start] = c
        dies = start + hops * j
        seeds[dies] = neg[exp[(log[c] + hops * lu) % n]]
        seeds[dies + restart * j] = draw(st.integers(1, n))
        if dies < bound:
            cancelled.add(dies)
    return params, seeds, [(j, lu)], bound, cancelled


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_step_divisions())
def test_one_step_chains_restart_as_the_heap_loop_divides(division):
    params, seeds, steps, bound, cancelled = division
    got = _long_division(params, seeds, steps, bound)
    want = ref_long_division(params, seeds, steps, bound)
    assert got == want
    assert not cancelled & set(got)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(lambda params: st.tuples(
           st.just(params),
           st.dictionaries(st.integers(-10, 50), st.integers(1, params.Q - 1),
                           max_size=10),
           st.lists(st.tuples(st.integers(1, 9),
                              st.integers(0, params.Q - 2)),
                    min_size=1, max_size=3, unique_by=lambda s: s[0]),
           st.integers(-5, 60))))
def test_long_division_matches_the_heap_loop(division):
    params, seeds, steps, bound = division
    steps = sorted(steps)
    assert (_long_division(params, seeds, steps, bound)
            == ref_long_division(params, seeds, steps, bound))
