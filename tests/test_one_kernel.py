"""Differential tests of the one quotient kernel against the forms it replaced.

``series._quotient`` returns the canonical series, so every caller takes
its result as it is: ``divide`` and ``invert``, the symbol quotients of
``hyper_coeff``, each slot of ``MultiFunction.evaluate``, and the
q-twisted step of the hypergeometric stream and of the Cauchy solver,
which is ``_quotient(...).frobenius(1)``.  D_n, L_n, <a>_m and every case
of (alpha)_n are one kernel call from the unit over their two-term
factors.  The oracles (``oracles``) are the forms these replaced: the
kernel's (dexp, terms, prec) tuple wrapped in ``PerfSeries._canonical``,
the step as a function of its own on that tuple, and the symbols as
pairwise products of their factors, with (alpha)_n, alpha >= 1, on a path
of its own.  Every result must match exactly (terms, dexp, prec value and
type), and every refusal must have the same exception type and text, over
the 12 shipped fields.
"""

import random

from hypothesis import given, settings, strategies as st

from carlitz import (PerfSeries, carlitz_D, carlitz_L, hyper, pochhammer,
                     pochhammer_thakur, sampling)
from oracles import (ref_kernel_D, ref_kernel_evaluate, ref_kernel_hyper_coeff,
                     ref_kernel_L, ref_kernel_pochhammer,
                     ref_kernel_pochhammer_thakur, ref_quotient,
                     ref_twisted_step)
from test_hyper_stream import families
from test_quotient_kernel import SHIPPED_FIELDS, WINDOWS, as_window, factors
from test_quotient_kernel import assert_same_outcome as assert_same
from test_quotient_kernel import outcome, quotient_kwargs, twisted_step


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(
           lambda f: st.tuples(factors(f), factors(f))),
       quotient_kwargs())
def test_divide_and_invert(ab, kwargs):
    a, b = ab
    window = as_window(kwargs, b).get("window")
    one = PerfSeries.one(a.params)
    assert_same(outcome(a.divide, b, window),
                outcome(ref_quotient, a, (), (b,), window))
    assert_same(outcome(b.invert, window),
                outcome(ref_quotient, one, (), (b,), window))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(lambda f: st.tuples(
           factors(f), st.lists(factors(f), max_size=2),
           st.lists(factors(f), min_size=1, max_size=2))),
       WINDOWS, st.booleans())
def test_twisted_step(step, window, negate):
    c, num, den = step
    assert_same(outcome(twisted_step, c, num, den, window, negate),
                outcome(ref_twisted_step, c, num, den, window, negate))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS).flatmap(factors), st.integers(-1, 3))
def test_pochhammer(a, m):
    assert_same(outcome(pochhammer, a, m), outcome(ref_kernel_pochhammer, a, m))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS),
       st.one_of(st.integers(-1, 7), st.sampled_from((21, 40))))
def test_carlitz_factorials(params, n):
    assert_same(outcome(carlitz_D, params, n), outcome(ref_kernel_D, params, n))
    assert_same(outcome(carlitz_L, params, n), outcome(ref_kernel_L, params, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS),
       st.one_of(st.integers(-6, 6), st.sampled_from((22, 3000))),
       st.integers(-1, 4))
def test_pochhammer_thakur(params, alpha, n):
    # alpha >= 1 is the exact product, -n <= alpha <= 0 divides by the
    # factors of L, alpha <= 0 < n + alpha vanishes; n + alpha - 1 > 20
    # and n < 0 are refused
    assert_same(outcome(pochhammer_thakur, params, alpha, n),
                outcome(ref_kernel_pochhammer_thakur, params, alpha, n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(families(), st.integers(0, 4), st.sampled_from((None, 7, 20)))
def test_hyper_coeff(hp, m, window):
    # every h_m is m steps of the stream from h_0; the oracle takes the
    # symbol quotient directly for truncated parameters and at m = 0
    assert_same(outcome(hyper.hyper_coeff, hp, m, window),
                outcome(ref_kernel_hyper_coeff, hp, m, window))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(1, 2),
       st.integers(0, 2 ** 32), st.sampled_from((None, 5, 20)),
       st.integers(-1, 1))
def test_evaluate(params, n, seed, window, extra):
    # extra != 0 passes one s-argument too many or too few
    rng = random.Random(seed)
    f = sampling.random_multifunction(rng, params, n, 3, 3)
    z = sampling.random_series(rng, params, terms=(1, 2), lo=1, hi=3)
    if rng.random() < 0.5:
        z = z.truncate(z.valuation() + rng.randint(1, 6))
    svec = [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=2)
            for _ in range(n + extra)]
    assert_same(outcome(f.evaluate, z, svec, window),
                outcome(ref_kernel_evaluate, f, z, svec, window))
