"""Differential tests of the quotient kernel.

``PerfSeries.divide`` and ``invert`` are long division seeded with the
dividend's terms, and the hypergeometric stream and the Cauchy solver take
one q-twisted step, the Frobenius image of the same kernel's quotient,
``series._quotient(...).frobenius(1)``.  The
oracles are the bodies these replaced, kept in ``oracles``: the inverse
built as a series of its own, the quotient as a product with it, and the
two step expressions on top of them.  Every result must match its oracle
exactly (terms, dexp, prec value and type), and every refusal must have the
same exception type and text, over every shipped (q, m) and the field
without an addition table.  Quotients are also checked against the
schoolbook product and Newton inverse of ``test_series_kernel``, which
share no code with either.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from carlitz import INF, PerfSeries, bracket, hyper, sampling
from carlitz.brackets import carlitz_D
from carlitz.cauchy import (DeltaPoly, EvolutionEquation, InitialData,
                            admissibility_check, cauchy_solve,
                            hypergeometric_equation)
from carlitz.errors import CarlitzError
from carlitz.funcspace import MultiFunction
from carlitz.series import _quotient
from oracles import (assert_same, ref_cauchy_coeffs, ref_cauchy_step,
                     ref_divide, ref_hyper_coeff, ref_invert, ref_stream_step,
                     window_of)
from test_series_kernel import FIELDS, ref_make
from test_series_kernel import ref_invert as schoolbook_invert
from test_series_kernel import ref_mul as schoolbook_mul

SHIPPED_FIELDS = FIELDS[:12]


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
         "truncated-monomial", "exact-zero")
TERM_COUNTS = {"exact": (2, 5), "truncated": (1, 5), "zero-at-prec": (0, 0),
               "monomial": (1, 1), "truncated-monomial": (1, 1),
               "exact-zero": (0, 0)}


@st.composite
def factors(draw, params, kinds=KINDS):
    """A series of the given kind.  Finite precisions sit on the series'
    grid, on a finer q-power grid, or have a denominator prime to p."""
    kind = draw(st.sampled_from(kinds))
    dexp = draw(st.integers(0, 2))
    scale = params.q ** dexp
    lo, hi = TERM_COUNTS[kind]
    keys = draw(st.lists(st.integers(-2 * scale, 4 * scale),
                         min_size=lo, max_size=hi, unique=True))
    coeffs = draw(st.lists(st.integers(1, params.Q - 1),
                           min_size=len(keys), max_size=len(keys)))
    if kind in ("exact", "monomial", "exact-zero"):
        prec = INF
    else:
        den = draw(st.sampled_from((scale, scale * params.q,
                                    7 if params.p != 7 else 11)))
        top = Fraction(max(keys), scale) if keys else Fraction(-3)
        prec = top + Fraction(draw(st.integers(1, 12)), den)
    return ref_make(params, dexp, dict(zip(keys, coeffs)), prec)


@st.composite
def quotient_kwargs(draw):
    """No request; a finite absolute prec, which :func:`as_window` turns
    into the window that asks for it; an int or a Fraction window; and the
    refused windows."""
    mode = draw(st.sampled_from(("default", "prec", "window-int",
                                 "window-fraction", "window-bad")))
    if mode == "default":
        return {}
    if mode == "prec":
        return {"prec": Fraction(draw(st.integers(-8, 40)),
                                 draw(st.sampled_from((1, 2, 3, 7))))}
    if mode == "window-int":
        return {"window": draw(st.integers(1, 12))}
    if mode == "window-fraction":
        return {"window": Fraction(draw(st.integers(1, 40)),
                                   draw(st.sampled_from((2, 3, 7))))}
    return {"window": draw(st.integers(-3, 0))}


def as_window(kwargs, divisor):
    """``kwargs`` with an absolute ``prec`` P asked for as the window
    P + val(divisor), the one precision request of a division."""
    if "prec" in kwargs:
        return {"window": window_of(kwargs["prec"], divisor)}
    return kwargs


WINDOWS = st.one_of(st.none(), st.integers(-1, 12),
                    st.builds(Fraction, st.integers(1, 40), st.sampled_from((2, 3, 7))))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CarlitzError as exc:
        return type(exc), str(exc)


def twisted_step(c, num, den, window, negate=False):
    """(c * prod(num) / prod(den))^q as the stream and the Cauchy solver
    take it: the Frobenius image of one quotient."""
    return _quotient(c, num, den, window, negate).frobenius(1)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same(got, want)


def _small(params, kwargs):
    """Keep the Fraction-bound schoolbook inverse to modest windows."""
    return params.q <= 3 or kwargs.get("window", kwargs.get("prec", 32)) <= 12


# ---------------------------------------------------------------------------
# divide and invert
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(factors(f), factors(f))),
       quotient_kwargs())
def test_divide_matches_the_product_with_a_built_inverse(ab, kwargs):
    a, b = ab
    kwargs = as_window(kwargs, b)
    assert_same_outcome(outcome(a.divide, b, **kwargs),
                        outcome(ref_divide, a, b, **kwargs))
    assert_same_outcome(outcome(b.invert, **kwargs),
                        outcome(ref_invert, b, **kwargs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(
           lambda f: st.tuples(factors(f), factors(f, kinds=KINDS[:5]))),
       st.sampled_from(("default", "prec", "window")), st.integers(1, 24))
def test_divide_matches_the_schoolbook_product_and_inverse(ab, mode, size):
    a, b = ab
    kwargs = {} if mode == "default" else {mode: Fraction(size, 2)}
    assume(_small(a.params, kwargs))
    kwargs = as_window(kwargs, b)
    try:
        want = schoolbook_mul(a, schoolbook_invert(b, **kwargs))
    except ValueError:
        assert isinstance(outcome(a.divide, b, **kwargs), tuple)
        assert isinstance(outcome(ref_divide, a, b, **kwargs), tuple)
        return
    assert_same(a.divide(b, **kwargs), want)
    assert_same(ref_divide(a, b, **kwargs), want)


# ---------------------------------------------------------------------------
# the q-twisted step
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(
           factors(f), st.lists(factors(f), max_size=2),
           st.lists(factors(f), min_size=1, max_size=3))),
       WINDOWS)
def test_twisted_step_matches_the_stream_step(step, window):
    c, num, den = step
    assert_same_outcome(outcome(twisted_step, c, num, den, window),
                        outcome(ref_stream_step, c, num, den, window))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(
           lambda f: st.tuples(factors(f), factors(f), factors(f))),
       WINDOWS)
def test_twisted_step_matches_the_cauchy_step(step, window):
    c, pe, qe = step
    assert_same_outcome(outcome(twisted_step, c, [pe], [qe], window, negate=True),
                        outcome(ref_cauchy_step, c, pe, qe, window))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(0, 2 ** 32),
       st.sampled_from((None, 20, 7)))
def test_stream_matches_the_built_inverse_steps(params, seed, window):
    rng = random.Random(seed)
    a_list = [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
              for _ in range(rng.randint(0, 2))]
    b_list = [sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
              for _ in range(rng.randint(0, 2))]
    hp = hyper.HyperParams(params, a_list, b_list)
    got = hyper.hyper_series(hp, 5, window=window)
    rel = Fraction(32 if window is None else window) / params.q
    h = ref_hyper_coeff(hp, 0, window)
    for m in range(6):
        assert_same(got.coeffs.get(m, PerfSeries.zero(params)), h)
        b_m = bracket(params, m)
        h = ref_stream_step(h, [b_m - a for a in a_list],
                            [b_m - bracket(params, -1)] + [b_m - b for b in b_list],
                            rel)


# ---------------------------------------------------------------------------
# the Cauchy solver
# ---------------------------------------------------------------------------

def _coefficient(rng, params, truncated):
    s = sampling.random_series(rng, params, terms=(1, 3), lo=0, hi=3)
    if truncated:
        s = s.truncate(s.valuation() + Fraction(rng.randint(1, 4 * params.q),
                                                rng.choice((1, params.q))))
    return s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(1, 2), st.integers(0, 2 ** 32),
       st.sampled_from((None, 5, Fraction(17, 2))))
def test_cauchy_solve_with_truncated_coefficients(params, n, seed, window):
    rng = random.Random(seed)
    monomials = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(3)]
    P = DeltaPoly(params, n, {e: _coefficient(rng, params, rng.random() < 0.6)
                              for e in monomials[:2]})
    Q = DeltaPoly(params, n, {e: _coefficient(rng, params, rng.random() < 0.6)
                              for e in monomials[1:]})
    assume(not P.is_zero() and not Q.is_zero())
    eq = EvolutionEquation(params, n, P, Q)
    init = InitialData(params, n, {
        tuple(rng.randint(0, 1) for _ in range(n)):
            _coefficient(rng, params, rng.random() < 0.5) for _ in range(2)})
    trunc_m, trunc_i = rng.randint(1, 3), 3
    assume(admissibility_check(eq, trunc_i).ok)
    got = outcome(cauchy_solve, eq, init, trunc_m, trunc_i, window=window)
    want = outcome(ref_cauchy_coeffs, eq, init, trunc_m, trunc_i, window)
    if isinstance(want, tuple):
        assert got == want
        return
    want = MultiFunction(params, n, trunc_m, trunc_i, want).coeffs
    assert sorted(got.coeffs) == sorted(want)
    for key, c in want.items():
        assert_same(got.coeffs[key], c)


@settings(max_examples=36, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(0, 2 ** 32))
def test_cauchy_diagonal_is_the_hypergeometric_stream(params, seed):
    # c_(m+1) = (c_m ([m]-a)/([m]-b))^q and D_(m+1) h_(m+1) obey one step
    rng = random.Random(seed)
    a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
    b = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
    eq = hypergeometric_equation(params, [a], [b])
    u = cauchy_solve(eq, InitialData.delta(params, 1), 5, 5)
    h = hyper.hyper_series(hyper.HyperParams(params, [a], [b]), 5)
    zero = PerfSeries.zero(params)
    for m in range(6):
        diagonal = u.coeffs.get((m, m), zero)
        assert diagonal.terms or diagonal.is_zero()  # the check is not vacuous
        assert diagonal == carlitz_D(params, m) * h.coeffs.get(m, zero), m


# ---------------------------------------------------------------------------
# hyper_eval stops at its tail bound
# ---------------------------------------------------------------------------

def test_hyper_eval_reads_the_stream_up_to_its_tail_bound(F2, monkeypatch):
    a = ref_make(F2, 1, {6: 1, 1: 1}, INF)          # x^3 + x^(1/2)
    b = ref_make(F2, 0, {0: 1, 5: 1}, INF)          # 1 + x^5
    z = ref_make(F2, 0, {20: 1}, INF)               # x^20
    hp = hyper.HyperParams(F2, [a], [b])
    dividends = []

    def counted(c, *args):
        dividends.append(c)
        return _quotient(c, *args)

    monkeypatch.setattr(hyper, "_quotient", counted)
    results, counts = [], []
    unit = PerfSeries.one(F2)
    for M in (10, 30, 200):
        del dividends[:]
        results.append(hyper.hyper_eval(hp, z, M))
        # one quotient from the unit gives h_0; every other call is a step
        assert sum(c is unit for c in dividends) == 1
        counts.append(len(dividends) - 1)
    for r in results[1:]:
        assert_same(r, results[0])
    # the sum of every term up to M, capped by the tail bound past M
    for M in (10, 30):
        full = hyper.hyper_series(hp, M).evaluate(z).truncate(
            hyper._tail_valuation(hp, z.valuation(), M + 1))
        assert_same(results[0], full)
    assert len(results[0].terms) == 18 and results[0].prec == 72
    assert counts[0] == counts[1] == counts[2] < 10


def _hyper_parameter(rng, params, kind, admissible=False):
    if kind == "zero-at-prec":
        return PerfSeries.zero(params, prec=Fraction(rng.randint(-2, 6),
                                                     rng.choice((1, params.q))))
    draw = sampling.random_admissible if admissible else sampling.random_series
    s = draw(rng, params, terms=(1, 3), lo=-1, hi=3)
    if kind == "truncated":
        s = s.truncate(s.valuation() + Fraction(rng.randint(1, 6),
                                                rng.choice((1, params.q))))
    return s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SHIPPED_FIELDS), st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(("exact", "truncated", "zero-at-prec")),
                min_size=1, max_size=2),
       st.lists(st.sampled_from(("exact", "truncated")), max_size=1),
       st.sampled_from((None, 3, Fraction(7, 2))), st.integers(0, 6))
def test_hyper_eval_is_the_full_sum(params, seed, upper, lower, window, M):
    rng = random.Random(seed)
    try:
        hp = hyper.HyperParams(
            params, [_hyper_parameter(rng, params, k) for k in upper],
            [_hyper_parameter(rng, params, k, admissible=True) for k in lower])
    except CarlitzError:
        assume(False)
    e = max(int(hyper.convergence_bound(hp)), 0) + rng.randint(1, 3)
    z = PerfSeries.from_terms(params, {e: 1, e + 1: 1})
    if rng.random() < 0.5:
        z = z.truncate(e + rng.randint(1, 8))
    full = hyper.hyper_series(hp, M, window=window).evaluate(z).truncate(
        hyper._tail_valuation(hp, z.valuation(), M + 1))
    assert_same(hyper.hyper_eval(hp, z, M, window=window), full)
