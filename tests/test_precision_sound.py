"""Every stated precision is a true guarantee.

A truncated series a stands for every series that agrees with it below
``a.prec``.  Here each truncated input is completed at random: random
terms are added at or above its precision, and the completion A is exact.
An operation f is sound when f(a) == f(A) at f(a)'s precision, for every
completion.  Exact inputs are their own completions.  Where f takes a
window (``divide``, ``invert``, the q-twisted step
``_quotient(...).frobenius(1)``, ``_quotient`` and ``hyper_eval``), f(A)
is computed with a window wider than any relative precision the drawn
inputs can give, so that f(A) is known at least as far as f(a) claims.
An operation that returns a map of series (``op_apply``) is checked
coefficient by coefficient.

``cauchy_solve`` is checked the same way, with a truncated parameter of a
hypergeometric equation, a truncated coefficient of a general Q or a
truncated initial value: its P and Q are evaluated at the brackets by
Horner's rule, so this checks that evaluator's precision along with the
steps'.  A completed problem is solved at the window ``SOLVE_WIDE``, since
each step takes its Frobenius image, so a solve at ``WIDE`` states less
than the default solve of the same exact problem.  Each slot of the box is
compared, a slot with no stored coefficient reading as exact zero.  A
refused solve is skipped, and the refusals are counted, so that a test
that checks too few draws fails.

``LinearSeries.evaluate`` and ``MultiFunction.evaluate`` are checked with
one truncated piece: a coefficient, the argument z (t for a linear
series) or one argument s; the completed function is evaluated at the
window ``SOLVE_WIDE``, which it takes for its divisions by D_m.

``hyper_residual``, in the product and the gauss form, is checked with a
truncated upper or lower parameter against the residual of the completed
parameters at ``SOLVE_WIDE``, every stored coefficient, the one above
the known range included; and ``normalize`` of d^k s tau^k t, k = 1..3,
with or without a delta_1 after d^k and after tau^k, in both conventions
and both reduction orders, with truncated scalars s and t, term by term.
The two orders can state different precisions for one word (the
``opring`` module docstring), so they are compared with each other only
at common precision.

The integer family's inputs are exact, so its values are checked against
the same values read at ``SOLVE_WIDE``: the middle case of
``pochhammer_thakur`` at its default window, and ``hyper_thakur_coeff``
and the rho of ``thakur_correspondence`` at windows None, 7 and 32.

Unlike the differential tests, which compare each precision rule with an
oracle written from the same rules, this checks the rules against the
series they describe.  Inputs come from ``test_quotient_kernel.factors``
over the 12 shipped fields, and hypergeometric z and parameters and the
functions an operator acts on from ``sampling``; a refusal of f(a) is not
a stated precision and is skipped.
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from carlitz import INF, PerfSeries, sampling
from carlitz.brackets import _thakur_factors, pochhammer, pochhammer_thakur
from carlitz.cauchy import (DeltaPoly, EvolutionEquation, InitialData,
                            cauchy_solve, hypergeometric_equation)
from carlitz.errors import CarlitzError
from carlitz.ffield import FFElement
from carlitz.funcspace import LinearSeries, MultiFunction
from carlitz.hyper import (HyperParams, convergence_bound, hyper_eval,
                           hyper_residual, hyper_thakur_coeff,
                           thakur_correspondence)
from carlitz.opring import (CONVENTIONS, D, TAU, NormalForm, OperatorWord,
                            delta, normalize, scalar_factor)
from carlitz.series import _quotient
from test_quotient_kernel import SHIPPED_FIELDS, factors

#: the reduction orders of ``normalize``
STRATEGIES = ("leftmost", "rightmost")

#: the window f(A) is computed with: above the default invert window and
#: above the relative precision of any drawn input
WIDE = 48

#: the window a completed Cauchy problem is solved with, and a completed
#: hypergeometric series read: above what the default solve of a drawn
#: problem states after its Frobenius steps
SOLVE_WIDE = 400

#: every kind of ``factors`` but the exact zero, which has no other
#: completion and is refused as a divisor
KINDS = ("exact", "truncated", "zero-at-prec", "monomial",
         "truncated-monomial")

#: the kinds of ``factors`` with a finite precision
TRUNCATED = ("truncated", "zero-at-prec", "truncated-monomial")


@st.composite
def completion(draw, a):
    """An exact completion of ``a``: a's terms and up to three random
    terms at exponents in [a.prec, a.prec + 3)."""
    if a.prec is INF:
        return a
    params = a.params
    terms = dict(a.items())
    for _ in range(draw(st.integers(0, 3))):
        scale = params.q ** draw(st.integers(0, 2))
        low = -(-a.prec.numerator * scale // a.prec.denominator)
        e = Fraction(low + draw(st.integers(0, 3 * scale)), scale)
        terms[e] = FFElement(params, draw(st.integers(1, params.Q - 1)))
    return PerfSeries.from_terms(params, terms)


@st.composite
def completed(draw, params):
    """A drawn series a and an exact completion A of it."""
    a = draw(factors(params, kinds=KINDS))
    return a, draw(completion(a))


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operands(5), st.booleans())
def test_twisted_step_and_two_factor_quotient(pairs, negate):
    (c, C), (n1, N1), (n2, N2), (d1, D1), (d2, D2) = pairs
    assert_sound(lambda: _quotient(c, [n1], [d1], None, negate).frobenius(1),
                 lambda: _quotient(C, [N1], [D1], WIDE, negate).frobenius(1))
    assert_sound(lambda: _quotient(c, (n1, n2), (d1, d2), None),
                 lambda: _quotient(C, (N1, N2), (D1, D2), WIDE))


@st.composite
def hyper_inputs(draw, truncated_upper):
    """((hp, z), (HP, Z), M): a truncated z and its exact completion Z
    with one exact hp, or a truncated upper parameter of hp, completed in
    HP, with one exact z.  hp has one upper parameter and zero or one
    exact admissible lower one; z lies above the convergence threshold of
    hp, which is at least HP's."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if truncated_upper:
        a = draw(factors(params, kinds=("truncated", "zero-at-prec",
                                        "truncated-monomial")))
        upper = a, draw(completion(a))
    else:
        a = sampling.random_series(rng, params, terms=(1, 3), lo=-1, hi=3)
        upper = a, a
    lower = [sampling.random_admissible(rng, params, terms=(1, 2), lo=-1, hi=3)
             for _ in range(draw(st.integers(0, 1)))]
    hp = [HyperParams(params, [u], lower) for u in upper]
    e = max(int(convergence_bound(hp[0])), 0) + draw(st.integers(1, 3))
    z = PerfSeries.from_terms(params, {
        e: 1, e + 1: FFElement(params, draw(st.integers(1, params.Q - 1)))})
    if truncated_upper:
        zs = z, z
    else:
        # at e itself z is zero at its precision
        z = z.truncate(e + Fraction(draw(st.integers(0, 8)),
                                    draw(st.sampled_from((1, params.q)))))
        zs = z, draw(completion(z))
    return (hp[0], zs[0]), (hp[1], zs[1]), draw(st.integers(0, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.booleans().flatmap(hyper_inputs))
def test_hyper_eval_with_a_truncated_z_or_upper_parameter(drawn):
    (hp, z), (HP, Z), M = drawn
    assert_sound(lambda: hyper_eval(hp, z, M),
                 lambda: hyper_eval(HP, Z, M, window=WIDE))


@st.composite
def residual_inputs(draw):
    """(hp, HP, form, M): hp with one truncated upper or lower parameter,
    and HP with that parameter completed; None when either is refused.
    The gauss form takes r = 2, s = 1, the product form r, s = 0..2 with
    r + s >= 1.  A truncated lower parameter is an exact admissible one
    cut above its highest term and above x."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    form = draw(st.sampled_from(("product", "gauss")))
    if form == "gauss":
        r, s = 2, 1
    else:
        r = draw(st.integers(0, 2))
        s = draw(st.integers(1 - min(r, 1), 2))
    uppers = [sampling.random_series(rng, params, terms=(1, 3), lo=-1, hi=3)
              for _ in range(r)]
    lowers = [sampling.random_admissible(rng, params, terms=(1, 2), lo=-1, hi=3)
              for _ in range(s)]
    if s == 0 or r and draw(st.booleans()):
        a = draw(factors(params, kinds=TRUNCATED))
        pairs = [([a] + uppers[1:], lowers),
                 ([draw(completion(a))] + uppers[1:], lowers)]
    else:
        b = lowers[0]
        top = max(max(b.exponents()), 1)
        b = b.truncate(top + Fraction(draw(st.integers(1, 8)),
                                      draw(st.sampled_from((1, params.q)))))
        pairs = [(uppers, [b] + lowers[1:]),
                 (uppers, [draw(completion(b))] + lowers[1:])]
    try:
        hp, HP = (HyperParams(params, *pair) for pair in pairs)
    except CarlitzError:
        return None
    return hp, HP, form, draw(st.integers(0, 4))


def test_hyper_residual_with_a_truncated_parameter():
    outcomes = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(residual_inputs())
    def check(drawn):
        if drawn is None:
            outcomes["refused"] += 1
            return
        hp, HP, form, M = drawn
        got = hyper_residual(hp, M, form=form)
        want = hyper_residual(HP, M, form=form, window=SOLVE_WIDE)
        zero = PerfSeries.zero(hp.params)
        for k in set(got.coeffs) | set(want.coeffs):
            assert_sound(lambda: got.coeffs.get(k, zero),
                         lambda: want.coeffs.get(k, zero))
        outcomes["checked"] += 1
    check()
    assert outcomes["checked"] >= 30, outcomes


def test_integer_family_against_its_wide_values():
    # the integer family's inputs are exact, so each value is checked
    # against itself read at window SOLVE_WIDE: the middle case of
    # pochhammer_thakur (one quotient over the factors of its L, at the
    # default window), t_m, and rho of the correspondence
    outcomes = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(SHIPPED_FIELDS),
           st.lists(st.integers(-5, 4), min_size=1, max_size=2),
           st.lists(st.integers(1, 4), max_size=1), st.integers(0, 4),
           st.sampled_from((None, 7, 32)))
    def check(params, alphas, betas, m, window):
        alpha = min(alphas[0], 0)
        n = min(m, -alpha)
        one = PerfSeries.one(params)
        assert_sound(lambda: pochhammer_thakur(params, alpha, n),
                     lambda: _quotient(one, *_thakur_factors(params, alpha, n),
                                       SOLVE_WIDE))
        assert_sound(
            lambda: hyper_thakur_coeff(params, alphas, betas, m, window=window),
            lambda: hyper_thakur_coeff(params, alphas, betas, m,
                                       window=SOLVE_WIDE))
        # rho comes from m = 0; a longer check multiplies wide series
        assert_sound(
            lambda: thakur_correspondence(params, alphas, betas, 0,
                                          window=window).rho,
            lambda: thakur_correspondence(params, alphas, betas, 0,
                                          window=SOLVE_WIDE).rho)
        t_m = hyper_thakur_coeff(params, alphas, betas, m, window=window)
        outcomes["terms" if t_m.terms and not t_m.is_exact() else "other"] += 1
    check()
    assert outcomes["terms"] >= 20, outcomes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(operands(1), st.integers(0, 2 ** 32), st.sampled_from(CONVENTIONS))
def test_op_apply_with_a_truncated_scalar(pairs, seed, convention):
    ((c, C),) = pairs
    params = c.params
    rng = random.Random(seed)
    f = sampling.random_multifunction(rng, params, 1, 2, 2)
    key = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    exact = {(0, 0, 0): sampling.random_series(rng, params)}
    got = NormalForm(params, 1, convention, {**exact, key: c}).op_apply(f)
    want = NormalForm(params, 1, convention, {**exact, key: C}).op_apply(f)
    # a slot outside got's box is refused, not read as an exact zero
    for slot in set(got.coeffs) | set(want.coeffs):
        assert_sound(lambda: got.coefficient(*slot),
                     lambda: want.coefficient(*slot))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(operands(2), st.integers(1, 3), st.sampled_from(CONVENTIONS),
       st.tuples(st.booleans(), st.booleans()))
def test_normalize_with_truncated_scalars(pairs, k, convention, deltas):
    (s, S), (t, T) = pairs
    params = s.params
    after_d, after_tau = ([delta(1)] * has_delta for has_delta in deltas)

    def normal_form(s, t, strategy):
        word = OperatorWord(1, [D] * k + after_d + [scalar_factor(s)]
                            + [TAU] * k + after_tau + [scalar_factor(t)])
        return normalize(word, params, convention, strategy)
    zero = PerfSeries.zero(params)
    forms = []
    for strategy in STRATEGIES:
        got, want = normal_form(s, t, strategy), normal_form(S, T, strategy)
        for key in set(got.terms) | set(want.terms):
            assert_sound(lambda: got.terms.get(key, zero),
                         lambda: want.terms.get(key, zero))
        forms.append(got)
    # the orders may state different precisions, but agree as far as both do
    assert forms[0] == forms[1], forms


@st.composite
def cauchy_problems(draw):
    """(problem, completed problem): an equation in n = 1..2 variables,
    initial data and a box, with one truncated piece, and the same with
    that piece completed.  ``upper`` and ``lower`` truncate a parameter of
    ``hypergeometric_equation``, ``general`` a coefficient of a Q that is
    no product, Q = 1 + c_0 x + c_1 t_1 + t_1 t_2 (1 + c_0 x + t_1 for
    n = 1) with exact c_0 and c_1 of valuation at least 0, and ``initial`` one
    initial value of an exact equation."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 2))
    trunc_i = draw(st.integers(1, 4 - n))
    trunc_m = draw(st.integers(0, trunc_i))
    kind = draw(st.sampled_from(("upper", "lower", "general", "initial")))
    a = draw(factors(params, kinds=TRUNCATED))
    pair = a, draw(completion(a))

    def exact():
        return sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
    uppers = [exact() for _ in range(n)]
    lowers = [sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
              for _ in range(n)]
    one = PerfSeries.one(params)
    general = {(0,) * n: one + exact().shift(1), (1,) * n: one}
    if n > 1:
        general[(1, 0)] = exact()
    slot = draw(st.sampled_from(sorted(general)))
    ivecs = draw(st.lists(st.tuples(*[st.integers(0, trunc_i)] * n),
                          min_size=1, max_size=3, unique=True))
    init = {ivec: exact() for ivec in ivecs}
    problems = []
    for piece in pair:
        if kind == "upper":
            eq = hypergeometric_equation(params, [piece] + uppers[1:], lowers, n)
        elif kind == "lower":
            eq = hypergeometric_equation(params, uppers, [piece] + lowers[1:], n)
        else:
            Q = dict(general)
            if kind == "general":
                Q[slot] = piece
            P = hypergeometric_equation(params, uppers, lowers, n).P
            eq = EvolutionEquation(params, n, P, DeltaPoly(params, n, Q))
        values = dict(init)
        if kind == "initial":
            values[ivecs[0]] = piece
        problems.append((eq, InitialData(params, n, values), trunc_m, trunc_i))
    return problems


def solve_sound(problem, completed):
    """The outcome of one draw: "refused" when ``problem`` is refused,
    otherwise "checked", once every slot of its solution is sound against
    the solution of the completed problem."""
    try:
        u = cauchy_solve(*problem)
    except CarlitzError:
        return "refused"
    U = cauchy_solve(*completed, window=SOLVE_WIDE)
    for slot in set(u.coeffs) | set(U.coeffs):
        assert_sound(lambda: u.coefficient(*slot), lambda: U.coefficient(*slot))
    return "checked"


def test_cauchy_solve_with_truncated_parameters_coefficients_or_data():
    outcomes = Counter()

    @settings(max_examples=130, deadline=None, derandomize=True)
    @given(cauchy_problems())
    def check(problems):
        outcomes[solve_sound(*problems)] += 1
    check()
    assert outcomes["checked"] >= 80, outcomes


@st.composite
def evaluations(draw):
    """(f, args, F, ARGS): a LinearSeries with its argument t, or a
    MultiFunction in n = 1..2 variables with z and s_1..s_n, with one
    truncated or exact piece, a coefficient or an argument, and the same
    with that piece completed.  Each function has at least one
    coefficient."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(0, 2))

    def exact(lo):
        return sampling.random_series(rng, params, terms=(1, 2), lo=lo, hi=3)
    if n == 0:
        coeffs = {k: exact(-1) for k in range(draw(st.integers(1, 3)))}
    else:
        box = draw(st.integers(0, 2))
        coeffs = sampling.random_multifunction(rng, params, n, box, box).coeffs
        coeffs = coeffs or {(0,) * (n + 1): exact(-1)}
    # arguments of valuation at least 0, and a truncated piece moved up by
    # x^3: a q^k-th power of a negative valuation or precision leaves the
    # value known only below every term
    args = [exact(0) for _ in range(n + 1)]
    piece = draw(st.integers(-1, n))
    # an exact piece leaves a MultiFunction's divisions by D_m to set the
    # precision
    a = draw(factors(params, kinds=TRUNCATED + ("exact",))).shift(3)
    pair = a, draw(completion(a))
    slot = draw(st.sampled_from(sorted(coeffs)))
    sides = []
    for value in pair:
        cs, xs = dict(coeffs), list(args)
        if piece < 0:
            cs[slot] = value
        else:
            xs[piece] = value
        f = (LinearSeries(params, cs, None) if n == 0
             else MultiFunction(params, n, box, box, cs))
        sides += [f, xs]
    return sides


def test_evaluate_with_a_truncated_coefficient_or_argument():
    outcomes = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(evaluations())
    def check(drawn):
        f, args, F, ARGS = drawn
        if isinstance(f, LinearSeries):
            got, want = (lambda: f.evaluate(*args)), (lambda: F.evaluate(*ARGS))
        else:
            got = lambda: f.evaluate(args[0], args[1:])
            want = lambda: F.evaluate(ARGS[0], ARGS[1:], window=SOLVE_WIDE)
        assert_sound(got, want)
        outcomes[type(f).__name__, "terms" if got().terms else "none"] += 1
    check()
    # a value known only below its terms, as a zero-at-precision piece
    # gives, checks no coefficient: enough draws of each class have one
    assert outcomes["LinearSeries", "terms"] >= 5, outcomes
    assert outcomes["MultiFunction", "terms"] >= 5, outcomes
