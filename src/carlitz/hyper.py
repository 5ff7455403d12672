"""Hypergeometric functions of the Carlitz calculus.

Two coefficient families live here.  The field-parameter family

    F(a_1..a_r; b_1..b_s; z) = sum_m  h_m z^(q^m),
    h_m = prod <a_i>_m / (prod <b_j>_m * D_m),

defined whenever every lower parameter b_j is admissible (distinct from
every bracket [nu], nu = 0, 1, ..., inf), and the integer-parameter family
built from the three-case Pochhammer symbols,

    t_m = prod (alpha_i)_m / (prod (beta_j)_m * D_m),    beta_j >= 1.

Both satisfy the same q-twisted first-order recursion

    h_(m+1) = h_m^q * { prod([m]-a_i) / (prod([m]-b_j) ([m]-[-1])) }^q

(with a_i = [-alpha_i], b_j = [-beta_j] for the integer family, using
([m]-[-1])^q = [m+1]), so the integer family coincides with the
field-parameter one at bracket parameters up to the variable rescaling
z -> rho z; rho is determined by the m = 0 coefficients and verified at
every further index rather than assumed.

Which path computes a coefficient: there is one coefficient loop,
``_hyper_stream``, whatever the precision of the parameters.  It starts
from h_0 and takes the recursion above for every m > 0.  Each step is the
direct quotient's own rule applied to the twisted inputs: one call of the
quotient kernel ``series._quotient`` with dividend h_m^q, upper factors
([m]-a_i)^q and lower factors [m+1] and ([m]-b_j)^q, at the caller's
window.  Each twisted factor is built without a twist, as ([m]-a)^q =
[m+1] - T_down(a), from the one T_down(a) = a^q + [1] of each parameter.
The Frobenius is a ring automorphism that scales exponents and
precisions by q, so h_m^q is the quotient of every older factor of
h_(m+1), known as far as the direct quotient knows it, and the step
divides by the newest factors as the direct quotient does: each h_m has
the terms and precision of the quotient of its symbols, divided to
relative precision R (the ``window``; without one, the relative precision
of the lower factors, or the default invert window when they are exact).
The integer family reads the same loop at the bracket parameters,
started from t_0, so ``thakur_series``, ``thakur_residual`` and
``hyper_thakur_coeff`` expand no symbol at all.  h_0, t_0 and the t side
of ``thakur_correspondence`` (which exists to check the stream against
the symbols) are the quotient of the symbols, divided to relative
precision R.  That quotient divides factor by factor, whatever the
symbols: one pass of the quotient kernel long-divides by the m two-term
factors [k]^(q^(m-k)) of D_m and by each lower symbol in turn, cut at the
quotient's precision, so the product of the symbols, whose terms reach far
above the R units the quotient keeps, is never built.  A Thakur symbol
(alpha)_m enters as the factors of D_(m+alpha-1)^(q^(1-alpha)) on its own
side or, for alpha <= 0, of L_(-alpha-m)^(q^m) on the other
(``brackets._thakur_factors``), so no symbol is ever expanded.  The
kernel passes over few of those factors: the factors [k]^(q^(m-k)) that
(alpha)_m and (beta)_m, alpha, beta >= 1, share with each other and with
D_m cancel, and a factor whose step q^m - q^(m-k) passes the R units kept
acts only through its lead, on either side of the line, so
``thakur_correspondence(F_2, [2], [3], M)`` takes 31 long-division passes
and 5 products in all, at every M.  The recursion
costs O(M) small steps for h_0..h_M, where a quotient of symbols still
builds O(m) factors at every index.

Residual checks apply the defining operators to the truncated series:

* product form:  prod(Delta - a_i) - (prod(Delta - b_j)) d, slot by slot:
  Delta multiplies the coefficient of z^(q^k) by the bracket [k], so each
  coefficient of the residual is u_k prod([k] - a_i) - (du)_k
  prod([k] - b_j), one product per factor.  A precision can only rise
  over applying each Delta - a to the whole series: c ([k] - a) is known
  at least as far as c [k] - c a, since [k] is exact and
  val([k] - a) >= min(val [k], val a)
* gauss form (r=2, s=1):
      tau(1-tau) d^2 + {([-1]^q + a + b) tau - c} d - ab
  (note [-1]^q = -[1]; this is the expansion of
  (Delta-a)(Delta-b) - (Delta-c)d forced by d tau - tau d = [1]^(1/q))
* the same product form at bracket parameters for the integer family.

The contiguous function identities 5.7 and 5.8 are expressions in the
truncated functions as :class:`~carlitz.funcspace.LinearSeries`, built
from the three operations of their formulas (``scale`` for a scalar
multiple, ``tau`` for the q-th power and ``rescale`` for z -> s z); the
check runs no loop over the indices (see :func:`contiguous_check`).

The admissibility scan is effective: val(b - [nu]) equals val(b + x) as
soon as q^nu exceeds it, so only finitely many indices need checking and
the profile max_nu val(b - [nu]) is exact.  From the profiles comes the
certified convergence threshold

    val(z) > (1 + q * (sum_j B_j - sum_i alpha^_i)) / (q - 1)

with B_j the profile of b_j and alpha^_i = min(1, val(a_i)); above it the
term-valuation lower bound is strictly increasing, which caps the tail of
every truncated evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple, Optional

from .brackets import (INFINITY, _factorial_factors, _thakur_factors,
                       _two_term, bracket, pochhammer, shift_down, shift_up)
from .errors import (InadmissibleError, ParameterMismatchError,
                     PrecisionError, UsageError)
from .ffield import FieldParams
from .funcspace import LinearSeries
from .series import PerfSeries, _quotient


def admissible_profile(b: PerfSeries) -> Fraction:
    """max over nu in {0, 1, ..., inf} of val(b - [nu]), finite iff b is
    admissible.  Raises InadmissibleError when b equals some bracket and
    PrecisionError when a difference is zero at finite precision."""
    params = b.params
    tail = b + PerfSeries.x(params)  # b - [inf]
    if tail.is_zero():
        raise InadmissibleError("parameter equals [inf]", witness=INFINITY)
    if tail.is_zero_at_prec():
        raise PrecisionError("admissibility of b - [inf] indeterminate at precision")
    v_inf = tail.valuation()
    best = v_inf
    nu = 0
    while params.q ** nu <= v_inf:
        diff = b - bracket(params, nu)
        if diff.is_zero():
            raise InadmissibleError("parameter equals [%d]" % nu, witness=nu)
        if diff.is_zero_at_prec():
            raise PrecisionError(
                "admissibility of b - [%d] indeterminate at precision" % nu)
        best = max(best, diff.valuation())
        nu += 1
    # beyond this point val(b - [nu]) = val(b + x) exactly: the bracket
    # differs from [inf] by x^(q^nu), which has strictly larger valuation
    return best


class HyperParams:
    """Upper parameters a_1..a_r and admissible lower parameters b_1..b_s."""

    __slots__ = ("params", "a_list", "b_list", "profiles")

    def __init__(self, params: FieldParams, a_list, b_list):
        a_list = tuple(a_list)
        b_list = tuple(b_list)
        for s in a_list + b_list:
            if s.params != params:
                raise ParameterMismatchError("parameter over a different field")
        self.params = params
        self.a_list = a_list
        self.b_list = b_list
        self.profiles = tuple(admissible_profile(b) for b in b_list)

    @property
    def r(self):
        return len(self.a_list)

    @property
    def s(self):
        return len(self.b_list)


def _coeff_quotient(params: FieldParams, m: int, upper, lower,
                    window) -> PerfSeries:
    """prod(upper) / (D_m * prod(lower)); both coefficient families are
    this quotient of their symbols, or of the symbols' factors.

    One pass of the quotient kernel multiplies by each upper factor and
    long-divides by the m two-term factors of D_m and by each lower factor
    in turn, each pass cut at the quotient's precision, so no product of
    factors is built.  Dividing by an exact non-monomial denominator keeps
    relative precision R (``window``, or the default invert window)."""
    return _quotient(PerfSeries.one(params), tuple(upper),
                     [*_factorial_factors(params, m), *lower], window)


def _check_truncation(M: int):
    if M < 0:
        raise UsageError("need M >= 0")


def _linear_series(params: FieldParams, coeffs, M: int) -> LinearSeries:
    """The truncation sum_(m<=M) h_m z^(q^m) of a coefficient family
    h_0, h_1, ..., read once from the iterable ``coeffs``."""
    _check_truncation(M)
    return LinearSeries(params, dict(zip(range(M + 1), coeffs)), known=M)


def hyper_coeff(hp: HyperParams, m: int, window=None) -> PerfSeries:
    """h_m = prod <a_i>_m / (prod <b_j>_m * D_m).

    h_0 is that quotient at m = 0, the unit, cut to ``window`` when one is
    given; h_m for m > 0 is read from the recursion in
    :func:`_hyper_stream`, m steps from h_0, with the terms and precision
    of the quotient taken over the two-term factors of every symbol."""
    if m < 0:
        raise UsageError("need m >= 0")
    if m == 0:
        return _coeff_quotient(hp.params, 0, (), (), window)
    return next(islice(_hyper_stream(hp, window), m, None))


def _hyper_stream(hp: HyperParams, window, first=None):
    """The coefficients h_0, h_1, ... of one family, endlessly.

    Each step is the direct quotient's own rule applied to the twisted
    inputs: h_(m+1) = h_m^q * prod([m]-a_i)^q / ([m+1] * prod([m]-b_j)^q),
    one series._quotient call with dividend h_m^q and ``window``.  The
    Frobenius is a ring automorphism that scales exponents and precisions
    by q, so h_m^q carries every factor of h_(m+1) but its newest ones,
    ([m]-a_i)^q, [m+1] = ([m]-[-1])^q and ([m]-b_j)^q, exactly as the
    direct quotient knows them, and the step divides by those newest ones
    as the direct quotient does: every coefficient has its terms and
    precision, whatever the precision of the parameters.

    A step twists only h_m: since [m]^q = [m+1] - [1], each newest factor
    is ([m]-a)^q = [m+1] - T_down(a), with T_down(a) = a^q + [1] built once
    per parameter.  An exact parameter [-1] has T_down 0, so its factor is
    [m+1] itself, and equal exact upper and lower parameters give one
    factor on both sides: the kernel cancels such pairs.  The stream
    starts from ``first``, or from h_0 = hyper_coeff(hp, 0) when it is
    None, called through the module so wrappers see it; the integer
    family passes its t_0 over the bracket parameters."""
    params = hp.params
    h = hyper_coeff(hp, 0, window=window) if first is None else first
    upper = [shift_down(a) for a in hp.a_list]
    lower = [shift_down(b) for b in hp.b_list]
    for m in count():
        yield h
        top = bracket(params, m + 1)
        h = _quotient(h.frobenius(1), [top - a for a in upper],
                      [top] + [top - b for b in lower], window)


def _tail_slope(hp: HyperParams) -> Fraction:
    """k = q * (sum_i alpha^_i - sum_j B_j) - 1: the term-valuation lower
    bound of index m is k (q^m - 1)/(q - 1) + q^m val(z)."""
    alpha_sum = Fraction(0)
    for a in hp.a_list:
        alpha_sum += min(Fraction(1), a._val_lb())
    return hp.params.q * (alpha_sum - sum(hp.profiles, Fraction(0))) - 1


def convergence_bound(hp: HyperParams) -> Fraction:
    """Certified val(z) threshold for strictly increasing term valuations."""
    return Fraction(-_tail_slope(hp), hp.params.q - 1)


def _tail_valuation(hp: HyperParams, val_z: Fraction, m: int) -> Fraction:
    """Lower bound for val(h_m z^(q^m)); increasing in m above the threshold."""
    q = hp.params.q
    return Fraction(q ** m - 1, q - 1) * _tail_slope(hp) + q ** m * val_z


def hyper_eval(hp: HyperParams, z: PerfSeries, M: int, window=None) -> PerfSeries:
    """Truncated evaluation sum_(m<=M) h_m z^(q^m) with a certified tail cap.

    Refuses when val(z) is not strictly above the convergence threshold,
    since then the omitted tail carries no valuation guarantee.  Terms are
    read only until the tail bound reaches the precision of the sum, which
    leaves the result as it is: a larger M costs nothing more from there.
    """
    _check_truncation(M)
    params = hp.params
    if z.params != params:
        raise ParameterMismatchError("z over a different field")
    if z.is_zero():
        return PerfSeries.zero(params)
    threshold = convergence_bound(hp)
    if z.is_zero_at_prec():
        if z.prec <= threshold:
            raise InadmissibleError(
                "z is zero at precision %s, below the convergence threshold %s"
                % (z.prec, threshold))
        return PerfSeries.zero(params, prec=z.prec)
    val_z = z.valuation()
    if val_z <= threshold:
        raise InadmissibleError(
            "z outside the certified convergence region: val(z) = %s <= %s"
            % (val_z, threshold))
    # The known terms of the term of index m sit at or above
    # _tail_valuation(m), and its precision is at least that bound, which
    # increases with m.  Once the bound reaches the precision of the sum so
    # far, no later term can change a kept term or the precision, so the
    # stream is read no further: M is a limit, not a work count.  The
    # bound at M + 1 is then at or above the precision too, so only a
    # loop that ran to M truncates at it.
    acc = PerfSeries.zero(params)
    coeffs = _hyper_stream(hp, window)
    for m in range(M + 1):
        if _tail_valuation(hp, val_z, m) >= acc.prec:
            break
        acc = acc + next(coeffs) * z.frobenius(m)
    else:
        acc = acc.truncate(_tail_valuation(hp, val_z, M + 1))
    return acc


def hyper_series(hp: HyperParams, M: int, window=None) -> LinearSeries:
    """The truncation of the function as an F_q-linear series in z."""
    return _linear_series(hp.params, _hyper_stream(hp, window), M)


# ---------------------------------------------------------------------------
# integer-parameter family
# ---------------------------------------------------------------------------

def hyper_thakur_coeff(params: FieldParams, alphas, betas, m: int,
                       window=None) -> PerfSeries:
    """t_m = prod (alpha_i)_m / (prod (beta_j)_m * D_m) with beta_j >= 1.

    Refuses lower parameters below 1, the only ones whose symbol can
    vanish.  t_0 is the quotient of the symbols; t_m for m > 0 is read
    from the field family's stream at the bracket parameters, with the
    same terms and precision."""
    if m < 0:
        raise UsageError("need m >= 0")
    return next(islice(_thakur_stream(params, alphas, betas, window), m, None))


def _thakur_quotient(params: FieldParams, alphas, betas, m: int,
                     window) -> PerfSeries:
    """t_m as the direct quotient of its symbols, each entering as the
    two-term factors of :func:`~carlitz.brackets._thakur_factors` on both
    sides, so no symbol is expanded.  An upper symbol with alpha <= 0 puts
    the factors of L^(q^m) among the divisors, so ``window`` governs its
    division too."""
    for beta in betas:
        if beta < 1:
            raise UsageError("lower parameters must be positive integers, got %r"
                             % (beta,))
    # a lower symbol enters as its factor lists swapped
    symbols = [_thakur_factors(params, alpha, m) for alpha in alphas]
    symbols += [_thakur_factors(params, beta, m)[::-1] for beta in betas]
    return _coeff_quotient(params, m, [f for num, _ in symbols for f in num],
                           [f for _, den in symbols for f in den], window)


def _bracket_hyper_params(params: FieldParams, alphas, betas) -> HyperParams:
    """The field-family parameters a_i = [-alpha_i], b_j = [-beta_j] that
    stand for integer parameters."""
    return HyperParams(params, [bracket(params, -alpha) for alpha in alphas],
                       [bracket(params, -beta) for beta in betas])


def _thakur_stream(params: FieldParams, alphas, betas, window):
    """t_0, t_1, ...: the field family's stream at the bracket parameters,
    started from the quotient t_0.

    D_(m+1) = D_m^q ([m]-[-1])^q, and (alpha)_(m+1) = (alpha)_m^q
    ([m]-[-alpha])^q for every integer alpha: for alpha <= 0 the factor
    is exactly 0 at m = -alpha, where the symbol vanishes.  So t_m
    follows the field family's step at the bracket parameters.  Lazy, so
    a caller's own checks come first."""
    t_0 = _thakur_quotient(params, alphas, betas, 0, window)
    yield from _hyper_stream(_bracket_hyper_params(params, alphas, betas),
                             window, t_0)


def thakur_series(params: FieldParams, alphas, betas, M: int,
                  window=None) -> LinearSeries:
    return _linear_series(params, _thakur_stream(params, alphas, betas, window),
                          M)


class CorrespondenceResult(NamedTuple):
    ok: bool
    rho: Optional[PerfSeries]
    first_bad_m: Optional[int]

    def describe(self):
        if self.ok:
            return "consistent: rho = %r" % (self.rho,)
        return "inconsistent at m = %d" % self.first_bad_m


def thakur_correspondence(params: FieldParams, alphas, betas, M: int,
                          window=None) -> CorrespondenceResult:
    """Find rho with t_m = h_m * rho^(q^m) for all m <= M, where h uses the
    bracket parameters a_i = [-alpha_i], b_j = [-beta_j].

    rho is computed from m = 0 and verified at every other index; an
    inconsistency is reported with the first failing index."""
    _check_truncation(M)
    hp = _bracket_hyper_params(params, alphas, betas)
    rho = None
    for m, h_m in zip(range(M + 1), _hyper_stream(hp, window)):
        # t_m from its symbols, not from the stream that gives h_m
        t_m = _thakur_quotient(params, alphas, betas, m, window)
        if t_m.is_zero() or h_m.is_zero():
            raise UsageError(
                "coefficient family vanishes at m = %d; rho is undetermined there" % m)
        if t_m.is_zero_at_prec() or h_m.is_zero_at_prec():
            raise PrecisionError(
                "coefficient family is zero at precision at m = %d" % m)
        if rho is None:
            rho = t_m.divide(h_m, window=window)
            continue
        if t_m != h_m * rho.frobenius(m):
            return CorrespondenceResult(False, None, m)
    return CorrespondenceResult(True, rho, None)


# ---------------------------------------------------------------------------
# differential-equation residuals
# ---------------------------------------------------------------------------

def _product_residual(series: LinearSeries, a_list, b_list) -> LinearSeries:
    """prod(Delta - a_i) u - prod(Delta - b_j) d u, slot by slot: its
    coefficient k is u_k prod([k] - a_i) - (du)_k prod([k] - b_j), and it
    knows k <= known - 1, as d u does."""
    return _slot_product(series, a_list) - _slot_product(series.d(), b_list)


def _slot_product(f: LinearSeries, roots) -> LinearSeries:
    """prod(Delta - r) f over the roots r.  Delta multiplies the
    coefficient of t^(q^k) by [k], so the product acts there as one
    multiplier, prod([k] - r), taken one factor at a time.  A precision
    can only rise over applying each Delta - r to the whole series:
    [k] is exact and val([k] - r) >= min(val [k], val r), so c ([k] - r)
    is known at least as far as c [k] - c r."""
    out = {}
    for k, c in f.coeffs.items():
        at = bracket(f.params, k)
        for r in roots:
            c = c * (at - r)
        out[k] = c
    return LinearSeries(f.params, out, f.known)


def hyper_residual(hp: HyperParams, M: int, form: str = "product",
                   window=None) -> LinearSeries:
    """Apply the defining operator to the truncated series (zero on the
    surviving coefficient range when everything is consistent).

    form="product" uses prod(Delta - a_i) - (prod(Delta - b_j)) d for any
    r, s; form="gauss" uses the expanded second-order operator, which only
    exists for r = 2, s = 1.
    """
    params = hp.params
    series = hyper_series(hp, M, window=window)
    if form == "product":
        return _product_residual(series, hp.a_list, hp.b_list)
    if form == "gauss":
        if hp.r != 2 or hp.s != 1:
            raise UsageError("gauss form needs r = 2, s = 1 (got r=%d, s=%d)"
                             % (hp.r, hp.s))
        a, b = hp.a_list
        c = hp.b_list[0]
        du = series.d()
        ddu = du.d()
        tau_ddu = ddu.tau()
        term2 = tau_ddu - tau_ddu.tau()              # tau(1 - tau) d^2 u
        coeff = _two_term(params, 0, 1) + a + b  # [-1]^q + a + b
        term1 = du.tau().scale(coeff) - du.scale(c)  # {([-1]^q+a+b) tau - c} d u
        term0 = series.scale(a * b)
        return term2 + term1 - term0
    raise UsageError("form must be 'product' or 'gauss', got %r" % (form,))


def thakur_residual(params: FieldParams, alphas, betas, M: int,
                    window=None) -> LinearSeries:
    """Product-form residual of the integer-parameter function: applies
    prod(Delta - [-alpha_i]) - (prod(Delta - [-beta_j])) d."""
    series = thakur_series(params, alphas, betas, M, window=window)
    hp = _bracket_hyper_params(params, alphas, betas)
    return _product_residual(series, hp.a_list, hp.b_list)


# ---------------------------------------------------------------------------
# contiguous (unit-shift) relations
# ---------------------------------------------------------------------------

CONTIGUOUS_IDS = ("5.3", "5.4", "5.5", "5.6", "5.7", "5.8")


class CheckResult(NamedTuple):
    ident: str
    ok: bool
    residuals: list   # difference series, one per checked index

    def describe(self):
        return "%s: %s" % (self.ident, "PASS" if self.ok else "FAIL")


def contiguous_check(ident: str, params: FieldParams, *, a=None, b=None,
                     c=None, m: Optional[int] = None, M: Optional[int] = None,
                     window=None) -> CheckResult:
    """Check one of the unit-shift identities exactly.

    Symbol identities (single parameter ``a``, index ``m``):

      5.3   <T1(a)>_m = a^(-q^m) (a - [m]) <a>_m            (a != 0)
      5.4   <a>_(m+1) = -a^(q^(m+1)) <T1(a)>_m^q
      5.5   <Tm1(a)>_m = -([1] + a^q)^(q^m) <a>_(m-1)^q     (m >= 1)
      5.6   <Tm1(a)>_m = -([1]+a^q)^(q^m) / ([m-1]-a)^q * <a>_m
                                                    (m >= 1, a != [m-1])

    Function identities (parameters ``a``, ``b``, ``c``; truncation ``M``):

      5.7   F(T1(a), b; c; a z) - F(a, T1(b); c; b z) = (a - b) F(a, b; c; z)
      5.8   F(a,b;c;z) - F(a,b;c;z)^q + (c^q - b^q) F(a,b;T1(c);c^(-1) z)^q
              - (a^q + [1]) F(Tm1(a), b; c; (a^q+[1])^(-1) z) = 0
            (c invertible and a^q + [1] invertible)

    Each is one expression in the truncated functions as LinearSeries,
    written as its formula: s F is ``F.scale(s)``, F^q is ``F.tau()``
    and F(s z) is ``F.rescale(s)``.  With F = F(a, b; c), 5.7 is

      F(T1(a), b; c).rescale(a) - F(a, T1(b); c).rescale(b)
          - F.scale(a - b)

    and 5.8, with T_down(a) = a^q + [1] = Tm1(a), is

      F - F.tau() + F(a, b; T1(c)).rescale(c^(-1)).scale(c - b).tau()
          - F(Tm1(a), b; c).rescale(T_down(a)^(-1)).scale(T_down(a)),

    since (c^q - b^q) G^q = ((c - b) G)^q.  F(a, b; T1(c)) is truncated
    at M - 1, as tau moves it up one index, and is the empty series at
    M = 0.  The two inverses are built once at ``window``; ``rescale``
    twists them, so the one at index m keeps relative precision R q^m.
    ``ok`` says the expression is zero at its precision on every known
    index, and ``residuals`` are its M + 1 coefficients.
    """
    if ident in ("5.3", "5.4", "5.5", "5.6"):
        if a is None or m is None:
            raise UsageError("identity %s needs a and m" % ident)
        if a.params != params:
            raise ParameterMismatchError("parameter over a different field")
        return _symbol_check(ident, a, m, window)
    if ident in ("5.7", "5.8"):
        if a is None or b is None or c is None or M is None:
            raise UsageError("identity %s needs a, b, c and M" % ident)
        _check_truncation(M)
        return _function_check(ident, params, a, b, c, M, window)
    raise UsageError("unknown identity %r (have %s)" % (ident, CONTIGUOUS_IDS))


def _symbol_check(ident, a, m, window) -> CheckResult:
    params = a.params
    least = 1 if ident in ("5.5", "5.6") else 0
    if m < least:
        raise UsageError("%s needs m >= %d" % (ident, least))
    if ident == "5.3":
        if a.is_zero():
            raise UsageError("5.3 needs a != 0")
        if a.is_zero_at_prec():
            raise PrecisionError("5.3: a is zero at its precision")
        lhs = pochhammer(shift_up(a), m)
        rhs = ((a - bracket(params, m)) * pochhammer(a, m)).divide(
            a.frobenius(m), window)
    elif ident == "5.4":
        lhs = pochhammer(a, m + 1)
        rhs = -(a.frobenius(m + 1) * pochhammer(shift_up(a), m).frobenius(1))
    elif ident == "5.5":
        lhs = pochhammer(shift_down(a), m)
        rhs = -(shift_down(a).frobenius(m) * pochhammer(a, m - 1).frobenius(1))
    else:  # 5.6
        denom = (bracket(params, m - 1) - a).frobenius(1)
        if denom.is_zero():
            raise UsageError("5.6 needs a != [m-1]")
        if denom.is_zero_at_prec():
            raise PrecisionError("5.6: [m-1] - a is zero at its precision")
        down = shift_down(a)
        lhs = pochhammer(down, m)
        rhs = -(down.frobenius(m) * pochhammer(a, m)).divide(denom, window)
    diff = lhs - rhs
    return CheckResult(ident, lhs == rhs, [diff])


def _function_check(ident, params, a, b, c, M, window) -> CheckResult:
    base = HyperParams(params, (a, b), (c,))
    if ident == "5.7":
        f = hyper_series(base, M, window=window)
        f_a = hyper_series(HyperParams(params, (shift_up(a), b), (c,)), M,
                           window=window)
        f_b = hyper_series(HyperParams(params, (a, shift_up(b)), (c,)), M,
                           window=window)
        total = f_a.rescale(a) - f_b.rescale(b) - f.scale(a - b)
    else:  # 5.8; c is invertible, as HyperParams refuses a c without terms
        down_a = shift_down(a)  # the scalar a^q + [1] equals Tm1(a)
        if down_a.is_zero() or down_a.is_zero_at_prec():
            raise UsageError("5.8 needs a^q + [1] invertible")
        third = HyperParams(params, (a, b), (shift_up(c),))
        fourth = HyperParams(params, (down_a, b), (c,))
        inv_c = c.invert(window=window)
        inv_a = down_a.invert(window=window)
        f = hyper_series(base, M, window=window)
        f3 = (hyper_series(third, M - 1, window=window) if M
              else LinearSeries.zero(params))
        f4 = hyper_series(fourth, M, window=window)
        total = (f - f.tau()
                 + f3.rescale(inv_c).scale(c - b).tau()
                 - f4.rescale(inv_a).scale(down_a))
    return CheckResult(ident, total.is_zero_on_known(),
                       list(map(total.coefficient, range(M + 1))))
