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

Residual checks apply the defining operators to the truncated series:

* product form:  prod(Delta - a_i) - (prod(Delta - b_j)) d
* gauss form (r=2, s=1):
      tau(1-tau) d^2 + {([-1]^q + a + b) tau - c} d - ab
  (note [-1]^q = -[1]; this is the expansion of
  (Delta-a)(Delta-b) - (Delta-c)d forced by d tau - tau d = [1]^(1/q))
* the same product form at bracket parameters for the integer family.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .brackets import (INFINITY, bracket, carlitz_D, pochhammer,
                       pochhammer_thakur, shift_down, shift_up)
from .errors import (InadmissibleError, ParameterMismatchError,
                     PrecisionError, UsageError)
from .ffield import FieldParams
from .funcspace import LinearSeries
from .series import INF, PerfSeries


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
    """prod(upper) / (D_m * prod(lower)), the factors multiplied in order;
    both coefficient families are this quotient of their symbols."""
    num = PerfSeries.one(params)
    for factor in upper:
        num = num * factor
    den = carlitz_D(params, m)
    for factor in lower:
        den = den * factor
    return num * den.invert(window=window)


def _linear_series(params: FieldParams, coeff, M: int) -> LinearSeries:
    """The truncation sum_(m<=M) coeff(m) z^(q^m) of a coefficient family."""
    return LinearSeries(params, {m: coeff(m) for m in range(M + 1)}, known=M)


def hyper_coeff(hp: HyperParams, m: int, window=None) -> PerfSeries:
    """h_m = prod <a_i>_m / (prod <b_j>_m * D_m)."""
    if m < 0:
        raise UsageError("need m >= 0")
    return _coeff_quotient(hp.params, m, (pochhammer(a, m) for a in hp.a_list),
                           (pochhammer(b, m) for b in hp.b_list), window)


def _tail_slope(hp: HyperParams) -> Fraction:
    """k = q * (sum_i alpha^_i - sum_j B_j) - 1: the term-valuation lower
    bound of index m is k (q^m - 1)/(q - 1) + q^m val(z)."""
    alpha_sum = Fraction(0)
    for a in hp.a_list:
        lb = a._val_lb()
        alpha_sum += Fraction(1) if lb == INF else min(Fraction(1), Fraction(lb))
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
    since then the omitted tail carries no valuation guarantee.
    """
    params = hp.params
    if z.params != params:
        raise ParameterMismatchError("z over a different field")
    if z.is_zero():
        return PerfSeries.zero(params)
    threshold = convergence_bound(hp)
    if z.is_zero_at_prec():
        if Fraction(z.prec) <= threshold:
            raise InadmissibleError(
                "z is zero at precision %s, below the convergence threshold %s"
                % (z.prec, threshold))
        return PerfSeries.zero(params, prec=Fraction(z.prec))
    val_z = z.valuation()
    if val_z <= threshold:
        raise InadmissibleError(
            "z outside the certified convergence region: val(z) = %s <= %s"
            % (val_z, threshold))
    return hyper_series(hp, M, window=window).evaluate(
        z, tail_prec=_tail_valuation(hp, val_z, M + 1))


def hyper_series(hp: HyperParams, M: int, window=None) -> LinearSeries:
    """The truncation of the function as an F_q-linear series in z."""
    return _linear_series(hp.params,
                          lambda m: hyper_coeff(hp, m, window=window), M)


# ---------------------------------------------------------------------------
# integer-parameter family
# ---------------------------------------------------------------------------

def hyper_thakur_coeff(params: FieldParams, alphas, betas, m: int,
                       window=None) -> PerfSeries:
    """t_m = prod (alpha_i)_m / (prod (beta_j)_m * D_m) with beta_j >= 1.

    Refuses lower parameters below 1, the only ones whose symbol can
    vanish."""
    if m < 0:
        raise UsageError("need m >= 0")
    for beta in betas:
        if beta < 1:
            raise UsageError("lower parameters must be positive integers, got %r"
                             % (beta,))
    return _coeff_quotient(
        params, m, (pochhammer_thakur(params, alpha, m) for alpha in alphas),
        (pochhammer_thakur(params, beta, m) for beta in betas), window)


def thakur_series(params: FieldParams, alphas, betas, M: int,
                  window=None) -> LinearSeries:
    return _linear_series(
        params,
        lambda m: hyper_thakur_coeff(params, alphas, betas, m, window=window), M)


def _bracket_params(params: FieldParams, integers):
    """The bracket parameters [-alpha] that stand for integer parameters."""
    return [bracket(params, -alpha) for alpha in integers]


@dataclass
class CorrespondenceResult:
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
    hp = HyperParams(params, _bracket_params(params, alphas),
                     _bracket_params(params, betas))
    rho = None
    for m in range(M + 1):
        t_m = hyper_thakur_coeff(params, alphas, betas, m, window=window)
        h_m = hyper_coeff(hp, m, window=window)
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
    upper = series
    for a in a_list:
        upper = upper.delta() - upper.scale(a)  # (Delta - a) u
    lower = series.d()
    for b in b_list:
        lower = lower.delta() - lower.scale(b)
    return upper - lower


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
        term2 = ddu.tau() - ddu.tau().tau()          # tau(1 - tau) d^2 u
        coeff = bracket(params, -1).frobenius(1) + a + b
        term1 = du.tau().scale(coeff) - du.scale(c)  # {([-1]^q+a+b) tau - c} d u
        term0 = series.scale(a * b)
        return term2 + term1 - term0
    raise UsageError("form must be 'product' or 'gauss', got %r" % (form,))


def thakur_residual(params: FieldParams, alphas, betas, M: int,
                    window=None) -> LinearSeries:
    """Product-form residual of the integer-parameter function: applies
    prod(Delta - [-alpha_i]) - (prod(Delta - [-beta_j])) d."""
    series = thakur_series(params, alphas, betas, M, window=window)
    return _product_residual(series, _bracket_params(params, alphas),
                             _bracket_params(params, betas))


# ---------------------------------------------------------------------------
# contiguous (unit-shift) relations
# ---------------------------------------------------------------------------

CONTIGUOUS_IDS = ("5.3", "5.4", "5.5", "5.6", "5.7", "5.8")


@dataclass
class CheckResult:
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

    Function identities (parameters ``a``, ``b``, ``c``; coefficient-wise
    for every index up to ``M``):

      5.7   F(T1(a), b; c; a z) - F(a, T1(b); c; b z) = (a - b) F(a, b; c; z)
      5.8   F(a,b;c;z) - F(a,b;c;z)^q + (c^q - b^q) F(a,b;T1(c);c^(-1) z)^q
              - (a^q + [1]) F(Tm1(a), b; c; (a^q+[1])^(-1) z) = 0
            (c invertible and a^q + [1] invertible)
    """
    if ident in ("5.3", "5.4", "5.5", "5.6"):
        if a is None or m is None:
            raise UsageError("identity %s needs a and m" % ident)
        return _symbol_check(ident, a, m, window)
    if ident in ("5.7", "5.8"):
        if a is None or b is None or c is None or M is None:
            raise UsageError("identity %s needs a, b, c and M" % ident)
        return _function_check(ident, params, a, b, c, M, window)
    raise UsageError("unknown identity %r (have %s)" % (ident, CONTIGUOUS_IDS))


def _symbol_check(ident, a, m, window) -> CheckResult:
    params = a.params
    if ident == "5.3":
        if m < 0:
            raise UsageError("5.3 needs m >= 0")
        if a.is_zero():
            raise UsageError("5.3 needs a != 0")
        if a.is_zero_at_prec():
            raise PrecisionError("5.3: a is zero at its precision")
        lhs = pochhammer(shift_up(a), m)
        rhs = (a.frobenius(m).invert(window=window)
               * (a - bracket(params, m)) * pochhammer(a, m))
    elif ident == "5.4":
        if m < 0:
            raise UsageError("5.4 needs m >= 0")
        lhs = pochhammer(a, m + 1)
        rhs = -(a.frobenius(m + 1) * pochhammer(shift_up(a), m).frobenius(1))
    elif ident == "5.5":
        if m < 1:
            raise UsageError("5.5 needs m >= 1")
        lhs = pochhammer(shift_down(a), m)
        rhs = -((bracket(params, 1) + a.frobenius(1)).frobenius(m)
                * pochhammer(a, m - 1).frobenius(1))
    else:  # 5.6
        if m < 1:
            raise UsageError("5.6 needs m >= 1")
        denom = (bracket(params, m - 1) - a).frobenius(1)
        if denom.is_zero():
            raise UsageError("5.6 needs a != [m-1]")
        if denom.is_zero_at_prec():
            raise PrecisionError("5.6: [m-1] - a is zero at its precision")
        lhs = pochhammer(shift_down(a), m)
        rhs = -((bracket(params, 1) + a.frobenius(1)).frobenius(m)
                * denom.invert(window=window) * pochhammer(a, m))
    diff = lhs - rhs
    return CheckResult(ident, lhs == rhs, [diff])


def _function_check(ident, params, a, b, c, M, window) -> CheckResult:
    base = HyperParams(params, (a, b), (c,))
    residuals = []
    ok = True
    if ident == "5.7":
        left_a = HyperParams(params, (shift_up(a), b), (c,))
        left_b = HyperParams(params, (a, shift_up(b)), (c,))
        h, h_a, h_b = (hyper_series(hp, M, window=window).coefficient
                       for hp in (base, left_a, left_b))
        for m in range(M + 1):
            lhs = h_a(m) * a.frobenius(m) - h_b(m) * b.frobenius(m)
            rhs = (a - b) * h(m)
            residuals.append(lhs - rhs)
            ok = ok and lhs == rhs
        return CheckResult(ident, ok, residuals)
    # 5.8
    if c.is_zero() or c.is_zero_at_prec():
        raise UsageError("5.8 needs c invertible")
    shifted_a = shift_down(a)  # the scalar a^q + [1] equals Tm1(a)
    if shifted_a.is_zero() or shifted_a.is_zero_at_prec():
        raise UsageError("5.8 needs a^q + [1] invertible")
    third = HyperParams(params, (a, b), (shift_up(c),))
    fourth = HyperParams(params, (shifted_a, b), (c,))
    inv_c = c.invert(window=window)
    inv_sa = shifted_a.invert(window=window)
    scale3 = c.frobenius(1) - b.frobenius(1)
    h = hyper_series(base, M, window=window).coefficient
    h3 = hyper_series(third, M - 1, window=window).coefficient
    h4 = hyper_series(fourth, M, window=window).coefficient
    for m in range(M + 1):
        total = h(m)
        if m >= 1:
            total = total - h(m - 1).frobenius(1)
            total = total + scale3 * h3(m - 1).frobenius(1) * inv_c.frobenius(m)
        total = total - shifted_a * h4(m) * inv_sa.frobenius(m)
        residuals.append(total)
        ok = ok and total.is_zero_at_prec()
    return CheckResult(ident, ok, residuals)
