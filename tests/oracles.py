"""Test oracles shared by the differential tests.

The direct hypergeometric coefficient quotient prod(upper) / (D_m *
prod(lower)), which the library replaced by the q-twisted recursion for
exact field parameters; the exact comparison of two series; trial-division
irreducibility of a field modulus, which the library decides through its
table build; the recurrence for the Pochhammer symbol <a>_m, which the
library computes as the direct product; and quotients through a built
inverse: the long-division inverse, the quotient as a product with it,
and the q-twisted steps of the hypergeometric stream and of the Cauchy
solver on top of them, which the library replaced by long division seeded
with the dividend; and the series operations as they were when every
result went through one filtering constructor, ``MakePath``, which the
library replaced by results that are canonical by construction; and the
scan that lowered a series' exponent grid one q-power at a time, which
the library replaced by one gcd of the exponents; and the admissibility
scan that evaluates Q at every bracket tuple, which the library now runs
only when Q's constant coefficient does not dominate; and the flat sum of
a delta polynomial's monomials, each multiplied by its powers of the
values, which the library replaced by Horner's rule in each indeterminate
(the scan and the Cauchy coefficients here call the flat sum); and the
product-form residual as one whole-series pass per factor Delta - a,
which the library replaced by one multiplier per coefficient; and the
series printer that read each term through ``PerfSeries.items()`` as a
Fraction exponent and an FFElement, which the library replaced by one
that reads the integer exponent grid; and ``MultiFunction.evaluate`` as
each slot times a built inverse of the expanded D_m, which the library
replaced by one quotient pass over the two-term factors of D_m, as it did
for the expanded D_m and <a>_m of the direct coefficient quotient; and the
Thakur symbols expanded through D and L, the middle case as a built
inverse of L and the direct quotient t_m with each L in its divisor,
which the library replaced by the symbols' two-term factors; and the
bracket as ``from_terms(...) - x``, D_n and L_n by their recursions
D_n = [n] D_(n-1)^q and L_n = [n] L_(n-1), (alpha)_n for alpha >= 1 as
the twist D_(n+alpha-1)^(q^(1-alpha)), and the factor lists as twisted
brackets [k]^(q^j), which the library replaced by products of two-term
factors built straight on their grid; and the quotient kernel's tuple
(dexp, terms, prec), which every caller wrapped in
``PerfSeries._canonical``, the q-twisted step as a function of its own
on that tuple, and D_n, L_n, <a>_m and (alpha)_n, alpha >= 1, as
pairwise products of their factors, which the library replaced by one
kernel call that returns the canonical series, its Frobenius image, and
one kernel call per symbol.  Each is kept here once and in no library
module.  The kernel's own body before it cancelled shared factors, folded
divisors that cannot act and cut the seeds at the bound is the
tuple-form quotient here, and the long division before one-step divisors
were walked as chains is ``ref_long_division``, the heap loop for every
divisor, which that quotient calls.
"""

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import product
from operator import mul

from carlitz import PerfSeries, bracket, pochhammer
from carlitz.brackets import (INFINITY, _factorial_factors, _l_factors,
                              _pochhammer_factors, _thakur_factors, _two_term)
from carlitz.cauchy import AdmissibilityReport, _index_values
from carlitz.errors import NotInvertibleError, PrecisionError, UsageError
from carlitz.ffield import FFElement
from carlitz.series import (DEFAULT_INVERT_WINDOW, INF, _grid_bound,
                            _product_prec, _product_terms)


def ref_bracket(params, n):
    """[n] as x^(q^n) - x from its exponent; [inf] = -x; [0] = 0."""
    if n != INFINITY and not isinstance(n, int):
        raise UsageError("bracket index must be an integer or INFINITY")
    if n == INFINITY:
        return PerfSeries.monomial(params, 1, -1)
    return (PerfSeries.from_terms(params, {Fraction(params.q) ** n: 1})
            - PerfSeries.x(params))


def ref_carlitz_D(params, n):
    """D_n through D_n = [n] * D_(n-1)^q; D_0 = 1."""
    if n < 0:
        raise UsageError("D_n needs n >= 0")
    if n == 0:
        return PerfSeries.one(params)
    return ref_bracket(params, n) * ref_carlitz_D(params, n - 1).frobenius(1)


def ref_carlitz_L(params, n):
    """L_n through L_n = [n] * L_(n-1); L_0 = 1."""
    if n < 0:
        raise UsageError("L_n needs n >= 0")
    if n == 0:
        return PerfSeries.one(params)
    return ref_bracket(params, n) * ref_carlitz_L(params, n - 1)


def ref_factorial_factors(params, m):
    """The factors [k]^(q^(m-k)), k = 1..m, of D_m as twisted brackets."""
    return [ref_bracket(params, k).frobenius(m - k) for k in range(1, m + 1)]


def ref_thakur_factors(params, alpha, n):
    """The (upper, lower) factor lists of (alpha)_n as twisted brackets."""
    if n < 0:
        raise UsageError("(alpha)_n needs n >= 0")
    if alpha >= 1:
        return [ref_bracket(params, k).frobenius(n - k)
                for k in range(1, n + alpha)], []
    if n > -alpha:
        return [PerfSeries.zero(params)], []
    return ([PerfSeries.constant(params, (-1) ** (n - alpha))],
            [ref_bracket(params, k).frobenius(n) for k in range(1, 1 - alpha - n)])


def ref_coeff_quotient(params, m, upper, lower, window):
    num = PerfSeries.one(params)
    for factor in upper:
        num = num * factor
    den = ref_carlitz_D(params, m)
    for factor in lower:
        den = den * factor
    return num * ref_invert(den, window=window)


def ref_evaluate(f, z, svec, window=None):
    """``MultiFunction.evaluate`` with each D_m expanded and inverted once,
    every slot multiplied by that inverse, z^(q^m) and its s-powers."""
    params = f.params
    inv_d = {}
    acc = PerfSeries.zero(params)
    for key in f.support():
        m, ivec = key[0], key[1:]
        if m not in inv_d:
            inv_d[m] = ref_carlitz_D(params, m).invert(window=window)
        term = f.coeffs[key] * inv_d[m] * z.frobenius(m)
        for s, i in zip(svec, ivec):
            term = term * s.frobenius(i)
        acc = acc + term
    return acc


def ref_pochhammer_recurrent(a, m):
    """<a>_m by iterating <a>_(m+1) = ([m]-a)^q <a>_m^q, the body of the
    recurrent mode that ``pochhammer`` now serves with its direct product."""
    params = a.params
    result = PerfSeries.one(params)
    for k in range(m):
        result = (bracket(params, k) - a).frobenius(1) * result.frobenius(1)
    return result


def ref_hyper_coeff(hp, m, window=None):
    return ref_coeff_quotient(hp.params, m, [pochhammer(a, m) for a in hp.a_list],
                              [pochhammer(b, m) for b in hp.b_list], window)


def ref_thakur_coeff(params, alphas, betas, m, window=None):
    return ref_coeff_quotient(
        params, m, [ref_pochhammer_thakur(params, alpha, m) for alpha in alphas],
        [ref_pochhammer_thakur(params, beta, m) for beta in betas], window)


def ref_thakur_symbol(params, alpha, n):
    """(alpha)_n expanded, as (s, inverted): the symbol is s, or 1/s when
    ``inverted``, which is the middle case, s = (-1)^(n-alpha) L^(q^n)."""
    if n < 0:
        raise UsageError("(alpha)_n needs n >= 0")
    if alpha >= 1:
        return ref_carlitz_D(params, n + alpha - 1).frobenius(1 - alpha), False
    if n > -alpha:
        return PerfSeries.zero(params), False
    value = ref_carlitz_L(params, -alpha - n).frobenius(n)
    return (-value if (n - alpha) % 2 else value), True


def ref_pochhammer_thakur(params, alpha, n, window=None):
    """(alpha)_n through the expanded D or L, the middle case as the built
    inverse of (-1)^(n-alpha) L^(q^n) at ``window``."""
    value, inverted = ref_thakur_symbol(params, alpha, n)
    return ref_invert(value, window=window) if inverted else value


def ref_thakur_quotient(params, alphas, betas, m, window):
    """t_m as the quotient of the expanded symbols: an inverted upper
    symbol's L^(q^m) joins D_m and the lower symbols in the divisor, which
    is multiplied out and inverted once."""
    for beta in betas:
        if beta < 1:
            raise UsageError("lower parameters must be positive integers, got %r"
                             % (beta,))
    upper, lower = [], []
    for alpha in alphas:
        value, inverted = ref_thakur_symbol(params, alpha, m)
        (lower if inverted else upper).append(value)
    lower += [ref_thakur_symbol(params, beta, m)[0] for beta in betas]
    return ref_coeff_quotient(params, m, upper, lower, window)


def assert_same(got, want):
    """Same terms, same dexp, same prec, value and type; an infinite prec
    is ``INF`` itself."""
    assert got.terms == want.terms
    assert got.dexp == want.dexp
    assert got.prec == want.prec
    assert type(got.prec) is type(want.prec)
    assert (got.prec is INF) == (want.prec == INF)


def ref_is_irreducible(mod, p):
    """Whether the monic ``mod`` (ascending coefficients) is irreducible over
    Z/p: no monic divisor of degree 1..deg//2 leaves remainder zero."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            rem = [c % p for c in mod]
            for top in range(deg, d - 1, -1):
                f = rem[top]
                for i, c in enumerate(divisor):
                    rem[top - d + i] = (rem[top - d + i] - f * c) % p
            if not any(rem[:d]):
                return False
    return True


def window_of(prec, divisor):
    """The window that asks a division by ``divisor`` for the absolute
    output precision ``prec``: prec + val(divisor).  None for an exact
    zero divisor, which every window leaves refused as not invertible
    (and whose valuation, the float INF, is no window)."""
    v = divisor._val_lb()
    return None if v is INF else prec + v


def ref_invert(s, window=None):
    """The inverse as a series of its own: one pass of long division on the
    input's grid, normalised to 1 + eps."""
    if window is not None and window <= 0:
        raise UsageError("window must be positive, got %s" % (window,))
    if not s.terms:
        if s.prec == INF:
            raise NotInvertibleError("exact zero series is not invertible")
        raise NotInvertibleError(
            "not invertible at this precision (zero below %s)" % s.prec)
    params = s.params
    q = params.q
    v_scaled = min(s.terms)
    v = Fraction(v_scaled, q ** s.dexp)
    lead = s.terms[v_scaled]
    if len(s.terms) == 1 and s.prec == INF and window is None:
        return PerfSeries._make(params, s.dexp, {-v_scaled: params.inv(lead)}, INF)
    rel_in = INF if s.prec == INF else s.prec - v
    if window is None:
        rel_out = rel_in if rel_in != INF else Fraction(DEFAULT_INVERT_WINDOW)
    else:
        rel_out = min(Fraction(window), rel_in)
    inv_lead = params.inv(lead)
    u_terms = {k - v_scaled: params.mul(c, inv_lead) for k, c in s.terms.items()}
    u = PerfSeries._make(params, s.dexp, u_terms, rel_out)
    log, exp, add, neg = params._log, params._exp, params.add, params.neg
    bound = _grid_bound(rel_out, q ** u.dexp)
    steps = sorted((j, log[neg(c)]) for j, c in u.terms.items() if j > 0)
    y = {}
    pending = {0: params.one_idx}
    heap = [0]
    while heap:
        k = heappop(heap)
        c = pending.pop(k)
        if not c:
            continue
        y[k] = c
        lc = log[c]
        for j, lu in steps:
            t = k + j
            if t >= bound:
                break
            term = exp[lc + lu]
            if t in pending:
                pending[t] = add(pending[t], term)
            else:
                pending[t] = term
                heappush(heap, t)
    y = PerfSeries._make(params, u.dexp, y, rel_out)
    return y.scale(FFElement(params, inv_lead)).shift(-v)


def ref_divide(a, b, window=None):
    a._check(b)
    return a * ref_invert(b, window=window)


def ref_stream_step(h, num, den, window):
    """h_(m+1) = (h_m * num * den^-1)^q, num and den multiplied out first."""
    n = PerfSeries.one(h.params)
    for f in num:
        n = n * f
    d = den[0]
    for f in den[1:]:
        d = d * f
    return (h * n * ref_invert(d, window=window)).frobenius(1)


def ref_eval_at(poly, values):
    """A delta polynomial at a value tuple as the flat sum of c_e v^e over
    its monomials, each power v_j^k built once by ``pow``."""
    if len(values) != poly.n:
        raise UsageError("expected %d values" % poly.n)
    acc = PerfSeries.zero(poly.params)
    powers = [{0: PerfSeries.one(poly.params)} for _ in range(poly.n)]
    for e in sorted(poly.coeffs):
        term = poly.coeffs[e]
        for j, k in enumerate(e):
            if k not in powers[j]:
                powers[j][k] = values[j].pow(k)
            term = term * powers[j][k]
        acc = acc + term
    return acc


def ref_product_residual(series, a_list, b_list):
    """prod(Delta - a_i) u - prod(Delta - b_j) d u, each factor applied to
    the whole series as Delta u - a u."""
    upper = series
    for a in a_list:
        upper = upper.delta() - upper.scale(a)
    lower = series.d()
    for b in b_list:
        lower = lower.delta() - lower.scale(b)
    return upper - lower


def ref_format_exponent(e):
    e = Fraction(e)
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    if e.denominator == 1:
        return "(%d)" % e.numerator
    return "(%d/%d)" % (e.numerator, e.denominator)


def ref_format_series(s):
    """The canonical text of ``s`` from its (Fraction, FFElement) items."""
    params = s.params
    parts = []
    for e, c in s.items():
        cs = params.coeff_str(c.idx)
        if e == 0:
            parts.append(cs)
        else:
            xpart = "x" if e == 1 else "x^" + ref_format_exponent(e)
            parts.append(xpart if cs == "1" else "%s*%s" % (cs, xpart))
    if s.prec is not INF:
        parts.append("O(x^%s)" % ref_format_exponent(s.prec))
    if not parts:
        return "0"
    return " + ".join(parts)


def ref_cauchy_step(c, pe, qe, window):
    """c_(m+1, i+1) = -(P/Q * c_(m, i))^q at the brackets of i."""
    return -(ref_divide(pe, qe, window=window) * c).frobenius(1)


def ref_cauchy_coeffs(eq, init, trunc_m, trunc_i, window=None):
    """The coefficients cauchy_solve fills once the admissibility check has
    passed: each prescribed c_(0, i) walked along the diagonal."""
    coeffs = {}
    for ivec, c in init.values.items():
        if any(i > trunc_i for i in ivec):
            continue
        step = 0
        while True:
            coeffs[(step,) + tuple(i + step for i in ivec)] = c
            if step + 1 > trunc_m or any(i + step + 1 > trunc_i for i in ivec):
                break
            values = _index_values(eq.params, [i + step for i in ivec])
            pe = ref_eval_at(eq.P, values)
            qe = ref_eval_at(eq.Q, values)
            if qe.is_zero_at_prec():
                raise PrecisionError(
                    "P/Q quotient indeterminate at indices %r"
                    % ((tuple(i + step for i in ivec)),))
            c = ref_cauchy_step(c, pe, qe, window)
            step += 1
    return coeffs


def ref_admissibility_check(eq, i_max):
    """Q evaluated at every tuple over {0..i_max, inf}, in product order:
    the first exact zero fails, the first value with no terms at finite
    precision is indeterminate, and otherwise mu is the largest valuation."""
    if i_max < 0:
        raise UsageError("i_max must be >= 0")
    worst = None
    for combo in product(list(range(i_max + 1)) + [INFINITY], repeat=eq.n):
        value = ref_eval_at(eq.Q, _index_values(eq.params, combo))
        if value.is_zero():
            return AdmissibilityReport("fail", None, combo, i_max)
        if value.is_zero_at_prec():
            return AdmissibilityReport("indeterminate", None, combo, i_max)
        v = value.valuation()
        worst = v if worst is None else max(worst, v)
    return AdmissibilityReport("ok", worst, None, i_max)


def ref_canonical(params, dexp, terms, prec):
    """PerfSeries._canonical as a scan: while q^(j+1) divides every
    exponent, one more q-power leaves the grid."""
    if dexp:
        q = params.q
        f = 1
        while dexp and all(k % (f * q) == 0 for k in terms):
            f *= q
            dexp -= 1
        if f > 1:
            terms = {k // f: c for k, c in terms.items()}
    return PerfSeries(params, dexp, terms, prec)


class MakePath:
    """The series operations with every result re-filtered and re-scanned
    by one constructor, ``make``: zero coefficients and terms at or above
    the precision dropped, then the exponent grid lowered one q-power at a
    time.  The kernels (products, quotients, alignment) are the library's;
    only the way a result is formed differs."""

    @staticmethod
    def make(params, dexp, terms, prec):
        q = params.q
        if prec != INF:
            bound = _grid_bound(prec, q ** dexp)
            terms = {k: c for k, c in terms.items() if c != 0 and k < bound}
        else:
            terms = {k: c for k, c in terms.items() if c != 0}
        while dexp > 0 and all(k % q == 0 for k in terms):
            terms = {k // q: c for k, c in terms.items()}
            dexp -= 1
        if not terms:
            dexp = 0
        return PerfSeries(params, dexp, terms, prec)

    @staticmethod
    def add(a, b):
        a._check(b)
        d, ta, tb = a._aligned(b)
        out = dict(ta)
        add = a.params.add
        for k, c in tb.items():
            if k in out:
                s = add(out[k], c)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        return MakePath.make(a.params, d, out, min(a.prec, b.prec))

    @staticmethod
    def neg(a):
        neg = a.params.neg
        return PerfSeries(a.params, a.dexp,
                          {k: neg(c) for k, c in a.terms.items()}, a.prec)

    @staticmethod
    def sub(a, b):
        return MakePath.add(a, MakePath.neg(b))

    @staticmethod
    def mul(a, b):
        a._check(b)
        prec = min(a.prec + b._val_lb(), b.prec + a._val_lb())
        d, ta, tb = a._aligned(b)
        bound = _grid_bound(prec, a.params.q ** d) if prec != INF else INF
        return MakePath.make(a.params, d,
                             _product_terms(a.params, ta, tb, bound), prec)

    @staticmethod
    def scale(a, c):
        idx = c.idx if isinstance(c, FFElement) else a.params.from_int(c)
        if idx == 0:
            return MakePath.make(a.params, 0, {}, INF)
        mul = a.params.mul
        return PerfSeries(a.params, a.dexp,
                          {k: mul(c0, idx) for k, c0 in a.terms.items()}, a.prec)

    @staticmethod
    def shift(a, exponent):
        e = Fraction(exponent)
        den = e.denominator
        while den % a.params.p == 0:
            den //= a.params.p
        if den != 1:
            raise UsageError("shift exponent %s is not in Z[1/q]" % e)
        q = a.params.q
        k = 0
        while (e * q ** k).denominator != 1:
            k += 1
        d = max(a.dexp, k)
        off = int(e * q ** d)
        fa = q ** (d - a.dexp)
        terms = {kk * fa + off: c for kk, c in a.terms.items()}
        prec = a.prec if a.prec == INF else a.prec + e
        return MakePath.make(a.params, d, terms, prec)

    @staticmethod
    def frobenius(a, e):
        params = a.params
        q = params.q
        frob = params.frob
        if e >= 0:
            f = q ** e
            terms = {k * f: frob(c, e) for k, c in a.terms.items()}
            dexp = a.dexp
        else:
            terms = {k: frob(c, e) for k, c in a.terms.items()}
            dexp = a.dexp - e
        prec = a.prec if a.prec == INF else a.prec * Fraction(q) ** e
        return MakePath.make(params, dexp, terms, prec)

    @staticmethod
    def truncate(a, prec):
        if prec == INF:
            return a
        prec = Fraction(prec)
        return MakePath.make(a.params, a.dexp, dict(a.terms), min(a.prec, prec))

    @staticmethod
    def divide(a, b, window=None):
        a._check(b)
        return MakePath.make(a.params, *ref_quotient_terms(a, (), (b,), window))

    @staticmethod
    def invert(a, window=None):
        return MakePath.divide(MakePath.make(a.params, 0, {0: a.params.one_idx}, INF),
                               a, window=window)

    @staticmethod
    def twisted_step(c, num, den, window):
        params = c.params
        factors = (*num, *den)
        if (c.terms and all(f.terms for f in factors)
                and (len(num) <= 1 and len(den) <= 1
                     or all(f.prec == INF for f in factors))):
            d, terms, prec = ref_quotient_terms(c, num, den, window)
            q, frob = params.q, params._frob[1 % params.m]
            s = 1 if d else q
            return MakePath.make(params, max(d - 1, 0),
                                 {k * s: frob[x] for k, x in terms.items()},
                                 prec * q)
        product = MakePath.make(params, 0, {0: params.one_idx}, INF)
        for f in num:
            product = MakePath.mul(product, f)
        divisor = den[0]
        for f in den[1:]:
            divisor = MakePath.mul(divisor, f)
        return MakePath.frobenius(
            MakePath.divide(MakePath.mul(c, product), divisor, window=window), 1)


# ---------------------------------------------------------------------------
# the quotient kernel's tuple form, the separate q-twisted step and the
# pairwise symbol products
# ---------------------------------------------------------------------------

def ref_quotient_terms(c, num, den, window, negate=False):
    """c * prod(num) / prod(den) as (dexp, terms, prec), the tuple the
    quotient kernel returned before it returned the canonical series: the
    terms, precision and refusals of
    ``c * prod(num) * prod(den).invert(window)`` with no inverse built, its
    negation when ``negate``.  The terms are nonzero and below prec; dexp
    may not yet be the least.

    Any factors are allowed, exact or truncated, several to a side.  A
    denominator factor without terms is refused as prod(den) would be; a
    dividend factor without terms gives no terms, at the precision of the
    dividend less the valuation of prod(den).  Otherwise the relative
    precision of a product is the least of its factors', so the quotient
    keeps the least of the numerators' and the inverse's.  Each factor is
    moved to valuation 0 on one grid; c's terms, seeded at the quotient's
    valuation, are multiplied by each numerator and long-divided by each
    denominator, every pass cut at the quotient's precision."""
    if window is not None:
        if not isinstance(window, (int, Fraction)):
            raise UsageError("window must be an int or a Fraction, got %r"
                             % (window,))
        if window <= 0:
            raise UsageError("window must be positive, got %s" % (window,))
    if not all(f.terms for f in den):
        den_prec = _product_prec(den)
        if den_prec is INF:
            raise NotInvertibleError("exact zero series is not invertible")
        raise NotInvertibleError(
            "not invertible at this precision (zero below %s)" % den_prec)
    params = c.params
    q = params.q
    d = max(f.dexp for f in (c, *num, *den))
    scale = q ** d

    def on_grid(f):
        s = q ** (d - f.dexp)
        return f.terms if s == 1 else {k * s: x for k, x in f.terms.items()}

    dens = [on_grid(f) for f in den]
    v = sum(min(t) for t in dens)  # valuation of prod(den), on the grid
    # the relative precision of prod(den), and the one its inverse keeps
    rel_in = min((f.prec - f._val_lb() for f in den if f.prec is not INF),
                 default=INF)
    if window is not None:
        rel_out = min(Fraction(window), rel_in)
    elif rel_in is not INF:
        rel_out = rel_in
    elif all(len(t) == 1 for t in dens):
        rel_out = INF  # the exact inverse of a monomial
    else:
        rel_out = Fraction(DEFAULT_INVERT_WINDOW)
    if not all(f.terms for f in (c, *num)):
        # rel_out > 0, so the dividend's own term is the least
        out_prec = _product_prec((c, *num))
        if out_prec is not INF:
            out_prec -= Fraction(v, scale)
        return 0, {}, out_prec

    c_terms = on_grid(c)
    c_val = min(c_terms)
    offset = -v
    nums = []
    for f in num:
        t = on_grid(f)
        k0 = min(t)
        offset += k0
        nums.append((f.prec, k0, {k - k0: x for k, x in t.items()}))
    val = c_val + offset  # valuation of the quotient, on the grid
    # the term of the inverse, then of each truncated numerator
    out_prec = INF if rel_out is INF else rel_out + Fraction(val, scale)
    for p, k0 in [(c.prec, c_val)] + [(p, k0) for p, k0, _ in nums]:
        if p is not INF:
            out_prec = min(out_prec, p + Fraction(val - k0, scale))
    bound = INF if out_prec is INF else _grid_bound(out_prec, scale)

    log, exp, neg = params._log, params._exp, params._neg
    n = params.Q - 1
    lead_log = log[params.minus_one_idx] if negate else 0
    divisors = []
    for t in dens:
        k0 = min(t)
        ll = log[t[k0]]
        lead_log -= ll
        divisors.append(sorted((k - k0, (log[neg[x]] - ll) % n)
                               for k, x in t.items() if k > k0))
    lead_log %= n
    terms = {k + offset: exp[log[x] + lead_log] for k, x in c_terms.items()}
    for _, _, t in nums:
        terms = _product_terms(params, terms, t, bound)
    for steps in divisors:
        terms = ref_long_division(params, terms, steps, bound)
    return d, terms, out_prec


def ref_long_division(params, seeds, steps, bound):
    """The terms below ``bound`` of seeds / (1 + eps), in one pass of long
    division: w_k = seeds_k - sum_(j>0) eps_j w_(k-j).  ``steps`` holds
    (j, log(-eps_j)) for the terms of eps, in increasing j.  Every nonzero
    w_k is pushed forward to k + j for each step, so only exponents
    reachable from a seed by such steps are visited, in increasing order,
    each once all its terms have arrived."""
    log, exp, add_table = params._log, params._exp, params._add_table
    pending = {k: c for k, c in seeds.items() if k < bound}
    heap = list(pending)
    heapify(heap)
    out = {}
    while heap:
        k = heappop(heap)
        c = pending.pop(k)
        if not c:
            continue
        out[k] = c
        lc = log[c]
        for j, lu in steps:
            t = k + j
            if t >= bound:
                break
            term = exp[lc + lu]
            if t in pending:
                pending[t] = add_table[pending[t]][term]
            else:
                pending[t] = term
                heappush(heap, t)
    return out


def ref_quotient(c, num, den, window, negate=False):
    """The quotient as every caller formed it from the tuple:
    ``PerfSeries._canonical(params, *ref_quotient_terms(...))``."""
    return PerfSeries._canonical(c.params,
                                 *ref_quotient_terms(c, num, den, window, negate))


def ref_twisted_step(c, num, den, window, negate=False):
    """(c * prod(num) / prod(den))^q as its own function, with the Frobenius
    image written straight from the tuple of ``ref_quotient_terms``: the
    exponents k / q^d go to k / q^(d-1), or to kq on the integer grid.
    With ``negate`` the sign is taken inside the quotient."""
    params = c.params
    d, terms, prec = ref_quotient_terms(c, num, den, window, negate)
    q, frob = params.q, params._frob[1 % params.m]
    s = 1 if d else q
    return PerfSeries._canonical(params, max(d - 1, 0),
                                 {k * s: frob[x] for k, x in terms.items()},
                                 prec * q)


def ref_product(params, factors):
    """prod(factors), multiplied pairwise from the unit."""
    return reduce(mul, factors, PerfSeries.one(params))


def ref_expand(params, count, factors, *args):
    """The product of ``factors(params, count, *args)``, refused before any
    factor is built when its 2^count terms pass 2^20."""
    if count >= 21:
        raise UsageError("an expanded product must have at most %d terms, "
                         "got 2^%d" % (2 ** 20, count))
    return ref_product(params, factors(params, count, *args))


def ref_kernel_D(params, n):
    if n < 0:
        raise UsageError("D_n needs n >= 0")
    return ref_expand(params, n, _factorial_factors)


def ref_kernel_L(params, n):
    if n < 0:
        raise UsageError("L_n needs n >= 0")
    return ref_expand(params, n, _l_factors)


def ref_kernel_pochhammer(a, m):
    """<a>_m as the pairwise product of its two-term factors."""
    if m < 0:
        raise UsageError("<a>_m needs m >= 0")
    return ref_product(a.params, _pochhammer_factors(a, m))


def ref_kernel_pochhammer_thakur(params, alpha, n):
    """(alpha)_n by two paths: the pairwise product of the upper factors
    for alpha >= 1, the tuple-form quotient of the factors otherwise."""
    if alpha >= 1 and n >= 0:
        return ref_expand(params, n + alpha - 1, _factorial_factors, n)
    return ref_quotient(PerfSeries.one(params),
                        *_thakur_factors(params, alpha, n), None)


def ref_kernel_hyper_coeff(hp, m, window=None):
    """h_m from the tuple-form quotient over the symbols' factors: directly
    at m = 0 and for parameters with finite precision, otherwise m steps
    of ``ref_twisted_step`` from h_0 at relative precision R/q."""
    params = hp.params

    def direct(k):
        return ref_quotient(
            PerfSeries.one(params),
            [f for a in hp.a_list for f in _pochhammer_factors(a, k)],
            _factorial_factors(params, k)
            + [f for b in hp.b_list for f in _pochhammer_factors(b, k)],
            window)
    if m == 0 or not all(s.is_exact() for s in hp.a_list + hp.b_list):
        return direct(m)
    rel = Fraction(DEFAULT_INVERT_WINDOW if window is None else window) / params.q
    h = direct(0)
    for k in range(m):
        b_k = bracket(params, k)
        h = ref_twisted_step(h, [b_k - a for a in hp.a_list],
                             [_two_term(params, k, -1)]
                             + [b_k - b for b in hp.b_list], rel)
    return h


def ref_kernel_evaluate(f, z, svec, window=None):
    """``MultiFunction.evaluate`` with each slot a tuple-form quotient by
    the two-term factors of D_m."""
    params = f.params
    if len(svec) != f.n:
        raise UsageError("expected %d s-arguments" % f.n)
    acc = PerfSeries.zero(params)
    for key in f.support():
        m = key[0]
        powers = [z.frobenius(m)] + [s.frobenius(i) for s, i in zip(svec, key[1:])]
        acc = acc + ref_quotient(f.coeffs[key], powers,
                                 _factorial_factors(params, m), window)
    return acc
