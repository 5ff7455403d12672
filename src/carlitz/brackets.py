"""Basic Carlitz quantities over F_Q((x)) and its perfection.

The bracket [n] = x^(q^n) - x is the function-field analog of the integer
n; [0] = 0 and the limit point is [inf] = -x.  Negative indices make sense
inside the perfection, where q^n = 1/q^|n| is a legal exponent.  From the
brackets come the two factorials

    D_n = [n] [n-1]^q ... [1]^(q^(n-1))      (with D_0 = 1)
    L_n = [n] [n-1] ... [1]                  (with L_0 = 1)

and two shifted-factorial ("Pochhammer") symbols: the classical-integer
one with the three-case definition, and the field-parameter one

    <a>_m = ([0]-a)^(q^m) ([1]-a)^(q^(m-1)) ... ([m-1]-a)^q,   <a>_0 = 1,

which satisfies <a>_(m+1) = ([m]-a)^q <a>_m^q.  D_m, <a>_m and the
integer-parameter symbols (alpha)_n, a twist of D or the reciprocal of a
twist of L, are products and quotients of two-term factors
(``_factorial_factors``, ``_l_factors``, ``_pochhammer_factors``,
``_thakur_factors``).  Each symbol is one call of the quotient kernel
``series._quotient`` from the unit over its factor lists: multiplied by
each upper factor and divided by each lower one.  A quotient of symbols
divides by the factors one at a time rather than by the expanded product,
which has up to 2^m terms.  The unit parameter shifts

    T_up(a) = (a - [1])^(1/q),     T_down(a) = a^q + [1]

are mutually inverse and extend the integer shift: T_up([-n]) = [-n-1].

Every bracket and every symbol factor is one two-term series
x^(q^i) - x^(q^j), built straight on its exponent grid by ``_two_term``:
[k]^(q^j) is x^(q^(k+j)) - x^(q^j).  The exact D_n, L_n and (alpha)_n,
alpha >= 1, are each the kernel's product of their factor list, with no
divisor.  Choosing one term of each factor of D_n gives the exponent
(n - |S|) q^n + sum_(k in S) q^(n-k), and of L_n the exponent
n + sum_(k not in S) (q^k - 1): subset sums of powers of q below q^n,
and of the superincreasing q^k - 1, so distinct choices never meet and
D_n and L_n have exactly 2^n terms.  That count alone decides the
refusal: a product of more than 20 factors, with more than
``_TERM_LIMIT`` (2^20) terms, is refused with a UsageError that names
the limit, before any factor is built.

Only the brackets are memoized per field configuration (a bounded cache
on the FieldParams instance; entries are immutable, so concurrent reads
are safe and a racing recompute is benign).
"""

from __future__ import annotations

from .errors import UsageError
from .series import INF, PerfSeries, _quotient
from .ffield import FieldParams

#: Index value for the limit bracket [inf] = -x.
INFINITY = INF

# Memoize the bracket [n] only for |n| up to this bound.
_CACHE_LIMIT = 64

# Expand no product of two-term factors with more terms than this: a
# product of n factors has up to 2^n terms, D_n and L_n exactly 2^n.
_TERM_LIMIT = 2 ** 20


def _two_term(params: FieldParams, i: int, j: int) -> PerfSeries:
    """The exact x^(q^i) - x^(q^j) for distinct integers i and j, on its
    least grid q^dexp, dexp = max(0, -i, -j): the exponents q^(i+dexp) and
    q^(j+dexp) are integers, and one of them is 1 when dexp > 0."""
    dexp = max(0, -i, -j)
    q = params.q
    return PerfSeries(params, dexp, {q ** (i + dexp): params.one_idx,
                                     q ** (j + dexp): params.minus_one_idx},
                      INF)


def bracket(params: FieldParams, n) -> PerfSeries:
    """[n] = x^(q^n) - x for integer n (any sign); [inf] = -x; [0] = 0."""
    infinite = n == INFINITY
    if not infinite and not isinstance(n, int):
        raise UsageError("bracket index must be an integer or INFINITY")
    cache = params.bracket_cache
    if n in cache:
        return cache[n]
    if infinite:
        result = PerfSeries.monomial(params, 1, -1)
    elif n == 0:
        result = PerfSeries.zero(params)
    else:
        result = _two_term(params, n, 0)
    if infinite or abs(n) <= _CACHE_LIMIT:
        cache[n] = result
    return result


def _check_expansion(count: int):
    """Refuse, with a UsageError, a product of ``count`` two-term factors
    whose 2^count terms would pass ``_TERM_LIMIT``: called before any
    factor is built."""
    if count >= _TERM_LIMIT.bit_length():
        raise UsageError("an expanded product must have at most %d terms, "
                         "got 2^%d" % (_TERM_LIMIT, count))


def carlitz_D(params: FieldParams, n: int) -> PerfSeries:
    """D_n, the product of its n two-term factors
    (:func:`_factorial_factors`); D_0 = 1.  It has 2^n terms, and n > 20
    is refused before any factor is built."""
    if n < 0:
        raise UsageError("D_n needs n >= 0")
    _check_expansion(n)
    return _quotient(PerfSeries.one(params), _factorial_factors(params, n),
                     (), None)


def carlitz_L(params: FieldParams, n: int) -> PerfSeries:
    """L_n = [n][n-1]...[1], the product of its n brackets; L_0 = 1.  It
    has 2^n terms, and n > 20 is refused before any factor is built."""
    if n < 0:
        raise UsageError("L_n needs n >= 0")
    _check_expansion(n)
    return _quotient(PerfSeries.one(params), _l_factors(params, n), (), None)


def pochhammer_thakur(params: FieldParams, alpha: int, n: int) -> PerfSeries:
    """The integer-parameter Pochhammer symbol (alpha)_n.

    Three cases: D_(n+alpha-1)^(q^(1-alpha)) for alpha >= 1;
    (-1)^(n-alpha) L_(-alpha-n)^(-q^n) for alpha <= 0 with n <= -alpha;
    and 0 for alpha <= 0 with n > -alpha.

    Each is one pass of the quotient kernel over the factors of
    :func:`_thakur_factors`.  The first is the exact product of its upper
    factors; it has 2^(n+alpha-1) terms, and n + alpha - 1 > 20 is
    refused before any factor is built.  The middle case divides by the
    factors of L, so L is never expanded; it is an infinite series when
    the L-index is positive and keeps the default window,
    DEFAULT_INVERT_WINDOW.  The symbol quotients of :mod:`carlitz.hyper`
    divide by the same factors under their own window.
    """
    if alpha >= 1 and n >= 0:
        _check_expansion(n + alpha - 1)
    return _quotient(PerfSeries.one(params),
                     *_thakur_factors(params, alpha, n), None)


def _thakur_factors(params: FieldParams, alpha: int, n: int):
    """(alpha)_n as (upper, lower) lists of factors, the symbol being
    prod(upper) / prod(lower).  For alpha >= 1 the upper list is the
    two-term factors [k]^(q^(n-k)), k = 1..n+alpha-1, of
    D_(n+alpha-1)^(q^(1-alpha)); for alpha <= 0 < n + alpha it is the
    exact zero; otherwise it is the sign (-1)^(n-alpha), and the lower list
    is the factors [k]^(q^n), k = 1..-alpha-n, of L_(-alpha-n)^(q^n)."""
    if n < 0:
        raise UsageError("(alpha)_n needs n >= 0")
    if alpha >= 1:
        return _factorial_factors(params, n + alpha - 1, n), []
    if n > -alpha:
        return [PerfSeries.zero(params)], []
    return ([PerfSeries.constant(params, (-1) ** (n - alpha))],
            _l_factors(params, -alpha - n, n))


def _factorial_factors(params: FieldParams, m: int, top=None):
    """The two-term factors [k]^(q^(top-k)) = x^(q^top) - x^(q^(top-k)),
    k = 1..m, whose product is D_m^(q^(top-m)): D_m itself when ``top`` is
    m, the default."""
    top = m if top is None else top
    return [_two_term(params, top, top - k) for k in range(1, m + 1)]


def _l_factors(params: FieldParams, m: int, shift=0):
    """The two-term factors [k]^(q^shift) = x^(q^(k+shift)) - x^(q^shift),
    k = 1..m, whose product is L_m^(q^shift)."""
    return [_two_term(params, k + shift, shift) for k in range(1, m + 1)]


def _pochhammer_factors(a: PerfSeries, m: int):
    """The two-term factors ([k]-a)^(q^(m-k)), k < m, whose product is <a>_m."""
    return [(bracket(a.params, k) - a).frobenius(m - k) for k in range(m)]


def pochhammer(a: PerfSeries, m: int) -> PerfSeries:
    """The field-parameter symbol <a>_m; exact when ``a`` is exact.

    It is the quotient kernel's product of the m Frobenius-twisted factors
    of :func:`_pochhammer_factors`, with the terms and precision of
    multiplying them in any order: iterating the recurrence
    <a>_(m+1) = ([m]-a)^q <a>_m^q gives the same exact product.  A
    quotient of symbols divides by those factors instead of by the product.
    """
    if m < 0:
        raise UsageError("<a>_m needs m >= 0")
    return _quotient(PerfSeries.one(a.params), _pochhammer_factors(a, m),
                     (), None)


def shift_up(a: PerfSeries) -> PerfSeries:
    """T_up(a) = (a - [1])^(1/q); sends [-n] to [-n-1]."""
    return (a - bracket(a.params, 1)).frobenius(-1)


def shift_down(a: PerfSeries) -> PerfSeries:
    """T_down(a) = a^q + [1]; inverse of shift_up."""
    return a.frobenius(1) + bracket(a.params, 1)
