"""Truncated perfected Laurent series over F_Q.

A :class:`PerfSeries` is a finite map from exponents in Z[1/q] to nonzero
coefficients of F_Q, together with an exclusive precision bound ``prec``:
every coefficient at an exponent strictly below ``prec`` is known exactly,
everything at or above it is unknown.  ``prec`` may be +infinity, in which
case the series is an exact perfected Laurent polynomial.

A precision has two forms: the ``INF`` object for +infinity, and a
:class:`fractions.Fraction` for a finite bound, which may lie off the
exponent grid (``O(x^(7/2))`` over F_3 is a valid bound).  A caller may
pass an int, a Fraction, a finite float or any float infinity; the
constructor, ``_make`` and ``truncate`` convert it once with
:func:`_precision`, so no other code tests the type of a precision.

Internally exponents live on an integer grid num / q^dexp (minimal dexp),
so exponent arithmetic is plain integer arithmetic; the public API speaks
:class:`fractions.Fraction`.  ``prec`` stays a Fraction (or INF) at the
API, but the hot loops never compare a grid exponent k with it: since k is
an integer, ``k < prec`` on grid q^d is the same test as ``k < B`` for the
integer B = ceil(prec * q^d), computed once per operation.  Coefficients
are stored as integer indices into the parent
:class:`~carlitz.ffield.FieldParams` tables, and products read the
log/exp and addition tables directly.

Every series is canonical: no zero coefficient, no term at or above
``prec``, and the least ``dexp`` that holds its exponents (0 when it has
no terms).  Terms that come from outside the kernels (``from_terms``,
``truncate``, and a sum or difference whose sides differ in precision)
go through ``PerfSeries._make``, which drops zero coefficients and terms
at or above ``prec``; its tail ``PerfSeries._canonical`` only lowers
``dexp``, by as many q-powers as divide the gcd of the exponents, read
with one ``math.gcd``.  Products, quotients, shifts and sums of equally
precise sides produce nonzero terms below their precision by
construction, so they take the tail alone.  Frobenius images skip it as
well: the image of a canonical series is canonical in closed form,
except for e < 0 on the integer grid, which takes the tail.
Each field configuration is one :class:`~carlitz.ffield.FieldParams`
object, so the operand check compares fields by identity.

Precision bookkeeping follows non-Archimedean big-oh arithmetic:

* ``a + b``        prec = min(prec_a, prec_b)
* ``a * b``        prec = min(prec_a + val(b), prec_b + val(a))
* ``a.frobenius(e)``  exponents and prec scale by q^e; coefficients map
  through the (always invertible) q^e Frobenius of F_Q
* ``a.invert()``   for input precision P and valuation w the output is
  exact to P - 2w: the inverse has valuation -w, its relative precision
  equals the relative precision P - w of the input, and absolute
  precision is (-w) + (P - w).  Exact non-monomial inputs have an
  infinite-series inverse, so a finite output precision must be chosen;
  the default is valuation + DEFAULT_INVERT_WINDOW.  An exact monomial
  has an exact inverse.
* ``a.divide(b)``  terms and precision of ``a * b.invert()``, and
  ``invert`` is the quotient of one.  The inverse is never built: the
  quotient comes from one pass of long division on the common exponent
  grid, seeded with the dividend's terms and visiting only the exponents
  that can carry a term.

A division takes one precision request, ``window``: the relative
precision of the inverse, in exponent units above its valuation, capped
by the input's own.  An absolute output precision P for ``b.invert()`` is
the window P + val(b).

One kernel, :func:`_quotient`, takes every symbol expression: it returns
the canonical series c * prod(num) / prod(den) for any factors, exact or
truncated, several to a side.  It works out the output precision once
from grid-integer valuations over all the factors, then takes every
factor, above the line or below it, by one rule: the factor is
x^k0 * lead * (1 + eps), whose k0 and lead join the quotient's valuation
and the one scalar the dividend's terms are seeded with.  The parts
1 + eps of exact factors cancel across the line, also those of factors
equal only up to a monomial and a scalar; a part whose least step lands
at or past the precision from the quotient's valuation acts only through
its lead, on either side; every other part multiplies or long-divides
the dividend's terms, which are cut at the precision before the first
pass.  A divisor of one step, such as every two-term factor, is divided
along chains, one residue class of exponents mod its step at a time
(:func:`_long_division`).  ``divide`` and ``invert`` are one call
with one divisor; the symbol quotients of :mod:`carlitz.hyper` and
``MultiFunction.evaluate`` are one call over the symbols' two-term
factors; and D_n, L_n, (alpha)_n and <a>_m of :mod:`carlitz.brackets` are
one call from the unit, with no divisor for the exact products.  The two
q-twisted steps take it in two orders.  The hypergeometric stream divides
the twisted inputs, ``_quotient(h.frobenius(1), twisted num, twisted den,
window)``, which is the rule of the direct quotient of the symbols.  The
Cauchy solver twists the quotient, ``_quotient(c, [P], [Q], window,
negate=True).frobenius(1)``, since its window is defined on the untwisted
P/Q quotient; its step carries a minus sign, which the Frobenius keeps
(it is additive), so the sign is taken inside the quotient (``negate``).

Exact operands skip the precision arithmetic.  Every infinite precision
is the one ``INF`` object, so exactness is an identity test.  Exact times
exact is exact at once, with no valuation read; an exact factor times a
truncated one adds only the exact side's valuation, one Fraction read on
the common grid; the quotient kernel and ``_product_prec`` take no term
from an exact factor's precision; and ``frobenius`` scales a Fraction
prec by the integer q^|e|.  Each result has the precision the general
rules give.  The exact one follows the same rule as ``INF``: each
:class:`~carlitz.ffield.FieldParams` keeps one ``PerfSeries.one`` object,
and a product with that object returns the other operand, after the
operand check and before any alignment, precision or kernel work.  Its
terms, ``dexp`` and ``prec`` are what the kernel would give, since a
canonical series times x^0 is itself.  Every exact one built from terms
is that object: ``_make`` returns it, so ``from_terms({0: 1})``,
``constant(params, 1)`` and a parsed ``1`` are the unit.  A one that
arithmetic produces (``x.shift(-1)``, say) is a different object and
takes the kernel, with the same result.  In characteristic 2 negation is
the identity on coefficients, so ``-a`` is ``a`` itself and the negated
one (the leading coefficient of ``-prod(t_j - b_j)``) is still the unit.
An exact zero times anything is the exact zero, so a product with an
exact-zero side returns that side at the same point, and no product hands
the kernel an empty term map from it: the bracket [0] is exact zero, and
the admissibility scan and the Cauchy steps multiply by it.

Equality compares coefficients at all exponents below the smaller of the
two precisions, which makes identity checks decidable at stated precision.
Zero-at-precision (no terms, finite prec) and exact zero are distinct
observable states; ``valuation`` reports the former as an
:class:`AtLeast` lower bound rather than pretending it is infinite.

The other objects of the calculus (linear series, functions, operators in
normal form, the P, Q and initial data of an evolution equation) are maps
from keys to series: each is a :class:`SeriesMap`, whose keywise ``+``,
``-``, negation and equality at common precision are written once, a
missing key reading as exact zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import NotInvertibleError, ParameterMismatchError, UsageError
from .ffield import FFElement, FieldParams

INF = math.inf

# Relative precision window (in exponent units) used when inverting an
# exact non-monomial series, whose true inverse is an infinite series.
DEFAULT_INVERT_WINDOW = 32

# Keep no product of the quotient kernel with more terms than this: D_20
# and L_20 have exactly this many.
_TERM_LIMIT = 2 ** 20


class AtLeast(NamedTuple):
    """Lower-bound-only valuation: the series is zero below ``bound`` but
    not known to be exactly zero."""
    bound: Fraction


def _grid_bound(prec, scale: int) -> int:
    """The integer ceil(prec * scale) for a finite ``prec``: an integer k
    satisfies k < prec * scale exactly when k < _grid_bound(prec, scale)."""
    num, den = prec.as_integer_ratio()
    return -(-num * scale // den)


def _precision(prec):
    """``prec`` in its one form: the INF object for any float infinity,
    and the exact Fraction of an int or a finite float.  A Fraction, or
    INF itself, is already in form, and None stays None."""
    if type(prec) is Fraction or prec is INF:
        return prec
    if isinstance(prec, float):
        return INF if prec == INF else Fraction(prec)
    return Fraction(prec) if isinstance(prec, int) else prec


def _grid_depth(den: int, q: int):
    """The least k >= 0 such that q^k is a multiple of ``den``: the grid
    depth of an exponent with denominator ``den``.  None when there is no
    such k, that is, when the exponent is not in Z[1/q]."""
    k = 0
    while den > 1:
        g = math.gcd(den, q)
        if g == 1:
            return None
        den //= g
        k += 1
    return k


class PerfSeries:
    """One element of the perfection of F_Q((x)), truncated at ``prec``."""

    __slots__ = ("params", "dexp", "terms", "prec")

    def __init__(self, params: FieldParams, dexp: int, terms: dict, prec):
        """Low-level constructor; ``terms`` maps scaled exponents (integers,
        denominating q^dexp) to nonzero coefficient indices.  Use the
        classmethod constructors for anything user-facing.  ``prec`` is
        stored in its one form (see :func:`_precision`)."""
        self.params = params
        self.dexp = dexp
        self.terms = terms
        # kernel results are already in form: test that without a call
        self.prec = (prec if prec is INF or type(prec) is Fraction
                     else _precision(prec))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _make(cls, params, dexp, terms, prec):
        """A series from terms that may hold zero coefficients or exponents
        at or above ``prec``: drops those, then :meth:`_canonical`.  An
        exact one is the field's unit object."""
        prec = _precision(prec)
        if prec is not INF:
            bound = _grid_bound(prec, params.q ** dexp)
            terms = {k: c for k, c in terms.items() if c != 0 and k < bound}
        else:
            terms = {k: c for k, c in terms.items() if c != 0}
            if len(terms) == 1 and terms.get(0) == params.one_idx:
                return cls.one(params)
        return cls._canonical(params, dexp, terms, prec)

    @classmethod
    def _canonical(cls, params, dexp, terms, prec):
        """A series from nonzero terms below ``prec``: lowers ``dexp`` to
        the least grid that holds every exponent (0 when there is none).
        q^j divides every exponent exactly when it divides their gcd, which
        is 0 when there is no term or only x^0."""
        if dexp:
            q = params.q
            g = math.gcd(*terms)
            f = 1
            while dexp and g % q == 0:
                g //= q
                f *= q
                dexp -= 1
            if f > 1:
                terms = {k // f: c for k, c in terms.items()}
        return cls(params, dexp, terms, prec)

    @classmethod
    def zero(cls, params: FieldParams, prec=INF) -> "PerfSeries":
        return cls(params, 0, {}, prec)

    @classmethod
    def from_terms(cls, params: FieldParams, items, prec=INF) -> "PerfSeries":
        """Build from {exponent: coefficient}; exponents may be int or
        Fraction with p-power denominator.  A coefficient is an
        :class:`~carlitz.ffield.FFElement` or an int, which is a rational
        integer and maps to k mod p in every field (over F_4, 3 is 1): an
        element of an extension field is passed as an FFElement."""
        dexp = 0
        q = params.q
        fracs = {}
        for e, c in items.items():
            e = Fraction(e)
            k = _grid_depth(e.denominator, q)
            if k is None:
                raise UsageError("exponent %s is not in Z[1/q]" % e)
            dexp = max(dexp, k)
            idx = c.idx if isinstance(c, FFElement) else params.from_int(c)
            fracs[e] = idx
        scaled = {}
        for e, idx in fracs.items():
            key = int(e * q ** dexp)
            if key in scaled:
                idx = params.add(scaled[key], idx)
            scaled[key] = idx
        return cls._make(params, dexp, scaled, prec)

    @classmethod
    def monomial(cls, params: FieldParams, exponent, coeff=1) -> "PerfSeries":
        """The exact coeff * x^exponent; ``coeff`` as in :meth:`from_terms`."""
        return cls.from_terms(params, {exponent: coeff})

    @classmethod
    def one(cls, params: FieldParams) -> "PerfSeries":
        """The exact one of ``params``: one object per configuration, kept
        on it, which a product recognises by identity."""
        unit = params.unit
        if unit is None:
            unit = params.unit = cls(params, 0, {0: params.one_idx}, INF)
        return unit

    @classmethod
    def x(cls, params: FieldParams) -> "PerfSeries":
        return cls(params, 0, {1: params.one_idx}, INF)

    @classmethod
    def constant(cls, params: FieldParams, c) -> "PerfSeries":
        """The exact constant ``c``: an FFElement, or an int read as a
        rational integer, k mod p (see :meth:`from_terms`)."""
        idx = c.idx if isinstance(c, FFElement) else params.from_int(c)
        return cls._make(params, 0, {0: idx}, INF)

    # -- inspection -----------------------------------------------------------

    def is_exact(self) -> bool:
        return self.prec is INF

    def is_zero(self) -> bool:
        """Exactly zero (no terms, infinite precision)."""
        return not self.terms and self.prec is INF

    def is_zero_at_prec(self) -> bool:
        """No known terms; may still hide nonzero content at or above prec."""
        return not self.terms

    def valuation(self):
        """Least exponent with a nonzero coefficient.

        Returns a Fraction for a series with terms, INF for exact zero, and
        AtLeast(prec) for a series that is zero only at finite precision.
        """
        if self.terms:
            return Fraction(min(self.terms), self.params.q ** self.dexp)
        if self.prec is INF:
            return INF
        return AtLeast(self.prec)

    def _val_lb(self):
        """Valuation lower bound as a plain number (prec when no terms)."""
        if self.terms:
            return Fraction(min(self.terms), self.params.q ** self.dexp)
        return self.prec

    def exponents(self):
        q = self.params.q ** self.dexp
        return sorted(Fraction(k, q) for k in self.terms)

    def coefficient(self, exponent) -> FFElement:
        """Coefficient at an exponent known below prec (0 when absent)."""
        e = Fraction(exponent)
        if e >= self.prec:
            from .errors import PrecisionError
            raise PrecisionError("coefficient at %s is beyond precision %s"
                                 % (e, self.prec))
        scaled = e * self.params.q ** self.dexp
        if scaled.denominator != 1:
            return self.params.zero()
        return FFElement(self.params, self.terms.get(int(scaled), 0))

    def items(self):
        """Sorted (Fraction exponent, FFElement coefficient) pairs: a public
        reader, one Fraction and one FFElement per term.  No library path
        formats through it; :func:`carlitz.textio.format_series` reads the
        integer grid."""
        q = self.params.q ** self.dexp
        return [(Fraction(k, q), FFElement(self.params, self.terms[k]))
                for k in sorted(self.terms)]

    # -- precision management ---------------------------------------------------

    def truncate(self, prec) -> "PerfSeries":
        """Forget everything at or above ``prec`` (no-op if already coarser)."""
        prec = _precision(prec)
        if prec is INF:
            return self
        new_prec = prec if self.prec is INF else min(self.prec, prec)
        return PerfSeries._make(self.params, self.dexp, self.terms, new_prec)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, PerfSeries):
            raise UsageError("expected PerfSeries, got %r" % type(other))
        if other.params is not self.params:
            raise ParameterMismatchError("series over different field configurations")

    def _aligned(self, other):
        if self.dexp == other.dexp:
            return self.dexp, self.terms, other.terms
        d = max(self.dexp, other.dexp)
        q = self.params.q
        fa = q ** (d - self.dexp)
        fb = q ** (d - other.dexp)
        ta = self.terms if fa == 1 else {k * fa: c for k, c in self.terms.items()}
        tb = other.terms if fb == 1 else {k * fb: c for k, c in other.terms.items()}
        return d, ta, tb

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, negate):
        """self + other, or self - other when ``negate``: other's terms,
        negated as they are read, merge into a copy of self's.  Only terms
        of the more precise side can lie at or above the sum's precision,
        so the sum is filtered only when the precisions differ."""
        self._check(other)
        d, ta, tb = self._aligned(other)
        params = self.params
        add, neg = params.add, params._neg
        out = dict(ta)
        for k, c in tb.items():
            if negate:
                c = neg[c]
            if k in out:
                s = add(out[k], c)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        a_prec, b_prec = self.prec, other.prec
        if a_prec is INF or b_prec is INF:
            prec = b_prec if a_prec is INF else a_prec
            equal = a_prec is b_prec
        else:
            prec = min(a_prec, b_prec)
            equal = a_prec == b_prec
        if equal:
            return PerfSeries._canonical(params, d, out, prec)
        return PerfSeries._make(params, d, out, prec)

    def __neg__(self):
        """-a; in characteristic 2 every coefficient is its own negative,
        so that is ``a`` itself, and the negated unit stays the unit."""
        if self.params.p == 2:
            return self
        neg = self.params._neg
        return PerfSeries(self.params, self.dexp,
                          {k: neg[c] for k, c in self.terms.items()}, self.prec)

    def __mul__(self, other):
        """The product, at min(prec_a + val(b), prec_b + val(a)); an exact
        side contributes only its valuation, read on the common grid.  A
        side that is the field's one object gives the other side itself,
        and a side that is an exact zero gives itself."""
        self._check(other)
        unit = self.params.unit
        if other is unit or not self.terms and self.prec is INF:
            return self  # times the one, or an exact zero
        if self is unit or not other.terms and other.prec is INF:
            return other
        d, ta, tb = self._aligned(other)
        a_prec, b_prec = self.prec, other.prec
        if a_prec is INF and b_prec is INF:
            prec = bound = INF
        elif a_prec is INF or b_prec is INF:
            exact, prec = (ta, b_prec) if a_prec is INF else (tb, a_prec)
            scale = self.params.q ** d
            prec = prec + Fraction(min(exact), scale)
            bound = _grid_bound(prec, scale)
        else:
            prec = min(a_prec + other._val_lb(), b_prec + self._val_lb())
            bound = _grid_bound(prec, self.params.q ** d)
        return PerfSeries._canonical(self.params, d,
                                     _product_terms(self.params, ta, tb, bound),
                                     prec)

    def scale(self, c) -> "PerfSeries":
        """Multiply by a coefficient-field element: an FFElement, or an int
        read as a rational integer, k mod p (see :meth:`from_terms`)."""
        idx = c.idx if isinstance(c, FFElement) else self.params.from_int(c)
        if idx == 0:
            return PerfSeries(self.params, 0, {}, INF)
        mul = self.params.mul
        return PerfSeries(self.params, self.dexp,
                          {k: mul(c0, idx) for k, c0 in self.terms.items()},
                          self.prec)

    def shift(self, exponent) -> "PerfSeries":
        """Multiply by the monomial x^exponent."""
        e = Fraction(exponent)
        q = self.params.q
        k = _grid_depth(e.denominator, q)
        if k is None:
            raise UsageError("shift exponent %s is not in Z[1/q]" % e)
        d = max(self.dexp, k)
        off = int(e * q ** d)
        fa = q ** (d - self.dexp)
        terms = {kk * fa + off: c for kk, c in self.terms.items()}
        prec = self.prec if self.prec is INF else self.prec + e
        return PerfSeries._canonical(self.params, d, terms, prec)

    def frobenius(self, e: int) -> "PerfSeries":
        """tau^e: exponents (and prec) scale by q^e, coefficients map through
        the q^e-power automorphism of F_Q.  e may be negative; q-th roots in
        F_Q are unique because the Frobenius permutes the field.  A finite
        prec is multiplied or divided by the integer q^|e|.

        The image of a canonical series is canonical in closed form: for
        e >= 0 the grid sheds min(e, dexp) of its q-powers and the exponents
        take the rest; for e < 0 on dexp > 0 the exponents stay on a grid
        deepened by |e|, where one of them is still prime to q.  Only e < 0
        on the integer grid asks the exponents' gcd."""
        params = self.params
        q = params.q
        frob = params._frob[e % params.m]
        prec = self.prec
        dexp = self.dexp
        if e >= 0:
            drop = min(e, dexp)
            s = q ** (e - drop)
            terms = {k * s: frob[c] for k, c in self.terms.items()}
            dexp -= drop
        else:
            terms = {k: frob[c] for k, c in self.terms.items()}
            dexp -= e  # e < 0 deepens the denominator
        if prec is not INF:
            f = q ** abs(e)
            prec = prec * f if e >= 0 else prec / f
        if e < 0 and not self.dexp:
            return PerfSeries._canonical(params, dexp, terms, prec)
        return PerfSeries(params, dexp, terms, prec)

    def pow(self, k: int) -> "PerfSeries":
        """k-th power for small non-negative k (binary powering)."""
        if k < 0:
            raise UsageError("negative powers go through invert()")
        result = PerfSeries.one(self.params)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert(self, window=None) -> "PerfSeries":
        """Multiplicative inverse, exact to the documented precision: the
        quotient of one by this series through :meth:`divide`.

        Raises NotInvertibleError when the series has no term below its
        precision.  ``window`` is the output's relative precision, in
        exponent units above the inverse's valuation, and never exceeds
        the input's own; for an absolute precision P pass P + valuation.
        By default the output precision is prec_in - 2*valuation for
        truncated input, exact for an exact monomial, and
        valuation-relative DEFAULT_INVERT_WINDOW for an exact multi-term
        input.  A ``window`` that is not a positive int or Fraction (a
        float included) is refused with UsageError.
        """
        return PerfSeries.one(self.params).divide(self, window)

    def divide(self, other, window=None) -> "PerfSeries":
        """self / other by long division seeded with self's terms.

        Terms and precision are those of ``self * other.invert(window)``,
        whose conventions (and refusals) ``window`` follows, but the
        inverse is never built."""
        self._check(other)
        return _quotient(self, (), (other,), window)

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        """Equality at the smaller of the two precisions."""
        if not isinstance(other, PerfSeries):
            return NotImplemented
        if self.params is not other.params:
            return False
        a_prec, b_prec = self.prec, other.prec
        prec = (b_prec if a_prec is INF else a_prec if b_prec is INF
                else min(a_prec, b_prec))
        d, ta, tb = self._aligned(other)
        if prec is INF:
            return ta == tb
        bound = _grid_bound(prec, self.params.q ** d)
        for k, c in ta.items():
            if k < bound and tb.get(k, 0) != c:
                return False
        for k, c in tb.items():
            if k < bound and ta.get(k, 0) != c:
                return False
        return True

    __hash__ = None  # equality is precision-relative; hashing would lie

    def __repr__(self):
        from .textio import format_series
        return format_series(self)


# ---------------------------------------------------------------------------
# the product and quotient kernels on the exponent grid
# ---------------------------------------------------------------------------

def _product_terms(params: FieldParams, ta: dict, tb: dict, bound) -> dict:
    """The terms below ``bound`` of the product of two term maps on one
    grid.  Coefficients multiply as exp[log a + log b] (the exp table is
    doubled, so the sum needs no reduction) and add by table lookup."""
    log, exp, add_table = params._log, params._exp, params._add_table
    out = {}
    for ka, ca in ta.items():
        la = log[ca]
        for kb, cb in tb.items():
            k = ka + kb
            if k >= bound:
                continue
            c = exp[la + log[cb]]
            if k in out:
                s = add_table[out[k]][c]
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
    return out


def _long_division(params: FieldParams, seeds: dict, steps, bound) -> dict:
    """The terms below ``bound`` of seeds / (1 + eps), in one pass of long
    division: w_k = seeds_k - sum_(j>0) eps_j w_(k-j).  ``seeds`` holds
    nonzero coefficients, and ``steps`` holds (j, log(-eps_j)) for the
    terms of eps, in increasing j.

    With one step, w_k = seeds_k + u w_(k-j) links only exponents of one
    residue class mod j, so the division is walked as chains, with no
    heap: a chain starts at the least seed that no chain has reached and
    goes up by j, adding each seed it meets, until it passes the bound or
    a seed cancels it.  A later seed of a cancelled chain's class starts a
    new chain of its own.  With two or more steps every nonzero w_k is
    pushed forward to k + j for each step, so only exponents reachable from
    a seed by such steps are visited, in increasing order off a heap, each
    once all its terms have arrived."""
    log, exp, add_table = params._log, params._exp, params._add_table
    if len(steps) == 1:
        ((j, lu),) = steps
        out = {}
        cancelled = set()
        for k in sorted(seeds):
            if k >= bound:
                break
            if k in out or k in cancelled:
                continue  # reached by an earlier chain
            c = seeds[k]
            while True:
                out[k] = c
                k += j
                if k >= bound:
                    break
                c = exp[log[c] + lu]
                if k in seeds:
                    c = add_table[c][seeds[k]]
                    if not c:
                        cancelled.add(k)
                        break
        return out
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


def _product_prec(factors):
    """The precision of prod(factors): the least, over the truncated
    factors, of a factor's precision plus the valuation lower bounds of the
    others, which is what multiplying them in any order gives; INF when
    every factor is exact or one is an exact zero.  The others' bounds are
    the total less the factor's own, so the work is linear in the factors;
    the bounds are Fractions (no exact zero reaches the sum), so the
    difference is exact."""
    if any(f.is_zero() for f in factors):
        return INF
    lbs = [f._val_lb() for f in factors]
    total = sum(lbs)
    return min((f.prec + (total - lb)
                for f, lb in zip(factors, lbs) if f.prec is not INF),
               default=INF)


def _quotient(c: PerfSeries, num, den, window, negate=False) -> PerfSeries:
    """c * prod(num) / prod(den) as a canonical series, with the terms,
    precision and refusals of ``c * prod(num) * prod(den).invert(window)``
    but no inverse built; its negation when ``negate``, at the cost of one
    logarithm.  With no denominator and ``window`` None it is the exact
    product when every factor is exact: D_n, L_n, (alpha)_n and <a>_m are
    each one call over their two-term factors.

    Any factors are allowed, exact or truncated, several to a side.  A
    denominator factor without terms is refused as prod(den) would be; a
    dividend factor without terms gives no terms, at the precision of the
    dividend less the valuation of prod(den).  Otherwise the relative
    precision of a product is the least of its factors', so the quotient
    keeps the least of the numerators' and the inverse's.  The precision,
    the bound it gives on the grid and every refusal come from the full
    factor lists, so they are the ones the product and the inverse of all
    the factors would give.

    Every factor, above the line or below it, follows one rule.  On one
    grid it is x^k0 * lead * (1 + eps): k0 goes into the quotient's
    valuation, the lead into the one scalar that c's terms are seeded
    with, and 1 + eps is a part with steps (j, eps_j), j > 0.  c is no
    factor: its terms are the seeds.  Every term stays at or above the
    quotient's valuation, so the passes go only over the parts that act,
    which leaves the terms below the bound as they are:

    * a part whose least step from the valuation lands at or past the
      bound (or that has no step) moves no term kept, on either side, and
      only its lead acts.  This is how most factors of D_m go, whose steps
      are q^m - q^(m-k);
    * an exact part that acts counts +1 above the line and -1 below it,
      in one map keyed by its steps, so equal parts cancel, also those of
      factors equal only up to a monomial and a scalar; truncated parts
      never cancel;
    * every other part multiplies c's seeds, as the map {0: 1, j: eps_j},
      or long-divides them (:func:`_long_division`), every pass cut at the
      bound.  The step list, sorted by j, is built only where it is read:
      as the key of an exact part and as a divisor's steps.

    A product that keeps more than ``_TERM_LIMIT`` (2^20) terms is
    refused with a UsageError, in the words of the D_n and L_n refusal of
    :mod:`carlitz.brackets`."""
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
    if not all(f.terms for f in (c, *num)):
        # the inverse keeps a positive relative precision, so the
        # dividend's own term is the least
        out_prec = _product_prec((c, *num))
        if out_prec is not INF:
            out_prec -= sum(f._val_lb() for f in den)
        return PerfSeries(params, 0, {}, out_prec)
    # the relative precision of prod(den), and the one its inverse keeps
    rel_in = min((f.prec - f._val_lb() for f in den if f.prec is not INF),
                 default=INF)
    if window is not None:
        rel_out = min(Fraction(window), rel_in)
    elif rel_in is not INF:
        rel_out = rel_in
    elif all(len(f.terms) == 1 for f in den):
        rel_out = INF  # the exact inverse of a monomial
    else:
        rel_out = Fraction(DEFAULT_INVERT_WINDOW)
    q = params.q
    d = max(f.dexp for f in (c, *num, *den))
    scale = q ** d

    def on_grid(f):
        s = q ** (d - f.dexp)
        return f.terms if s == 1 else {k * s: x for k, x in f.terms.items()}

    c_terms = on_grid(c)
    val = c_val = min(c_terms)  # valuation of the quotient, on the grid
    parts = []  # (+1 above the line or -1 below, prec, terms, exponents)
    for sign, side in ((1, num), (-1, den)):
        for f in side:
            t = on_grid(f)
            ks = sorted(t)
            val += sign * ks[0]
            parts.append((sign, f.prec, t, ks))
    # the term of the inverse, then of c and each truncated numerator
    out_prec = INF if rel_out is INF else rel_out + Fraction(val, scale)
    for sign, p, _, ks in ((1, c.prec, None, (c_val,)), *parts):
        if sign > 0 and p is not INF:
            out_prec = min(out_prec, p + Fraction(val - ks[0], scale))
    bound = INF if out_prec is INF else _grid_bound(out_prec, scale)

    log, exp, neg = params._log, params._exp, params._neg
    n = params.Q - 1
    minus = log[params.minus_one_idx]
    lead_log = minus if negate else 0
    counts, factors, divisors = {}, [], []
    for sign, p, t, ks in parts:
        k0 = ks[0]
        ll = log[t[k0]]
        lead_log += sign * ll
        if len(ks) == 1 or val + ks[1] - k0 >= bound:
            continue  # no step lands below the bound: only the lead acts
        if sign > 0 and p is not INF:
            factors.append({k - k0: exp[log[x] - ll + n] for k, x in t.items()})
            continue
        # (j, log(-eps_j)) in increasing j, the form long division takes
        steps = tuple([(k - k0, (log[neg[t[k]]] - ll) % n) for k in ks[1:]])
        if p is INF:
            counts[steps] = counts.get(steps, 0) + sign
        else:
            divisors.append(steps)
    for steps, times in counts.items():
        if times < 0:
            divisors.extend([steps] * -times)
        elif times:
            factor = {j: exp[lu + minus] for j, lu in steps}
            factor[0] = params.one_idx
            factors.extend([factor] * times)
    lead_log %= n
    shift = val - c_val
    terms = {k + shift: exp[log[x] + lead_log] for k, x in c_terms.items()
             if k + shift < bound}
    for factor in factors:
        terms = _product_terms(params, terms, factor, bound)
        if len(terms) > _TERM_LIMIT:
            raise UsageError("an expanded product must have at most %d "
                             "terms, got %d" % (_TERM_LIMIT, len(terms)))
    for steps in divisors:
        terms = _long_division(params, terms, steps, bound)
    return PerfSeries._canonical(params, d, terms, out_prec)


# ---------------------------------------------------------------------------
# maps from keys to series (the containers of the other modules)
# ---------------------------------------------------------------------------

class SeriesMap:
    """A map from keys to PerfSeries in the attribute named ``_map``.  A
    subclass says what two operands share (``_check`` raises
    ParameterMismatchError, which ``==`` reads as False), builds a result
    with its truncation joined with another operand's (``_join``), and may
    limit the keys ``==`` compares (``_compared``, a predicate)."""

    __slots__ = ()
    _map = "coeffs"

    def _compared(self, other):
        return None

    def __add__(self, other):
        self._check(other)
        out = dict(getattr(self, self._map))
        for k, c in getattr(other, self._map).items():
            out[k] = out[k] + c if k in out else c
        return self._join(other, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(getattr(self, self._map))
        for k, c in getattr(other, self._map).items():
            out[k] = out[k] - c if k in out else -c
        return self._join(other, out)

    def __neg__(self):
        return self._join(self, {k: -c for k, c in getattr(self, self._map).items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        try:
            self._check(other)
        except ParameterMismatchError:
            return False
        a, b = getattr(self, self._map), getattr(other, self._map)
        keep = self._compared(other)
        zero = PerfSeries.zero(self.params)
        return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b)
                   if keep is None or keep(k))

    __hash__ = None  # equality is precision-relative, as for PerfSeries
