"""Truncated perfected Laurent series over F_Q.

A :class:`PerfSeries` is a finite map from exponents in Z[1/q] to nonzero
coefficients of F_Q, together with an exclusive precision bound ``prec``:
every coefficient at an exponent strictly below ``prec`` is known exactly,
everything at or above it is unknown.  ``prec`` may be +infinity, in which
case the series is an exact perfected Laurent polynomial.

Internally exponents live on an integer grid num / q^dexp (minimal dexp),
so exponent arithmetic is plain integer arithmetic; the public API speaks
:class:`fractions.Fraction`.  ``prec`` stays a Fraction (or INF) at the
API, but the hot loops never compare a grid exponent k with it: since k is
an integer, ``k < prec`` on grid q^d is the same test as ``k < B`` for the
integer B = ceil(prec * q^d), computed once per operation.  Coefficients
are stored as integer indices into the parent
:class:`~carlitz.ffield.FieldParams` tables, and products read the
log/exp and addition tables directly.

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
  the default is valuation + DEFAULT_INVERT_WINDOW.  The coefficients
  come from one pass of long division on the input's exponent grid,
  visiting only the exponents that can carry a term.

Equality compares coefficients at all exponents below the smaller of the
two precisions, which makes identity checks decidable at stated precision.
Zero-at-precision (no terms, finite prec) and exact zero are distinct
observable states; ``valuation`` reports the former as an
:class:`AtLeast` lower bound rather than pretending it is infinite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import NotInvertibleError, ParameterMismatchError, UsageError
from .ffield import FFElement, FieldParams

INF = math.inf

# Relative precision window (in exponent units) used when inverting an
# exact non-monomial series, whose true inverse is an infinite series.
DEFAULT_INVERT_WINDOW = 32


class AtLeast(NamedTuple):
    """Lower-bound-only valuation: the series is zero below ``bound`` but
    not known to be exactly zero."""
    bound: Fraction


def _grid_bound(prec, scale: int) -> int:
    """The integer ceil(prec * scale) for a finite ``prec``: an integer k
    satisfies k < prec * scale exactly when k < _grid_bound(prec, scale)."""
    num, den = prec.as_integer_ratio()
    return -(-num * scale // den)


def _p_power_denominator(frac: Fraction, p: int) -> bool:
    d = frac.denominator
    while d % p == 0:
        d //= p
    return d == 1


def _grid_depth(e: Fraction, q: int) -> int:
    """The least k >= 0 with e * q^k an integer, for e in Z[1/q]."""
    k = 0
    while (e * q ** k).denominator != 1:
        k += 1
    return k


class PerfSeries:
    """One element of the perfection of F_Q((x)), truncated at ``prec``."""

    __slots__ = ("params", "dexp", "terms", "prec")

    def __init__(self, params: FieldParams, dexp: int, terms: dict, prec):
        """Low-level constructor; ``terms`` maps scaled exponents (integers,
        denominating q^dexp) to nonzero coefficient indices.  Use the
        classmethod constructors for anything user-facing."""
        self.params = params
        self.dexp = dexp
        self.terms = terms
        self.prec = prec

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _make(cls, params, dexp, terms, prec):
        q = params.q
        if prec != INF:
            bound = _grid_bound(prec, q ** dexp)
            terms = {k: c for k, c in terms.items() if c != 0 and k < bound}
        else:
            terms = {k: c for k, c in terms.items() if c != 0}
        # canonical minimal denominator exponent
        while dexp > 0 and all(k % q == 0 for k in terms):
            terms = {k // q: c for k, c in terms.items()}
            dexp -= 1
        if not terms:
            dexp = 0
        return cls(params, dexp, terms, prec)

    @classmethod
    def zero(cls, params: FieldParams, prec=INF) -> "PerfSeries":
        return cls._make(params, 0, {}, prec)

    @classmethod
    def from_terms(cls, params: FieldParams, items, prec=INF) -> "PerfSeries":
        """Build from {exponent: coefficient}; exponents may be int or
        Fraction with p-power denominator, coefficients int (reduced mod p
        only in prime fields: use FFElement or indices for extensions)."""
        dexp = 0
        q = params.q
        fracs = {}
        for e, c in items.items():
            e = Fraction(e)
            if not _p_power_denominator(e, params.p):
                raise UsageError("exponent %s is not in Z[1/q]" % e)
            dexp = max(dexp, _grid_depth(e, q))
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
    def monomial(cls, params: FieldParams, exponent, coeff=1, prec=INF) -> "PerfSeries":
        return cls.from_terms(params, {exponent: coeff}, prec)

    @classmethod
    def one(cls, params: FieldParams) -> "PerfSeries":
        return cls._make(params, 0, {0: params.one_idx}, INF)

    @classmethod
    def x(cls, params: FieldParams) -> "PerfSeries":
        return cls._make(params, 0, {1: params.one_idx}, INF)

    @classmethod
    def constant(cls, params: FieldParams, c) -> "PerfSeries":
        idx = c.idx if isinstance(c, FFElement) else params.from_int(c)
        return cls._make(params, 0, {0: idx}, INF)

    # -- inspection -----------------------------------------------------------

    def is_exact(self) -> bool:
        return self.prec == INF

    def is_zero(self) -> bool:
        """Exactly zero (no terms, infinite precision)."""
        return not self.terms and self.prec == INF

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
        if self.prec == INF:
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
        """Sorted (Fraction exponent, FFElement coefficient) pairs."""
        q = self.params.q ** self.dexp
        return [(Fraction(k, q), FFElement(self.params, self.terms[k]))
                for k in sorted(self.terms)]

    # -- precision management ---------------------------------------------------

    def truncate(self, prec) -> "PerfSeries":
        """Forget everything at or above ``prec`` (no-op if already coarser)."""
        if prec == INF:
            return self
        prec = Fraction(prec)
        new_prec = min(self.prec, prec)
        return PerfSeries._make(self.params, self.dexp, dict(self.terms), new_prec)

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, PerfSeries):
            raise UsageError("expected PerfSeries, got %r" % type(other))
        if other.params != self.params:
            raise ParameterMismatchError("series over different field configurations")

    def _aligned(self, other):
        d = max(self.dexp, other.dexp)
        q = self.params.q
        fa = q ** (d - self.dexp)
        fb = q ** (d - other.dexp)
        ta = self.terms if fa == 1 else {k * fa: c for k, c in self.terms.items()}
        tb = other.terms if fb == 1 else {k * fb: c for k, c in other.terms.items()}
        return d, ta, tb

    def __add__(self, other):
        self._check(other)
        d, ta, tb = self._aligned(other)
        out = dict(ta)
        add = self.params.add
        for k, c in tb.items():
            if k in out:
                s = add(out[k], c)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
        return PerfSeries._make(self.params, d, out, min(self.prec, other.prec))

    def __neg__(self):
        neg = self.params.neg
        return PerfSeries(self.params, self.dexp,
                          {k: neg(c) for k, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = min(self.prec + other._val_lb(), other.prec + self._val_lb())
        d, ta, tb = self._aligned(other)
        params = self.params
        # coefficients multiply as exp[log a + log b] (the exp table is
        # doubled, so the sum needs no reduction) and add by table lookup
        log, exp = params._log, params._exp
        add, add_table = params.add, params._add_table
        bound = _grid_bound(prec, params.q ** d) if prec != INF else INF
        out = {}
        for ka, ca in ta.items():
            la = log[ca]
            for kb, cb in tb.items():
                k = ka + kb
                if k >= bound:
                    continue
                c = exp[la + log[cb]]
                if k in out:
                    if add_table is not None:
                        s = add_table[out[k]][c]
                    else:
                        s = add(out[k], c)
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                else:
                    out[k] = c
        return PerfSeries._make(params, d, out, prec)

    def scale(self, c) -> "PerfSeries":
        """Multiply by a coefficient-field element."""
        idx = c.idx if isinstance(c, FFElement) else self.params.from_int(c)
        if idx == 0:
            return PerfSeries._make(self.params, 0, {}, INF)
        mul = self.params.mul
        return PerfSeries(self.params, self.dexp,
                          {k: mul(c0, idx) for k, c0 in self.terms.items()},
                          self.prec)

    def shift(self, exponent) -> "PerfSeries":
        """Multiply by the monomial x^exponent."""
        e = Fraction(exponent)
        if not _p_power_denominator(e, self.params.p):
            raise UsageError("shift exponent %s is not in Z[1/q]" % e)
        q = self.params.q
        d = max(self.dexp, _grid_depth(e, q))
        off = int(e * q ** d)
        fa = q ** (d - self.dexp)
        terms = {kk * fa + off: c for kk, c in self.terms.items()}
        prec = self.prec if self.prec == INF else self.prec + e
        return PerfSeries._make(self.params, d, terms, prec)

    def frobenius(self, e: int) -> "PerfSeries":
        """tau^e: exponents (and prec) scale by q^e, coefficients map through
        the q^e-power automorphism of F_Q.  e may be negative; q-th roots in
        F_Q are unique because the Frobenius permutes the field."""
        params = self.params
        q = params.q
        frob = params.frob
        if e >= 0:
            f = q ** e
            terms = {k * f: frob(c, e) for k, c in self.terms.items()}
            dexp = self.dexp
        else:
            terms = {k: frob(c, e) for k, c in self.terms.items()}
            dexp = self.dexp - e  # e < 0 deepens the denominator
        prec = self.prec if self.prec == INF else self.prec * Fraction(q) ** e
        return PerfSeries._make(params, dexp, terms, prec)

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

    def invert(self, prec=None, window=None) -> "PerfSeries":
        """Multiplicative inverse, exact to the documented precision.

        Raises NotInvertibleError when the series has no term below its
        precision.  ``prec`` overrides the output's absolute precision and
        ``window`` its relative precision (exponent units above the
        inverse's valuation); by default the output precision is
        prec_in - 2*valuation for truncated input, exact for an exact
        monomial, and valuation-relative DEFAULT_INVERT_WINDOW for an
        exact multi-term input.  ``prec=INF`` asks for the exact inverse:
        an exact monomial has one, an exact multi-term input is refused
        with UsageError, and a truncated input keeps its default precision.
        """
        if prec is not None and window is not None:
            raise UsageError("pass at most one of prec and window")
        exact = prec == INF
        if window is not None and self.terms:
            prec = Fraction(window) - self._val_lb()
        if not self.terms:
            if self.prec == INF:
                raise NotInvertibleError("exact zero series is not invertible")
            raise NotInvertibleError(
                "not invertible at this precision (zero below %s)" % self.prec)
        params = self.params
        q = params.q
        v_scaled = min(self.terms)
        v = Fraction(v_scaled, q ** self.dexp)
        lead = self.terms[v_scaled]
        if len(self.terms) == 1 and self.prec == INF and (prec is None or exact):
            return PerfSeries._make(params, self.dexp,
                                    {-v_scaled: params.inv(lead)}, INF)
        # relative precision of the input (and the best achievable output)
        rel_in = INF if self.prec == INF else self.prec - v
        if prec is None:
            rel_out = rel_in if rel_in != INF else Fraction(DEFAULT_INVERT_WINDOW)
        elif exact:
            rel_out = rel_in
        else:
            rel_out = min(Fraction(prec) + v, rel_in)
        if rel_out != INF and rel_out <= 0:
            raise NotInvertibleError(
                "requested precision leaves no known coefficients")
        # u = self / (lead * x^v) = 1 + eps with val(eps) > 0, known below
        # rel_out; its inverse y is exact below rel_out because each y_k
        # reads only u_j with j <= k.
        inv_lead = params.inv(lead)
        u_terms = {k - v_scaled: params.mul(c, inv_lead)
                   for k, c in self.terms.items()}
        u = PerfSeries._make(params, self.dexp, u_terms,
                             rel_out if rel_out != INF else INF)
        if rel_out == INF and len(u.terms) > 1:
            raise UsageError(
                "exact inverse of a non-monomial series is an infinite "
                "series; pass a finite prec")
        # Long division on u's grid: y_0 = 1 and y_k = -sum_(j>0) u_j y_(k-j).
        # Every nonzero y_k is pushed forward to k + j for each step j in
        # supp(eps), so only exponents reachable from 0 by such steps are
        # visited, in increasing order, each once all its terms have arrived.
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
        # undo the normalization: 1/self = y * inv_lead * x^(-v)
        return y.scale(FFElement(params, inv_lead)).shift(-v)

    def divide(self, other, prec=None, window=None) -> "PerfSeries":
        """self / other with the same precision conventions as invert()."""
        self._check(other)
        return self * other.invert(prec=prec, window=window)

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        """Equality at the smaller of the two precisions."""
        if not isinstance(other, PerfSeries):
            return NotImplemented
        if self.params != other.params:
            return False
        prec = min(self.prec, other.prec)
        d, ta, tb = self._aligned(other)
        if prec == INF:
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
# maps from keys to series (the coefficient stores of the other modules)
# ---------------------------------------------------------------------------

def _add_maps(a: dict, b: dict) -> dict:
    """Keywise sum of two maps to PerfSeries, a missing key reading as
    exact zero; every caller's constructor drops exact-zero values."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return out


def _maps_equal(params: FieldParams, a: dict, b: dict, keep=None) -> bool:
    """Keywise equality at common precision of two maps to PerfSeries, a
    missing key reading as exact zero; keys failing ``keep`` are skipped."""
    zero = PerfSeries.zero(params)
    for k in set(a) | set(b):
        if (keep is None or keep(k)) and a.get(k, zero) != b.get(k, zero):
            return False
    return True
