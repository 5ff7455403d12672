"""Truncated F_q-linear functions and the generator actions on them.

Two representations:

* :class:`LinearSeries` is a one-variable F_q-linear series
  sum_k a_k t^(q^k) with coefficients known for k <= ``known`` (None means
  the function is an exact polynomial in t^(q^k)).  Its operations are
  ``scale(s)`` (s u), ``tau`` (u^q), ``rescale(s)`` (the substitution
  u(t) -> u(s t), which takes a_k to a_k s^(q^k)), ``delta`` and ``d``;
  ``evaluate(t)`` is the sum of the coefficients of ``rescale(t)``.  The
  contiguous identities of :mod:`carlitz.hyper` are expressions in them.

* :class:`MultiFunction` is a function of one distinguished variable z and
  n further variables s_1..s_n, stored against the basis monomials

      s_1^(q^(i_1)) ... s_n^(q^(i_n)) * z^(q^m) / D_m,   m <= min(i_1..i_n),

  with coefficient c_(m, i_1..i_n) at each slot.  Storing against
  z^(q^m)/D_m rather than z^(q^m) makes the Carlitz derivative an index
  shift composed with a q-th root.

Generator actions (tau is the q-th power map, Delta_j the difference
operator in s_j, Delta_z the one in z, d the Carlitz derivative in z):

    tau:      (m, i)  ->  (m+1, i+1) with coefficient c^q * [m+1]
    Delta_j:  c  ->  [i_j] * c                  (kills i_j = 0 slots)
    Delta_z:  c  ->  [m] * c
    d:        new (m, i) coefficient is c_(m+1, i+1)^(1/q)

The tau action on this basis is the unique one consistent with
D_(m+1) = [m+1] * D_m^q; acting on plain z^(q^m) instead would rescale
every coefficient.

Truncation semantics: a MultiFunction knows its coefficients on the box
m <= trunc_m, i_j <= trunc_i.  d shrinks the box by one in every index;
tau and Delta_j preserve it (every box slot of the image is determined by
box slots of the argument, or is exactly zero); sums intersect boxes.
Nothing outside the known box is ever fabricated.

:meth:`MultiFunction.to_text` and :meth:`MultiFunction.from_text` write
and read the ``PERFFUNC`` file through :mod:`carlitz.textio`, which owns
its grammar.
"""

from __future__ import annotations

from .brackets import _factorial_factors, bracket
from .errors import ParameterMismatchError, UsageError
from .ffield import FieldParams
from .series import PerfSeries, SeriesMap, _quotient
from . import textio


class LinearSeries(SeriesMap):
    """F_q-linear series of one variable: sum of a_k t^(q^k), truncated."""

    __slots__ = ("params", "coeffs", "known")

    def __init__(self, params: FieldParams, coeffs: dict, known):
        self.params = params
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        self.known = known  # None: exact; else coefficients known for k <= known

    @classmethod
    def zero(cls, params, known=None):
        return cls(params, {}, known)

    @classmethod
    def variable(cls, params):
        return cls(params, {0: PerfSeries.one(params)}, None)

    def _check(self, other):
        if self.params != other.params:
            raise ParameterMismatchError("different field configurations")

    def _common_known(self, other):
        if self.known is None:
            return other.known
        if other.known is None:
            return self.known
        return min(self.known, other.known)

    def _join(self, other, coeffs):
        return LinearSeries(self.params, coeffs, self._common_known(other))

    def _compared(self, other):
        known = self._common_known(other)
        return None if known is None else lambda k: k <= known

    def scale(self, s: PerfSeries) -> "LinearSeries":
        """Multiply the function by the scalar s."""
        return LinearSeries(self.params, {k: c * s for k, c in self.coeffs.items()},
                            self.known)

    def rescale(self, s: PerfSeries) -> "LinearSeries":
        """u(t) -> u(s t); coefficient a_k becomes a_k * s^(q^k)."""
        return LinearSeries(self.params,
                            {k: c * s.frobenius(k) for k, c in self.coeffs.items()},
                            self.known)

    def tau(self) -> "LinearSeries":
        """u -> u^q; coefficient a_k moves to slot k+1 as a_k^q."""
        out = {k + 1: c.frobenius(1) for k, c in self.coeffs.items()}
        known = None if self.known is None else self.known + 1
        return LinearSeries(self.params, out, known)

    def delta(self) -> "LinearSeries":
        """Difference operator: a_k -> [k] * a_k (slot 0 dies, [0] = 0)."""
        params = self.params
        out = {k: c * bracket(params, k) for k, c in self.coeffs.items() if k > 0}
        return LinearSeries(params, out, self.known)

    def d(self) -> "LinearSeries":
        """Carlitz derivative: a_k -> (a_(k+1) * [k+1])^(1/q)."""
        params = self.params
        out = {}
        for k, c in self.coeffs.items():
            if k >= 1:
                out[k - 1] = (c * bracket(params, k)).frobenius(-1)
        known = None if self.known is None else self.known - 1
        return LinearSeries(params, out, known)

    def coefficient(self, k: int) -> PerfSeries:
        if self.known is not None and k > self.known:
            raise UsageError("coefficient %d beyond truncation %d" % (k, self.known))
        return self.coeffs.get(k, PerfSeries.zero(self.params))

    def evaluate(self, t: PerfSeries) -> PerfSeries:
        """Sum a_k t^(q^k) over the stored support.

        The stored support is treated as the whole function; when the
        object is a truncation of something longer, cap the result with
        ``.truncate(bound)`` at a valuation bound for the omitted tail.
        u(t) is u(t * 1): the sum of the coefficients of ``rescale(t)``.
        """
        terms = self.rescale(t).coeffs
        return sum((terms[k] for k in sorted(terms)), PerfSeries.zero(self.params))

    def is_zero_on_known(self) -> bool:
        if self.known is None:
            return not self.coeffs
        return all(c.is_zero_at_prec() or k > self.known
                   for k, c in self.coeffs.items())

    def __repr__(self):
        parts = ["(%s)*t^(q^%d)" % (textio.format_series(c), k)
                 for k, c in sorted(self.coeffs.items())]
        body = " + ".join(parts) if parts else "0"
        if self.known is not None:
            body += "  [known k <= %d]" % self.known
        return body


def _check_basis_key(key):
    """Refuse a key (m, i_1..i_n) that names no basis monomial."""
    m, ivec = key[0], key[1:]
    if m < 0 or any(i < 0 for i in ivec):
        raise UsageError("negative index in key %r" % (key,))
    if m > min(ivec):
        raise UsageError("key %r violates m <= min(i)" % (key,))


class MultiFunction(SeriesMap):
    """Function of (z, s_1..s_n) in the basis described in the module doc."""

    __slots__ = ("params", "n", "trunc_m", "trunc_i", "coeffs")

    def __init__(self, params: FieldParams, n: int, trunc_m: int, trunc_i: int,
                 coeffs: dict):
        if n < 1:
            raise UsageError("need at least one s-variable")
        self.params = params
        self.n = n
        self.trunc_m = trunc_m
        self.trunc_i = trunc_i
        out = {}
        for key, c in coeffs.items():
            m, ivec = key[0], key[1:]
            if len(ivec) != n:
                raise UsageError("key %r has wrong arity" % (key,))
            _check_basis_key(key)
            if m > trunc_m or any(i > trunc_i for i in ivec):
                continue
            if not c.is_zero():
                out[key] = c
        self.coeffs = out

    @classmethod
    def zero(cls, params, n, trunc_m, trunc_i):
        return cls(params, n, trunc_m, trunc_i, {})

    def _check(self, other):
        if self.params != other.params or self.n != other.n:
            raise ParameterMismatchError("incompatible functions")

    def _join(self, other, coeffs):
        return MultiFunction(self.params, self.n, min(self.trunc_m, other.trunc_m),
                             min(self.trunc_i, other.trunc_i), coeffs)

    def _compared(self, other):
        box = self._join(other, {})  # the common box
        return lambda key: key[0] <= box.trunc_m and max(key[1:]) <= box.trunc_i

    # -- generator actions ----------------------------------------------------

    def apply_tau(self) -> "MultiFunction":
        params = self.params
        out = {}
        for key, c in self.coeffs.items():
            m = key[0]
            new_key = tuple(idx + 1 for idx in key)
            if new_key[0] > self.trunc_m or any(i > self.trunc_i for i in new_key[1:]):
                continue
            out[new_key] = c.frobenius(1) * bracket(params, m + 1)
        return MultiFunction(params, self.n, self.trunc_m, self.trunc_i, out)

    def apply_delta(self, j: int) -> "MultiFunction":
        if not 1 <= j <= self.n:
            raise UsageError("delta index %d out of range 1..%d" % (j, self.n))
        return self._bracket_scale(j)

    def apply_delta_z(self) -> "MultiFunction":
        """Difference operator in the distinguished variable: c -> [m] c."""
        return self._bracket_scale(0)

    def _bracket_scale(self, pos: int) -> "MultiFunction":
        """c -> [key[pos]] * c; slots with key[pos] = 0 die ([0] = 0)."""
        params = self.params
        out = {key: c * bracket(params, key[pos])
               for key, c in self.coeffs.items() if key[pos] > 0}
        return MultiFunction(params, self.n, self.trunc_m, self.trunc_i, out)

    def apply_d(self) -> "MultiFunction":
        params = self.params
        out = {}
        for key, c in self.coeffs.items():
            if key[0] >= 1 and all(i >= 1 for i in key[1:]):
                out[tuple(idx - 1 for idx in key)] = c.frobenius(-1)
        return MultiFunction(params, self.n, self.trunc_m - 1, self.trunc_i - 1, out)

    def scale(self, s: PerfSeries) -> "MultiFunction":
        out = {key: c * s for key, c in self.coeffs.items()}
        return MultiFunction(self.params, self.n, self.trunc_m, self.trunc_i, out)

    # -- inspection ---------------------------------------------------------------

    def coefficient(self, m, *ivec) -> PerfSeries:
        if len(ivec) != self.n:
            raise UsageError("expected %d s-indices" % self.n)
        key = (m,) + tuple(ivec)
        _check_basis_key(key)
        if m > self.trunc_m or any(i > self.trunc_i for i in ivec):
            raise UsageError("slot %r beyond truncation" % (key,))
        return self.coeffs.get(key, PerfSeries.zero(self.params))

    def support(self):
        return sorted(self.coeffs)

    def is_zero_on_box(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.coeffs.values())

    def evaluate(self, z: PerfSeries, svec, window=None) -> PerfSeries:
        """Instantiate at concrete series arguments.

        Computes sum c_(m,i) s_1^(q^(i_1)) .. s_n^(q^(i_n)) z^(q^m) / D_m
        over the stored support.  Each slot is one pass of the quotient
        kernel: the coefficient times z^(q^m) and the s-powers,
        long-divided by the m two-term factors of D_m at relative
        precision ``window`` (DEFAULT_INVERT_WINDOW by default), with the
        terms and precision of the product with the inverse of D_m but no
        inverse built.  As with LinearSeries.evaluate, cap the result with
        ``.truncate(bound)`` when the function truncates a longer expansion.
        """
        params = self.params
        if len(svec) != self.n:
            raise UsageError("expected %d s-arguments" % self.n)
        for s in (z,) + tuple(svec):
            if s.params != params:
                raise ParameterMismatchError("argument over a different field")
        acc = PerfSeries.zero(params)
        for key in self.support():
            m = key[0]
            powers = [z.frobenius(m)] + [s.frobenius(i) for s, i in zip(svec, key[1:])]
            acc = acc + _quotient(self.coeffs[key], powers,
                                  _factorial_factors(params, m), window)
        return acc

    # -- serialization --------------------------------------------------------------

    def to_text(self) -> str:
        return textio.format_file(
            "PERFFUNC", self.params, (self.n, self.trunc_m, self.trunc_i),
            [("coeff %d %s" % (key[0], ",".join(map(str, key[1:]))), self.coeffs[key])
             for key in self.support()])

    @classmethod
    def from_text(cls, text: str) -> "MultiFunction":
        params, (n, tm, ti), payload = textio.read_file(text, "PERFFUNC")
        return cls(params, n, tm, ti, {key: c for _, key, c in payload})

    def __repr__(self):
        return "MultiFunction(n=%d, box=(%d,%d), slots=%d)" % (
            self.n, self.trunc_m, self.trunc_i, len(self.coeffs))

