"""Truncated F_q-linear functions and the generator actions on them.

Two representations:

* :class:`LinearSeries` is a one-variable F_q-linear series
  sum_k a_k t^(q^k) with coefficients known for k <= ``known`` (None means
  the function is an exact polynomial in t^(q^k)).

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
"""

from __future__ import annotations

from .brackets import bracket, carlitz_D
from .errors import ParameterMismatchError, ParseError, UsageError
from .ffield import FieldParams
from .series import PerfSeries, _add_maps, _maps_equal
from . import textio


class LinearSeries:
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

    def __add__(self, other):
        self._check(other)
        return LinearSeries(self.params, _add_maps(self.coeffs, other.coeffs),
                            self._common_known(other))

    def __neg__(self):
        return LinearSeries(self.params, {k: -c for k, c in self.coeffs.items()},
                            self.known)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s: PerfSeries) -> "LinearSeries":
        """Multiply the function by the scalar s."""
        return LinearSeries(self.params, {k: c * s for k, c in self.coeffs.items()},
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

    def evaluate(self, t: PerfSeries, tail_prec=None) -> PerfSeries:
        """Sum a_k t^(q^k) over the stored support.

        The stored support is treated as the whole function; when the
        object is a truncation of something longer, pass ``tail_prec``
        (a valuation bound for the omitted tail) to cap the precision.
        """
        acc = PerfSeries.zero(self.params)
        for k, c in sorted(self.coeffs.items()):
            acc = acc + c * t.frobenius(k)
        if tail_prec is not None:
            acc = acc.truncate(tail_prec)
        return acc

    def is_zero_on_known(self) -> bool:
        if self.known is None:
            return not self.coeffs
        return all(c.is_zero_at_prec() or k > self.known
                   for k, c in self.coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, LinearSeries):
            return NotImplemented
        if self.params != other.params:
            return False
        known = self._common_known(other)
        return _maps_equal(self.params, self.coeffs, other.coeffs,
                           None if known is None else lambda k: k <= known)

    __hash__ = None

    def __repr__(self):
        parts = ["(%s)*t^(q^%d)" % (textio.format_series(c), k)
                 for k, c in sorted(self.coeffs.items())]
        body = " + ".join(parts) if parts else "0"
        if self.known is not None:
            body += "  [known k <= %d]" % self.known
        return body


class MultiFunction:
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
            if m < 0 or any(i < 0 for i in ivec):
                raise UsageError("negative index in key %r" % (key,))
            if m > min(ivec):
                raise UsageError("key %r violates m <= min(i)" % (key,))
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

    # -- combination ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        tm = min(self.trunc_m, other.trunc_m)
        ti = min(self.trunc_i, other.trunc_i)
        return MultiFunction(self.params, self.n, tm, ti,
                             _add_maps(self.coeffs, other.coeffs))

    def __neg__(self):
        out = {key: -c for key, c in self.coeffs.items()}
        return MultiFunction(self.params, self.n, self.trunc_m, self.trunc_i, out)

    def __sub__(self, other):
        return self + (-other)

    # -- inspection ---------------------------------------------------------------

    def coefficient(self, m, *ivec) -> PerfSeries:
        key = (m,) + tuple(ivec)
        if m > self.trunc_m or any(i > self.trunc_i for i in ivec):
            raise UsageError("slot %r beyond truncation" % (key,))
        return self.coeffs.get(key, PerfSeries.zero(self.params))

    def support(self):
        return sorted(self.coeffs)

    def is_zero_on_box(self) -> bool:
        return all(c.is_zero_at_prec() for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, MultiFunction):
            return NotImplemented
        if self.params != other.params or self.n != other.n:
            return False
        tm = min(self.trunc_m, other.trunc_m)
        ti = min(self.trunc_i, other.trunc_i)
        return _maps_equal(self.params, self.coeffs, other.coeffs,
                           lambda key: key[0] <= tm and max(key[1:]) <= ti)

    __hash__ = None

    def evaluate(self, z: PerfSeries, svec, tail_prec=None,
                 window=None) -> PerfSeries:
        """Instantiate at concrete series arguments.

        Computes sum c_(m,i) s_1^(q^(i_1)) .. s_n^(q^(i_n)) z^(q^m) / D_m
        over the stored support.  Division by D_m is a series inversion
        (window-controlled).  As with LinearSeries.evaluate, pass
        ``tail_prec`` when the function truncates a longer expansion.
        """
        params = self.params
        if len(svec) != self.n:
            raise UsageError("expected %d s-arguments" % self.n)
        for s in (z,) + tuple(svec):
            if s.params != params:
                raise ParameterMismatchError("argument over a different field")
        inv_d = {}
        acc = PerfSeries.zero(params)
        for key in self.support():
            m, ivec = key[0], key[1:]
            if m not in inv_d:
                inv_d[m] = carlitz_D(params, m).invert(window=window)
            term = self.coeffs[key] * inv_d[m] * z.frobenius(m)
            for s, i in zip(svec, ivec):
                term = term * s.frobenius(i)
            acc = acc + term
        if tail_prec is not None:
            acc = acc.truncate(tail_prec)
        return acc

    # -- serialization --------------------------------------------------------------

    def to_text(self) -> str:
        lines = ["PERFFUNC 1"]
        lines += textio.format_field_header(self.params)
        lines.append("n %d" % self.n)
        lines.append("truncM %d" % self.trunc_m)
        lines.append("truncI %d" % self.trunc_i)
        for key in self.support():
            m, ivec = key[0], key[1:]
            lines.append("coeff %d %s : %s"
                         % (m, ",".join(str(i) for i in ivec),
                            textio.format_series(self.coeffs[key])))
        lines.append("END")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MultiFunction":
        fields, coeff_lines = _parse_keyed_lines(text, "PERFFUNC", ("coeff",))
        params = textio.parse_field_header(fields)
        n, tm, ti = (textio._read_int(fields.get(k), "function key %r" % k)
                     for k in ("n", "truncM", "truncI"))
        coeffs = {}
        for head, body in coeff_lines:
            _, m, indices = _head_fields(head, 3)
            m = textio._read_int(m, "coeff index")
            ivec = tuple(textio._read_int(t, "coeff index")
                         for t in indices.split(","))
            coeffs[(m,) + ivec] = textio.parse_series(body, params)
        return cls(params, n, tm, ti, coeffs)

    def __repr__(self):
        return "MultiFunction(n=%d, box=(%d,%d), slots=%d)" % (
            self.n, self.trunc_m, self.trunc_i, len(self.coeffs))


def _parse_keyed_lines(text: str, magic: str, payload_keys):
    """Shared reader for the line-oriented file formats.

    Returns (header fields dict, list of (head, body) payload lines), where
    payload lines are the ones starting with one of ``payload_keys`` and are
    split at the first ' : '.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(magic):
        raise ParseError("expected a %s file" % magic)
    fields = {}
    payload = []
    for ln in lines[1:]:
        if ln == "END":
            break
        key = ln.split(None, 1)[0]
        if key in payload_keys:
            if " : " not in ln:
                raise ParseError("payload line missing ' : ' separator: %r" % ln)
            head, body = ln.split(" : ", 1)
            payload.append((head.strip(), body.strip()))
        else:
            if " " not in ln:
                raise ParseError("malformed header line %r" % ln)
            k, v = ln.split(None, 1)
            fields[k] = v.strip()
    else:
        raise ParseError("missing END marker")
    return fields, payload


def _head_fields(head: str, count: int):
    """The ``count`` whitespace-separated fields of a payload line's head
    (the last one keeps the rest); a ParseError when some are missing."""
    parts = head.split(None, count - 1)
    if len(parts) < count:
        raise ParseError("payload line %r needs %d fields before ' : '"
                         % (head, count))
    return parts
