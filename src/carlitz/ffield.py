"""Exact arithmetic in the coefficient field F_Q, Q = p^(v*m).

A :class:`FieldParams` fixes the prime p, the Carlitz parameter q = p^v,
the constant-field extension degree m, and an irreducible modulus of degree
v*m over Z/p.  Field elements are residues modulo that modulus; internally
they are encoded as integers (base-p digit strings), and all arithmetic is
table driven: a discrete-log/exp pair for multiplication, per-power
Frobenius tables, and one addition table that every field has and every
sum reads as ``_add_table[a][b]``.  Up to ``_ADD_TABLE_LIMIT`` elements its
Q rows are stored; above it the table is a view that adds the base-p
digits of a and b on demand, so only this module knows which kind a field
has.  Fields this small (Q <= a few thousand) make the tables essentially
free and every coefficient operation O(1).  A field of order
above ``_FIELD_ORDER_LIMIT`` (2^20) is refused with a UsageError that
names the limit, before p is factored or any table is built.

The table build is also the field check.  Z/p[x]/(modulus) is a field
exactly when some element g has multiplicative order Q - 1: its powers are
then Q - 1 distinct units, so every nonzero residue is a unit (and a field's
unit group is cyclic).  The modulus is accepted exactly when the generator
search finds such a g, g^(Q-1) = 1 with g^0..g^(Q-2) distinct, so that the
log table is a bijection; otherwise it is refused as reducible before the
log, addition and Frobenius tables are built.

The q-power Frobenius ``frob`` is the central structural map: it permutes
F_Q, so q-th roots always exist and are unique, which is what makes the
perfection arithmetic in :mod:`carlitz.series` exact.

There is one FieldParams object per configuration.  ``FieldParams(p, v,
m, modulus)`` normalises its arguments (the modulus filled in from the
shipped ones, reduced mod p and made monic) and returns the object stored
for that configuration, building its tables only the first time; the
object is kept for the life of the process, as ``FieldParams.default(q,
m)`` objects always were, and ``default`` returns the same object.  So a
configuration read from a file header, a config file or the CLI's
--p/--v/--m/--modulus shares the tables, the bracket cache and the exact
one series of every other use of it, and two FieldParams are the same
field exactly when they are the same object.
"""

from __future__ import annotations

from .errors import UsageError

# Store the Q x Q addition table only up to this order.  A larger field's
# table reads the same, table[a][b], but adds the base-p digits of a and b
# on demand (_DigitSums), so it holds no rows.
_ADD_TABLE_LIMIT = 512

# Build no field of order Q = p^(v*m) above this size: the log, exp,
# negation and Frobenius tables hold Q entries each, and the primality
# check of p trial-divides up to sqrt(p).  A larger field is refused
# before p is factored.
_FIELD_ORDER_LIMIT = 2 ** 20


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z/p (used only for setup and validation)
# ---------------------------------------------------------------------------

def _poly_rem(a, mod, p):
    a = [c % p for c in a]
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) > dm:
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] * inv_lead % p
        sh = len(a) - 1 - dm
        for i, c in enumerate(mod):
            a[sh + i] = (a[sh + i] - f * c) % p
        a.pop()
    a += [0] * (dm - len(a))
    return a


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _prime_factors(n):
    """The distinct prime factors of n, smallest first, found one at a
    time: n is prime exactly when the first is n itself, so a composite is
    told apart at its least divisor."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        yield n


# Shipped moduli (ascending coefficients, monic) keyed by (p, degree).
# The table build refuses a reducible one; the test suite also checks
# each against a trial-division oracle.
DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),
}

_DEFAULT_QV = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}

# The one FieldParams of each normalised (p, v, m, modulus).
_params_cache: dict = {}


def _configuration(p, v, m, modulus):
    """The normalised (p, v, m, modulus) of a field configuration, the
    modulus filled in from the shipped ones, reduced mod p and made monic;
    refused with the UsageError of FieldParams, before any table is built.
    A field of order above ``_FIELD_ORDER_LIMIT`` is refused before p is
    factored; Q is computed only once v*m is small enough to bound it."""
    if p > 1 and v >= 1 and m >= 1 and (
            v * m >= _FIELD_ORDER_LIMIT.bit_length()
            or p ** (v * m) > _FIELD_ORDER_LIMIT):
        raise UsageError("field order Q = p^(v*m) must be at most %d, got "
                         "p=%r, v=%r, m=%r" % (_FIELD_ORDER_LIMIT, p, v, m))
    if next(_prime_factors(p), None) != p:
        raise UsageError("p must be prime, got %r" % (p,))
    if v < 1 or m < 1:
        raise UsageError("v and m must be positive integers")
    deg = v * m
    if modulus is None:
        try:
            modulus = DEFAULT_MODULI[(p, deg)]
        except KeyError:
            raise UsageError(
                "no shipped modulus for p=%d, degree %d; pass one explicitly"
                % (p, deg))
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != deg + 1 or modulus[-1] == 0:
        raise UsageError("modulus must be monic of degree exactly %d" % deg)
    if modulus[-1] != 1:
        inv = pow(modulus[-1], -1, p)
        modulus = tuple(c * inv % p for c in modulus)
    return p, v, m, modulus


class _DigitSumRow:
    """Row a of an addition table: row[b] is a + b, the base-p digits of
    the two indices added mod p."""

    __slots__ = ("params", "digits")

    def __init__(self, params, a):
        self.params, self.digits = params, params._coeffs_of(a)

    def __getitem__(self, b):
        params, p = self.params, self.params.p
        return params._idx_of([(x + y) % p for x, y in
                               zip(self.digits, params._coeffs_of(b))])


class _DigitSums:
    """The addition table of a field, read as table[a][b], that makes each
    row on demand: a field stores its rows only up to ``_ADD_TABLE_LIMIT``,
    and above it keeps this view, which holds nothing but the field."""

    __slots__ = ("params",)

    def __init__(self, params):
        self.params = params

    def __getitem__(self, a):
        return _DigitSumRow(self.params, a)


class FieldParams:
    """Field configuration: coefficient field F_Q with Carlitz parameter q.

    Immutable after construction, and one object per configuration (see
    the module docstring).  Elements of F_Q are referred to by integer
    index (base-p digits of the residue); the wrapper class
    :class:`FFElement` carries an index together with its params.
    """

    __slots__ = (
        "p", "v", "m", "modulus", "q", "Q", "deg",
        "_exp", "_log", "_neg", "_frob", "_add_table",
        "zero_idx", "one_idx", "minus_one_idx", "gen_idx",
        # d_cache, l_cache: always empty; only perfbench/run.py:cache_entries reads them
        "d_cache", "l_cache", "bracket_cache", "unit",
    )

    def __new__(cls, p: int, v: int, m: int, modulus=None):
        """The stored object of the normalised configuration, built and
        stored on first use.  A build that loses a race to store its
        configuration returns the stored object.  There is no ``__init__``,
        so a repeated construction leaves the stored object as it is."""
        key = _configuration(p, v, m, modulus)
        params = _params_cache.get(key)
        if params is None:
            params = object.__new__(cls)
            params.p, params.v, params.m, params.modulus = key
            params.q = p ** v
            params.deg = v * m
            params.Q = p ** params.deg
            params._build_tables()
            params.d_cache = {}
            params.l_cache = {}
            params.bracket_cache = {}
            params.unit = None  # PerfSeries.one(params), made on first use
            params = _params_cache.setdefault(key, params)
        return params

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def default(q: int, m: int = 1) -> "FieldParams":
        """The shipped configuration for Carlitz parameter q and extension m."""
        if q not in _DEFAULT_QV:
            raise UsageError(
                "no shipped configuration for q=%d (have %s); "
                "construct FieldParams(p, v, m, modulus) directly"
                % (q, sorted(_DEFAULT_QV)))
        p, v = _DEFAULT_QV[q]
        return FieldParams(p, v, m)

    # -- table construction --------------------------------------------------

    def _coeffs_of(self, idx):
        out = []
        for _ in range(self.deg):
            idx, r = divmod(idx, self.p)
            out.append(r)
        return out

    def _idx_of(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + (c % self.p)
        return idx

    def _build_tables(self):
        p, Q, deg, mod = self.p, self.Q, self.deg, list(self.modulus)
        self.zero_idx = 0
        self.one_idx = 1
        self.minus_one_idx = self._idx_of([p - 1] + [0] * (deg - 1))

        def mul_raw(a, b):
            pa = self._coeffs_of(a)
            pb = self._coeffs_of(b)
            return self._idx_of(_poly_mulmod(pa, pb, mod, p))

        # negation table
        self._neg = [self._idx_of([(-c) % p for c in self._coeffs_of(i)])
                     for i in range(Q)]

        # find the least primitive element and build exp/log tables
        order_target = Q - 1
        factors = list(_prime_factors(order_target))
        gen = 0  # none found yet; zero fails the field check below
        for cand in range(1, Q):
            ok = True
            for ell in factors:
                e = order_target // ell
                acc = 1
                b = cand
                while e:
                    if e & 1:
                        acc = mul_raw(acc, b)
                    b = mul_raw(b, b)
                    e >>= 1
                if acc == 1:
                    ok = False
                    break
            if ok:
                gen = cand
                break
        exp = [1] * order_target
        cur = 1
        for k in range(1, order_target):
            cur = mul_raw(cur, gen)
            exp[k] = cur
        # the field check (see the module docstring): g has order Q - 1
        if mul_raw(cur, gen) != 1 or len(set(exp)) < order_target:
            raise UsageError("modulus %r is reducible over F_%d"
                             % (self.modulus, p))
        self.gen_idx = gen
        log = [0] * Q
        for k, val in enumerate(exp):
            log[val] = k
        # doubled, so that _exp[log a + log b] needs no reduction mod Q - 1
        self._exp = exp + exp
        self._log = log

        # the addition table: its rows, or above the limit the view
        table = _DigitSums(self)
        if Q <= _ADD_TABLE_LIMIT:
            table = [list(map(table[a].__getitem__, range(Q))) for a in range(Q)]
        self._add_table = table

        # frob[e][i] = i^(q^e) for e in 0..m-1 (q^m is the identity on F_Q)
        frob = [list(range(Q))]
        for _ in range(1, self.m):
            prev = frob[-1]
            frob.append([self.pow_int(prev[i], self.q) for i in range(Q)])
        self._frob = frob

    # -- low level integer-index arithmetic ----------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.Q)
        n = self.Q - 1
        return self._exp[(-self._log[a]) % n]

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        n = self.Q - 1
        return self._exp[(self._log[a] * e) % n] if n else 1

    def frob(self, a: int, e: int) -> int:
        """a^(q^e) for any integer e; for e < 0 this is the unique q^|e|-th root."""
        return self._frob[e % self.m][a]

    def from_int(self, k: int) -> int:
        """Image of the rational integer k in F_Q (reduction mod p): the
        constant k mod p is digit 0 of the base-p index."""
        return k % self.p

    # -- wrapper and misc ----------------------------------------------------

    def element(self, coeffs) -> "FFElement":
        coeffs = list(coeffs) + [0] * (self.deg - len(coeffs))
        if len(coeffs) != self.deg:
            raise UsageError("expected at most %d coefficients" % self.deg)
        return FFElement(self, self._idx_of(coeffs))

    def zero(self) -> "FFElement":
        return FFElement(self, 0)

    def one(self) -> "FFElement":
        return FFElement(self, 1)

    def gen(self) -> "FFElement":
        """The canonical multiplicative generator g of F_Q^*."""
        return FFElement(self, self.gen_idx)

    def coeff_str(self, idx: int) -> str:
        """Canonical text for a coefficient: integer for prime fields,
        a power g^j of the generator otherwise.  The index of a prime-field
        element, and of 0 and 1 in any field, is the integer itself."""
        if self.deg == 1 or idx <= 1:
            return str(idx)
        j = self._log[idx]
        return "g" if j == 1 else "g^%d" % j

    def __reduce__(self):
        """Copies and unpickled objects are the stored object of the
        configuration, as a construction is."""
        return FieldParams, (self.p, self.v, self.m, self.modulus)

    def __repr__(self):
        return "FieldParams(p=%d, v=%d, m=%d)" % (self.p, self.v, self.m)


class FFElement:
    """An element of the coefficient field F_Q, always reduced.

    Thin wrapper over an integer index; arithmetic delegates to the
    parent's tables.  Supports +, -, *, /, ** and ``frob`` for q-power
    maps in both directions.
    """

    __slots__ = ("params", "idx")

    def __init__(self, params: FieldParams, idx: int):
        self.params = params
        self.idx = idx

    @property
    def coeffs(self):
        return tuple(self.params._coeffs_of(self.idx))

    def _check(self, other):
        if not isinstance(other, FFElement):
            raise UsageError("expected FFElement, got %r" % type(other))
        if other.params != self.params:
            from .errors import ParameterMismatchError
            raise ParameterMismatchError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FFElement(self.params, self.params.add(self.idx, other.idx))

    def __sub__(self, other):
        self._check(other)
        return FFElement(self.params, self.params.sub(self.idx, other.idx))

    def __neg__(self):
        return FFElement(self.params, self.params.neg(self.idx))

    def __mul__(self, other):
        self._check(other)
        return FFElement(self.params, self.params.mul(self.idx, other.idx))

    def __truediv__(self, other):
        self._check(other)
        return FFElement(self.params, self.params.mul(self.idx, self.params.inv(other.idx)))

    def __pow__(self, e):
        return FFElement(self.params, self.params.pow_int(self.idx, e))

    def frob(self, e: int = 1) -> "FFElement":
        return FFElement(self.params, self.params.frob(self.idx, e))

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        return (isinstance(other, FFElement) and self.params == other.params
                and self.idx == other.idx)

    def __hash__(self):
        return hash((self.params, self.idx))

    def __repr__(self):
        return "FFElement(%s)" % self.params.coeff_str(self.idx)
