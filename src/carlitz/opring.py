"""The Carlitz operator ring on n+1 variables.

Words over the alphabet {tau, d, delta_1..delta_n, scalars} are rewritten
to one of two normal-form conventions:

* ``standard``: sums of  a * tau^l d^mu delta_1^(i_1) .. delta_n^(i_n)
* ``alt``:      sums of  a * delta_1^(i_1) .. delta_n^(i_n) tau^l d^mu

using the commutation relations

    d tau   = tau d + [1]^(1/q)
    d del_j = del_j d + [1]^(1/q) d
    del_j tau = tau del_j + [1] tau

and the scalar rules  d a = a^(1/q) d,  tau a = a^q tau,  del_j a = a del_j.
Each convention orients these so that every applied rule strictly reduces
the number of inversions against that convention's generator order (ties
broken by word length), which terminates; confluence is exercised by the
test suite with independent reduction strategies.  Within one convention
the resulting coefficient map is unique, so equality of normal forms is
equality of term maps (coefficient equality at common precision).

The module also carries the filtration machinery: total-degree filtration
dimension counts for the full ring, the lower-bound monomial count behind
the quasi-holonomicity of evolution-equation quotients, the monomial count
for polynomial functions, and an exact finite-difference degree fit.
"""

from __future__ import annotations

import math

from .brackets import bracket
from .errors import ParameterMismatchError, UsageError
from .ffield import FieldParams
from .funcspace import MultiFunction
from .series import PerfSeries

FACTOR_TAU = "tau"
FACTOR_D = "d"
FACTOR_DELTA = "delta"
FACTOR_SCALAR = "scalar"

TAU = (FACTOR_TAU,)
D = (FACTOR_D,)


def delta(j: int):
    return (FACTOR_DELTA, j)


def scalar_factor(s: PerfSeries):
    return (FACTOR_SCALAR, s)


class OperatorWord:
    """A product of generators and scalars, prior to any rewriting."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors):
        factors = tuple(factors)
        for f in factors:
            if f[0] == FACTOR_DELTA and not 1 <= f[1] <= n:
                raise UsageError("delta index %d out of range 1..%d" % (f[1], n))
        self.n = n
        self.factors = factors

    def __mul__(self, other):
        if self.n != other.n:
            raise ParameterMismatchError("words over different variable counts")
        return OperatorWord(self.n, self.factors + other.factors)

    def __eq__(self, other):
        return (isinstance(other, OperatorWord) and self.n == other.n
                and len(self.factors) == len(other.factors)
                and all(_factor_eq(a, b) for a, b in zip(self.factors, other.factors)))

    __hash__ = None

    def __repr__(self):
        from .textio import format_operator_word
        return format_operator_word(self)


def _factor_eq(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == FACTOR_DELTA:
        return a[1] == b[1]
    if a[0] == FACTOR_SCALAR:
        return a[1] == b[1]
    return True


CONVENTIONS = ("standard", "alt")


def _rewrite_pair(x, y, params, convention):
    """Rewriting of the adjacent pair (x, y), or None when irreducible.

    Returns a list of replacement segments, each a (coeff or None, factors
    tuple) pair; ``coeff`` multiplies in from the left of the whole word.
    """
    kx, ky = x[0], y[0]
    if ky == FACTOR_SCALAR:
        s = y[1]
        if kx == FACTOR_SCALAR:
            return [(None, (scalar_factor(x[1] * s),))]
        if kx == FACTOR_TAU:
            return [(None, (scalar_factor(s.frobenius(1)), TAU))]
        if kx == FACTOR_D:
            return [(None, (scalar_factor(s.frobenius(-1)), D))]
        return [(None, (scalar_factor(s), x))]
    if kx == FACTOR_SCALAR:
        return None  # scalar already left of a generator
    one_root = bracket(params, 1).frobenius(-1)  # [1]^(1/q)
    if convention == "standard":
        if kx == FACTOR_D and ky == FACTOR_TAU:
            return [(None, (TAU, D)), (None, (scalar_factor(one_root),))]
        if kx == FACTOR_DELTA and ky == FACTOR_TAU:
            return [(None, (TAU, x)), (None, (scalar_factor(bracket(params, 1)), TAU))]
        if kx == FACTOR_DELTA and ky == FACTOR_D:
            return [(None, (D, x)), (None, (scalar_factor(-one_root), D))]
        if kx == FACTOR_DELTA and ky == FACTOR_DELTA and x[1] > y[1]:
            return [(None, (y, x))]
        return None
    # alt convention
    if kx == FACTOR_D and ky == FACTOR_TAU:
        return [(None, (TAU, D)), (None, (scalar_factor(one_root),))]
    if kx == FACTOR_TAU and ky == FACTOR_DELTA:
        return [(None, (y, TAU)), (None, (scalar_factor(-bracket(params, 1)), TAU))]
    if kx == FACTOR_D and ky == FACTOR_DELTA:
        return [(None, (y, D)), (None, (scalar_factor(one_root), D))]
    if kx == FACTOR_DELTA and ky == FACTOR_DELTA and x[1] > y[1]:
        return [(None, (y, x))]
    return None


class NormalForm:
    """An operator as a unique finite sum in one of the two conventions.

    ``terms`` maps keys (l, mu, i_1..i_n) to scalar coefficients.  Keys
    with exactly-zero coefficients are never stored.
    """

    __slots__ = ("params", "n", "convention", "terms")

    def __init__(self, params: FieldParams, n: int, convention: str, terms: dict):
        if convention not in CONVENTIONS:
            raise UsageError("unknown convention %r" % (convention,))
        self.params = params
        self.n = n
        self.convention = convention
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, params, n, convention="standard"):
        return cls(params, n, convention, {})

    @classmethod
    def identity(cls, params, n, convention="standard"):
        return cls.scalar(params, n, PerfSeries.one(params), convention)

    @classmethod
    def scalar(cls, params, n, s: PerfSeries, convention="standard"):
        key = (0, 0) + (0,) * n
        return cls(params, n, convention, {key: s})

    @classmethod
    def generator(cls, params, n, factor, convention="standard"):
        word = OperatorWord(n, (factor,))
        return normalize([word], params, convention)

    # -- structure ------------------------------------------------------------

    def _check(self, other):
        if (self.params != other.params or self.n != other.n
                or self.convention != other.convention):
            raise ParameterMismatchError(
                "normal forms over different rings or conventions")

    def is_zero(self) -> bool:
        return not self.terms or all(c.is_zero_at_prec() for c in self.terms.values())

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return NormalForm(self.params, self.n, self.convention, out)

    def __neg__(self):
        return NormalForm(self.params, self.n, self.convention,
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        if (self.params != other.params or self.n != other.n
                or self.convention != other.convention):
            return False
        zero = PerfSeries.zero(self.params)
        for k in set(self.terms) | set(other.terms):
            if self.terms.get(k, zero) != other.terms.get(k, zero):
                return False
        return True

    __hash__ = None

    def key_factors(self, key):
        """Expand a term key into its generator word for this convention."""
        l, mu = key[0], key[1]
        deltas = []
        for j, i in enumerate(key[2:], start=1):
            deltas.extend([delta(j)] * i)
        gens = [TAU] * l + [D] * mu
        if self.convention == "standard":
            return tuple(gens + deltas)
        return tuple(deltas + gens)

    def words(self):
        """The normal form as a list of OperatorWord (scalar then generators)."""
        out = []
        for key in sorted(self.terms):
            factors = (scalar_factor(self.terms[key]),) + self.key_factors(key)
            out.append(OperatorWord(self.n, factors))
        return out

    def convert(self, convention: str) -> "NormalForm":
        """Re-express in the other convention (or return self)."""
        if convention == self.convention:
            return self
        return normalize(self.words(), self.params, convention)

    # -- ring structure ---------------------------------------------------------

    def op_mul(self, other: "NormalForm") -> "NormalForm":
        self._check(other)
        items = []
        for ka, ca in self.terms.items():
            fa = self.key_factors(ka)
            for kb, cb in other.terms.items():
                items.append((ca, fa + (scalar_factor(cb),) + other.key_factors(kb)))
        return _normalize_items(items, self.params, self.n, self.convention)

    def op_apply(self, f: MultiFunction) -> MultiFunction:
        """Act on a function; per term the rightmost generator acts first."""
        if f.n != self.n:
            raise ParameterMismatchError("operator arity %d vs function arity %d"
                                         % (self.n, f.n))
        if f.params != self.params:
            raise ParameterMismatchError("different field configurations")
        total = None
        for key in sorted(self.terms):
            l, mu = key[0], key[1]
            g = f
            if self.convention == "standard":
                for j, i in enumerate(key[2:], start=1):
                    for _ in range(i):
                        g = g.apply_delta(j)
                for _ in range(mu):
                    g = g.apply_d()
                for _ in range(l):
                    g = g.apply_tau()
            else:
                for _ in range(mu):
                    g = g.apply_d()
                for _ in range(l):
                    g = g.apply_tau()
                for j, i in enumerate(key[2:], start=1):
                    for _ in range(i):
                        g = g.apply_delta(j)
            g = g.scale(self.terms[key])
            total = g if total is None else total + g
        if total is None:
            return MultiFunction.zero(self.params, self.n, f.trunc_m, f.trunc_i)
        return total

    # -- predicates ---------------------------------------------------------------

    def is_linear(self) -> bool:
        """True iff the operator commutes with every scalar: all terms have
        equal tau and d exponents (pushing a scalar through tau^l d^mu
        twists it by q^(l-mu))."""
        return all(k[0] == k[1] for k in self.terms)

    def filtration_degree(self):
        """Max of l + mu + sum(i) over stored terms; -inf for the zero operator."""
        if not self.terms:
            return -math.inf
        return max(sum(k) for k in self.terms)

    def __repr__(self):
        from .textio import format_operator_words
        return format_operator_words(self.words())


def normalize(words, params: FieldParams, convention: str = "standard",
              strategy: str = "leftmost") -> NormalForm:
    """Rewrite a word, a list of words, or a NormalForm to normal form.

    ``strategy`` picks which reducible pair fires first ("leftmost" or
    "rightmost"); the result must not depend on it.
    """
    if isinstance(words, NormalForm):
        return normalize(words.words(), params, convention, strategy)
    if isinstance(words, OperatorWord):
        words = [words]
    words = list(words)
    if not words:
        raise UsageError("normalize needs at least the variable count; "
                         "got an empty word list (use NormalForm.zero)")
    n = words[0].n
    items = [(PerfSeries.one(params), w.factors) for w in words]
    return _normalize_items(items, params, n, convention, strategy)


def _normalize_items(items, params, n, convention, strategy="leftmost"):
    terms = {}
    stack = list(items)
    while stack:
        coeff, seq = stack.pop()
        pos = _find_redex(seq, params, convention, strategy)
        if pos is None:
            if seq and seq[0][0] == FACTOR_SCALAR:
                coeff = coeff * seq[0][1]
                seq = seq[1:]
            key = _count_key(seq, n)
            if key in terms:
                terms[key] = terms[key] + coeff
            else:
                terms[key] = coeff
            continue
        x, y = seq[pos], seq[pos + 1]
        for extra_coeff, repl in _rewrite_pair(x, y, params, convention):
            new_seq = seq[:pos] + repl + seq[pos + 2:]
            new_coeff = coeff if extra_coeff is None else coeff * extra_coeff
            stack.append((new_coeff, new_seq))
    return NormalForm(params, n, convention, terms)


def _find_redex(seq, params, convention, strategy):
    rng = range(len(seq) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    elif strategy != "leftmost":
        raise UsageError("unknown strategy %r" % (strategy,))
    for pos in rng:
        if _rewrite_pair(seq[pos], seq[pos + 1], params, convention) is not None:
            return pos
    return None


def _count_key(seq, n):
    l = mu = 0
    ivec = [0] * n
    for f in seq:
        if f[0] == FACTOR_TAU:
            l += 1
        elif f[0] == FACTOR_D:
            mu += 1
        elif f[0] == FACTOR_DELTA:
            ivec[f[1] - 1] += 1
        else:
            raise UsageError("scalar left in an irreducible word")
    return (l, mu) + tuple(ivec)


# ---------------------------------------------------------------------------
# filtration and dimension counting
# ---------------------------------------------------------------------------

def gamma_dim(n: int, nu: int) -> int:
    """Monomials tau^l d^mu delta^i with l + mu + sum(i) <= nu: the
    dimension of the nu-th filtration space of the full ring, equal to
    binom(nu + n + 2, n + 2)."""
    if n < 1 or nu < 0:
        raise UsageError("need n >= 1 and nu >= 0")
    return math.comb(nu + n + 2, n + 2)


def qh_lower_count(n: int, nu: int) -> int:
    """Count of (l, i_1..i_n) >= 0 with 2l + sum(i) <= nu.

    This is the size of the independent family tau^l d^l delta^i inside the
    nu-th induced filtration space of the quotient by an evolution
    operator; it is bounded below by binom(floor(nu/2) + n + 1, n + 1) and
    grows with degree n + 1.
    """
    if n < 1 or nu < 0:
        raise UsageError("need n >= 1 and nu >= 0")
    return sum(math.comb(nu - 2 * l + n, n) for l in range(nu // 2 + 1))


def fhat_monomial_count(n: int, nu: int) -> int:
    """Count of basis monomials of polynomial functions: (m, i_1..i_n) with
    m <= min(i) and m + sum(i) <= nu; grows with degree n + 1."""
    if n < 1 or nu < 0:
        raise UsageError("need n >= 1 and nu >= 0")
    total = 0
    m = 0
    while m * (n + 1) <= nu:
        total += math.comb(nu - m * (n + 1) + n, n)
        m += 1
    return total


def gk_fit(samples):
    """Degree of the integer-valued polynomial interpolating the tail.

    ``samples`` is a sequence of (nu, dim) pairs with equally spaced nu.
    Iterated finite differencing finds the least degree whose differences
    become constant; a non-matching prefix is dropped point by point
    (filtration dimensions may only settle onto the polynomial eventually).
    Quasi-polynomial counts (period h) should be sampled at spacing h.
    Returns the degree, or None when no polynomial fits the tail with at
    least degree + 2 points.
    """
    pts = sorted(samples)
    if len(pts) < 2:
        raise UsageError("need at least two sample points")
    nus = [nu for nu, _ in pts]
    step = nus[1] - nus[0]
    if step < 1 or any(b - a != step for a, b in zip(nus, nus[1:])):
        raise UsageError("sample points must be equally spaced")
    vals = [d for _, d in pts]
    for drop in range(len(vals) - 1):
        deg = _difference_degree(vals[drop:])
        if deg is not None:
            return deg
    return None


def _difference_degree(seq):
    k = 0
    cur = list(seq)
    while len(cur) >= 2:
        if all(v == cur[0] for v in cur):
            return k
        cur = [b - a for a, b in zip(cur, cur[1:])]
        k += 1
    return None
