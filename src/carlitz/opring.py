"""The Carlitz operator ring on n+1 variables.

Words over the alphabet {tau, d, delta_1..delta_n, scalars} are rewritten
to one of two normal-form conventions, each one generator order
(``CONVENTION_ORDERS``; deltas in ascending index order):

* ``standard`` (tau, d, delta): sums of  a * tau^l d^mu delta^i
* ``alt`` (delta, tau, d):      sums of  a * delta^i tau^l d^mu

with delta^i = delta_1^(i_1) .. delta_n^(i_n).  A scalar right of a
generator moves left, twisted as in  tau a = a^q tau,  d a = a^(1/q) d,
del_j a = a del_j.  A generator pair x y out of order becomes  y x + s g,
read from one table of relations  x y - y x = s g  (reversed: -s):

    d tau - tau d = [1]^(1/q),   d del_j - del_j d = [1]^(1/q) d,
    del_j tau - tau del_j = [1] tau.

Every rule strictly reduces the number of inversions against the order
(ties broken by word length), which terminates; confluence is exercised
by the test suite with independent reduction strategies.  Within one
convention the resulting coefficient map is unique, so equality of normal
forms is equality of term maps (coefficient equality at common precision).

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
from .series import PerfSeries, _add_maps, _maps_equal

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
        # factor tuples compare kind by kind and scalars by PerfSeries ==
        return (isinstance(other, OperatorWord) and self.n == other.n
                and self.factors == other.factors)

    __hash__ = None

    def __repr__(self):
        from .textio import format_operator_word
        return format_operator_word(self)


#: One generator order per convention; a word is normal when its generators
#: follow it, deltas in ascending index order.
CONVENTION_ORDERS = {"standard": (FACTOR_TAU, FACTOR_D, FACTOR_DELTA),
                     "alt": (FACTOR_DELTA, FACTOR_TAU, FACTOR_D)}
CONVENTIONS = tuple(CONVENTION_ORDERS)

# the q-power twist of a scalar that a generator passes to the right
_TWIST = {FACTOR_TAU: 1, FACTOR_D: -1, FACTOR_DELTA: 0}


def _convention_order(convention):
    if convention not in CONVENTION_ORDERS:
        raise UsageError("unknown convention %r" % (convention,))
    return CONVENTION_ORDERS[convention]


def _relation_table(params):
    """(x, y) -> (s, g) with  x y - y x = s g  for every ordered pair of
    distinct generator kinds; g is a generator segment."""
    one = bracket(params, 1)
    root = one.frobenius(-1)  # [1]^(1/q)
    table = {}
    for x, y, s, g in ((FACTOR_D, FACTOR_TAU, root, ()),
                       (FACTOR_D, FACTOR_DELTA, root, (D,)),
                       (FACTOR_DELTA, FACTOR_TAU, one, (TAU,))):
        table[x, y] = (s, g)
        table[y, x] = (-s, g)
    return table


def _rewrite_pair(x, y, relations):
    """Rewriting of the reducible adjacent pair (x, y).

    Returns a list of replacement segments (factor tuples): the words got
    by putting each segment in place of the pair sum to the original word.
    """
    kx, ky = x[0], y[0]
    if ky == FACTOR_SCALAR:
        s = y[1]
        if kx == FACTOR_SCALAR:
            return [(scalar_factor(x[1] * s),)]
        return [(scalar_factor(s.frobenius(_TWIST[kx])), x)]
    if kx == ky:
        return [(y, x)]  # deltas commute
    s, g = relations[kx, ky]
    return [(y, x), (scalar_factor(s),) + g]


def _act(f, factors):
    """The action of a generator word on a MultiFunction; the rightmost
    factor acts first."""
    for factor in reversed(factors):
        if factor[0] == FACTOR_TAU:
            f = f.apply_tau()
        elif factor[0] == FACTOR_D:
            f = f.apply_d()
        else:
            f = f.apply_delta(factor[1])
    return f


class NormalForm:
    """An operator as a unique finite sum in one of the two conventions.

    ``terms`` maps keys (l, mu, i_1..i_n) to scalar coefficients.  Keys
    with exactly-zero coefficients are never stored.
    """

    __slots__ = ("params", "n", "convention", "terms")

    def __init__(self, params: FieldParams, n: int, convention: str, terms: dict):
        _convention_order(convention)
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
        return NormalForm(self.params, self.n, self.convention,
                          _add_maps(self.terms, other.terms))

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
        return _maps_equal(self.params, self.terms, other.terms)

    __hash__ = None

    def key_factors(self, key):
        """Expand a term key into its generator word for this convention."""
        deltas = tuple(delta(j) for j, i in enumerate(key[2:], start=1)
                       for _ in range(i))
        runs = {FACTOR_TAU: (TAU,) * key[0], FACTOR_D: (D,) * key[1],
                FACTOR_DELTA: deltas}
        return sum((runs[kind] for kind in _convention_order(self.convention)), ())

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
            g = _act(f, self.key_factors(key)).scale(self.terms[key])
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
    if strategy not in ("leftmost", "rightmost"):
        raise UsageError("unknown strategy %r" % (strategy,))
    ranks = {FACTOR_SCALAR: -1}  # below every generator: scalars move left
    ranks.update((kind, r) for r, kind in enumerate(_convention_order(convention)))
    relations = _relation_table(params)
    terms = {}
    stack = list(items)
    while stack:
        coeff, seq = stack.pop()
        pos = _find_redex(seq, ranks, strategy)
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
        for repl in _rewrite_pair(seq[pos], seq[pos + 1], relations):
            stack.append((coeff, seq[:pos] + repl + seq[pos + 2:]))
    return NormalForm(params, n, convention, terms)


def _find_redex(seq, ranks, strategy):
    rng = range(len(seq) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for pos in rng:
        x, y = seq[pos], seq[pos + 1]
        if y[0] == FACTOR_SCALAR or (ranks[x[0]], x[1:]) > (ranks[y[0]], y[1:]):
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
