"""Well-posed Cauchy problems for evolution equations {P(Delta) + Q(Delta) d} u = 0.

P and Q are nonzero polynomials in the commuting difference operators
Delta_1..Delta_n with scalar coefficients; d is the Carlitz derivative in
the distinguished variable.  On the basis of :class:`MultiFunction` the
equation turns into the coefficient recursion

    c_(m+1, i+1) = - c_(m, i)^q * { P([i_1]..[i_n]) / Q([i_1]..[i_n]) }^q

for m <= min(i), which fills every slot from the prescribed m = 0 layer.
Solvability needs Q([i_1]..[i_n]) != 0 for all indices including the limit
value [inf] = -x; since |[i] - [inf]| = q^(-q^i) -> 0, checking indices up
to a finite bound together with every inf-pattern is sound at the working
precision (the set of bracket values is compact and Q is continuous).

The same ultrametric fact often answers without a scan.  Every bracket
value is [0] = 0 or has valuation exactly 1 ([inf] = -x included), so a
monomial c_e t^e has valuation at least val(c_e) + |e| at every tuple.
When Q's constant coefficient c_0 has a known lowest term at v and every
other monomial's lower bound ``c_e._val_lb() + |e|`` lies strictly above
v, no other monomial can reach that term or cancel it: Q has valuation
exactly v at every tuple, for every index bound.  :func:`admissibility_check`
then reports "ok" with mu = v, the report the scan gives, without
evaluating Q; any other Q (a tie at v included) is scanned tuple by tuple.

The scan and the diagonal P and Q of each step evaluate through one
routine, :meth:`DeltaPoly.eval_at`, by Horner's rule in each
indeterminate, last first: 2^n - 1 products for a full multilinear Q,
where multiplying out each monomial takes n 2^(n-1).
Bracket values are exact, and a product with an exact side adds exactly
that side's valuation to the other's precision while a sum keeps the least
precision of its parts, so the nested value has the terms and precision
of the flat sum of the monomials.

Each step is the Frobenius image of one call of the quotient kernel,
``series._quotient(c, [P], [Q], window, negate=True).frobenius(1)``: it
divides P by Q at the brackets (long division, no inverse series), with
the sign taken inside the quotient, and twists the quotient, since
``window`` is defined on the untwisted P/Q quotient.  (The hypergeometric
stream twists its inputs first instead, which is the rule of the direct
quotient of its symbols.)
The P/Q quotients divide exact bracket evaluations, so coefficient
precision decays only through the configured division window.

:func:`format_problem` and :func:`parse_problem` write and read the
``PERFPROBLEM`` file through :mod:`carlitz.textio`, which owns its grammar.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from .brackets import bracket, INFINITY
from .errors import (InadmissibleError, ParameterMismatchError,
                     PrecisionError, UsageError)
from .ffield import FieldParams
from .funcspace import MultiFunction
from .opring import NormalForm
from .series import INF, PerfSeries, SeriesMap, _quotient
from . import textio


class DeltaPoly(SeriesMap):
    """Polynomial in n commuting indeterminates with PerfSeries coefficients."""

    __slots__ = ("params", "n", "coeffs")

    def __init__(self, params: FieldParams, n: int, coeffs: dict):
        self.params = params
        self.n = n
        out = {}
        for e, c in coeffs.items():
            e = tuple(e)
            if len(e) != n or any(k < 0 for k in e):
                raise UsageError("bad monomial exponent %r" % (e,))
            if not c.is_zero():
                out[e] = c
        self.coeffs = out

    @classmethod
    def zero(cls, params, n):
        return cls(params, n, {})

    @classmethod
    def constant(cls, params, n, c: PerfSeries):
        return cls(params, n, {(0,) * n: c})

    @classmethod
    def variable(cls, params, n, j: int):
        """The j-th indeterminate (1-based)."""
        e = tuple(1 if k == j - 1 else 0 for k in range(n))
        return cls(params, n, {e: PerfSeries.one(params)})

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.params != other.params or self.n != other.n:
            raise ParameterMismatchError("polynomials over different rings")

    def _join(self, other, coeffs):
        return DeltaPoly(self.params, self.n, coeffs)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                c = ca * cb
                out[e] = out[e] + c if e in out else c
        return DeltaPoly(self.params, self.n, out)

    def eval_at(self, values) -> PerfSeries:
        """Evaluate at a tuple of scalar values (one per indeterminate), by
        Horner's rule in each indeterminate, last first.

        The monomials are grouped by their other exponents; each group is
        folded in the last indeterminate, c_d v + c_(d-1), times v, and so
        on, one product per unit of degree, the gaps included; the folded
        values are the coefficients of a polynomial in one indeterminate
        fewer, and the same is done again.  A full multilinear polynomial
        takes 2^n - 1 products, where one product per monomial and factor
        takes n 2^(n-1).  With exact values (the brackets every library
        caller passes) a product with an exact side adds exactly that
        side's valuation to the other's precision, and a sum keeps the
        least precision of its parts, so the result has the terms, ``dexp``
        and ``prec`` of the flat sum of the monomials c_e v^e; with
        truncated values the ultrametric inequality makes its ``prec`` no
        lower."""
        if len(values) != self.n:
            raise UsageError("expected %d values" % self.n)
        level = self.coeffs
        for v in reversed(values):
            # rest of the exponent -> (last exponent folded in, value so far);
            # in descending order each group's exponents come high to low
            folds = {}
            for e in sorted(level, reverse=True):
                rest, j = e[:-1], e[-1]
                if rest in folds:
                    k, acc = folds[rest]
                    for _ in range(k - j):
                        acc = acc * v
                    folds[rest] = j, acc + level[e]
                else:
                    folds[rest] = j, level[e]
            level = {}
            for rest, (k, acc) in folds.items():
                for _ in range(k):
                    acc = acc * v
                level[rest] = acc
        return level.get((), PerfSeries.zero(self.params))


class EvolutionEquation:
    """The operator P(Delta_1..Delta_n) + Q(Delta_1..Delta_n) d."""

    __slots__ = ("params", "n", "P", "Q")

    def __init__(self, params: FieldParams, n: int, P: DeltaPoly, Q: DeltaPoly):
        if P.n != n or Q.n != n:
            raise UsageError("P and Q must have %d indeterminates" % n)
        if P.is_zero() or Q.is_zero():
            raise UsageError("P and Q must both be nonzero")
        self.params = params
        self.n = n
        self.P = P
        self.Q = Q

    def as_normal_form(self) -> NormalForm:
        """The operator as a NormalForm in the alt convention, where
        delta-monomials followed by d powers are already normal."""
        terms = {(0, 0) + e: c for e, c in self.P.coeffs.items()}
        terms.update(((0, 1) + e, c) for e, c in self.Q.coeffs.items())
        return NormalForm(self.params, self.n, "alt", terms)


class InitialData(SeriesMap):
    """Prescribed m = 0 coefficients c_(0, i_1..i_n), finitely supported."""

    __slots__ = ("params", "n", "values")
    _map = "values"

    def __init__(self, params: FieldParams, n: int, values: dict):
        self.params = params
        self.n = n
        out = {}
        for ivec, c in values.items():
            ivec = tuple(ivec)
            if len(ivec) != n or any(i < 0 for i in ivec):
                raise UsageError("bad initial index %r" % (ivec,))
            if not c.is_zero():
                out[ivec] = c
        self.values = out

    @classmethod
    def delta(cls, params, n) -> "InitialData":
        """c_(0,0..0) = 1 and every other initial coefficient zero."""
        return cls(params, n, {(0,) * n: PerfSeries.one(params)})

    def _check(self, other):
        if self.params != other.params or self.n != other.n:
            raise ParameterMismatchError("incompatible initial data")

    def _join(self, other, values):
        return InitialData(self.params, self.n, values)

    def scale(self, s: PerfSeries) -> "InitialData":
        return InitialData(self.params, self.n,
                           {k: c * s for k, c in self.values.items()})


class AdmissibilityReport(NamedTuple):
    status: str                     # "ok" | "fail" | "indeterminate"
    mu_valuation: Optional[Fraction]  # max val of Q over checked tuples (ok only)
    witness: Optional[tuple]        # offending index tuple (fail/indeterminate)
    i_max: int

    @property
    def ok(self):
        return self.status == "ok"

    def describe(self):
        if self.status == "ok":
            return ("admissible up to index %d: |Q| >= q^(-%s) on all checked tuples"
                    % (self.i_max, self.mu_valuation))
        kind = ("Q vanishes" if self.status == "fail"
                else "Q is zero at working precision")
        return "%s at indices %s" % (kind, self.witness_str())

    def witness_str(self):
        return "(" + ", ".join("inf" if i == INFINITY else str(i)
                               for i in self.witness) + ")"


def _index_values(params, indices):
    return [bracket(params, i) for i in indices]


def _dominant_valuation(Q: DeltaPoly):
    """v when Q's constant coefficient has its lowest term at v and every
    other monomial c_e t^e has ``c_e._val_lb() + |e| > v``, else None.

    Then Q has valuation exactly v at every bracket tuple (module
    docstring), which is the largest valuation the scan would see."""
    c0 = Q.coeffs.get((0,) * Q.n)
    if c0 is None or not c0.terms:
        return None
    v = c0.valuation()
    for e, c in Q.coeffs.items():
        if any(e) and c._val_lb() + sum(e) <= v:
            return None
    return v


def admissibility_check(eq: EvolutionEquation, i_max: int) -> AdmissibilityReport:
    """Q at every tuple over {0..i_max, inf}, certified or scanned.

    When Q's constant coefficient dominates (its lowest term at v lies
    strictly below every other monomial's valuation bound, module
    docstring) the report is "ok" with mu_valuation v, and no tuple is
    evaluated.  Otherwise Q is evaluated at every tuple in product order,
    and each of the i_max + 2 bracket values is read once, when a tuple
    first needs it.  Exact zeros report failure with the offending tuple; a
    value with no terms but finite precision reports "indeterminate"
    instead, which is a different state from failure.  On success the
    report carries the largest valuation seen, i.e. mu = min |Q| =
    q^(-mu_valuation).  Both ways give the same report.
    """
    if i_max < 0:
        raise UsageError("i_max must be >= 0")
    v = _dominant_valuation(eq.Q)
    if v is not None:
        return AdmissibilityReport("ok", v, None, i_max)
    worst = None
    choices = list(range(i_max + 1)) + [INFINITY]
    values = {}  # each bracket value, read from its cache on first use
    for combo in itertools.product(choices, repeat=eq.n):
        for i in combo:
            if i not in values:
                values[i] = bracket(eq.params, i)
        value = eq.Q.eval_at([values[i] for i in combo])
        if value.is_zero():
            return AdmissibilityReport("fail", None, combo, i_max)
        if value.is_zero_at_prec():
            return AdmissibilityReport("indeterminate", None, combo, i_max)
        v = value.valuation()
        worst = v if worst is None else max(worst, v)
    return AdmissibilityReport("ok", worst, None, i_max)


def cauchy_solve(eq: EvolutionEquation, init: InitialData, trunc_m: int,
                 trunc_i: int, i_max: Optional[int] = None,
                 window=None) -> MultiFunction:
    """Solve {P + Q d} u = 0 with the given m = 0 layer.

    Coefficients are filled along the all-ones diagonal direction (the only
    direction the recursion moves); slots not reachable from a prescribed
    initial coefficient stay zero.  Refuses to solve when the admissibility
    check fails or is indeterminate at the working precision.
    """
    if init.params != eq.params or init.n != eq.n:
        raise ParameterMismatchError("initial data does not match the equation")
    if trunc_m < 0 or trunc_i < 0 or trunc_m > trunc_i:
        raise UsageError("need 0 <= trunc_m <= trunc_i")
    report = admissibility_check(eq, trunc_i if i_max is None else i_max)
    _refuse(report)
    params = eq.params
    coeffs = {}
    for ivec, c0 in init.values.items():
        if any(i > trunc_i for i in ivec):
            continue
        c = c0
        step = 0
        while True:
            index = tuple(i + step for i in ivec)
            coeffs[(step,) + index] = c
            if step + 1 > trunc_m or any(i + 1 > trunc_i for i in index):
                break
            values = _index_values(params, index)
            pe = eq.P.eval_at(values)
            qe = eq.Q.eval_at(values)
            if qe.is_zero():  # beyond the scanned indices
                _refuse(AdmissibilityReport("fail", None, index, report.i_max))
            if qe.is_zero_at_prec():
                raise PrecisionError(
                    "P/Q quotient indeterminate at indices %r" % (index,))
            c = _quotient(c, [pe], [qe], window, negate=True).frobenius(1)
            step += 1
    return MultiFunction(params, eq.n, trunc_m, trunc_i, coeffs)


def _refuse(report: AdmissibilityReport):
    """Raise the refusal of a failed or indeterminate report."""
    if report.status == "fail":
        raise InadmissibleError("refusing to solve: " + report.describe(),
                                witness=report.witness)
    if report.status == "indeterminate":
        raise PrecisionError("admissibility indeterminate: " + report.describe())


def residual(eq: EvolutionEquation, u: MultiFunction) -> MultiFunction:
    """Apply P(Delta) + Q(Delta) d to u through the operator ring; a solved
    u gives the zero function on the surviving box."""
    if u.params != eq.params or u.n != eq.n:
        raise ParameterMismatchError("function does not match the equation")
    return eq.as_normal_form().op_apply(u)


class GrowthReport(NamedTuple):
    ok: bool
    log_r: Fraction       # tightest exponent bound from the initial layer
    log_c: Fraction       # tightest remaining bound
    checked: int

    def describe(self):
        return ("growth certificate: val(c_(l,j)) >= -q^l*%s - (sum q^j)*%s "
                "over %d slots%s"
                % (self.log_c, self.log_r, self.checked,
                   "" if self.ok else " (REQUESTED BOUND FAILS)"))


def growth_check(u: MultiFunction, log_r: Optional[Fraction] = None,
                 log_c: Optional[Fraction] = None) -> GrowthReport:
    """Verify |c_(l,j)| <= C^(q^l) r^(q^(j_1)+..+q^(j_n)) in valuation form.

    The bound is checked as val(c) >= -q^l log_c - (sum_k q^(j_k)) log_r
    with log_c = log_q C and log_r = log_q r kept as exact rationals.  The
    tightest certificate is computed from the data: log_r from the l = 0
    layer, then log_c from everything else; when explicit bounds are given
    the report says whether they hold on the stored support.
    """
    q = u.params.q
    slots = []  # (l, weight sum_k q^(j_k), valuation bound) per known slot
    for key, c in u.coeffs.items():
        v = c._val_lb()
        if v is INF:
            continue
        slots.append((key[0], sum(q ** j for j in key[1:]), v))
    tight_r = Fraction(0)
    for l, weight, v in slots:
        if l == 0:
            tight_r = max(tight_r, Fraction(-v, weight))
    tight_c = Fraction(0)
    for l, weight, v in slots:
        need = (-v - weight * tight_r) / (q ** l)
        tight_c = max(tight_c, need)
    ok = True
    if log_r is not None or log_c is not None:
        log_r = Fraction(0) if log_r is None else Fraction(log_r)
        log_c = Fraction(0) if log_c is None else Fraction(log_c)
        for l, weight, v in slots:
            if v < -(q ** l) * log_c - weight * log_r:
                ok = False
                break
    return GrowthReport(ok, tight_r, tight_c, len(slots))


def hypergeometric_equation(params: FieldParams, a_list, b_list,
                            n: Optional[int] = None) -> EvolutionEquation:
    """The evolution equation whose delta-data solution has diagonal
    coefficients prod <a_i>_m / prod <b_j>_m.

    P = prod_i (t_i - a_i) and Q = -prod_j (t_j - b_j): the sign on Q makes
    the recursion's leading minus cancel, matching the product-form
    operator prod(Delta - a_i) - prod(Delta - b_j) d.  Requires
    n >= max(r, s, 1); each factor uses its own indeterminate.
    """
    r, s = len(a_list), len(b_list)
    if n is None:
        n = max(r, s, 1)
    if n < max(r, s, 1):
        raise UsageError("need n >= max(r, s) >= 1")
    polys = []
    for values in (a_list, b_list):
        poly = DeltaPoly.constant(params, n, PerfSeries.one(params))
        for i, c in enumerate(values, start=1):
            poly = poly * (DeltaPoly.variable(params, n, i)
                           - DeltaPoly.constant(params, n, c))
        polys.append(poly)
    P, Q = polys
    return EvolutionEquation(params, n, P, -Q)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def format_problem(eq: EvolutionEquation, init: InitialData,
                   trunc_m: int, trunc_i: int) -> str:
    payload = [("%s %s" % (kind, ",".join(map(str, key))), value)
               for kind, values in (("P", eq.P.coeffs), ("Q", eq.Q.coeffs),
                                    ("init", init.values))
               for key, value in sorted(values.items())]
    return textio.format_file("PERFPROBLEM", eq.params, (eq.n, trunc_m, trunc_i),
                              payload)


def parse_problem(text: str):
    """Returns (equation, initial data, trunc_m, trunc_i)."""
    params, (n, trunc_m, trunc_i), payload = textio.read_file(text, "PERFPROBLEM")
    values = {"P": {}, "Q": {}, "init": {}}
    for kind, key, value in payload:
        values[kind][key] = value
    eq = EvolutionEquation(params, n, DeltaPoly(params, n, values["P"]),
                           DeltaPoly(params, n, values["Q"]))
    return eq, InitialData(params, n, values["init"]), trunc_m, trunc_i
