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

The P/Q quotients are series inversions of exact bracket evaluations, so
coefficient precision decays only through the configured inversion window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .brackets import bracket, INFINITY
from .errors import (InadmissibleError, ParameterMismatchError,
                     PrecisionError, UsageError)
from .ffield import FieldParams
from .funcspace import MultiFunction, _head_fields, _parse_keyed_lines
from .opring import NormalForm
from .series import INF, PerfSeries, _add_maps, _maps_equal
from . import textio


class DeltaPoly:
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

    def __add__(self, other):
        self._check(other)
        return DeltaPoly(self.params, self.n, _add_maps(self.coeffs, other.coeffs))

    def __neg__(self):
        return DeltaPoly(self.params, self.n,
                         {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

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
        """Evaluate at a tuple of scalar values (one per indeterminate)."""
        if len(values) != self.n:
            raise UsageError("expected %d values" % self.n)
        acc = PerfSeries.zero(self.params)
        powers = [{0: PerfSeries.one(self.params)} for _ in range(self.n)]
        for e in sorted(self.coeffs):
            term = self.coeffs[e]
            for j, k in enumerate(e):
                if k not in powers[j]:
                    powers[j][k] = values[j].pow(k)
                term = term * powers[j][k]
            acc = acc + term
        return acc

    def __eq__(self, other):
        if not isinstance(other, DeltaPoly):
            return NotImplemented
        if self.params != other.params or self.n != other.n:
            return False
        return _maps_equal(self.params, self.coeffs, other.coeffs)

    __hash__ = None


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


class InitialData:
    """Prescribed m = 0 coefficients c_(0, i_1..i_n), finitely supported."""

    __slots__ = ("params", "n", "values")

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

    def __add__(self, other):
        if self.params != other.params or self.n != other.n:
            raise ParameterMismatchError("incompatible initial data")
        return InitialData(self.params, self.n, _add_maps(self.values, other.values))

    def scale(self, s: PerfSeries) -> "InitialData":
        return InitialData(self.params, self.n,
                           {k: c * s for k, c in self.values.items()})


@dataclass
class AdmissibilityReport:
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


def _q_values(eq: EvolutionEquation, i_max: int):
    """Yield (tuple, Q at the brackets of its indices) for every tuple over
    {0..i_max, inf}."""
    choices = list(range(i_max + 1)) + [INFINITY]
    for combo in itertools.product(choices, repeat=eq.n):
        yield combo, eq.Q.eval_at(_index_values(eq.params, combo))


def admissibility_check(eq: EvolutionEquation, i_max: int) -> AdmissibilityReport:
    """Evaluate Q at every tuple over {0..i_max, inf}.

    Exact zeros report failure with the offending tuple; a value with no
    terms but finite precision reports "indeterminate" instead, which is a
    different state from failure.  On success the report carries the
    largest valuation seen, i.e. mu = min |Q| = q^(-mu_valuation).
    """
    if i_max < 0:
        raise UsageError("i_max must be >= 0")
    worst = None
    for combo, value in _q_values(eq, i_max):
        if value.is_zero():
            return AdmissibilityReport("fail", None, combo, i_max)
        if value.is_zero_at_prec():
            return AdmissibilityReport("indeterminate", None, combo, i_max)
        v = value.valuation()
        worst = v if worst is None else max(worst, v)
    return AdmissibilityReport("ok", worst, None, i_max)


def recommend_imax(eq: EvolutionEquation, probe: int = 4) -> int:
    """Heuristic index bound for admissibility_check.

    Replacing [i] by [inf] changes each entry by x^(q^i); evaluating Q at
    the probe tuples bounds the valuation scale V of Q near the limit
    point, and entries with q^i > V cannot flip a nonzero verdict (bracket
    values have valuation >= 1, so no negative-valuation amplification
    beyond the coefficients' own).  The returned bound folds in the worst
    coefficient valuation; it is a recommendation, the final choice stays
    with the caller.
    """
    vmax = Fraction(0)
    for _, value in _q_values(eq, probe):
        lb = value._val_lb()
        if lb != INF:
            vmax = max(vmax, lb)
    slack = Fraction(0)
    for c in eq.Q.coeffs.values():
        lb = c._val_lb()
        if lb != INF and lb < 0:
            slack = max(slack, -lb)
    target = vmax + slack + 1
    i = probe
    while eq.params.q ** i <= target:
        i += 1
    return i


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
    if report.status == "fail":
        raise InadmissibleError("refusing to solve: " + report.describe(),
                                witness=report.witness)
    if report.status == "indeterminate":
        raise PrecisionError("admissibility indeterminate: " + report.describe())
    params = eq.params
    coeffs = {}
    for ivec, c0 in init.values.items():
        if any(i > trunc_i for i in ivec):
            continue
        c = c0
        step = 0
        while True:
            key = (step,) + tuple(i + step for i in ivec)
            coeffs[key] = c
            if step + 1 > trunc_m or any(i + step + 1 > trunc_i for i in ivec):
                break
            values = _index_values(params, [i + step for i in ivec])
            pe = eq.P.eval_at(values)
            qe = eq.Q.eval_at(values)
            if qe.is_zero_at_prec():
                raise PrecisionError(
                    "P/Q quotient indeterminate at indices %r"
                    % ((tuple(i + step for i in ivec)),))
            c = -(pe.divide(qe, window=window) * c).frobenius(1)
            step += 1
    return MultiFunction(params, eq.n, trunc_m, trunc_i, coeffs)


def residual(eq: EvolutionEquation, u: MultiFunction) -> MultiFunction:
    """Apply P(Delta) + Q(Delta) d to u through the operator ring; a solved
    u gives the zero function on the surviving box."""
    if u.params != eq.params or u.n != eq.n:
        raise ParameterMismatchError("function does not match the equation")
    return eq.as_normal_form().op_apply(u)


@dataclass
class GrowthReport:
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
    slots = []
    for key, c in u.coeffs.items():
        v = c._val_lb()
        if v == INF:
            continue
        slots.append((key[0], key[1:], v))
    tight_r = Fraction(0)
    for l, jvec, v in slots:
        if l == 0:
            weight = sum(q ** j for j in jvec)
            tight_r = max(tight_r, Fraction(-v, weight))
    tight_c = Fraction(0)
    for l, jvec, v in slots:
        weight = sum(q ** j for j in jvec)
        need = (-v - weight * tight_r) / (q ** l)
        tight_c = max(tight_c, need)
    ok = True
    if log_r is not None or log_c is not None:
        log_r = Fraction(0) if log_r is None else Fraction(log_r)
        log_c = Fraction(0) if log_c is None else Fraction(log_c)
        for l, jvec, v in slots:
            weight = sum(q ** j for j in jvec)
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
    P = DeltaPoly.constant(params, n, PerfSeries.one(params))
    for i, a in enumerate(a_list, start=1):
        P = P * (DeltaPoly.variable(params, n, i)
                 - DeltaPoly.constant(params, n, a))
    Q = DeltaPoly.constant(params, n, PerfSeries.one(params))
    for j, b in enumerate(b_list, start=1):
        Q = Q * (DeltaPoly.variable(params, n, j)
                 - DeltaPoly.constant(params, n, b))
    return EvolutionEquation(params, n, P, -Q)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def format_problem(eq: EvolutionEquation, init: InitialData,
                   trunc_m: int, trunc_i: int) -> str:
    lines = ["PERFPROBLEM 1"]
    lines += textio.format_field_header(eq.params)
    lines.append("n %d" % eq.n)
    lines.append("truncM %d" % trunc_m)
    lines.append("truncI %d" % trunc_i)
    for name, poly in (("P", eq.P), ("Q", eq.Q)):
        for e in sorted(poly.coeffs):
            lines.append("%s %s : %s" % (name, ",".join(str(k) for k in e),
                                         textio.format_series(poly.coeffs[e])))
    for ivec in sorted(init.values):
        lines.append("init %s : %s" % (",".join(str(i) for i in ivec),
                                       textio.format_series(init.values[ivec])))
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_problem(text: str):
    """Returns (equation, initial data, trunc_m, trunc_i)."""
    fields, payload = _parse_keyed_lines(text, "PERFPROBLEM", ("P", "Q", "init"))
    params = textio.parse_field_header(fields)
    n, trunc_m, trunc_i = (textio._read_int(fields.get(k), "problem key %r" % k)
                           for k in ("n", "truncM", "truncI"))
    p_coeffs, q_coeffs, init_values = {}, {}, {}
    for head, body in payload:
        kind, indices = _head_fields(head, 2)
        key = tuple(textio._read_int(t, "%s index" % kind)
                    for t in indices.split(","))
        value = textio.parse_series(body, params)
        if kind == "P":
            p_coeffs[key] = value
        elif kind == "Q":
            q_coeffs[key] = value
        else:
            init_values[key] = value
    eq = EvolutionEquation(params, n, DeltaPoly(params, n, p_coeffs),
                           DeltaPoly(params, n, q_coeffs))
    init = InitialData(params, n, init_values)
    return eq, init, trunc_m, trunc_i
