"""The four benchmark workloads and their output checks.

Each workload builds its field configurations once, then makes one pass of
operations per seed: pass ``k`` of a run with seed ``s`` draws its inputs
from ``s + k``, so only input-independent state (the FieldParams tables and
the bracket/D/L caches) carries from one pass to the next.  The library is
reached through ``lib``, a namespace of freshly imported carlitz modules,
so that a traced run sees every wrapper.

An :class:`Op` is one timed call.  Its ``check`` runs after the pass,
outside the timed interval, and returns None or the reason it failed.
Checks are independent of the code path they check: identity flags,
residuals that must vanish, a normal form applied term by term against the
word applied factor by factor, and Cauchy diagonals against the closed-form
Pochhammer quotient.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import oracle

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _series(lib, s):
    return lib.textio.format_series(s)


def _read(name):
    with open(os.path.join(DATA, name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# hyper: hypergeometric identities, evaluation and residuals
# ---------------------------------------------------------------------------

class Hyper:
    """Identity sweep over five field configurations plus an M sweep of
    hyper_eval over F_2."""

    name = "hyper"
    CONFIGS = ((2, 1), (3, 1), (4, 1), (2, 2), (9, 1))
    M_FUNC = 3          # truncation of 5.7 and 5.8
    M_SERIES = 4        # truncation of the residuals and the Thakur family
    M_SYMBOL = 5        # largest index of 5.3 to 5.6
    DRAWS = 4           # parameter draws per configuration and pass
    EVAL_MS = (5, 6, 7, 8)
    # size class of a, b, c: (terms, q-power depth of the exponent
    # denominators); cost varies a hundredfold across unpinned draws
    SHAPE = ((2, 1), (1, 0), (1, 0))
    LAYERS = ("ffield", "series", "brackets", "funcspace", "hyper")
    GROUPS = ("series.mul", "series.invert", "brackets.pochhammer",
              "hyper.hyper_coeff", "hyper.hyper_eval", "hyper.contiguous_check",
              "hyper.residual")

    def setup(self, lib):
        return {cfg: lib.ffield.FieldParams.default(*cfg) for cfg in self.CONFIGS}

    def params_in_use(self, state):
        return list(state.values())

    def pass_ops(self, lib, state, seed):
        rng = random.Random("hyper:%d" % seed)
        ops = []
        for cfg in self.CONFIGS:
            for _ in range(self.DRAWS):
                ops += self._identity_ops(lib, state[cfg], rng)
        ops += self._eval_ops(lib, state[(2, 1)], rng)
        return ops

    def _draw(self, lib, params, rng):
        """Parameters a, b, c of the size class SHAPE and an index m, with
        the guards 5.6 and 5.8 need."""
        br = lib.brackets
        while True:
            a, b, c = (draw_shaped(lib, params, rng, shape, admissible=(k == 2))
                       for k, shape in enumerate(self.SHAPE))
            m = rng.randint(1, self.M_SYMBOL)
            if (not br.shift_down(a).is_zero()
                    and not (br.bracket(params, m - 1) - a).is_zero()):
                return a, b, c, m

    def _identity_ops(self, lib, params, rng):
        hyper, br = lib.hyper, lib.brackets
        a, b, c, m = self._draw(lib, params, rng)
        ops = []
        for ident in ("5.3", "5.4", "5.5", "5.6"):
            ops.append(Op("contiguous_check." + ident,
                          lambda i=ident: hyper.contiguous_check(i, params, a=a, m=m),
                          _ok_flag))
        for ident in ("5.7", "5.8"):
            ops.append(Op("contiguous_check." + ident,
                          lambda i=ident: hyper.contiguous_check(
                              i, params, a=a, b=b, c=c, M=self.M_FUNC),
                          _ok_flag))
        hp = hyper.HyperParams(params, (a, b), (c,))
        for form in ("product", "gauss"):
            ops.append(Op("hyper_residual." + form,
                          lambda f=form: hyper.hyper_residual(hp, self.M_SERIES, form=f),
                          _residual_zero))
        alphas = [rng.choice([1, 2, 3, 4, -5, -6]) for _ in range(rng.randint(1, 2))]
        betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]

        def rho_check(result):
            if not result.ok:
                return "correspondence inconsistent at m = %s" % result.first_bad_m
            num = lib.series.PerfSeries.one(params)
            for alpha in alphas:
                num = num * br.pochhammer_thakur(params, alpha, 0)
            den = lib.series.PerfSeries.one(params)
            for beta in betas:
                den = den * br.pochhammer_thakur(params, beta, 0)
            return oracle.agree_series(_series(lib, result.rho),
                                       _series(lib, num.divide(den, window=32)))
        ops.append(Op("thakur_correspondence",
                      lambda: hyper.thakur_correspondence(params, alphas, betas,
                                                          self.M_SERIES),
                      rho_check))
        return ops

    def _eval_ops(self, lib, params, rng):
        """hyper_eval at M = 5..8 of the baseline parameters (rebuilt each
        pass) at a fresh point z = c x^e above the convergence threshold."""
        hp, _ = self.sweep_case(lib)
        z = lib.series.PerfSeries.monomial(params, rng.randint(20, 40),
                                           rng.randrange(1, params.Q))
        texts = {}

        def check(M, value):
            # a longer truncation agrees with a shorter one and keeps at
            # least its precision
            texts[M] = _series(lib, value)
            if M - 1 in texts:
                return oracle.compare_series(texts[M], texts[M - 1])
            return None
        return [Op("hyper_eval.M%d" % M, lambda M=M: lib.hyper.hyper_eval(hp, z, M),
                   lambda out, M=M: check(M, out))
                for M in self.EVAL_MS]

    # -- fixed cases: seed-commit references and the traced M sweep ----------

    def sweep_case(self, lib):
        """The ROADMAP baseline: q = 2, a = x^3 + x^(1/2), b = 1 + x^5, z = x^20."""
        params = lib.ffield.FieldParams.default(2)
        parse = lib.textio.parse_series
        hp = lib.hyper.HyperParams(params, [parse("x^3 + x^(1/2)", params)],
                                   [parse("1 + x^5", params)])
        return hp, parse("x^20", params)

    def sweeps(self, lib):
        hp, z = self.sweep_case(lib)
        return {"sweep.hyper_eval.M%d_ms" % M: (lambda M=M: lib.hyper.hyper_eval(hp, z, M))
                for M in self.EVAL_MS}

    def golden(self, lib):
        hp, z = self.sweep_case(lib)
        out = {"hyper_eval.M%d" % M: ("series", _series(lib, lib.hyper.hyper_eval(hp, z, M)))
               for M in self.EVAL_MS}
        for m in range(7):
            out["hyper_coeff.m%d" % m] = ("series", _series(lib, lib.hyper.hyper_coeff(hp, m)))
        for q, m in self.CONFIGS:
            params = lib.ffield.FieldParams.default(q, m)
            a = lib.textio.parse_series("x + x^2", params)
            c = lib.textio.parse_series("1 + x^3", params)
            res = lib.hyper.contiguous_check("5.7", params, a=a, b=a.frobenius(1), c=c, M=4)
            out["contiguous_check.5.7.q%dm%d" % (q, m)] = ("exact", res.ok)
            corr = lib.hyper.thakur_correspondence(params, [2, 1], [1], 4)
            out["thakur_rho.q%dm%d" % (q, m)] = ("series", _series(lib, corr.rho))
        return out


def draw_shaped(lib, params, rng, shape, admissible=False):
    """A random series (exponents in [0, 3], at most one q-power in the
    denominator) with exactly ``shape`` = (terms, denominator depth)."""
    draw = lib.sampling.random_admissible if admissible else lib.sampling.random_series
    while True:
        s = draw(rng, params, terms=(shape[0], shape[0]), lo=0, hi=3)
        if (len(s.terms), s.dexp) == shape:
            return s


def _ok_flag(result):
    return None if result.ok else "identity %s failed" % result.ident


def _residual_zero(res):
    return None if res.is_zero_on_known() else "residual nonzero on the known range"


# ---------------------------------------------------------------------------
# opring: operator rewriting
# ---------------------------------------------------------------------------

def apply_word(f, factors):
    """Apply a word to a function factor by factor, rightmost first."""
    g = f
    for factor in reversed(factors):
        kind = factor[0]
        if kind == "tau":
            g = g.apply_tau()
        elif kind == "d":
            g = g.apply_d()
        elif kind == "delta":
            g = g.apply_delta(factor[1])
        else:
            g = g.scale(factor[1])
    return g


def apply_terms(nf, f):
    """Apply a normal form term by term through its words."""
    total = None
    for word in nf.words():
        g = apply_word(f, word.factors)
        total = g if total is None else total + g
    return total


def d_count(factors):
    return sum(1 for f in factors if f[0] == "d")


def check_function(lib, params, rng, n, d):
    """A random function for checking an operator with at most d factors d
    per word: each d shrinks the known box by one, so the box keeps two
    layers beyond them."""
    return lib.sampling.random_multifunction(rng, params, n, d + 1, d + 2, density=0.3)


def _same_function(got, want):
    if want is None:  # the zero operator
        return None if got.is_zero_on_box() else "expected the zero function"
    return None if got == want else "differs from the factor-by-factor application"


def inversions(factors, convention):
    """Generator pairs out of the convention's order: the size class of a
    word for rewriting, whose cost grows about 1.6x per inversion."""
    order = CONVENTION_ORDER[convention]
    ranks = [order[f[0]] for f in factors if f[0] in order]
    return sum(1 for i, r in enumerate(ranks) for s in ranks[i + 1:] if r > s)


CONVENTION_ORDER = {"standard": {"tau": 0, "d": 1, "delta": 2},
                    "alt": {"delta": 0, "tau": 1, "d": 2}}


def fill_classes(classes, draw, size):
    """Draw items until every size class (lowest, highest, quota) holds its
    quota.  Fixed quotas keep the cost of a pass steady from seed to seed;
    an item in no open class is dropped."""
    want = [quota for _, _, quota in classes]
    out = []
    while any(want):
        item = draw()
        s = size(item)
        for k, (lo, hi, _) in enumerate(classes):
            if lo <= s <= hi and want[k]:
                want[k] -= 1
                out.append(item)
                break
    return out


class Opring:
    """Word rewriting in both conventions, d^k tau^k, products, conversions
    and applications, over F_2 and F_3."""

    name = "opring"
    QS = (2, 3)
    MAX_LEN = 10
    # size classes by inversion count: (lowest, highest, per field and pass);
    # d^k tau^k carries the steep end of the cost curve
    WORD_CLASSES = ((4, 7, 8), (8, 11, 4))
    CONVERT_CLASSES = ((0, 3, 1), (4, 7, 1), (8, 11, 1))
    PRODUCT_CLASSES = ((0, 4, 1), (5, 9, 1))
    DKTK = (3, 4, 5)
    LAYERS = ("ffield", "series", "brackets", "funcspace", "opring")
    GROUPS = ("opring.normalize", "opring.op_mul", "opring.op_apply",
              "funcspace.action")

    def setup(self, lib):
        return {q: lib.ffield.FieldParams.default(q) for q in self.QS}

    def params_in_use(self, state):
        return list(state.values())

    def pass_ops(self, lib, state, seed):
        rng = random.Random("opring:%d" % seed)
        sampling = lib.sampling
        ops = []
        for q in self.QS:
            params = state[q]

            def draw_word():
                n = rng.randint(1, 2)
                return n, sampling.random_operator_word(rng, params, n, max_len=self.MAX_LEN)
            for n, word in fill_classes(
                    self.WORD_CLASSES, draw_word,
                    lambda item: max(inversions(item[1].factors, c) for c in CONVENTION_ORDER)):
                ops += self._word_ops(lib, params, rng, n, word)
            for k in self.DKTK:
                ops += self._dktk_ops(lib, params, rng, k)

            def draw_forms(count):
                n = rng.randint(1, 2)
                return (n,) + tuple(sampling.random_normal_form(
                    rng, params, n, max_terms=2, max_index=2) for _ in range(count))
            for n, nf in fill_classes(
                    self.CONVERT_CLASSES, lambda: draw_forms(1),
                    lambda item: max(inversions(w.factors, "alt") for w in item[1].words())):
                ops += self._convert_ops(lib, params, rng, n, nf)
            for n, left, right in fill_classes(
                    self.PRODUCT_CLASSES, lambda: draw_forms(2),
                    lambda item: max(inversions(a.factors + b.factors, "standard")
                                     for a in item[1].words() for b in item[2].words())):
                ops += self._product_ops(lib, params, rng, n, left, right)
        return ops

    def _word_ops(self, lib, params, rng, n, word):
        opring = lib.opring
        f = check_function(lib, params, rng, n, d_count(word.factors))

        def check(nf):
            return _same_function(apply_terms(nf, f), apply_word(f, word.factors))
        return [Op("normalize." + conv,
                   lambda conv=conv: opring.normalize(word, params, conv), check)
                for conv in CONVENTION_ORDER]

    def _convert_ops(self, lib, params, rng, n, nf):
        f = check_function(lib, params, rng, n, max(d_count(w.factors) for w in nf.words()))

        def check(alt):
            if alt.convention != "alt":
                return "convert returned the %s convention" % alt.convention
            return _same_function(apply_terms(alt, f), apply_terms(nf, f))
        return [Op("convert", lambda: nf.convert("alt"), check)]

    def _dktk_ops(self, lib, params, rng, k):
        opring = lib.opring
        word = self._dktk_word(lib, k)
        f = check_function(lib, params, rng, 1, k)

        def check(nf):
            if len(nf.terms) != k + 1:
                return "d^%d tau^%d has %d terms, expected %d" % (k, k, len(nf.terms), k + 1)
            return _same_function(apply_terms(nf, f), apply_word(f, word.factors))
        return [Op("normalize.dktk%d" % k,
                   lambda conv=conv: opring.normalize(word, params, conv), check)
                for conv in CONVENTION_ORDER]

    def _product_ops(self, lib, params, rng, n, left, right):
        f = lib.sampling.random_multifunction(rng, params, n, 3, 4)
        out = {}

        def mul():
            out["product"] = left.op_mul(right)
            return out["product"]

        def mul_check(nf):
            return _same_function(apply_terms(nf, f),
                                  apply_terms(left, apply_terms(right, f)))
        return [
            Op("op_mul", mul, mul_check),
            Op("op_apply", lambda: out["product"].op_apply(f),
               lambda g: _same_function(g, apply_terms(out["product"], f))),
        ]

    # -- fixed cases ----------------------------------------------------------

    def _dktk_word(self, lib, k):
        return lib.opring.OperatorWord(1, [lib.opring.D] * k + [lib.opring.TAU] * k)

    def sweeps(self, lib):
        params = lib.ffield.FieldParams.default(2)
        return {"sweep.normalize_dktk.k%d_ms" % k:
                (lambda k=k: lib.opring.normalize(self._dktk_word(lib, k), params))
                for k in self.DKTK}

    def golden(self, lib):
        out = {}

        def terms(nf):
            return {str(k): _series(lib, c) for k, c in sorted(nf.terms.items())}
        for q in self.QS:
            params = lib.ffield.FieldParams.default(q)
            for k in self.DKTK:
                for conv in ("standard", "alt"):
                    nf = lib.opring.normalize(self._dktk_word(lib, k), params, conv)
                    out["dktk%d.%s.q%d" % (k, conv, q)] = ("series_map", terms(nf))
            rng = random.Random("opring-golden:%d" % q)
            for i in range(6):
                word = lib.sampling.random_operator_word(rng, params, 2, max_len=8)
                nf = lib.opring.normalize(word, params, "standard")
                out["word%d.q%d" % (i, q)] = ("series_map", terms(nf))
                out["word%d.q%d.alt" % (i, q)] = ("series_map", terms(nf.convert("alt")))
        func = lib.funcspace.MultiFunction.from_text(_read("func.txt"))
        params = func.params
        words = lib.textio.parse_operator("d*tau*delta1 + (x)*tau", params, func.n)
        nf = lib.opring.normalize(words, params)
        out["op_apply.func"] = ("perffunc", nf.op_apply(func).to_text())
        return out


# ---------------------------------------------------------------------------
# cauchy: evolution equations from problem files
# ---------------------------------------------------------------------------

class Cauchy:
    """Problem files for product-form equations (n = 1, 2, 3) and for
    equations whose Q is not a product of univariate factors."""

    name = "cauchy"
    # (kind, n, q, truncation): two problems of each per pass
    PROBLEMS = (("product", 1, 2, 6), ("product", 2, 3, 5), ("product", 3, 2, 4),
                ("general", 2, 3, 5), ("general", 3, 2, 4)) * 2
    LAYERS = ("ffield", "series", "brackets", "funcspace", "opring", "cauchy", "textio")
    GROUPS = ("cauchy.cauchy_solve", "cauchy.admissibility_check", "cauchy.eval_at",
              "cauchy.residual", "funcspace.evaluate", "textio.parse", "textio.format")
    FILES = ("problem_n1.txt", "problem_n2.txt", "problem_n3.txt", "problem_general.txt")

    def setup(self, lib):
        return {"gen": {q: lib.ffield.FieldParams.default(q) for q in (2, 3)},
                "in_use": []}

    def params_in_use(self, state):
        return state["in_use"]

    def pass_ops(self, lib, state, seed):
        rng = random.Random("cauchy:%d" % seed)
        ops = []
        state["in_use"] = []
        for kind, n, q, trunc in self.PROBLEMS:
            problem = make_problem(lib, state["gen"][q], rng, kind, n, trunc)
            parsed = lib.cauchy.parse_problem(problem.text)
            state["in_use"].append(parsed[0].params)
            ops += self._problem_ops(lib, problem, parsed, rng)
        return ops

    def _problem_ops(self, lib, problem, parsed, rng):
        cauchy = lib.cauchy
        eq, init, trunc_m, trunc_i = parsed
        params = eq.params
        PerfSeries = lib.series.PerfSeries
        base = 2
        if problem.kind == "product":
            hp = lib.hyper.HyperParams(params, problem.a_list, problem.b_list)
            base = max(1, int(lib.hyper.convergence_bound(hp)) + 1)
        z = PerfSeries.monomial(params, base + rng.randint(0, 2), rng.randrange(1, params.Q))
        svec = [PerfSeries.monomial(params, base + rng.randint(0, 2), rng.randrange(1, params.Q))
                for _ in range(eq.n)]
        out = {}

        def solve():
            out["u"] = cauchy.cauchy_solve(eq, init, trunc_m, trunc_i)
            return out["u"]

        def solve_check(u):
            if problem.kind != "product":
                return None  # the residual op checks general problems
            return diagonal_check(lib, u, problem, trunc_m)

        def growth_check(report):
            stored = len(out["u"].coeffs)
            if not report.ok or report.checked != stored:
                return "growth report ok=%s over %d of %d slots" % (
                    report.ok, report.checked, stored)
            return None

        def evaluate_check(value):
            if problem.kind == "product":
                w = z
                for s in svec:
                    w = w * s
                want = lib.hyper.hyper_eval(hp, w, trunc_m)
            else:
                want = direct_evaluate(lib, out["u"], z, svec)
            return oracle.agree_series(_series(lib, value), _series(lib, want))

        def text_check(text):
            back = lib.funcspace.MultiFunction.from_text(text)
            if not back == out["u"] or back.to_text() != text:
                return "PERFFUNC text does not round-trip"
            return None

        tag = "%s.n%d" % (problem.kind, eq.n)
        return [
            Op("cauchy_solve." + tag, solve, solve_check),
            Op("residual." + tag, lambda: cauchy.residual(eq, out["u"]),
               lambda r: None if r.is_zero_on_box() else "residual nonzero on the box"),
            Op("growth_check." + tag, lambda: cauchy.growth_check(out["u"]), growth_check),
            Op("evaluate." + tag, lambda: out["u"].evaluate(z, svec), evaluate_check),
            Op("to_text." + tag, lambda: out["u"].to_text(), text_check),
        ]

    # -- fixed cases ----------------------------------------------------------

    def sweeps(self, lib):
        out = {}
        for n in (1, 2, 3):
            eq, _, _, trunc_i = lib.cauchy.parse_problem(_read("problem_n%d.txt" % n))
            out["sweep.admissibility.n%d_ms" % n] = (
                lambda eq=eq, i=trunc_i: lib.cauchy.admissibility_check(eq, i))
        return out

    def golden(self, lib):
        out = {}
        for name in self.FILES:
            eq, init, trunc_m, trunc_i = lib.cauchy.parse_problem(_read(name))
            report = lib.cauchy.admissibility_check(eq, trunc_i)
            out[name + ".admissibility"] = ("exact", [report.status, str(report.mu_valuation)])
            u = lib.cauchy.cauchy_solve(eq, init, trunc_m, trunc_i)
            out[name + ".solution"] = ("perffunc", u.to_text())
            growth = lib.cauchy.growth_check(u)
            out[name + ".growth"] = ("exact", growth.describe())
            params = eq.params
            z = lib.textio.parse_series("x^3 + x^5", params)
            svec = [lib.textio.parse_series("x^2", params)] * eq.n
            out[name + ".evaluate"] = ("series", _series(lib, u.evaluate(z, svec)))
        return out


@dataclass
class Problem:
    kind: str
    text: str
    a_list: list = field(default_factory=list)
    b_list: list = field(default_factory=list)


def make_problem(lib, params, rng, kind, n, trunc):
    """A problem file with delta initial data.

    ``product``: the hypergeometric equation with n upper and n lower
    parameters.  ``general``: Q = 1 + c0 + c1 t_1 + t_1...t_n with
    val(c0) >= 1 and val(c1) >= 0, which is admissible because every
    bracket value has valuation >= 1, and is not a product of univariate
    factors, so the admissibility scan must visit every tuple.
    """
    sampling, cauchy = lib.sampling, lib.cauchy
    DeltaPoly, PerfSeries = cauchy.DeltaPoly, lib.series.PerfSeries
    a_list = [draw_shaped(lib, params, rng, Hyper.SHAPE[0]) for _ in range(n)]
    if kind == "product":
        b_list = [draw_shaped(lib, params, rng, Hyper.SHAPE[2], admissible=True)
                  for _ in range(n)]
        eq = cauchy.hypergeometric_equation(params, a_list, b_list, n)
    else:
        b_list = []
        one = DeltaPoly.constant(params, n, PerfSeries.one(params))
        P = one
        for j, a in enumerate(a_list, start=1):
            P = P * (DeltaPoly.variable(params, n, j) - DeltaPoly.constant(params, n, a))
        c0 = sampling.random_series(rng, params, terms=(1, 2), lo=1, hi=3)
        c1 = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=2)
        Q = one + DeltaPoly.constant(params, n, c0) \
            + DeltaPoly.constant(params, n, c1) * DeltaPoly.variable(params, n, 1)
        mono = one
        for j in range(1, n + 1):
            mono = mono * DeltaPoly.variable(params, n, j)
        eq = cauchy.EvolutionEquation(params, n, P, Q + mono)
    init = cauchy.InitialData.delta(params, n)
    return Problem(kind, cauchy.format_problem(eq, init, trunc, trunc), a_list, b_list)


def diagonal_check(lib, u, problem, trunc_m):
    """Delta-data solutions of the hypergeometric equation carry
    prod <a_i>_m / prod <b_j>_m on the diagonal."""
    params, br = u.params, lib.brackets
    PerfSeries = lib.series.PerfSeries
    for m in range(trunc_m + 1):
        num = PerfSeries.one(params)
        for a in problem.a_list:
            num = num * br.pochhammer(a, m)
        den = PerfSeries.one(params)
        for b in problem.b_list:
            den = den * br.pochhammer(b, m)
        want = num * den.invert(window=32)
        got = u.coefficient(m, *([m] * u.n))
        why = oracle.agree_series(_series(lib, got), _series(lib, want))
        if why:
            return "diagonal m = %d: %s" % (m, why)
    return None


def direct_evaluate(lib, u, z, svec):
    """sum c_(m,i) s^(q^i) z^(q^m) / D_m over the support, term by term."""
    params = u.params
    acc = lib.series.PerfSeries.zero(params)
    for key in sorted(u.coeffs):
        m, ivec = key[0], key[1:]
        term = u.coeffs[key] * lib.brackets.carlitz_D(params, m).invert() * z.frobenius(m)
        for s, i in zip(svec, ivec):
            term = term * s.frobenius(i)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# cli: real `carlitz` invocations
# ---------------------------------------------------------------------------

class Cli:
    """A fixed script of CLI invocations over checked-in files, one child
    process at a time; the seed only sets the order within each pass."""

    name = "cli"
    LAYERS = ("ffield", "series", "brackets", "funcspace", "opring", "cauchy",
              "hyper", "textio", "cli")
    GROUPS = ("textio.parse", "textio.format")

    def __init__(self, root):
        self.root = root

    def setup(self, lib):
        script = json.loads(_read("cli_script.json"))
        golden = json.loads(_read("golden.json"))["cli"]
        entries = []
        for entry in script:
            argv = [a.replace("{data}", DATA) for a in entry["argv"]]
            entries.append(dict(entry, argv=argv, ref=golden[entry["id"]]))
        # parse the checked-in inputs once, as a caller preparing them would
        lib.funcspace.MultiFunction.from_text(_read("func.txt"))
        for name in Cauchy.FILES + ("problem_inadmissible.txt",):
            lib.cauchy.parse_problem(_read(name))
        for q in (2, 3):
            lib.ffield.FieldParams.default(q)
        return {"entries": entries}

    def params_in_use(self, state):
        return []

    def _order(self, state, seed):
        entries = list(state["entries"])
        random.Random("cli:%d" % seed).shuffle(entries)
        return entries

    def pass_ops(self, lib, state, seed):
        """Child-process invocations (the untraced run)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        return [Op("cli." + e["verb"],
                   lambda e=e: run_child([sys.executable, "-m", "carlitz.cli"] + e["argv"],
                                         env, self.root),
                   lambda out, e=e: cli_check(out, e))
                for e in self._order(state, seed)]

    def inprocess_ops(self, lib, state, seed):
        """The same script through ``cli.main`` in this process (the traced run)."""
        return [Op("cli." + e["verb"], lambda e=e: run_main(lib, e["argv"]),
                   lambda out, e=e: cli_check(out, e))
                for e in self._order(state, seed)]


class ChildTimeout(Exception):
    pass


#: Cap on one child process, enforced by the parent.
CHILD_CAP_S = 60


def run_child(argv, env, cwd):
    try:
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=CHILD_CAP_S)
    except subprocess.TimeoutExpired:
        raise ChildTimeout("child exceeded %d s" % CHILD_CAP_S) from None
    return proc.returncode, proc.stdout


def run_main(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, buf.getvalue()


def cli_check(out, entry):
    code, stdout = out
    ref = entry["ref"]
    if code != ref["exit"]:
        return "exit code %d, reference %d" % (code, ref["exit"])
    try:
        got = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON: %r" % stdout[:200]
    return oracle.compare_record(got, json.loads(ref["stdout"]), entry.get("kinds", {}))


def all_workloads(root):
    return {w.name: w for w in (Hyper(), Opring(), Cauchy(), Cli(root))}
