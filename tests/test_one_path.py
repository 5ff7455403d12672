"""Differential tests: every formula that now has one implementation
against the bodies it replaced.

The oracles are the former per-site copies, kept in the tests and nowhere
else: the direct coefficient products of both hypergeometric families
(shared with test_hyper_stream through ``oracles``), and below the
hyper_eval summation loop, the two alpha/profile sums, the 5.8 check that
recomputes h_(m-1), the per-convention op_apply, the merge-add and
equality of each map-backed class, and the exponent-grid loop of
from_terms, shift and the parser's monomials.  Outputs are compared as
printed text (format_series, to_text, repr), byte for byte, over seeded
draws in every shipped field (q in {2, 3, 4, 5, 8, 9}, m in {1, 2}).
"""

import random
from fractions import Fraction

import pytest

from carlitz import FieldParams, INF, PerfSeries, shift_down, shift_up
from carlitz import hyper, opring, sampling, textio
from carlitz.cauchy import DeltaPoly, InitialData
from carlitz.ffield import FFElement
from carlitz.funcspace import LinearSeries, MultiFunction
from carlitz.opring import NormalForm
from oracles import ref_hyper_coeff, ref_thakur_coeff

SHIPPED = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2)]
FIELDS = [FieldParams.default(q, m) for q, m in SHIPPED]
fields = pytest.mark.parametrize("params", FIELDS, ids=repr)


def fmt(s):
    return textio.format_series(s)


# ---------------------------------------------------------------------------
# oracles: the replaced bodies
# ---------------------------------------------------------------------------

def ref_convergence_bound(hp):
    q = hp.params.q
    alpha_sum = Fraction(0)
    for a in hp.a_list:
        lb = a._val_lb()
        alpha_sum += Fraction(1) if lb == INF else min(Fraction(1), Fraction(lb))
    b_sum = sum(hp.profiles, Fraction(0))
    return Fraction(1 + q * (b_sum - alpha_sum), q - 1)


def ref_tail_valuation(hp, val_z, m):
    q = hp.params.q
    alpha_sum = Fraction(0)
    for a in hp.a_list:
        lb = a._val_lb()
        alpha_sum += Fraction(1) if lb == INF else min(Fraction(1), Fraction(lb))
    b_sum = sum(hp.profiles, Fraction(0))
    k = q * (alpha_sum - b_sum) - 1
    return Fraction(q ** m - 1, q - 1) * k + q ** m * val_z


def ref_hyper_eval(hp, z, M, window=None):
    """The summation loop only: callers pass z strictly above the
    threshold, where no refusal applies."""
    acc = PerfSeries.zero(hp.params)
    for m in range(M + 1):
        acc = acc + ref_hyper_coeff(hp, m, window=window) * z.frobenius(m)
    return acc.truncate(ref_tail_valuation(hp, z.valuation(), M + 1))


def ref_check_58(params, a, b, c, M, window=None):
    base = hyper.HyperParams(params, (a, b), (c,))
    shifted_a = shift_down(a)
    third = hyper.HyperParams(params, (a, b), (shift_up(c),))
    fourth = hyper.HyperParams(params, (shifted_a, b), (c,))
    inv_c = c.invert(window=window)
    inv_sa = shifted_a.invert(window=window)
    scale3 = c.frobenius(1) - b.frobenius(1)
    residuals = []
    for m in range(M + 1):
        total = ref_hyper_coeff(base, m, window=window)
        if m >= 1:
            total = total - ref_hyper_coeff(base, m - 1, window=window).frobenius(1)
            total = total + (scale3
                             * ref_hyper_coeff(third, m - 1, window=window).frobenius(1)
                             * inv_c.frobenius(m))
        total = total - (shifted_a
                         * ref_hyper_coeff(fourth, m, window=window)
                         * inv_sa.frobenius(m))
        residuals.append(total)
    return residuals


def ref_op_apply(nf, f):
    total = None
    for key in sorted(nf.terms):
        l, mu = key[0], key[1]
        g = f
        if nf.convention == "standard":
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
        g = g.scale(nf.terms[key])
        total = g if total is None else total + g
    if total is None:
        return MultiFunction.zero(nf.params, nf.n, f.trunc_m, f.trunc_i)
    return total


def ref_merge(a, b):
    """The merge-add of LinearSeries, NormalForm, DeltaPoly and
    InitialData (the constructors then drop exact zeros)."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] + c if k in out else c
    return out


def ref_linear_eq(a, b):
    known = a._common_known(b)
    zero = PerfSeries.zero(a.params)
    for k in set(a.coeffs) | set(b.coeffs):
        if known is not None and k > known:
            continue
        if a.coeffs.get(k, zero) != b.coeffs.get(k, zero):
            return False
    return True


def ref_multi_add(a, b):
    tm = min(a.trunc_m, b.trunc_m)
    ti = min(a.trunc_i, b.trunc_i)
    out = {}
    for key in set(a.coeffs) | set(b.coeffs):
        zero = PerfSeries.zero(a.params)
        out[key] = a.coeffs.get(key, zero) + b.coeffs.get(key, zero)
    return MultiFunction(a.params, a.n, tm, ti, out)


def ref_multi_eq(a, b):
    tm = min(a.trunc_m, b.trunc_m)
    ti = min(a.trunc_i, b.trunc_i)
    zero = PerfSeries.zero(a.params)
    for key in set(a.coeffs) | set(b.coeffs):
        if key[0] > tm or any(i > ti for i in key[1:]):
            continue
        if a.coeffs.get(key, zero) != b.coeffs.get(key, zero):
            return False
    return True


def ref_map_eq(params, a, b):
    """The equality of NormalForm and DeltaPoly over one ring."""
    zero = PerfSeries.zero(params)
    return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))


def ref_grid(e, q):
    k = 0
    while (e * q ** k).denominator != 1:
        k += 1
    return k


def ref_from_terms(params, items, prec=INF):
    dexp = 0
    q = params.q
    fracs = {}
    for e, c in items.items():
        e = Fraction(e)
        dexp = max(dexp, ref_grid(e, q))
        fracs[e] = params.from_int(c)
    scaled = {}
    for e, idx in fracs.items():
        key = int(e * q ** dexp)
        if key in scaled:
            idx = params.add(scaled[key], idx)
        scaled[key] = idx
    return PerfSeries._make(params, dexp, scaled, prec)


def ref_shift(s, e):
    q = s.params.q
    d = max(s.dexp, ref_grid(e, q))
    off = int(e * q ** d)
    fa = q ** (d - s.dexp)
    terms = {kk * fa + off: c for kk, c in s.terms.items()}
    prec = s.prec if s.prec == INF else s.prec + e
    return PerfSeries._make(s.params, d, terms, prec)


def ref_mono(params, e, idx):
    if idx == 0:
        return PerfSeries.zero(params)
    k = ref_grid(e, params.q)
    return PerfSeries._make(params, k, {int(e * params.q ** k): idx}, INF)


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def draw_series(rng, params, **kw):
    """A random series, truncated at a random precision one time in three."""
    s = sampling.random_series(rng, params, terms=(1, 3), **kw)
    if rng.random() < 1 / 3:
        s = s.truncate(Fraction(rng.randint(2 * params.q, 6 * params.q), params.q))
    return s


def draw_hyper(rng, params):
    """Random HyperParams (r = 2, s = 1) and a z above its threshold."""
    a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
    b = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
    c = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
    hp = hyper.HyperParams(params, (a, b), (c,))
    low = max(int(hyper.convergence_bound(hp)) + 1, 1) + rng.randint(0, 2)
    z = PerfSeries.from_terms(
        params, {low: 1, low + 1: FFElement(params, rng.randrange(params.Q))})
    return hp, z


def rng_for(params, salt):
    return random.Random("%d-%d-%s" % (params.q, params.m, salt))


# ---------------------------------------------------------------------------
# hypergeometric layer
# ---------------------------------------------------------------------------

@fields
def test_hyper_eval_matches_summation_loop(params):
    rng = rng_for(params, "eval")
    for _ in range(2):
        hp, z = draw_hyper(rng, params)
        assert hyper.convergence_bound(hp) == ref_convergence_bound(hp)
        for m in range(4):
            assert (hyper._tail_valuation(hp, Fraction(3, 2), m)
                    == ref_tail_valuation(hp, Fraction(3, 2), m))
        for M in (2, 3):
            for window in (None, 20):
                got = hyper.hyper_eval(hp, z, M, window=window)
                assert fmt(got) == fmt(ref_hyper_eval(hp, z, M, window=window))


@fields
def test_coefficient_families_match_direct_products(params):
    rng = rng_for(params, "coeff")
    hp, _ = draw_hyper(rng, params)
    alphas = [rng.randint(-2, 3) for _ in range(rng.randint(1, 2))]
    betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    for window in (None, 20):
        series = hyper.hyper_series(hp, 3, window=window)
        thakur = hyper.thakur_series(params, alphas, betas, 3, window=window)
        for m in range(4):
            want = ref_hyper_coeff(hp, m, window=window)
            assert fmt(hyper.hyper_coeff(hp, m, window=window)) == fmt(want)
            assert fmt(series.coefficient(m)) == fmt(want)
            want = ref_thakur_coeff(params, alphas, betas, m, window=window)
            assert fmt(hyper.hyper_thakur_coeff(params, alphas, betas, m,
                                                window=window)) == fmt(want)
            assert fmt(thakur.coefficient(m)) == fmt(want)


@fields
def test_check_58_matches_recomputing_loop(params):
    rng = rng_for(params, "5.8")
    hp, _ = draw_hyper(rng, params)
    a, b = hp.a_list
    c = hp.b_list[0]
    if shift_down(a).is_zero():
        a = PerfSeries.one(params)
    got = hyper.contiguous_check("5.8", params, a=a, b=b, c=c, M=3)
    assert ([fmt(s) for s in got.residuals]
            == [fmt(s) for s in ref_check_58(params, a, b, c, 3)])


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

@fields
def test_op_apply_matches_per_convention_loops(params):
    rng = rng_for(params, "apply")
    for n in (1, 2):
        f = sampling.random_multifunction(rng, params, n, 3, 4)
        for convention in opring.CONVENTIONS:
            for _ in range(2):
                terms = sampling.random_normal_form(rng, params, n).terms
                nf = NormalForm(params, n, convention, terms)
                assert nf.op_apply(f).to_text() == ref_op_apply(nf, f).to_text()


# ---------------------------------------------------------------------------
# maps from keys to series
# ---------------------------------------------------------------------------

def perturb(rng, params, coeffs):
    """A map on some keys of ``coeffs``: about a third of the values cancel
    exactly, a third are replaced, and the other keys are left out."""
    out = {}
    for k, c in coeffs.items():
        roll = rng.random()
        if roll < 0.3:
            out[k] = -c
        elif roll < 0.6:
            out[k] = draw_series(rng, params)
    return out


@fields
def test_linear_series_add_and_eq_match(params):
    rng = rng_for(params, "linear")
    for _ in range(4):
        a = LinearSeries(params, {k: draw_series(rng, params)
                                  for k in range(rng.randint(0, 4))},
                         rng.choice([None, 1, 3]))
        coeffs = perturb(rng, params, a.coeffs)
        coeffs[rng.randint(0, 5)] = draw_series(rng, params)
        b = LinearSeries(params, coeffs, rng.choice([None, 2, 4]))
        want = LinearSeries(params, ref_merge(a.coeffs, b.coeffs),
                            a._common_known(b))
        assert repr(a + b) == repr(want)
        assert repr(a - a) == repr(LinearSeries(params, ref_merge(a.coeffs, (-a).coeffs), a.known))
        cut = LinearSeries(params, {k: c for k, c in a.coeffs.items() if k <= 1}, 1)
        for x, y in ((a, b), (a, a), (a + b, b + a), (a, cut),
                     (a - a, LinearSeries.zero(params))):
            assert (x == y) == ref_linear_eq(x, y)


@fields
def test_multifunction_add_and_eq_match(params):
    rng = rng_for(params, "multi")
    for n in (1, 2):
        f = sampling.random_multifunction(rng, params, n, 3, 4)
        g = MultiFunction(params, n, 2, 4, perturb(rng, params, f.coeffs))
        h = sampling.random_multifunction(rng, params, n, 3, 3)
        cut = MultiFunction(params, n, 2, 3, f.coeffs)  # f on a smaller box
        for x, y in ((f, g), (f, h), (g, h), (f, f), (f, cut)):
            assert (x + y).to_text() == ref_multi_add(x, y).to_text()
            assert (x - y).to_text() == ref_multi_add(x, -y).to_text()
            assert (x == y) == ref_multi_eq(x, y)
            assert (x + y == y + x) == ref_multi_eq(x + y, y + x)


@fields
def test_normal_form_add_and_eq_match(params):
    rng = rng_for(params, "normal")
    for n in (1, 2):
        a = sampling.random_normal_form(rng, params, n)
        b = NormalForm(params, n, "standard", perturb(rng, params, a.terms))
        b = b + sampling.random_normal_form(rng, params, n)
        want = NormalForm(params, n, "standard", ref_merge(a.terms, b.terms))
        assert repr(a + b) == repr(want)
        assert (a + b).terms.keys() == want.terms.keys()
        for x, y in ((a, b), (a, a), (a + b, b + a), (a - a, NormalForm.zero(params, n))):
            assert (x == y) == ref_map_eq(params, x.terms, y.terms)


def map_text(coeffs):
    return [(e, fmt(c)) for e, c in sorted(coeffs.items())]


@fields
def test_delta_poly_and_initial_data_add_match(params):
    rng = rng_for(params, "delta")
    for n in (1, 2):
        def draw_poly():
            return DeltaPoly(params, n, {
                tuple(rng.randint(0, 2) for _ in range(n)): draw_series(rng, params)
                for _ in range(rng.randint(1, 4))})
        p = draw_poly()
        r = DeltaPoly(params, n, perturb(rng, params, p.coeffs)) + draw_poly()
        want = DeltaPoly(params, n, ref_merge(p.coeffs, r.coeffs))
        assert map_text((p + r).coeffs) == map_text(want.coeffs)
        want = DeltaPoly(params, n, ref_merge(p.coeffs, (-p).coeffs))
        assert map_text((p - p).coeffs) == map_text(want.coeffs)
        for x, y in ((p, r), (p, p), (p + r, r + p), (p * r, r * p)):
            assert (x == y) == ref_map_eq(params, x.coeffs, y.coeffs)
        init = InitialData(params, n, p.coeffs)
        other = InitialData(params, n, r.coeffs)
        want = InitialData(params, n, ref_merge(init.values, other.values))
        assert map_text((init + other).values) == map_text(want.values)


# ---------------------------------------------------------------------------
# exponent grid
# ---------------------------------------------------------------------------

@fields
def test_grid_depth_callers_match_loop(params):
    rng = rng_for(params, "grid")
    q = params.q
    for _ in range(20):
        e = Fraction(rng.randint(-3 * q ** 3, 3 * q ** 3), q ** rng.randint(0, 3))
        items = {e: rng.randint(1, params.p - 1),
                 Fraction(rng.randint(-9, 9), q ** rng.randint(0, 2)): 1}
        prec = rng.choice([INF, Fraction(rng.randint(q, 9 * q), q)])
        assert (fmt(PerfSeries.from_terms(params, items, prec))
                == fmt(ref_from_terms(params, items, prec)))
        s = draw_series(rng, params)
        assert fmt(s.shift(e)) == fmt(ref_shift(s, e))
        idx = rng.randrange(params.Q)
        assert fmt(textio._mono(params, e, idx)) == fmt(ref_mono(params, e, idx))
        literal = "x^" + textio.format_exponent(e)
        assert (fmt(textio.parse_series(literal, params))
                == fmt(ref_mono(params, e, params.one_idx)))
