"""Acceptance criteria, one test per criterion.

Every check is an exact identity or an exact integer statement; tolerances
are equality at common precision (the library's equality semantics) and
the stated runtime budgets.  Each test prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from carlitz import (FieldParams, PerfSeries, bracket, carlitz_D,
                     pochhammer, pochhammer_thakur, shift_down)
from carlitz.cauchy import (InitialData, cauchy_solve,
                            hypergeometric_equation, residual)
from carlitz.funcspace import MultiFunction
from carlitz.hyper import (HyperParams, contiguous_check, convergence_bound,
                           hyper_eval, hyper_residual,
                           thakur_correspondence, thakur_residual)
from carlitz.opring import (NormalForm, fhat_monomial_count, gamma_dim,
                            gk_fit, normalize, qh_lower_count)
from carlitz.textio import format_operator_words, format_series, parse_operator, parse_series
from carlitz import sampling
from oracles import ref_pochhammer_recurrent

pytestmark = pytest.mark.acceptance

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def report(number, name, t0, budget):
    elapsed = time.perf_counter() - t0
    line = "criterion %2d %-28s PASS  %6.2fs (budget %ds)" % (
        number, name, elapsed, budget)
    print(line)
    assert elapsed < budget, "over budget: %s" % line


def test_criterion_01_pochhammer_coherence():
    t0 = time.perf_counter()
    for q in (2, 3, 4):
        params = FieldParams.default(q)
        rng = random.Random(100 + q)
        for _ in range(100):
            a = sampling.random_series(rng, params, terms=(1, 3), lo=-2, hi=4,
                                       frac_depth=1)
            for m in range(7):
                d = pochhammer(a, m)
                r = ref_pochhammer_recurrent(a, m)
                assert d == r and d.is_exact()
    report(1, "pochhammer coherence", t0, 10)


def test_criterion_02_bracket_factorial_laws():
    t0 = time.perf_counter()
    for q in (2, 3, 4):
        params = FieldParams.default(q)
        for m in range(1, 9):
            dm = carlitz_D(params, m)
            assert dm == bracket(params, m) * carlitz_D(params, m - 1).frobenius(1)
            assert dm.valuation() == Fraction(q ** m - 1, q - 1)
    report(2, "bracket/factorial laws", t0, 1)


def test_criterion_03_commutation_relations():
    t0 = time.perf_counter()
    # (i) normalize-to-zero in the operator ring, both conventions
    for q in (2, 3):
        params = FieldParams.default(q)
        root = bracket(params, 1).frobenius(-1)
        one_bracket = bracket(params, 1)
        for n in (1, 2):
            for conv in ("standard", "alt"):
                dt = normalize(parse_operator("d*tau - tau*d", params, n),
                               params, conv)
                assert (dt - NormalForm.scalar(params, n, root, conv)).is_zero()
                for j in range(1, n + 1):
                    dj = "delta%d" % j
                    dd = normalize(parse_operator("d*%s - %s*d" % (dj, dj),
                                                  params, n), params, conv)
                    want = NormalForm(params, n, conv, {(0, 1) + (0,) * n: root})
                    assert (dd - want).is_zero()
                    ddt = normalize(parse_operator("%s*tau - tau*%s" % (dj, dj),
                                                   params, n), params, conv)
                    want = NormalForm(params, n, conv,
                                      {(1, 0) + (0,) * n: one_bracket})
                    assert (ddt - want).is_zero()
    # (ii) function application on 50 random functions
    rng = random.Random(303)
    for trial in range(50):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        root = bracket(params, 1).frobenius(-1)
        n = rng.randint(1, 2)
        f = sampling.random_multifunction(rng, params, n, 5, 5)
        j = rng.randint(1, n)
        assert f.apply_tau().apply_d() - f.apply_d().apply_tau() == f.scale(root)
        assert (f.apply_delta(j).apply_d() - f.apply_d().apply_delta(j)
                == f.apply_d().scale(root))
        assert (f.apply_tau().apply_delta(j) - f.apply_delta(j).apply_tau()
                == f.apply_tau().scale(bracket(params, 1)))
    report(3, "commutation relations", t0, 30)


def test_criterion_04_rewriting_confluence():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for trial in range(200):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        n = rng.randint(1, 2)
        conv = rng.choice(("standard", "alt"))
        w = sampling.random_operator_word(rng, params, n, max_len=8,
                                          scalar_prob=0.3)
        left = normalize(w, params, conv, "leftmost")
        right = normalize(w, params, conv, "rightmost")
        assert left == right
        assert normalize(left, params, conv) == left
    report(4, "rewriting confluence", t0, 30)


def test_criterion_05_cauchy_correctness():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for trial in range(25):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        a_list = [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
                  for _ in range(r)]
        b_list = [sampling.random_admissible(rng, params, terms=(1, 2),
                                             lo=0, hi=3) for _ in range(s)]
        n = max(r, s)
        hp = HyperParams(params, a_list, b_list)
        eq = hypergeometric_equation(params, a_list, b_list, n)
        u = cauchy_solve(eq, InitialData.delta(params, n), 5, 5)
        # (a) residual vanishes on the common box
        assert residual(eq, u).is_zero_on_box()
        # (b) diagonal coefficients are the closed-form products
        for m in range(6):
            num = PerfSeries.one(params)
            for a in a_list:
                num = num * pochhammer(a, m)
            den = PerfSeries.one(params)
            for b in b_list:
                den = den * pochhammer(b, m)
            sigma = num * den.invert(window=32)
            assert u.coefficient(m, *([m] * n)) == sigma
        # (c) factorization against the hypergeometric evaluation
        base = max(1, int(convergence_bound(hp)) + 1)
        for _ in range(5):
            z = PerfSeries.monomial(params, base + rng.randint(0, 2),
                                    rng.randrange(1, params.Q))
            svec = [PerfSeries.monomial(params, base + rng.randint(0, 2),
                                        rng.randrange(1, params.Q))
                    for _ in range(n)]
            w = z
            for sv in svec:
                w = w * sv
            assert u.evaluate(z, svec) == hyper_eval(hp, w, 5)
    report(5, "cauchy correctness", t0, 60)


def test_criterion_06_hypergeometric_equations():
    t0 = time.perf_counter()
    rng = random.Random(606)
    # product form on 25 random admissible draws
    for trial in range(25):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        hp = HyperParams(
            params,
            [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
             for _ in range(r)],
            [sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
             for _ in range(s)])
        assert hyper_residual(hp, 5, form="product").is_zero_on_known()
    # gauss form for 2F1
    for trial in range(10):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        hp = HyperParams(
            params,
            [sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
             for _ in range(2)],
            [sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)])
        assert hyper_residual(hp, 5, form="gauss").is_zero_on_known()
    # integer-parameter form on 10 instances
    for trial in range(10):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        alphas = [rng.choice([-2, -1, 1, 2, 3])
                  for _ in range(rng.randint(1, 2))]
        betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        assert thakur_residual(params, alphas, betas, 5).is_zero_on_known()
    report(6, "hypergeometric equations", t0, 60)


def test_criterion_07_thakur_correspondence():
    t0 = time.perf_counter()
    rng = random.Random(707)
    families = 0
    while families < 10:
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        # keep every (alpha)_m nonzero for m <= 5: alpha >= 1 or alpha <= -5
        alphas = [rng.choice([1, 2, 3, 4, -5, -6])
                  for _ in range(rng.randint(1, 2))]
        betas = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        result = thakur_correspondence(params, alphas, betas, 5)
        assert result.ok, (alphas, betas)
        # the rescaling is pinned by m = 0: rho = prod (a_i)_0 / prod (b_j)_0
        rho0 = PerfSeries.one(params)
        for alpha in alphas:
            rho0 = rho0 * pochhammer_thakur(params, alpha, 0)
        den = PerfSeries.one(params)
        for beta in betas:
            den = den * pochhammer_thakur(params, beta, 0)
        assert result.rho == rho0.divide(den, window=32)
        families += 1
    report(7, "thakur correspondence", t0, 10)


def test_criterion_08_contiguous_relations():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for q in (2, 3):
        params = FieldParams.default(q)
        for draw in range(25):
            a = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
            b = sampling.random_series(rng, params, terms=(1, 2), lo=0, hi=3)
            c = sampling.random_admissible(rng, params, terms=(1, 2), lo=0, hi=3)
            for m in range(1, 6):
                assert contiguous_check("5.3", params, a=a, m=m).ok
                assert contiguous_check("5.4", params, a=a, m=m).ok
                assert contiguous_check("5.5", params, a=a, m=m).ok
                if not (bracket(params, m - 1) - a).is_zero():
                    assert contiguous_check("5.6", params, a=a, m=m).ok
            assert contiguous_check("5.7", params, a=a, b=b, c=c, M=5).ok
            if not c.is_zero() and not shift_down(a).is_zero():
                assert contiguous_check("5.8", params, a=a, b=b, c=c, M=5).ok
    report(8, "contiguous relations", t0, 60)


def test_criterion_09_dimension_counting():
    t0 = time.perf_counter()
    for n in (1, 2):
        gamma = [(nu, gamma_dim(n, nu)) for nu in range(13)]
        assert gk_fit(gamma) == n + 2
        qh = [(nu, qh_lower_count(n, nu)) for nu in range(13)]
        for nu, value in qh:
            assert value >= math.comb(nu // 2 + n + 1, n + 1)
        assert gk_fit(qh[::2]) == n + 1  # period-2 quasi-polynomial
        fhat = [(nu, fhat_monomial_count(n, nu))
                for nu in range(0, 13, n + 1)]
        assert gk_fit(fhat) == n + 1
    report(9, "dimension counting", t0, 5)


def test_criterion_10_linearity_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    for trial in range(100):
        q = rng.choice((2, 3))
        params = FieldParams.default(q)
        n = rng.randint(1, 2)
        A = sampling.random_normal_form(rng, params, n,
                                        force_linear=rng.random() < 0.5)
        commutes = True
        for _ in range(3):
            sigma = sampling.random_nonconstant(rng, params, terms=(1, 2),
                                                lo=0, hi=3)
            S = NormalForm.scalar(params, n, sigma)
            if not (A.op_mul(S) - S.op_mul(A)).is_zero():
                commutes = False
                break
        assert A.is_linear() == commutes
    report(10, "linearity oracle", t0, 30)


def test_criterion_11_cli_roundtrip_determinism(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1111)
    # 200 randomized values survive print -> parse
    for trial in range(200):
        q, m = rng.choice(((2, 1), (3, 1), (4, 1), (4, 2)))
        params = FieldParams.default(q, m)
        kind = rng.randrange(4)
        if kind <= 1:
            s = sampling.random_series(rng, params, terms=(0, 5), lo=-3, hi=6,
                                       frac_depth=2, allow_zero=True)
            if rng.random() < 0.3:
                s = s.truncate(sampling.random_exponent(rng, params, 2, 9))
            assert parse_series(format_series(s), params) == s
        elif kind == 2:
            n = rng.randint(1, 2)
            w = sampling.random_operator_word(rng, params, n, max_len=6)
            printed = format_operator_words([w])
            assert (normalize(parse_operator(printed, params, n), params)
                    == normalize(w, params))
        else:
            f = sampling.random_multifunction(rng, params, rng.randint(1, 2), 3, 3)
            assert MultiFunction.from_text(f.to_text()) == f
    # seeded identity sweeps are byte-identical across two fresh processes
    cmd = [sys.executable, "-m", "carlitz.cli", "--q", "2", "--json",
           "identity-check", "--id", "5.4", "--seed", "9", "--trials", "8"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out1 = subprocess.run(cmd, capture_output=True, env=env).stdout
    out2 = subprocess.run(cmd, capture_output=True, env=env).stdout
    assert out1 == out2
    assert b'"passed": 8' in out1
    report(11, "cli round-trip/determinism", t0, 30)
