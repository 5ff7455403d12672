import math
import random

import pytest

from carlitz import FieldParams, PerfSeries, UsageError, bracket, opring
from carlitz.funcspace import MultiFunction
from carlitz.opring import (CONVENTIONS, D, TAU, NormalForm,
                            delta, fhat_monomial_count, gamma_dim, gk_fit,
                            normalize, qh_lower_count)
from carlitz.textio import parse_operator
from carlitz import sampling


def nf(text, params, n=1, convention="standard"):
    return normalize(parse_operator(text, params, n), params, convention)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_d_tau(F2):
    root = bracket(F2, 1).frobenius(-1)
    expect = NormalForm(F2, 1, "standard", {
        (1, 1, 0): PerfSeries.one(F2),
        (0, 0, 0): root,
    })
    assert nf("d*tau", F2) == expect


def test_normalize_delta_tau(F3):
    expect = NormalForm(F3, 1, "standard", {
        (1, 0, 1): PerfSeries.one(F3),
        (1, 0, 0): bracket(F3, 1),
    })
    assert nf("delta1*tau", F3) == expect


def test_normalize_scalar_rules(F2):
    lam = bracket(F2, 1)
    got = nf("d*(x^2+x)", F2)
    assert got == NormalForm(F2, 1, "standard", {(0, 1, 0): lam.frobenius(-1)})
    got = nf("tau*(x^2+x)", F2)
    assert got == NormalForm(F2, 1, "standard", {(1, 0, 0): lam.frobenius(1)})
    got = nf("delta1*(x^2+x)", F2)
    assert got == NormalForm(F2, 1, "standard", {(0, 0, 1): lam})
    assert nf("tau", F2) == NormalForm(F2, 1, "standard",
                                       {(1, 0, 0): PerfSeries.one(F2)})


def test_normalize_already_normal_alt(F3):
    # delta-words followed by tau, d are already normal in the alt convention
    got = nf("delta1*tau*d", F3, convention="alt")
    assert got == NormalForm(F3, 1, "alt", {(1, 1, 1): PerfSeries.one(F3)})


def test_commutators_normalize_to_scalars(F3):
    root = bracket(F3, 1).frobenius(-1)
    assert nf("d*tau - tau*d", F3) == NormalForm.scalar(F3, 1, root)
    # d delta - delta d = [1]^(1/q) d
    expect = NormalForm(F3, 1, "standard", {(0, 1, 0): root})
    assert nf("d*delta1 - delta1*d", F3) == expect
    expect = NormalForm(F3, 1, "standard", {(1, 0, 0): bracket(F3, 1)})
    assert nf("delta1*tau - tau*delta1", F3) == expect


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("q", [2, 3])
def test_confluence_and_idempotence(q, convention):
    params = FieldParams.default(q)
    rng = random.Random(q * 31)
    for _ in range(60):
        n = rng.randint(1, 2)
        w = sampling.random_operator_word(rng, params, n, max_len=8)
        a = normalize(w, params, convention, "leftmost")
        b = normalize(w, params, convention, "rightmost")
        assert a == b
        assert normalize(a, params, convention) == a


def test_convention_round_trip(F3, rng):
    for _ in range(20):
        w = sampling.random_operator_word(rng, F3, 2, max_len=7)
        std = normalize(w, F3, "standard")
        alt = std.convert("alt")
        assert alt == normalize(w, F3, "alt")
        assert alt.convert("standard") == std


@pytest.fixture
def no_rewriting(monkeypatch):
    """Any rewrite fails the test: an unknown convention must be refused
    before the first one."""
    def fail(*args):
        raise AssertionError("rewriting started")
    monkeypatch.setattr(opring, "_rewrite_pair", fail)


def test_normalize_refuses_unknown_convention(F2, no_rewriting):
    with pytest.raises(UsageError, match="unknown convention 'bogus'"):
        normalize(parse_operator("d*tau", F2, 1), F2, "bogus")


def test_convert_refuses_unknown_convention(F2, no_rewriting):
    std = NormalForm(F2, 1, "standard", {(1, 1, 1): PerfSeries.one(F2)})
    with pytest.raises(UsageError, match="unknown convention 'bogus'"):
        std.convert("bogus")


def test_op_mul_refuses_unknown_convention(F2, no_rewriting):
    # the constructor refuses it, so only a reassigned convention gets here
    A = NormalForm(F2, 1, "standard", {(0, 1, 0): PerfSeries.one(F2)})
    A.convention = "bogus"
    with pytest.raises(UsageError, match="unknown convention 'bogus'"):
        A.op_mul(A)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_op_mul_identity(F3, rng):
    A = sampling.random_normal_form(rng, F3, 1)
    I = NormalForm.identity(F3, 1)
    assert A.op_mul(I) == A
    assert I.op_mul(A) == A


def test_op_mul_commutator_scalar(F2):
    d_nf = NormalForm.generator(F2, 1, D)
    t_nf = NormalForm.generator(F2, 1, TAU)
    diff = d_nf.op_mul(t_nf) - t_nf.op_mul(d_nf)
    assert diff == NormalForm.scalar(F2, 1, bracket(F2, 1).frobenius(-1))


def test_op_mul_is_associative(F2, rng):
    for _ in range(6):
        A = sampling.random_normal_form(rng, F2, 1, max_terms=2, max_index=2)
        B = sampling.random_normal_form(rng, F2, 1, max_terms=2, max_index=2)
        C = sampling.random_normal_form(rng, F2, 1, max_terms=2, max_index=2)
        assert A.op_mul(B).op_mul(C) == A.op_mul(B.op_mul(C))


def test_op_apply_delta_eigen(F2):
    f = MultiFunction(F2, 1, 3, 3, {(0, 1): PerfSeries.one(F2)})
    A = NormalForm.generator(F2, 1, delta(1))
    out = A.op_apply(f)
    assert out.coefficient(0, 1) == bracket(F2, 1)


def test_op_apply_identity(F3, rng):
    f = sampling.random_multifunction(rng, F3, 2, 3, 3)
    assert NormalForm.identity(F3, 2).op_apply(f) == f


def test_op_apply_rewrite_consistency(F2, rng):
    # applying the normalized d*tau equals tau d plus the scalar
    root = bracket(F2, 1).frobenius(-1)
    dt = nf("d*tau", F2)
    td = nf("tau*d", F2)
    for _ in range(5):
        f = sampling.random_multifunction(rng, F2, 1, 4, 4)
        assert dt.op_apply(f) == td.op_apply(f) + f.scale(root)


@pytest.mark.parametrize("q", [2, 3])
def test_op_apply_homomorphism(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 5)
    for _ in range(8):
        n = rng.randint(1, 2)
        A = sampling.random_normal_form(rng, params, n, max_terms=3, max_index=2)
        B = sampling.random_normal_form(rng, params, n, max_terms=2, max_index=2)
        f = sampling.random_multifunction(rng, params, n, 5, 5)
        assert A.op_mul(B).op_apply(f) == A.op_apply(B.op_apply(f))


# ---------------------------------------------------------------------------
# linearity and filtration
# ---------------------------------------------------------------------------

def test_is_linear_examples(F2):
    assert nf("tau*d", F2).is_linear()
    assert not nf("d", F2).is_linear()
    assert NormalForm.scalar(F2, 1, bracket(F2, 1)).is_linear()


def test_linearity_oracle(F3, rng):
    for _ in range(30):
        A = sampling.random_normal_form(rng, F3, 1,
                                        force_linear=rng.random() < 0.5)
        commutes = True
        for _ in range(3):
            sig = sampling.random_nonconstant(rng, F3, terms=(1, 2), lo=0, hi=3)
            S = NormalForm.scalar(F3, 1, sig)
            if not (A.op_mul(S) - S.op_mul(A)).is_zero():
                commutes = False
                break
        assert A.is_linear() == commutes


def test_filtration_degree(F2, rng):
    assert nf("tau*d", F2).filtration_degree() == 2
    assert NormalForm.scalar(F2, 1, bracket(F2, 1)).filtration_degree() == 0
    assert NormalForm.zero(F2, 1).filtration_degree() == -math.inf
    # P(delta) + Q(delta) d has degree max(deg P, deg Q + 1)
    for _ in range(5):
        dp = rng.randint(0, 3)
        dq = rng.randint(0, 3)
        terms = {(0, 0, dp): PerfSeries.one(F2), (0, 1, dq): PerfSeries.one(F2)}
        A = NormalForm(F2, 1, "standard", terms)
        assert A.filtration_degree() == max(dp, dq + 1)


# ---------------------------------------------------------------------------
# dimension counting
# ---------------------------------------------------------------------------

def brute_gamma(n, nu):
    import itertools
    count = 0
    for tup in itertools.product(range(nu + 1), repeat=n + 2):
        if sum(tup) <= nu:
            count += 1
    return count


def brute_qh(n, nu):
    import itertools
    count = 0
    for tup in itertools.product(range(nu + 1), repeat=n + 1):
        if 2 * tup[0] + sum(tup[1:]) <= nu:
            count += 1
    return count


def brute_fhat(n, nu):
    import itertools
    count = 0
    for tup in itertools.product(range(nu + 1), repeat=n + 1):
        m, ivec = tup[0], tup[1:]
        if m <= min(ivec) and m + sum(ivec) <= nu:
            count += 1
    return count


def test_gamma_dim_examples():
    assert gamma_dim(1, 0) == 1
    assert gamma_dim(1, 2) == 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_dim_against_enumeration(n):
    for nu in range(13):
        assert gamma_dim(n, nu) == brute_gamma(n, nu)
        assert gamma_dim(n, nu) == math.comb(nu + n + 2, n + 2)


def test_qh_lower_count_examples():
    assert qh_lower_count(1, 4) == 9
    assert qh_lower_count(1, 4) >= math.comb(4, 2)
    assert qh_lower_count(1, 0) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_qh_lower_count_enumeration_and_bound(n):
    for nu in range(13):
        assert qh_lower_count(n, nu) == brute_qh(n, nu)
        assert qh_lower_count(n, nu) >= math.comb(nu // 2 + n + 1, n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_fhat_count_enumeration(n):
    for nu in range(11):
        assert fhat_monomial_count(n, nu) == brute_fhat(n, nu)


def test_gk_fit_degrees():
    assert gk_fit([(nu, gamma_dim(1, nu)) for nu in range(13)]) == 3
    assert gk_fit([(nu, 5) for nu in range(6)]) == 0
    assert gk_fit([(nu, fhat_monomial_count(1, nu))
                   for nu in range(0, 13, 2)]) == 2
    # quasi-polynomial sampled off its period has no polynomial fit
    assert gk_fit([(nu, qh_lower_count(1, nu)) for nu in range(13)]) is None
    # a prefix that settles onto a polynomial tail is tolerated
    tail = [(nu, nu ** 2) for nu in range(3, 10)]
    assert gk_fit([(0, 17), (1, 99), (2, 4)] + tail) == 2
