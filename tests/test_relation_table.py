"""Differential test: the operator ring's relation table against the
per-convention rewriting it replaced.

The oracle below is the former engine, kept here and nowhere else: two
oriented copies of the commutation relations (one per convention) in
``ref_rewrite_pair``, a redex scan that builds every candidate rewrite,
and a per-convention ``key_factors``.  Normal forms, products,
conversions and d^k tau^k are compared by repr and by their term maps in
insertion order, byte for byte, in every shipped field (q in
{2, 3, 4, 5, 8, 9}, m in {1, 2}), both conventions and both strategies
(d^5 tau^5 in one of them per field).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import FieldParams, PerfSeries, bracket, opring, sampling, textio
from carlitz.opring import (CONVENTIONS, D, FACTOR_D, FACTOR_DELTA,
                            FACTOR_SCALAR, FACTOR_TAU, TAU, NormalForm,
                            OperatorWord, delta, normalize, scalar_factor)

SHIPPED = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2)]
FIELDS = [FieldParams.default(q, m) for q, m in SHIPPED]
fields = pytest.mark.parametrize("params", FIELDS, ids=repr)
STRATEGIES = ("leftmost", "rightmost")


# ---------------------------------------------------------------------------
# oracle: the replaced engine
# ---------------------------------------------------------------------------

def ref_rewrite_pair(x, y, params, convention):
    kx, ky = x[0], y[0]
    if ky == FACTOR_SCALAR:
        s = y[1]
        if kx == FACTOR_SCALAR:
            return [(scalar_factor(x[1] * s),)]
        if kx == FACTOR_TAU:
            return [(scalar_factor(s.frobenius(1)), TAU)]
        if kx == FACTOR_D:
            return [(scalar_factor(s.frobenius(-1)), D)]
        return [(scalar_factor(s), x)]
    if kx == FACTOR_SCALAR:
        return None
    one_root = bracket(params, 1).frobenius(-1)
    if convention == "standard":
        if kx == FACTOR_D and ky == FACTOR_TAU:
            return [(TAU, D), (scalar_factor(one_root),)]
        if kx == FACTOR_DELTA and ky == FACTOR_TAU:
            return [(TAU, x), (scalar_factor(bracket(params, 1)), TAU)]
        if kx == FACTOR_DELTA and ky == FACTOR_D:
            return [(D, x), (scalar_factor(-one_root), D)]
        if kx == FACTOR_DELTA and ky == FACTOR_DELTA and x[1] > y[1]:
            return [(y, x)]
        return None
    if kx == FACTOR_D and ky == FACTOR_TAU:
        return [(TAU, D), (scalar_factor(one_root),)]
    if kx == FACTOR_TAU and ky == FACTOR_DELTA:
        return [(y, TAU), (scalar_factor(-bracket(params, 1)), TAU)]
    if kx == FACTOR_D and ky == FACTOR_DELTA:
        return [(y, D), (scalar_factor(one_root), D)]
    if kx == FACTOR_DELTA and ky == FACTOR_DELTA and x[1] > y[1]:
        return [(y, x)]
    return None


def ref_find_redex(seq, params, convention, strategy):
    rng = range(len(seq) - 1)
    if strategy == "rightmost":
        rng = reversed(rng)
    for pos in rng:
        if ref_rewrite_pair(seq[pos], seq[pos + 1], params, convention) is not None:
            return pos
    return None


def ref_normalize_items(items, params, n, convention, strategy="leftmost"):
    terms = {}
    stack = list(items)
    while stack:
        coeff, seq = stack.pop()
        pos = ref_find_redex(seq, params, convention, strategy)
        if pos is None:
            if seq and seq[0][0] == FACTOR_SCALAR:
                coeff = coeff * seq[0][1]
                seq = seq[1:]
            key = opring._count_key(seq, n)
            if key in terms:
                terms[key] = terms[key] + coeff
            else:
                terms[key] = coeff
            continue
        for repl in ref_rewrite_pair(seq[pos], seq[pos + 1], params, convention):
            stack.append((coeff, seq[:pos] + repl + seq[pos + 2:]))
    return NormalForm(params, n, convention, terms)


def ref_key_factors(nf, key):
    deltas = []
    for j, i in enumerate(key[2:], start=1):
        deltas.extend([delta(j)] * i)
    gens = [TAU] * key[0] + [D] * key[1]
    if nf.convention == "standard":
        return tuple(gens + deltas)
    return tuple(deltas + gens)


def ref_normalize(word, params, convention, strategy="leftmost"):
    return ref_normalize_items([(PerfSeries.one(params), word.factors)],
                               params, word.n, convention, strategy)


def ref_convert(nf, convention):
    if convention == nf.convention:
        return nf
    items = [(PerfSeries.one(nf.params),
              (scalar_factor(nf.terms[key]),) + ref_key_factors(nf, key))
             for key in sorted(nf.terms)]
    return ref_normalize_items(items, nf.params, nf.n, convention)


def ref_op_mul(a, b):
    items = []
    for ka, ca in a.terms.items():
        fa = ref_key_factors(a, ka)
        for kb, cb in b.terms.items():
            items.append((ca, fa + (scalar_factor(cb),) + ref_key_factors(b, kb)))
    return ref_normalize_items(items, a.params, a.n, a.convention)


def term_map(nf):
    return [(k, textio.format_series(c), c.dexp, c.terms, c.prec, type(c.prec))
            for k, c in nf.terms.items()]


def assert_same(got, want):
    assert got.convention == want.convention
    assert repr(got) == repr(want)
    assert term_map(got) == term_map(want)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@fields
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rewriting_matches_per_convention_oracle(params, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    word = sampling.random_operator_word(rng, params, n, max_len=7)
    for convention in CONVENTIONS:
        for strategy in STRATEGIES:
            assert_same(normalize(word, params, convention, strategy),
                        ref_normalize(word, params, convention, strategy))
    a = sampling.random_normal_form(rng, params, n, max_terms=2, max_index=1)
    b = sampling.random_normal_form(rng, params, n, max_terms=2, max_index=1)
    for convention in CONVENTIONS:
        a_conv, b_conv = ref_convert(a, convention), ref_convert(b, convention)
        assert_same(a.convert(convention), a_conv)
        assert_same(a_conv.op_mul(b_conv), ref_op_mul(a_conv, b_conv))
        assert [ref_key_factors(a_conv, k) for k in a_conv.terms] == [
            a_conv.key_factors(k) for k in a_conv.terms]


@fields
def test_d_tau_powers_match_per_convention_oracle(params):
    for k in range(1, 5):
        word = OperatorWord(1, [D] * k + [TAU] * k)
        for convention in CONVENTIONS:
            for strategy in STRATEGIES:
                assert_same(normalize(word, params, convention, strategy),
                            ref_normalize(word, params, convention, strategy))
    # k = 5 costs the oracle about 0.2 s a run: one run per field, the
    # convention alternating with m so that every q sees both
    word = OperatorWord(1, [D] * 5 + [TAU] * 5)
    convention = CONVENTIONS[params.m - 1]
    assert_same(normalize(word, params, convention),
                ref_normalize(word, params, convention))
