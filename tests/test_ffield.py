import hashlib
import itertools
import json
import pathlib
import time

import pytest

from carlitz import FieldParams, PerfSeries, UsageError, ffield
from carlitz.cauchy import (InitialData, format_problem, hypergeometric_equation,
                            parse_problem)
from carlitz.cli import _field_params, build_parser, main
from carlitz.ffield import DEFAULT_MODULI
from carlitz.funcspace import MultiFunction
from carlitz.textio import format_field_header, parse_field_header
from oracles import ref_is_irreducible

SHIPPED = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2),
           (8, 1), (8, 2), (9, 1), (9, 2)]


@pytest.mark.parametrize("q,m", SHIPPED)
def test_default_configs_construct(q, m):
    params = FieldParams.default(q, m)
    assert params.q == q
    assert params.Q == q ** m
    assert params.deg == params.v * m


@pytest.mark.parametrize("key,mod", sorted(DEFAULT_MODULI.items()))
def test_shipped_moduli_irreducible(key, mod):
    p, _ = key
    assert ref_is_irreducible(mod, p)


@pytest.mark.parametrize("p,deg", [(2, d) for d in range(1, 7)]
                         + [(3, d) for d in range(1, 5)]
                         + [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_modulus_accepted_iff_irreducible(p, deg):
    for low in itertools.product(range(p), repeat=deg):
        mod = low + (1,)
        if ref_is_irreducible(mod, p):
            assert FieldParams(p, deg, 1, mod).modulus == mod
        else:
            with pytest.raises(UsageError, match="reducible"):
                FieldParams(p, deg, 1, mod)


def test_reducible_modulus_refused_before_log_add_and_frobenius_tables():
    params = object.__new__(FieldParams)
    params.p, params.v, params.m = 2, 2, 1
    params.q, params.Q, params.deg = 4, 4, 2
    params.modulus = (1, 0, 1)  # (x + 1)^2
    with pytest.raises(UsageError, match=r"modulus \(1, 0, 1\) is reducible over F_2"):
        params._build_tables()
    for table in ("_log", "_add_table", "_frob"):
        assert not hasattr(params, table)


FIELD_TABLES = json.loads(
    (pathlib.Path(__file__).with_name("data") / "field_tables.json").read_text())


@pytest.mark.parametrize("q,m", SHIPPED)
def test_field_tables_are_pinned(q, m):
    # every printed g^j coefficient reads these tables
    params = FieldParams.default(q, m)
    blob = json.dumps([params.gen_idx, params._exp, params._log, params._neg,
                       params._add_table, params._frob])
    assert hashlib.sha256(blob.encode()).hexdigest() == FIELD_TABLES["%d,%d" % (q, m)]


def test_reducible_modulus_rejected():
    with pytest.raises(UsageError):
        FieldParams(2, 2, 1, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(UsageError):
        FieldParams(4, 1, 1)  # 4 is not prime
    with pytest.raises(UsageError):
        FieldParams(2, 1, 2, (1, 1))  # degree 1 != v*m = 2


def test_composite_p_refused_at_its_least_divisor(monkeypatch):
    # 2 * 524287, below the order limit: the prime cofactor is never reached
    drawn = []
    factors = ffield._prime_factors

    def recorded(n):
        for d in factors(n):
            drawn.append(d)
            yield d
    monkeypatch.setattr(ffield, "_prime_factors", recorded)
    with pytest.raises(UsageError, match="p must be prime"):
        FieldParams(2 * 524287, 1, 1)
    assert drawn == [2]


@pytest.fixture
def no_factoring(monkeypatch):
    def refused(n):
        raise AssertionError("factored %d" % n)
    monkeypatch.setattr(ffield, "_prime_factors", refused)


def test_field_above_the_order_limit_refused_before_factoring(no_factoring):
    with pytest.raises(UsageError, match="field order Q = p\\^\\(v\\*m\\) must be at most"):
        FieldParams(2 ** 61 - 1, 1, 1, (0, 1))
    with pytest.raises(UsageError, match="at most 1048576"):
        FieldParams(2, 21, 1)  # Q = 2^21 from a small p
    with pytest.raises(UsageError, match="at most 1048576"):
        FieldParams(3, 10 ** 9, 10 ** 9)  # Q is never computed


def test_cli_refuses_a_huge_p_as_usage(capsys, no_factoring):
    start = time.perf_counter()
    code = main(["--json", "--p", "2305843009213693951", "--v", "1", "bracket", "--n", "1"])
    assert time.perf_counter() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["reason"] == "usage"
    assert "must be at most 1048576" in payload["message"]


def test_every_shipped_field_is_within_the_order_limit():
    for (p, deg) in DEFAULT_MODULI:
        assert p ** deg <= ffield._FIELD_ORDER_LIMIT


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (9, 1), (4, 2), (9, 2)])
def test_field_axioms_exhaustive(q, m):
    params = FieldParams.default(q, m)
    Q = params.Q
    els = range(Q)
    add, mul, neg, inv = params.add, params.mul, params.neg, params.inv
    for a in els:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, inv(a)) == 1
    # spot-check associativity and distributivity on all pairs/triples
    # for the smallest fields, random triples otherwise
    import random
    rnd = random.Random(1)
    triples = ([(a, b, c) for a in els for b in els for c in els]
               if Q <= 9 else
               [(rnd.randrange(Q), rnd.randrange(Q), rnd.randrange(Q))
                for _ in range(500)])
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (8, 2), (9, 2), (5, 2)])
def test_frobenius_permutes_and_fixed_field(q, m):
    params = FieldParams.default(q, m)
    Q = params.Q
    seen = set()
    for a in range(Q):
        fa = params.frob(a, 1)
        seen.add(fa)
        # unique q-th root: frob(-1) inverts frob(1)
        assert params.frob(fa, -1) == a
        # x^Q = x for every element
        assert params.frob(a, m) == a
    assert len(seen) == Q
    # fixed field of the q-power map is exactly F_q
    fixed = [a for a in range(Q) if params.frob(a, 1) == a]
    assert len(fixed) == q


def test_every_element_satisfies_xQ_eq_x():
    params = FieldParams.default(4, 2)
    for a in range(params.Q):
        assert params.pow_int(a, params.Q) == a or a == 0
        # repeated powering form of the same statement
        b = a
        for _ in range(params.deg):
            b = params.pow_int(b, params.p)
        assert b == a


def test_generator_is_primitive():
    for q, m in [(2, 2), (3, 2), (4, 1), (5, 1), (9, 1)]:
        params = FieldParams.default(q, m)
        g = params.gen_idx
        order = 1
        cur = g
        while cur != 1:
            cur = params.mul(cur, g)
            order += 1
        assert order == params.Q - 1


def test_element_wrapper_arithmetic():
    params = FieldParams.default(4)
    g = params.gen()
    one = params.one()
    assert g * g * g == one  # F_4* has order 3
    assert (g + g) == params.zero()  # char 2
    assert g / g == one
    assert (g ** 2).frob(-1).frob(1) == g ** 2
    assert -one == one


def test_coeff_str_roundtrip_semantics():
    params = FieldParams.default(9)
    names = [params.coeff_str(i) for i in range(params.Q)]
    assert names[0] == "0"
    assert names[1] == "1"
    assert "g" in names
    assert len(set(names)) == params.Q


# ---------------------------------------------------------------------------
# one FieldParams per configuration read from text
# ---------------------------------------------------------------------------

def _header(params, **change):
    fields = dict(line.split(" ", 1) for line in format_field_header(params))
    fields.update(change)
    return fields


def _function_text(params):
    return MultiFunction(params, 1, 1, 1, {(0, 1): PerfSeries.x(params)}).to_text()


@pytest.mark.parametrize("q,m", SHIPPED)
def test_parsed_default_header_is_the_default_params(q, m):
    default = FieldParams.default(q, m)
    built = FieldParams(default.p, default.v, m)
    eq = hypergeometric_equation(built, [PerfSeries.x(built)], [PerfSeries.one(built)], 1)
    problem = format_problem(eq, InitialData.delta(built, 1), 2, 2)
    assert parse_problem(problem)[0].params is default
    assert MultiFunction.from_text(_function_text(built)).params is default
    without_modulus = _header(built)
    del without_modulus["modulus"]
    assert parse_field_header(without_modulus) is default


def test_headers_normalise_before_matching_a_shipped_configuration():
    base = {"p": "3", "v": "1", "m": "1"}
    assert parse_field_header(dict(base, modulus="3,1")) is FieldParams.default(3)
    assert parse_field_header(dict(base, modulus="0,2")) is FieldParams.default(3)  # made monic
    other = parse_field_header(dict(base, modulus="4,1"))
    assert other is FieldParams(3, 1, 1, (1, 1)) is not FieldParams.default(3)
    assert parse_field_header(dict(base, modulus="1,1")) is other


def test_direct_construction_returns_the_stored_object():
    assert FieldParams(2, 1, 1) is FieldParams(2, 1, 1)
    assert FieldParams(2, 1, 1) is FieldParams.default(2)
    assert FieldParams(3, 1, 2, (1, 0, 4)) is FieldParams.default(3, 2)  # reduced mod 3
    assert FieldParams(2, 1, 1, (1, 1)) is not FieldParams.default(2)


@pytest.mark.parametrize("fields", [
    {"p": "4", "v": "1", "m": "1"},
    {"p": "2", "v": "0", "m": "1"},
    {"p": "7", "v": "1", "m": "1"},
    {"p": "2", "v": "2", "m": "1", "modulus": "1,1"},
    {"p": "2", "v": "2", "m": "1", "modulus": "1,0,1"},
], ids=["composite-p", "v-zero", "no-shipped-modulus", "wrong-degree", "reducible"])
def test_parsed_header_refusals_match_direct_construction(fields):
    modulus = (tuple(int(c) for c in fields["modulus"].split(","))
               if "modulus" in fields else None)
    with pytest.raises(UsageError) as direct:
        FieldParams(int(fields["p"]), int(fields["v"]), int(fields["m"]), modulus)
    for _ in range(2):
        with pytest.raises(UsageError) as parsed:
            parse_field_header(fields)
        assert str(parsed.value) == str(direct.value)


def test_cli_field_flags_share_the_default_params():
    args = build_parser().parse_args(["--p", "3", "--v", "1", "--modulus", "0,1",
                                      "bracket", "--n", "1"])
    assert _field_params(args) is FieldParams.default(3)
