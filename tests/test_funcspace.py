import random

import pytest

from carlitz import (FieldParams, ParameterMismatchError, PerfSeries,
                     UsageError, bracket, carlitz_D)
from carlitz.funcspace import LinearSeries, MultiFunction
from carlitz import sampling


def one_slot(params, n, key, value, tm=4, ti=4):
    return MultiFunction(params, n, tm, ti, {key: value})


# ---------------------------------------------------------------------------
# generator actions on single slots
# ---------------------------------------------------------------------------

def test_tau_on_z(F2):
    # z = 1 * z^(q^0)/D_0; tau z = z^q = [1] * z^q/D_1
    z = one_slot(F2, 1, (0, 0), PerfSeries.one(F2))
    t = z.apply_tau()
    assert t.coefficient(1, 1) == bracket(F2, 1)
    assert len(t.coeffs) == 1


def test_tau_of_zero(F3):
    z = MultiFunction.zero(F3, 2, 3, 3)
    assert z.apply_tau() == z


def test_tau_matches_value_frobenius(F3, rng):
    f = sampling.random_multifunction(rng, F3, 1, 3, 3)
    z = PerfSeries.monomial(F3, 2, 2)
    s = PerfSeries.monomial(F3, 3, 1)
    lhs = f.apply_tau().evaluate(z, [s])
    rhs = f.evaluate(z, [s]).frobenius(1)
    assert lhs == rhs


def test_delta_kills_index_zero(F2):
    f = one_slot(F2, 1, (0, 0), PerfSeries.one(F2))
    assert f.apply_delta(1).is_zero_on_box()


def test_delta_eigenvalue(F2):
    f = one_slot(F2, 1, (0, 2), PerfSeries.one(F2))
    d = f.apply_delta(1)
    assert d.coefficient(0, 2) == bracket(F2, 2)


def test_delta_commutes_with_scalars(F3, rng):
    f = sampling.random_multifunction(rng, F3, 2, 3, 3)
    c = sampling.random_series(rng, F3)
    assert f.scale(c).apply_delta(2) == f.apply_delta(2).scale(c)


def test_delta_out_of_range(F2, rng):
    f = sampling.random_multifunction(rng, F2, 1, 2, 2)
    with pytest.raises(UsageError):
        f.apply_delta(2)


def test_d_shifts_slots(F2):
    sigma = PerfSeries.from_terms(F2, {2: 1, 3: 1})
    f = one_slot(F2, 1, (1, 1), sigma)
    d = f.apply_d()
    assert d.coefficient(0, 0) == sigma.frobenius(-1)
    assert d.trunc_m == 3 and d.trunc_i == 3


def test_d_kills_bottom_layer(F2):
    z = one_slot(F2, 1, (0, 0), PerfSeries.one(F2))
    assert z.apply_d().is_zero_on_box()


def test_d_twists_scalars(F3, rng):
    f = sampling.random_multifunction(rng, F3, 1, 4, 4)
    lam = sampling.random_series(rng, F3)
    assert f.scale(lam).apply_d() == f.apply_d().scale(lam.frobenius(-1))


# ---------------------------------------------------------------------------
# commutation identities on random functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_commutators(q):
    params = FieldParams.default(q)
    rng = random.Random(q * 17)
    root = bracket(params, 1).frobenius(-1)
    for _ in range(8):
        n = rng.randint(1, 2)
        f = sampling.random_multifunction(rng, params, n, 4, 4)
        j = rng.randint(1, n)
        assert (f.apply_tau().apply_d() - f.apply_d().apply_tau()
                == f.scale(root))
        assert (f.apply_delta(j).apply_d() - f.apply_d().apply_delta(j)
                == f.apply_d().scale(root))
        assert (f.apply_tau().apply_delta(j) - f.apply_delta(j).apply_tau()
                == f.apply_tau().scale(bracket(params, 1)))
        # Delta in z is tau after d
        assert f.apply_d().apply_tau() == f.apply_delta_z()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_zero_function(F2):
    f = MultiFunction.zero(F2, 1, 3, 3)
    assert f.evaluate(PerfSeries.x(F2), [PerfSeries.x(F2)]).is_zero()


def test_evaluate_at_z_zero(F3, rng):
    f = sampling.random_multifunction(rng, F3, 1, 3, 3)
    s = PerfSeries.monomial(F3, 1, 1)
    assert f.evaluate(PerfSeries.zero(F3), [s]).is_zero()


def test_evaluate_is_additive_and_linear(F2, rng):
    f = sampling.random_multifunction(rng, F2, 1, 3, 3)
    g = sampling.random_multifunction(rng, F2, 1, 3, 3)
    z = PerfSeries.monomial(F2, 2, 1)
    s = PerfSeries.monomial(F2, 1, 1)
    assert (f + g).evaluate(z, [s]) == f.evaluate(z, [s]) + g.evaluate(z, [s])
    lam = sampling.random_series(rng, F2)
    assert f.scale(lam).evaluate(z, [s]) == lam * f.evaluate(z, [s])


def test_evaluate_divides_by_factorial_exactly(F2):
    f = one_slot(F2, 1, (2, 2), carlitz_D(F2, 2))
    z = PerfSeries.x(F2)
    s = PerfSeries.x(F2)
    # coefficient D_2 cancels against the basis denominator exactly
    assert f.evaluate(z, [s]) == z.frobenius(2) * s.frobenius(2)


def test_evaluate_params_mismatch(F2, F3, rng):
    f = sampling.random_multifunction(rng, F2, 1, 2, 2)
    with pytest.raises(ParameterMismatchError):
        f.evaluate(PerfSeries.x(F3), [PerfSeries.x(F3)])


# ---------------------------------------------------------------------------
# structure: boxes, support, serialization
# ---------------------------------------------------------------------------

def test_support_shape_enforced(F2):
    with pytest.raises(UsageError):
        MultiFunction(F2, 1, 3, 3, {(2, 1): PerfSeries.one(F2)})
    with pytest.raises(UsageError):
        MultiFunction(F2, 2, 3, 3, {(0, 1): PerfSeries.one(F2)})


def test_coefficient_refuses_a_wrong_index_count(F2):
    # a slot of an n = 2 function has m and two s-indices, as evaluate
    # takes two s-arguments; a shorter or longer tuple names no slot
    f = one_slot(F2, 2, (0, 0, 0), PerfSeries.x(F2))
    assert f.coefficient(0, 0, 0) == PerfSeries.x(F2)
    for ivec in ((), (0,), (0, 0, 0)):
        with pytest.raises(UsageError, match="expected 2 s-indices"):
            f.coefficient(0, *ivec)


def test_coefficient_refuses_the_keys_the_constructor_refuses(F2):
    # a key that names no basis monomial is refused, not read as zero
    x = PerfSeries.x(F2)
    f = MultiFunction(F2, 1, 4, 4, {(0, 1): x})
    for key, reason in (((-1, 0), "negative index in key"),
                        ((0, -3), "negative index in key"),
                        ((2, 1), "violates m <= min")):
        with pytest.raises(UsageError, match=reason):
            MultiFunction(F2, 1, 4, 4, {key: x})
        with pytest.raises(UsageError, match=reason):
            f.coefficient(*key)
    assert f.coefficient(0, 1) == x and f.coefficient(1, 1).is_zero()


def test_equality_on_common_box(F2):
    a = one_slot(F2, 1, (0, 1), PerfSeries.one(F2), tm=4, ti=4)
    extra = dict(a.coeffs)
    extra[(3, 3)] = PerfSeries.x(F2)
    b = MultiFunction(F2, 1, 2, 2, dict(a.coeffs))
    c = MultiFunction(F2, 1, 4, 4, extra)
    assert b == c  # the (3,3) slot is outside the common box
    assert a != c


def test_serialization_roundtrip(rng):
    for q, m in [(2, 1), (3, 1), (4, 2)]:
        params = FieldParams.default(q, m)
        f = sampling.random_multifunction(rng, params, 2, 3, 3)
        text = f.to_text()
        g = MultiFunction.from_text(text)
        assert g == f
        assert g.trunc_m == f.trunc_m and g.n == f.n
        assert g.to_text() == text


# ---------------------------------------------------------------------------
# one-variable series
# ---------------------------------------------------------------------------

def test_linear_series_delta_is_tau_after_d(F3, rng):
    coeffs = {k: sampling.random_series(rng, F3, terms=(1, 2))
              for k in range(4)}
    u = LinearSeries(F3, coeffs, known=3)
    assert u.d().tau() == u.delta()


def test_linear_series_known_tracking(F2, rng):
    coeffs = {k: sampling.random_series(rng, F2) for k in range(4)}
    u = LinearSeries(F2, coeffs, known=3)
    assert u.tau().known == 4
    assert u.d().known == 2
    assert (u.tau() - u.tau()).is_zero_on_known()


def test_linear_series_evaluate_matches_sum(F2):
    u = LinearSeries(F2, {0: PerfSeries.one(F2), 2: PerfSeries.x(F2)}, None)
    t = PerfSeries.monomial(F2, 3, 1)
    expected = t + PerfSeries.x(F2) * t.frobenius(2)
    assert u.evaluate(t) == expected


def test_file_headers_may_separate_key_and_value_by_tabs(F2):
    from carlitz.cauchy import (InitialData, format_problem,
                                hypergeometric_equation, parse_problem)
    f = MultiFunction(F2, 1, 3, 3, {(0, 1): PerfSeries.one(F2)})
    text = f.to_text()
    tabbed = text.replace("p 2\n", "p\t2\n").replace("truncM 3", "truncM\t 3")
    assert tabbed != text
    assert MultiFunction.from_text(tabbed) == f
    eq = hypergeometric_equation(F2, [PerfSeries.x(F2)], [PerfSeries.one(F2)])
    problem = format_problem(eq, InitialData.delta(F2, 1), 2, 2)
    tabbed = problem.replace("modulus 0,1", "modulus\t0,1").replace("n 1", "n\t1")
    assert tabbed != problem
    assert format_problem(*parse_problem(tabbed)) == problem
