"""Differential tests of the PerfSeries product kernel.

The oracle below is the original schoolbook kernel, kept here and nowhere
else: Fraction precision bounds compared term by term, and coefficient
arithmetic through FieldParams.mul / FieldParams.add.  The library kernel
compares integer bounds ceil(prec * q^d) and reads the field tables
directly; every product, cut, equality and inverse must agree with the
oracle exactly: same terms, same dexp, same prec.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, FieldParams, PerfSeries
from carlitz import ffield
from carlitz.errors import CarlitzError
from carlitz.ffield import FFElement
from carlitz.series import DEFAULT_INVERT_WINDOW
from oracles import assert_same, window_of


# ---------------------------------------------------------------------------
# oracle: the schoolbook kernel with Fraction bounds
# ---------------------------------------------------------------------------

def ref_make(params, dexp, terms, prec):
    q = params.q
    if prec != INF:
        bound = prec * q ** dexp
        terms = {k: c for k, c in terms.items() if c != 0 and k < bound}
    else:
        terms = {k: c for k, c in terms.items() if c != 0}
    while dexp > 0 and all(k % q == 0 for k in terms):
        terms = {k // q: c for k, c in terms.items()}
        dexp -= 1
    if not terms:
        dexp = 0
    return PerfSeries(params, dexp, terms, prec)


def ref_add(a, b):
    d, ta, tb = a._aligned(b)
    out = dict(ta)
    for k, c in tb.items():
        if k in out:
            s = a.params.add(out[k], c)
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = c
    return ref_make(a.params, d, out, min(a.prec, b.prec))


def ref_field_mul(params, a, b):
    """Product in F_Q through the first Q - 1 entries of the exp table."""
    if a == 0 or b == 0:
        return 0
    return params._exp[(params._log[a] + params._log[b]) % (params.Q - 1)]


def ref_mul(a, b):
    prec = min(a.prec + b._val_lb(), b.prec + a._val_lb())
    d, ta, tb = a._aligned(b)
    params = a.params
    add = params.add

    def mul(x, y):
        return ref_field_mul(params, x, y)

    out = {}
    bound = prec * params.q ** d if prec != INF else None
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            k = ka + kb
            if bound is not None and k >= bound:
                continue
            c = mul(ca, cb)
            if k in out:
                s = add(out[k], c)
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = c
    return ref_make(params, d, out, prec)


def ref_eq(a, b):
    prec = min(a.prec, b.prec)
    d, ta, tb = a._aligned(b)
    if prec == INF:
        return ta == tb
    bound = prec * a.params.q ** d
    for k, c in ta.items():
        if k < bound and tb.get(k, 0) != c:
            return False
    for k, c in tb.items():
        if k < bound and ta.get(k, 0) != c:
            return False
    return True


def ref_invert(s, window=None):
    """The original invert, on the oracle's products, sums and cuts."""
    params = s.params
    q = params.q
    if not s.terms:
        raise ValueError("not invertible")
    v_scaled = min(s.terms)
    v = Fraction(v_scaled, q ** s.dexp)
    lead = s.terms[v_scaled]
    if len(s.terms) == 1 and s.prec == INF and window is None:
        return ref_make(params, s.dexp, {-v_scaled: params.inv(lead)}, INF)
    rel_in = INF if s.prec == INF else s.prec - v
    if window is None:
        rel_out = rel_in if rel_in != INF else Fraction(DEFAULT_INVERT_WINDOW)
    else:
        rel_out = min(Fraction(window), rel_in)
    if rel_out <= 0:
        raise ValueError("no known coefficients")
    inv_lead = params.inv(lead)
    u_terms = {k - v_scaled: ref_field_mul(params, c, inv_lead)
               for k, c in s.terms.items()}
    u = ref_make(params, s.dexp, u_terms, rel_out)
    u_poly = ref_make(params, u.dexp, dict(u.terms), INF)
    one = PerfSeries.one(params)
    y = one
    known = Fraction(min(k for k in u.terms if k > 0), q ** u.dexp) \
        if len(u.terms) > 1 else rel_out
    while known < rel_out:
        known = min(rel_out, known * 2)
        step = ref_add(y, ref_mul(y, ref_add(one, -ref_mul(u_poly, y))))
        cut = {k: c for k, c in step.terms.items()
               if Fraction(k, q ** step.dexp) < known}
        y = ref_make(params, step.dexp, cut, INF)
    final = {k: c for k, c in y.terms.items()
             if rel_out == INF or Fraction(k, q ** y.dexp) < rel_out}
    y = ref_make(params, y.dexp, final, rel_out)
    return y.scale(FFElement(params, inv_lead)).shift(-v)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

SHIPPED = [(q, m) for q in (2, 3, 4, 5, 8, 9) for m in (1, 2)]


def _field_without_add_table():
    """F_9 as q = 3, m = 2, built with the addition-table limit at 0, so
    that its table is the digit-sum view of large fields, which the
    kernels read as they read a stored table.  It is built against an
    empty configuration store, so it is a field object of its own and the
    stored F_9 keeps its stored table."""
    saved = ffield._ADD_TABLE_LIMIT, ffield._params_cache
    ffield._ADD_TABLE_LIMIT, ffield._params_cache = 0, {}
    try:
        return FieldParams(3, 1, 2)
    finally:
        ffield._ADD_TABLE_LIMIT, ffield._params_cache = saved


FIELDS = [FieldParams.default(q, m) for q, m in SHIPPED] + [_field_without_add_table()]


def test_fallback_field_has_no_add_table():
    # no stored rows, but the same sums, read the same way
    fallback, stored = FIELDS[-1], FieldParams.default(3, 2)
    assert not isinstance(fallback._add_table, list)
    assert all(isinstance(f._add_table, list) for f in FIELDS[:-1])
    assert all(fallback._add_table[a][b] == stored._add_table[a][b]
               for a in range(stored.Q) for b in range(stored.Q))


@st.composite
def precisions(draw, params, dexp):
    """INF, or a finite precision: on the grid q^-dexp (so that
    prec * q^dexp is an integer and a term can sit exactly on the bound),
    on a finer q-power grid, or with a denominator prime to p."""
    kind = draw(st.sampled_from(("inf", "grid", "fine", "other")))
    if kind == "inf":
        return INF
    num = draw(st.integers(-4, 30))
    if kind == "grid":
        return Fraction(num, params.q ** dexp)
    if kind == "fine":
        return Fraction(num, params.q ** (dexp + 1))
    return Fraction(num, 7 if params.p != 7 else 11)


@st.composite
def series(draw, params=None, min_terms=0):
    """A series in canonical form, built by the oracle's constructor.
    Exponents are drawn densely, so products collide and cancel."""
    if params is None:
        params = draw(st.sampled_from(FIELDS))
    dexp = draw(st.integers(0, 2))
    scale = params.q ** dexp
    keys = draw(st.lists(st.integers(-2 * scale, 4 * scale),
                         min_size=min_terms, max_size=8, unique=True))
    coeffs = draw(st.lists(st.integers(1, params.Q - 1),
                           min_size=len(keys), max_size=len(keys)))
    prec = draw(precisions(params, dexp))
    if prec != INF and keys and draw(st.booleans()):
        # put a term exactly on the bound: it must be cut
        bound = prec * scale
        if bound.denominator == 1:
            keys[0] = int(bound)
    return ref_make(params, dexp, dict(zip(keys, coeffs)), prec)


@st.composite
def pairs(draw):
    params = draw(st.sampled_from(FIELDS))
    return draw(series(params)), draw(series(params))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs())
def test_mul_matches_schoolbook(ab):
    a, b = ab
    assert_same(a * b, ref_mul(a, b))
    assert_same(b * a, ref_mul(b, a))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), st.data())
def test_make_matches_schoolbook(params, data):
    dexp = data.draw(st.integers(0, 2))
    scale = params.q ** dexp
    keys = data.draw(st.lists(st.integers(-3 * scale, 5 * scale),
                              max_size=10, unique=True))
    # zero coefficients included: _make drops them
    coeffs = data.draw(st.lists(st.integers(0, params.Q - 1),
                                min_size=len(keys), max_size=len(keys)))
    prec = data.draw(precisions(params, dexp))
    terms = dict(zip(keys, coeffs))
    if prec != INF and (prec * scale).denominator == 1:
        terms[int(prec * scale)] = 1
        terms[int(prec * scale) - 1] = 1
    assert_same(PerfSeries._make(params, dexp, dict(terms), prec),
                ref_make(params, dexp, dict(terms), prec))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs(), st.data())
def test_eq_matches_schoolbook(ab, data):
    a, b = ab
    assert (a == b) == ref_eq(a, b)
    # a perturbation on, just below or above the shared bound
    prec = data.draw(precisions(a.params, a.dexp).filter(lambda p: p != INF))
    c = a.truncate(prec)
    bound = c.prec * a.params.q ** c.dexp
    if bound.denominator == 1:
        for k in (int(bound) - 1, int(bound), int(bound) + 1):
            terms = dict(c.terms)
            terms[k] = a.params.add(terms.get(k, 0), 1)
            e = ref_make(a.params, c.dexp, terms, INF)
            assert (c == e) == ref_eq(c, e)
            assert (e == c) == ref_eq(e, c)
            assert (c == e) == (k >= bound)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(lambda f: series(f, min_terms=1)),
       st.sampled_from(("default", "prec", "window")), st.integers(1, 6))
def test_invert_matches_schoolbook(s, mode, size):
    if mode == "default" and s.params.q > 3:
        mode = "window"   # keep default windows (up to 32 units) to small q
    size = Fraction(size, 2)
    # an absolute precision P is asked for as the window P + val(s)
    window = {"default": None, "window": size, "prec": window_of(size, s)}[mode]
    try:
        want = ref_invert(s, window)
    except ValueError:
        with pytest.raises(CarlitzError):
            s.invert(window)
        return
    assert_same(s.invert(window), want)


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", FIELDS, ids=repr)
def test_cancellation_to_zero(params):
    # (x + c)(x - c) = x^2 - c^2: the cross terms cancel in every field
    c = FFElement(params, params.gen_idx)
    x = PerfSeries.x(params)
    a = x + PerfSeries.constant(params, c)
    b = x - PerfSeries.constant(params, c)
    got = a * b
    assert_same(got, ref_mul(a, b))
    assert sorted(got.terms) == [0, 2]
    # (x + c)(x - c + O(x^2)) = -c^2 + O(x^2): the x terms cancel below the bound
    u = b.truncate(2)
    got = a * u
    assert_same(got, ref_mul(a, u))
    assert sorted(got.terms) == [0] and got.prec == 2


def test_term_on_integer_bound_is_cut(F2):
    # prec = 3/2 on grid 2^1: the bound 3 is an integer, x^(3/2) is cut
    a = PerfSeries.from_terms(F2, {Fraction(1, 2): 1, 1: 1}, prec=Fraction(3, 2))
    b = PerfSeries.from_terms(F2, {0: 1, Fraction(1, 2): 1})
    got = a * b
    assert_same(got, ref_mul(a, b))
    assert got.prec == Fraction(3, 2)
    assert got.exponents() == [Fraction(1, 2)]
