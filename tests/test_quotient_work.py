"""Work-count guards of the one quotient kernel.

The q-twisted step ``series._quotient(...).frobenius(1)`` and the direct
symbol quotient of the integer family, ``hyper._thakur_quotient`` (t_0 of
its stream, and the t side of ``thakur_correspondence``), each run one
pass of ``series._quotient`` for any factors: exact or truncated, several
to a side, with terms or without.  Neither multiplies factors out, divides
through ``PerfSeries.divide`` or truncates a factor, which is what a
multiply-then-divide path would do.  The values are checked against the
oracles in ``test_quotient_kernel`` and ``test_symbol_quotient``.  The
precision of a product of k factors, ``series._product_prec``, takes a
number of additions linear in k.
"""

from fractions import Fraction
from itertools import product

import pytest

from carlitz import INF, PerfSeries, hyper
from carlitz.brackets import _factorial_factors, _thakur_factors
from carlitz.series import _product_prec
from test_quotient_kernel import KINDS, SHIPPED_FIELDS, outcome, twisted_step
from test_series_kernel import ref_make


def _series_calls(monkeypatch):
    """Count the calls of PerfSeries.__mul__, divide and truncate."""
    calls = []
    for name in ("__mul__", "divide", "truncate"):
        method = getattr(PerfSeries, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)
        monkeypatch.setattr(PerfSeries, name, counted)
    return calls


def _one_of_each_kind(params):
    """A series of each kind in test_quotient_kernel.KINDS, by name."""
    q = params.q
    return {"exact": ref_make(params, 0, {0: 1, 2: 1}, INF),
            "truncated": ref_make(params, 1, {q: 1, q + 1: 1}, Fraction(9, 2)),
            "zero-at-prec": ref_make(params, 0, {}, Fraction(3)),
            "monomial": ref_make(params, 0, {1: 1}, INF),
            "truncated-monomial": ref_make(params, 1, {1: 1}, Fraction(7, 2)),
            "exact-zero": ref_make(params, 0, {}, INF)}


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
@pytest.mark.parametrize("window", (None, 3, Fraction(7, 2)))
def test_twisted_step_builds_no_product_or_quotient(params, window, monkeypatch):
    kinds = _one_of_each_kind(params)
    assert sorted(kinds) == sorted(KINDS)
    series = list(kinds.values())
    truncated = kinds["truncated"]
    # every kind as c, as a numerator factor beside one without terms, and
    # as a denominator factor beside a second truncated one
    steps = [(c, [f, kinds["zero-at-prec"]], [g, truncated])
             for c, f, g in product(series, repeat=3)]
    steps += [(truncated, [f], [truncated, kinds["truncated-monomial"]])
              for f in series]
    calls = _series_calls(monkeypatch)
    results = [outcome(twisted_step, c, num, den, window) for c, num, den in steps]
    assert calls == []
    assert any(isinstance(r, PerfSeries) and r.terms for r in results)
    assert any(isinstance(r, PerfSeries) and not r.terms for r in results)
    assert any(isinstance(r, tuple) for r in results)


@pytest.mark.parametrize("params", SHIPPED_FIELDS, ids=repr)
@pytest.mark.parametrize("window", (None, 9))
def test_thakur_coeff_builds_no_product_or_quotient(params, window, monkeypatch):
    # negative alpha gives the factors of L as divisors, or a vanishing
    # symbol; the factors of the symbols and of D_m are built before
    # counting, as the library builds them once per call
    cases = [(alphas, betas, m) for alphas in ([-2], [-1], [0], [-1, -2])
             for betas in ([1], [1, 2]) for m in range(4)]
    factors = {(k, m): _thakur_factors(params, k, m)
               for alphas, betas, m in cases for k in alphas + betas}
    D = {m: _factorial_factors(params, m) for m in range(4)}
    monkeypatch.setattr(hyper, "_thakur_factors",
                        lambda params, k, m: factors[(k, m)])
    monkeypatch.setattr(hyper, "_factorial_factors", lambda params, m: D[m])
    calls = _series_calls(monkeypatch)
    for alphas, betas, m in cases:
        hyper._thakur_quotient(params, alphas, betas, m, window)
    assert calls == []


class _Counted(Fraction):
    """A Fraction whose sums and differences are logged in ``log`` and
    stay counted."""

    log = []

    def _logged(name):
        op = getattr(Fraction, name)

        def logged(self, other):
            _Counted.log.append(name)
            return _Counted(op(self, other))
        return logged

    __add__, __radd__, __sub__, __rsub__ = map(
        _logged, ("__add__", "__radd__", "__sub__", "__rsub__"))


class _Stub:
    """A truncated factor with valuation bound ``lb`` and precision ``prec``."""

    def __init__(self, lb, prec):
        self.lb, self.prec = _Counted(lb), _Counted(prec)

    def is_zero(self):
        return False

    def _val_lb(self):
        return self.lb


@pytest.mark.parametrize("k", (1, 2, 10, 60))
def test_product_precision_is_linear_in_the_factors(k, monkeypatch):
    monkeypatch.setattr(_Counted, "log", [])
    stubs = [_Stub(Fraction(i, 3), Fraction(5 * i + 7, 2) - i * i % 11)
             for i in range(k)]
    want = min(s.prec + sum(t.lb for t in stubs if t is not s) for s in stubs)
    _Counted.log.clear()
    assert _product_prec(stubs) == want
    assert len(_Counted.log) <= 3 * k
