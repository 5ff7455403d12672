"""Scaling guards: each complexity claim as the growth of a work count.

Every case runs at three sizes and counts through the module bindings:
the calls of the quotient kernel ``_quotient`` and the factors passed to
it (numerator and denominator together), the passes of the long division
``_long_division`` and the terms they return, the two-term factors built by
``brackets._two_term``, the calls of ``bracket`` through every module
that binds it, the calls of ``PerfSeries.frobenius``, the term pairs of
the product kernel ``_product_terms``, the rewrites of
``opring._rewrite_pair`` and the calls of ``DeltaPoly.eval_at``.  Each
size starts from an empty bracket cache, so it counts every bracket it
builds, whatever ran before.  Each case bounds some of the counts; every
one of them is nonzero at every size and may grow from one size to the
next by at most the case's bound for it.

The kernel counts (quotient calls, factors, two-term factors, Frobenius
calls), the division counts (passes, division terms) and the bracket
calls of the series cases grow per doubling of the size by at most
``LINEAR`` (2.2x) or ``QUADRATIC`` (4.2x), or not at all (``CONSTANT``):

* the exact ``hyper_series`` at M = 16 / 32 / 64 is linear: one
  q-twisted step per coefficient (48 / 96 / 192 factors over F_2, one
  bracket a step and one for each parameter's T_down);
* ``MultiFunction.evaluate`` of one slot at m = 4 / 8 / 16 is linear:
  one quotient over the m factors of D_m.  At m = 8 and 16 every factor
  of D_m steps past the default window, so the quotient divides by none
  of them: its passes (4 / 0 / 0) and division terms (32 / 0 / 0) are
  pinned, not bounded, since a ratio bound needs a nonzero count;
* ``hyper_series`` with a truncated parameter (F_2, a = x + O(x^5),
  b = 1 + x) at M = 16 / 32 / 64 is linear too: it takes the same steps
  (48 / 96 / 192 factors), where the direct quotient at every index
  passed 408 / 1584 / 6240;
* ``thakur_correspondence(F2, [2], [3], M)`` at M = 8 / 16 / 32 builds
  a quadratic number of factors: the t side passes the factors of every
  symbol at every index (160 / 508 / 1780 factors).  Its passes are
  constant, 31 at every M: the factors shared by (2)_m, (3)_m and D_m
  cancel, and the rest step past the window and fold (ROADMAP item 12),
  where dividing by each took 107 / 339 / 1187 passes.  Building only
  the factors that act would make the factors linear too.

Two cases grow by a step of one in their size:

* ``normalize(d^k tau^k)`` over F_2 at k = 3 / 4 / 5, in each convention,
  bounds the rewrites (96 / 736 / 6145) and the product term pairs
  (112 / 1208 / 13816) by ``NORMALIZE_STEP`` (12x) per step of k; the
  pairs grow about 11x, while the normal form grows about 3x, which a
  closed-form left action (ROADMAP item 4) would follow;
* ``admissibility_check`` at i_max = 3 of
  ``hypergeometric_equation(F2, [a] * n, [b] * n, n)``, a = x^3 + x^(1/2),
  b = x^2 + x^5, whose Q no dominant term certifies, at n = 2 / 3 / 4,
  evaluates Q at every tuple: (i_max + 2)^n = 25 / 125 / 625 calls of
  ``eval_at``, bounded by i_max + 2 per step of n; a product certificate
  (ROADMAP item 5) would take n (i_max + 2).  It reads each of the
  i_max + 2 brackets once at every n, which is ``CONSTANT``.  The
  normalize cases read one bracket at every k, bounded by
  ``NORMALIZE_STEP`` too.

A change that wins a complexity class tightens its bound here; no bound
is loosened.
"""

from collections import Counter
from fractions import Fraction

import pytest

import carlitz
from carlitz import FieldParams, PerfSeries, brackets, cauchy, funcspace, hyper
from carlitz import opring, series
from carlitz.cauchy import DeltaPoly
from carlitz.funcspace import MultiFunction
from carlitz.opring import D, TAU, OperatorWord

CONSTANT = 1
LINEAR = 2.2
QUADRATIC = 4.2
NORMALIZE_STEP = 12
I_MAX = 3

#: the counts each kind of case bounds
KERNEL = ("quotient", "factors", "two_term", "frobenius")
DIVISION = ("passes", "division_terms")
REWRITING = ("rewrite_pair", "term_pairs")


def _bounded(bound, *names):
    """The bound per size step of each named count."""
    return dict.fromkeys(names, bound)


F2 = FieldParams.default(2)
X = PerfSeries.x(F2)
ONE = PerfSeries.one(F2)


@pytest.fixture
def work(monkeypatch):
    """A Counter of the work counts, filled while the test runs."""
    counts = Counter()
    kernel, two_term = series._quotient, brackets._two_term
    frobenius, eval_at = PerfSeries.frobenius, DeltaPoly.eval_at
    product_terms, rewrite_pair = series._product_terms, opring._rewrite_pair
    long_division, bracket = series._long_division, brackets.bracket

    def quotient(c, num, den, *args, **kwargs):
        counts["quotient"] += 1
        counts["factors"] += len(num) + len(den)
        return kernel(c, num, den, *args, **kwargs)

    def counted_two_term(*args):
        counts["two_term"] += 1
        return two_term(*args)

    def counted_frobenius(self, e):
        counts["frobenius"] += 1
        return frobenius(self, e)

    def counted_product_terms(params, ta, tb, bound):
        counts["term_pairs"] += len(ta) * len(tb)
        return product_terms(params, ta, tb, bound)

    def counted_long_division(*args):
        out = long_division(*args)
        counts["passes"] += 1
        counts["division_terms"] += len(out)
        return out

    def counted_bracket(*args):
        counts["bracket"] += 1
        return bracket(*args)

    def counted_rewrite_pair(*args):
        counts["rewrite_pair"] += 1
        return rewrite_pair(*args)

    def counted_eval_at(self, values):
        counts["eval_at"] += 1
        return eval_at(self, values)

    for module in (series, brackets, hyper, funcspace, cauchy):
        monkeypatch.setattr(module, "_quotient", quotient)
    for module in (brackets, hyper):
        monkeypatch.setattr(module, "_two_term", counted_two_term)
    monkeypatch.setattr(PerfSeries, "frobenius", counted_frobenius)
    monkeypatch.setattr(series, "_product_terms", counted_product_terms)
    monkeypatch.setattr(series, "_long_division", counted_long_division)
    for module in (carlitz, *vars(carlitz).values()):
        if getattr(module, "bracket", None) is bracket:
            monkeypatch.setattr(module, "bracket", counted_bracket)
    monkeypatch.setattr(opring, "_rewrite_pair", counted_rewrite_pair)
    monkeypatch.setattr(DeltaPoly, "eval_at", counted_eval_at)
    monkeypatch.setattr(F2, "bracket_cache", {})
    return counts


def _exact_hyper_series(M):
    a = PerfSeries.from_terms(F2, {Fraction(1, 2): 1, 3: 1})
    b = PerfSeries.from_terms(F2, {0: 1, 5: 1})
    hyper.hyper_series(hyper.HyperParams(F2, [a], [b]), M)


def _one_slot_evaluate(m):
    MultiFunction(F2, 1, m, m, {(m, m): ONE}).evaluate(X, [X])


def _truncated_hyper_series(M):
    hyper.hyper_series(hyper.HyperParams(F2, [X.truncate(5)], [ONE + X]), M)


def _thakur_correspondence(M):
    assert hyper.thakur_correspondence(F2, [2], [3], M).ok


def _normalize(convention):
    def run(k):
        opring.normalize(OperatorWord(0, [D] * k + [TAU] * k), F2, convention)
    return run


def _admissibility_scan(n):
    a = PerfSeries.from_terms(F2, {3: 1, Fraction(1, 2): 1})
    b = PerfSeries.from_terms(F2, {2: 1, 5: 1})
    eq = cauchy.hypergeometric_equation(F2, [a] * n, [b] * n, n)
    assert cauchy.admissibility_check(eq, I_MAX).status == "ok"


#: case: (run, sizes, the bound per size step of each count bounded)
CASES = {
    "exact_hyper_series": (_exact_hyper_series, (16, 32, 64),
                           _bounded(LINEAR, *KERNEL, *DIVISION, "bracket")),
    "one_slot_evaluate": (_one_slot_evaluate, (4, 8, 16),
                          _bounded(LINEAR, *KERNEL)),
    "truncated_hyper_series": (_truncated_hyper_series, (16, 32, 64),
                               _bounded(LINEAR, *KERNEL, *DIVISION, "bracket")),
    "thakur_correspondence": (_thakur_correspondence, (8, 16, 32),
                              {**_bounded(QUADRATIC, *KERNEL),
                               **_bounded(LINEAR, "frobenius", "bracket"),
                               **_bounded(CONSTANT, *DIVISION)}),
    "normalize_standard": (_normalize("standard"), (3, 4, 5),
                           _bounded(NORMALIZE_STEP, *REWRITING, "bracket")),
    "normalize_alt": (_normalize("alt"), (3, 4, 5),
                      _bounded(NORMALIZE_STEP, *REWRITING, "bracket")),
    "admissibility_scan": (_admissibility_scan, (2, 3, 4),
                           {"eval_at": I_MAX + 2, "bracket": CONSTANT}),
}


def _counts(work, run, sizes):
    """The work counts of ``run`` at each size."""
    out = []
    for size in sizes:
        work.clear()
        F2.bracket_cache.clear()
        run(size)
        out.append(dict(work))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_work_grows_within_its_bound(case, work):
    run, sizes, bounds = CASES[case]
    counts = _counts(work, run, sizes)
    assert all(c.get(name) for c in counts for name in bounds), (case, counts)
    for small, large in zip(counts, counts[1:]):
        for name, bound in bounds.items():
            assert large.get(name, 0) <= bound * small.get(name, 0), (
                case, name, small, large)


def test_the_counts_of_the_cases(work):
    # the figures the bounds are set against
    def figures(case, name):
        run, sizes, _ = CASES[case]
        return [c.get(name, 0) for c in _counts(work, run, sizes)]

    def table(name):
        return {case: figures(case, name)
                for case, (*_, bounds) in CASES.items() if name in bounds}
    assert table("factors") == {"exact_hyper_series": [48, 96, 192],
                                "one_slot_evaluate": [6, 10, 18],
                                "truncated_hyper_series": [48, 96, 192],
                                "thakur_correspondence": [160, 508, 1780]}
    assert table("passes") == {"exact_hyper_series": [21, 37, 69],
                               "truncated_hyper_series": [4, 4, 4],
                               "thakur_correspondence": [31, 31, 31]}
    assert table("division_terms") == {
        "exact_hyper_series": [160, 208, 304],
        "truncated_hyper_series": [21, 21, 21],
        "thakur_correspondence": [721, 721, 721]}
    assert figures("one_slot_evaluate", "passes") == [4, 0, 0]
    assert figures("one_slot_evaluate", "division_terms") == [32, 0, 0]
    assert table("bracket") == {"exact_hyper_series": [18, 34, 66],
                                "truncated_hyper_series": [18, 34, 66],
                                "thakur_correspondence": [12, 20, 36],
                                "normalize_standard": [1, 1, 1],
                                "normalize_alt": [1, 1, 1],
                                "admissibility_scan": [I_MAX + 2] * 3}
    for case in ("normalize_standard", "normalize_alt"):
        assert figures(case, "rewrite_pair") == [96, 736, 6145]
        assert figures(case, "term_pairs") == [112, 1208, 13816]
    assert figures("admissibility_scan", "eval_at") == [
        (I_MAX + 2) ** n for n in (2, 3, 4)]
