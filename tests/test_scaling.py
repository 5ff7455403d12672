"""Scaling guards: each complexity claim as the growth of a work count.

Every case runs at three sizes, each double the last, and counts through
the module bindings: the calls of the quotient kernel ``_quotient`` and
the factors passed to it (numerator and denominator together), the
two-term factors built by ``brackets._two_term``, and the calls of
``PerfSeries.frobenius``.  Each size starts from an empty bracket cache,
so it counts every bracket it builds, whatever ran before.  Every count
may grow per doubling by at most the case's bound: ``LINEAR`` (2.2x) or
``QUADRATIC`` (4.2x).

* the exact ``hyper_series`` at M = 16 / 32 / 64 is linear: one
  q-twisted step per coefficient (48 / 96 / 192 factors over F_2);
* ``MultiFunction.evaluate`` of one slot at m = 4 / 8 / 16 is linear:
  one quotient over the m factors of D_m;
* ``hyper_series`` with a truncated parameter (F_2, a = x + O(x^5),
  b = 1 + x) at M = 16 / 32 / 64 is quadratic: every coefficient is a
  direct quotient over the factors of its symbols (408 / 1584 / 6240
  factors);
* ``thakur_correspondence(F2, [2], [3], M)`` at M = 8 / 16 / 32 is
  quadratic: the t side divides by the factors of every symbol at every
  index (160 / 508 / 1780 factors).

The last two grow about 3.9x and 3.5x per doubling, so ``LINEAR`` fails
them; folding the factors that cannot act (ROADMAP item 12) is what would
let them take it.  A change that wins a complexity class tightens its
bound here; no bound is loosened.
"""

from collections import Counter
from fractions import Fraction

import pytest

from carlitz import FieldParams, PerfSeries, brackets, cauchy, funcspace, hyper
from carlitz import series
from carlitz.funcspace import MultiFunction

LINEAR = 2.2
QUADRATIC = 4.2

F2 = FieldParams.default(2)
X = PerfSeries.x(F2)
ONE = PerfSeries.one(F2)


@pytest.fixture
def work(monkeypatch):
    """A Counter of the work counts, filled while the test runs."""
    counts = Counter()
    kernel, two_term = series._quotient, brackets._two_term
    frobenius = PerfSeries.frobenius

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

    for module in (series, brackets, hyper, funcspace, cauchy):
        monkeypatch.setattr(module, "_quotient", quotient)
    for module in (brackets, hyper):
        monkeypatch.setattr(module, "_two_term", counted_two_term)
    monkeypatch.setattr(PerfSeries, "frobenius", counted_frobenius)
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


CASES = {
    "exact_hyper_series": (_exact_hyper_series, (16, 32, 64), LINEAR),
    "one_slot_evaluate": (_one_slot_evaluate, (4, 8, 16), LINEAR),
    "truncated_hyper_series": (_truncated_hyper_series, (16, 32, 64), QUADRATIC),
    "thakur_correspondence": (_thakur_correspondence, (8, 16, 32), QUADRATIC),
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
    run, sizes, bound = CASES[case]
    counts = _counts(work, run, sizes)
    assert all(c["quotient"] and c["factors"] for c in counts)
    for small, large in zip(counts, counts[1:]):
        for name in ("quotient", "factors", "two_term", "frobenius"):
            assert large.get(name, 0) <= bound * small.get(name, 0), (
                case, name, small, large)


def test_the_counts_of_the_cases(work):
    # the figures the bounds are set against
    factors = {case: [c["factors"] for c in _counts(work, run, sizes)]
               for case, (run, sizes, _) in CASES.items()}
    assert factors == {"exact_hyper_series": [48, 96, 192],
                       "one_slot_evaluate": [6, 10, 18],
                       "truncated_hyper_series": [408, 1584, 6240],
                       "thakur_correspondence": [160, 508, 1780]}
