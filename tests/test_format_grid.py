"""The series printer reads the exponent grid.

``textio.format_series`` writes each term from the integer key k of
exponent k / q^dexp: lowest terms by one gcd, the constant term at
k == 0 and a bare ``x`` at k == q^dexp.  Its oracle is the printer it
replaced, ``oracles.ref_format_series``, which read every term through
``PerfSeries.items()`` as a Fraction and an FFElement.  Both must give the
same text over the 12 shipped fields, for grids of depth 0-3, negative,
zero and unit exponents, exact, truncated, zero-at-precision and
exact-zero series, precisions on the grid, on a finer q-power grid and
off it, and coefficients of extension fields.  Every printed series
parses back to itself, precision included.  The work test checks that
printing a Cauchy solution builds no item and no Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import INF, PerfSeries, series, textio
from carlitz.cauchy import cauchy_solve, parse_problem
from carlitz.textio import format_exponent, format_series, parse_series
from cli_golden import PERFBENCH_DATA
from oracles import assert_same, ref_format_exponent, ref_format_series
from test_quotient_kernel import SHIPPED_FIELDS

KINDS = ("exact", "truncated", "zero-at-prec", "exact-zero")


@st.composite
def grid_series(draw):
    """(params, dexp, terms, prec): integer keys on the grid q^dexp, with
    the constant term, x, 1/x and the least grid steps drawn often, and a
    precision above the top key whose denominator is the grid's, a finer
    q-power's, 1 or prime to p."""
    params = draw(st.sampled_from(SHIPPED_FIELDS))
    kind = draw(st.sampled_from(KINDS))
    dexp = draw(st.integers(0, 3))
    scale = params.q ** dexp
    keys = []
    if kind in ("exact", "truncated"):
        key = st.one_of(st.sampled_from((0, scale, -scale, 1, -1)),
                        st.integers(-3 * scale, 4 * scale))
        keys = draw(st.lists(key, min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.integers(1, params.Q - 1),
                           min_size=len(keys), max_size=len(keys)))
    prec = INF
    if kind in ("truncated", "zero-at-prec"):
        den = draw(st.sampled_from((1, scale, scale * params.q,
                                    7 if params.p != 7 else 11)))
        top = Fraction(max(keys), scale) if keys else Fraction(-3)
        prec = top + Fraction(draw(st.integers(1, 12)), den)
    return params, dexp, dict(zip(keys, coeffs)), prec


@settings(max_examples=400, deadline=None, derandomize=True)
@given(grid_series())
def test_format_series_matches_the_items_printer(drawn):
    params, dexp, terms, prec = drawn
    s = PerfSeries._make(params, dexp, terms, prec)
    assert format_series(s) == ref_format_series(s)
    # a low-level series may sit on a finer grid than it needs
    raw = PerfSeries(params, dexp, terms, prec)
    assert format_series(raw) == ref_format_series(raw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_series())
def test_a_printed_series_parses_back_to_itself(drawn):
    params, dexp, terms, prec = drawn
    s = PerfSeries._make(params, dexp, terms, prec)
    assert_same(parse_series(format_series(s), params), s)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50),
              st.one_of(st.integers(1, 12), st.sampled_from((16, 27, 81, 125))))))
def test_format_exponent_matches_the_fraction_rule(e):
    assert format_exponent(e) == ref_format_exponent(e)


# ---------------------------------------------------------------------------
# work: printing reads the grid
# ---------------------------------------------------------------------------

@pytest.fixture
def items_calls(monkeypatch):
    """The calls of ``PerfSeries.items`` from here on, as a one-element
    list."""
    count = [0]
    items = PerfSeries.items

    def counting(self):
        count[0] += 1
        return items(self)

    monkeypatch.setattr(PerfSeries, "items", counting)
    return count


@pytest.fixture
def fractions_built(monkeypatch):
    """The Fractions that carlitz.series and carlitz.textio construct from
    here on, as a one-element list."""
    count = [0]

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            count[0] += 1
            return Fraction(*args, **kwargs)

    for module in (series, textio):
        monkeypatch.setattr(module, "Fraction", Counting)
    return count


def test_printing_a_solution_reads_no_items_and_builds_no_fraction(
        items_calls, fractions_built):
    text = (PERFBENCH_DATA / "problem_n3.txt").read_text()
    u = cauchy_solve(*parse_problem(text))
    assert any(c.prec is not INF for c in u.coeffs.values())
    items_calls[0] = fractions_built[0] = 0
    printed = u.to_text()
    assert items_calls[0] == 0
    assert fractions_built[0] == 0
    assert printed.count("O(x^") == sum(c.prec is not INF for c in u.coeffs.values())
