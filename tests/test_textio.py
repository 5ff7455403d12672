import random
from fractions import Fraction

import pytest

from carlitz import FieldParams, ParseError, PerfSeries, bracket
from carlitz.brackets import carlitz_D
from carlitz.opring import NormalForm, normalize
from carlitz.textio import (format_operator_words, format_series,
                            parse_operator, parse_series)
from carlitz import sampling


def test_parse_bracket_one(F2):
    assert parse_series("x^2 + x", F2) == bracket(F2, 1)


def test_parse_zero(F2):
    z = parse_series("0", F2)
    assert z.is_zero()


def test_parse_fractional_bracket(F2):
    assert parse_series("x^(1/2) + x", F2) == bracket(F2, -1)


def test_parse_precision_suffix(F3):
    s = parse_series("x + 2*x^2 + O(x^5)", F3)
    assert s.prec == 5


def test_parse_negative_exponent(F2):
    s = parse_series("x^(-3) + 1", F2)
    assert s.valuation() == -3


def test_parse_minus_joins_terms(F3):
    assert parse_series("x^3 - x", F3) == bracket(F3, 1)
    assert parse_series("-x", F3) == PerfSeries.monomial(F3, 1, -1)


def test_a_literal_is_built_in_one_pass(F2, F3, monkeypatch):
    # the 4096 terms of printed D_12 build one series, with no sum per term
    d12 = carlitz_D(F2, 12)
    text = format_series(d12)
    merges = []
    merge = PerfSeries._merge

    def counted(self, other, negate):
        merges.append((self, other))
        return merge(self, other, negate)
    monkeypatch.setattr(PerfSeries, "_merge", counted)
    parsed = parse_series(text, F2)
    assert not merges
    assert format_series(parsed) == text
    # repeated exponents add in F_Q, before the precision marker cuts
    assert parse_series("x + 2*x^2 + 2*x + x^2", F3).is_zero()
    assert parse_series("x + x + x^3 + O(x^3) + x^(1/2)", F2) == \
        PerfSeries.from_terms(F2, {Fraction(1, 2): 1}, prec=3)
    assert not merges


def test_parse_extension_coefficients():
    params = FieldParams.default(4)
    g = params.gen()
    s = parse_series("g^2*x + g*x^3 + 1", params)
    assert s.coefficient(1) == g ** 2
    assert s.coefficient(3) == g
    assert s.coefficient(0) == params.one()


def test_bad_denominator_names_token(F2):
    with pytest.raises(ParseError) as exc:
        parse_series("x^(1/3)", F2)
    assert "denominator 3" in str(exc.value)
    assert exc.value.span is not None


def test_bad_syntax_has_span(F2):
    with pytest.raises(ParseError) as exc:
        parse_series("x ^ ^ 2", F2)
    assert exc.value.span is not None
    with pytest.raises(ParseError):
        parse_series("x + y", F2)
    with pytest.raises(ParseError):
        parse_series("g*x", F2)  # no generator over the prime field


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (4, 2), (9, 1)])
def test_series_print_parse_roundtrip(q, m):
    params = FieldParams.default(q, m)
    rng = random.Random(q * 7 + m)
    for _ in range(25):
        s = sampling.random_series(rng, params, terms=(0, 5), lo=-3, hi=6,
                                   frac_depth=2, allow_zero=True)
        if rng.random() < 0.4:
            s = s.truncate(sampling.random_exponent(rng, params, 2, 9))
        assert parse_series(format_series(s), params) == s
        # a precision off the exponent grid prints and parses back as is
        off = s.truncate(Fraction(rng.randint(-9, 40), rng.choice((3, 5, 7, 10))))
        back = parse_series(format_series(off), params)
        assert back == off and back.prec == off.prec
        assert format_series(back) == format_series(off)


def test_precision_of_an_inverse_off_the_grid_parses_back(F3):
    inverse = (PerfSeries.one(F3) + PerfSeries.x(F3)).invert(window=Fraction(7, 2))
    text = format_series(inverse)
    assert text == "1 + 2*x + x^2 + 2*x^3 + O(x^(7/2))"
    assert format_series(parse_series(text, F3)) == text
    # a term's exponent keeps its Z[1/q] refusal
    with pytest.raises(ParseError, match=r"exponent denominator 2 is not a power of q \(token '2'\)"):
        parse_series("x^(1/2) + O(x^(7/2))", F3)


def test_term_exponent_is_checked_in_lowest_terms(F3):
    assert parse_series("x^(2/6)", F3) == parse_series("x^(1/3)", F3)
    assert parse_series("2*x^(-3/9) + x^(4/2)", F3) == parse_series(
        "2*x^(-1/3) + x^2", F3)
    # a denominator that is no power of q in lowest terms keeps its refusal
    for text, den, span in (("x^(1/6)", "6", (5, 6)), ("x^(3/6)", "6", (5, 6)),
                            ("2*x^(2/12)", "12", (7, 9))):
        with pytest.raises(ParseError) as exc:
            parse_series(text, F3)
        assert str(exc.value) == (
            "exponent denominator %s is not a power of q (token '%s') (at %d..%d)"
            % ((den, den) + span))
        assert exc.value.span == span


def test_canonical_printing_is_ascending_and_zero_free(F2):
    s = parse_series("x^3 + x + x^3", F2)  # char-2 cancellation
    assert format_series(s) == "x"
    assert format_series(PerfSeries.zero(F2)) == "0"
    truncated = PerfSeries.zero(F2, prec=Fraction(5, 2))
    assert format_series(truncated) == "O(x^(5/2))"


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

def test_parse_operator_commutator(F2):
    words = parse_operator("d*tau - tau*d", F2, 1)
    nf = normalize(words, F2)
    assert nf == NormalForm.scalar(F2, 1, bracket(F2, 1).frobenius(-1))


def test_parse_single_generator(F2):
    words = parse_operator("tau", F2, 1)
    assert len(words) == 1
    assert words[0].factors == (("tau",),)


def test_parse_gauss_type_factor(F2):
    words = parse_operator("(delta1 - (x^2+x))*d", F2, 1)
    nf = normalize(words, F2)
    byhand = (normalize(parse_operator("delta1*d", F2, 1), F2)
              - normalize(parse_operator("(x^2+x)*d", F2, 1), F2))
    assert nf == byhand
    # delta1*d rewrites into d*delta1 - [1]^(1/q) d, so three-term total
    root = bracket(F2, 1).frobenius(-1)
    expected = NormalForm(F2, 1, "standard", {
        (0, 1, 1): PerfSeries.one(F2),
        (0, 1, 0): -root - bracket(F2, 1),
    })
    assert nf == expected


def test_parse_operator_powers_and_indices(F3):
    words = parse_operator("delta2^2*tau^3", F3, 2)
    assert len(words) == 1
    assert len(words[0].factors) == 5
    with pytest.raises(ParseError):
        parse_operator("delta3", F3, 2)
    with pytest.raises(ParseError):
        parse_operator("sigma", F3, 1)


def test_operator_print_parse_roundtrip(F3):
    rng = random.Random(3)
    for _ in range(20):
        word = sampling.random_operator_word(rng, F3, 2, max_len=6)
        printed = format_operator_words([word])
        reparsed = parse_operator(printed, F3, 2)
        assert normalize(reparsed, F3) == normalize(word, F3)
