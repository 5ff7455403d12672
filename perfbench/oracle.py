"""Output oracle: compares outputs with reference outputs of the seed commit.

The rule follows precision tracking for p-adic computations (Caruso, Roe,
Vaccon, "Tracking p-adic precision", 2014): a series result may gain
precision but never lose it.  A series passes when it agrees with its
reference on every exponent below the smaller of the two precisions and its
own precision is not lower than the reference's.  Every non-series value
must be byte-identical.

Series are compared as printed text (the library's canonical format), which
this module parses on its own, so the oracle does not trust the code it
checks.
"""

from __future__ import annotations

import json
from fractions import Fraction

INF = None  # exact series: no precision bound


def _parse_exponent(text: str) -> Fraction:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return Fraction(text)


def parse_series_text(text: str):
    """Parse canonical series text into ({exponent: coefficient}, prec).

    ``prec`` is None for an exact series.  Coefficients stay as their text
    ("1", "2", "g^3"), which identifies a field element uniquely.
    """
    text = text.strip()
    terms = {}
    prec = INF
    if text == "0":
        return terms, prec
    for part in text.split(" + "):
        if part.startswith("O(x^") and part.endswith(")"):
            prec = _parse_exponent(part[4:-1])
            continue
        if "x" not in part:
            coeff, exponent = part, Fraction(0)
        else:
            coeff, _, xpart = part.rpartition("*")
            coeff = coeff or "1"
            if xpart == "x":
                exponent = Fraction(1)
            elif xpart.startswith("x^"):
                exponent = _parse_exponent(xpart[2:])
            else:
                raise ValueError("bad series term %r" % part)
        if exponent in terms:
            raise ValueError("repeated exponent in %r" % text)
        terms[exponent] = coeff
    return terms, prec


def agree_series(a: str, b: str):
    """None when two series agree below the smaller of their precisions,
    else a reason.  Neither precision is preferred."""
    try:
        a_terms, a_prec = parse_series_text(a)
        b_terms, b_prec = parse_series_text(b)
    except ValueError as exc:
        return "unparsable series: %s" % exc
    bounds = [p for p in (a_prec, b_prec) if p is not INF]
    bound = min(bounds) if bounds else INF
    for e in sorted(set(a_terms) | set(b_terms)):
        if bound is not INF and e >= bound:
            continue
        if a_terms.get(e, "0") != b_terms.get(e, "0"):
            return "coefficient of x^%s: %s, reference %s" % (
                e, a_terms.get(e, "0"), b_terms.get(e, "0"))
    return None


def compare_series(new: str, ref: str):
    """None when ``new`` passes against the reference ``ref``, else a
    reason: equal below the common precision, precision not lower."""
    try:
        _, new_prec = parse_series_text(new)
        _, ref_prec = parse_series_text(ref)
    except ValueError as exc:
        return "unparsable series: %s" % exc
    if ref_prec is INF and new_prec is not INF:
        return "precision lost: exact reference, O(x^%s) result" % new_prec
    if ref_prec is not INF and new_prec is not INF and new_prec < ref_prec:
        return "precision lost: O(x^%s) < O(x^%s)" % (new_prec, ref_prec)
    return agree_series(new, ref)


def compare_perffunc(new: str, ref: str):
    """Compare two PERFFUNC texts: coefficient lines by the series rule,
    every other line byte for byte."""
    new_lines = new.splitlines()
    ref_lines = ref.splitlines()
    if len(new_lines) != len(ref_lines):
        return "PERFFUNC has %d lines, reference %d" % (len(new_lines), len(ref_lines))
    for a, b in zip(new_lines, ref_lines):
        if a.startswith("coeff ") and b.startswith("coeff ") and " : " in a and " : " in b:
            head_a, body_a = a.split(" : ", 1)
            head_b, body_b = b.split(" : ", 1)
            if head_a != head_b:
                return "slot %r, reference %r" % (head_a, head_b)
            why = compare_series(body_a, body_b)
            if why:
                return "%s: %s" % (head_a, why)
        elif a != b:
            return "line %r, reference %r" % (a, b)
    return None


def compare_value(new, ref, kind: str):
    """Compare one value by kind: "series", "series_map" (dict of series),
    "perffunc", or "exact" (byte-identical JSON)."""
    if kind == "series":
        if not isinstance(new, str):
            return "expected series text, got %r" % (new,)
        return compare_series(new, ref)
    if kind == "series_map":
        if not isinstance(new, dict) or sorted(new) != sorted(ref):
            return "keys %r, reference %r" % (
                sorted(new) if isinstance(new, dict) else new, sorted(ref))
        for key in sorted(ref):
            why = compare_series(new[key], ref[key])
            if why:
                return "%s: %s" % (key, why)
        return None
    if kind == "perffunc":
        if not isinstance(new, str):
            return "expected PERFFUNC text, got %r" % (new,)
        return compare_perffunc(new, ref)
    if kind == "exact":
        a = json.dumps(new, sort_keys=True)
        b = json.dumps(ref, sort_keys=True)
        return None if a == b else "%s, reference %s" % (a, b)
    raise ValueError("unknown comparison kind %r" % kind)


def compare_record(new: dict, ref: dict, kinds: dict):
    """Compare two JSON objects field by field; fields not named in
    ``kinds`` must be byte-identical."""
    if sorted(new) != sorted(ref):
        return "fields %r, reference %r" % (sorted(new), sorted(ref))
    for key in sorted(ref):
        why = compare_value(new[key], ref[key], kinds.get(key, "exact"))
        if why:
            return "%s: %s" % (key, why)
    return None
