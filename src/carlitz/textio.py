"""Text syntax for series and operator expressions.

Series literals are sums of terms ``c*x^e`` with an optional precision
marker ``O(x^e)``:

    x^2 + x
    g^3*x^(-1/2) + g*x + 1 + O(x^8)

Coefficients are integers over prime fields and powers ``g^j`` of the
canonical generator over extension fields.  Exponents are integers or
parenthesized rationals whose denominator must be a power of p (the
exponent lattice of the perfection).  Canonical printing uses ascending
exponents, drops zero terms, and prints an exact zero as ``0``.

Operator expressions combine ``tau``, ``d``, ``delta1`` ... ``deltaN``,
parenthesized series literals acting as scalars, ``*`` for composition,
``+``/``-``, and ``^k`` for repeated factors.  Parsing lowers an
expression to a sum of operator words (no rewriting happens here).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .ffield import FieldParams
from .series import INF, PerfSeries, _grid_depth

_TOKEN_RE = re.compile(r"""
    (?P<int>\d+)
  | (?P<name>[A-Za-z]\w*)
  | (?P<op>[\^*+\-()/,])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], (pos, pos + 1))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), (m.start(), m.end())))
        pos = m.end()
    tokens.append(("eof", "", (len(text), len(text))))
    return tokens


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError("expected %s, found %r" % (want, tok[1] or "end of input"),
                             tok[2])
        return tok

    def at(self, kind, value=None):
        tok = self.peek()
        return tok[0] == kind and (value is None or tok[1] == value)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def format_exponent(e: Fraction) -> str:
    e = Fraction(e)
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    if e.denominator == 1:
        return "(%d)" % e.numerator
    return "(%d/%d)" % (e.numerator, e.denominator)


def _parse_exponent(cur: _Cursor, params: FieldParams) -> Fraction:
    if cur.at("int"):
        tok = cur.next()
        return Fraction(int(tok[1]))
    tok = cur.expect("op", "(")
    sign = 1
    if cur.at("op", "-"):
        cur.next()
        sign = -1
    num_tok = cur.expect("int")
    num = sign * int(num_tok[1])
    den = 1
    den_tok = None
    if cur.at("op", "/"):
        cur.next()
        den_tok = cur.expect("int")
        den = int(den_tok[1])
        if den == 0:
            raise ParseError("zero exponent denominator", den_tok[2])
    cur.expect("op", ")")
    d = den
    while d % params.p == 0:
        d //= params.p
    if d != 1:
        raise ParseError(
            "exponent denominator %d is not a power of q (token %r)"
            % (den, den_tok[1]), den_tok[2])
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def format_series(s: PerfSeries) -> str:
    params = s.params
    parts = []
    for e, c in s.items():
        cs = params.coeff_str(c.idx)
        if e == 0:
            parts.append(cs)
        else:
            xpart = "x" if e == 1 else "x^" + format_exponent(e)
            parts.append(xpart if cs == "1" else "%s*%s" % (cs, xpart))
    if s.prec != INF:
        parts.append("O(x^%s)" % format_exponent(Fraction(s.prec)))
    if not parts:
        return "0"
    return " + ".join(parts)


def _parse_coefficient(cur: _Cursor, params: FieldParams) -> int:
    """Returns a coefficient index; accepts INT or g / g^j."""
    if cur.at("int"):
        tok = cur.next()
        return params.from_int(int(tok[1]))
    tok = cur.expect("name")
    if tok[1] != "g":
        raise ParseError("unknown coefficient symbol %r" % tok[1], tok[2])
    if params.deg == 1:
        raise ParseError("generator g is only defined over extension fields",
                         tok[2])
    j = 1
    if cur.at("op", "^"):
        cur.next()
        jtok = cur.expect("int")
        j = int(jtok[1])
    return params.pow_int(params.gen_idx, j)


def _parse_series_term(cur: _Cursor, params: FieldParams):
    """One term; returns (exponent, coeff_idx) or ('prec', bound)."""
    if cur.at("name", "O"):
        cur.next()
        cur.expect("op", "(")
        cur.expect("name", "x")
        e = Fraction(1)
        if cur.at("op", "^"):
            cur.next()
            e = _parse_exponent(cur, params)
        cur.expect("op", ")")
        return ("prec", e)
    if cur.at("name", "x"):
        cur.next()
        e = Fraction(1)
        if cur.at("op", "^"):
            cur.next()
            e = _parse_exponent(cur, params)
        return (e, params.one_idx)
    coeff = _parse_coefficient(cur, params)
    if cur.at("op", "*"):
        cur.next()
        tok = cur.expect("name")
        if tok[1] != "x":
            raise ParseError("expected x after '*'", tok[2])
        e = Fraction(1)
        if cur.at("op", "^"):
            cur.next()
            e = _parse_exponent(cur, params)
        return (e, coeff)
    return (Fraction(0), coeff)


def parse_series(text: str, params: FieldParams) -> PerfSeries:
    """Parse a series literal; informative ParseError on malformed input."""
    cur = _Cursor(text)
    result = _parse_series_expr(cur, params)
    cur.expect("eof")
    return result


def _parse_series_expr(cur: _Cursor, params: FieldParams) -> PerfSeries:
    acc = PerfSeries.zero(params)
    prec = INF
    sign = 1
    if cur.at("op", "-"):
        cur.next()
        sign = -1
    while True:
        item = _parse_series_term(cur, params)
        if item[0] == "prec":
            prec = min(prec, item[1])
        else:
            e, c = item
            if sign < 0:
                c = params.neg(c)
            acc = acc + _mono(params, e, c)
        if cur.at("op", "+"):
            cur.next()
            sign = 1
        elif cur.at("op", "-"):
            cur.next()
            sign = -1
        else:
            break
    return acc.truncate(prec) if prec != INF else acc


def _mono(params, e: Fraction, idx: int) -> PerfSeries:
    if idx == 0:
        return PerfSeries.zero(params)
    k = _grid_depth(e, params.q)
    return PerfSeries._make(params, k, {int(e * params.q ** k): idx}, INF)


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

_DELTA_RE = re.compile(r"delta(\d+)$")


def parse_operator(text: str, params: FieldParams, n: int):
    """Parse an operator expression into a list of OperatorWord.

    Each word is a product of generators and scalar factors; sums are
    returned as separate words (no normalization is performed).
    """
    from .opring import OperatorWord, scalar_factor, TAU, D, delta
    cur = _Cursor(text)

    def parse_expr():
        words = []
        sign = 1
        if cur.at("op", "-"):
            cur.next()
            sign = -1
        words.extend(_signed(parse_prod(), sign))
        while cur.at("op", "+") or cur.at("op", "-"):
            sig = 1 if cur.next()[1] == "+" else -1
            words.extend(_signed(parse_prod(), sig))
        return words

    def _signed(words, sign):
        if sign == 1:
            return words
        minus = scalar_factor(PerfSeries.constant(params, -1))
        return [(minus,) + w for w in words]

    def parse_prod():
        words = parse_pow()
        while cur.at("op", "*"):
            cur.next()
            rhs = parse_pow()
            words = [w1 + w2 for w1 in words for w2 in rhs]
        return words

    def parse_pow():
        base = parse_atom()
        if cur.at("op", "^"):
            cur.next()
            etok = cur.expect("int")
            k = int(etok[1])
            out = [()]
            for _ in range(k):
                out = [w1 + w2 for w1 in out for w2 in base]
            return out
        return base

    def parse_atom():
        tok = cur.peek()
        if cur.at("op", "("):
            cur.next()
            inner = parse_expr()
            cur.expect("op", ")")
            return inner
        if tok[0] == "name":
            m = _DELTA_RE.match(tok[1])
            if tok[1] == "tau":
                cur.next()
                return [(TAU,)]
            if tok[1] == "d":
                cur.next()
                return [(D,)]
            if m:
                cur.next()
                j = int(m.group(1))
                if not 1 <= j <= n:
                    raise ParseError(
                        "generator index %d out of range 1..%d" % (j, n), tok[2])
                return [(delta(j),)]
            if tok[1] in ("x", "g", "O"):
                item = _parse_series_term(cur, params)
                if item[0] == "prec":
                    s = PerfSeries.zero(params).truncate(item[1])
                else:
                    s = _mono(params, item[0], item[1])
                return [(scalar_factor(s),)]
            raise ParseError("unknown generator %r" % tok[1], tok[2])
        if tok[0] == "int":
            cur.next()
            return [(scalar_factor(PerfSeries.constant(params, int(tok[1]))),)]
        raise ParseError("expected an operator atom, found %r"
                         % (tok[1] or "end of input"), tok[2])

    words = parse_expr()
    cur.expect("eof")
    from .opring import OperatorWord
    return [OperatorWord(n, w) for w in words]


def format_operator_word(word) -> str:
    from .opring import FACTOR_TAU, FACTOR_D, FACTOR_DELTA
    if not word.factors:
        return "1"
    parts = []
    for f in word.factors:
        kind = f[0]
        if kind == FACTOR_TAU:
            parts.append("tau")
        elif kind == FACTOR_D:
            parts.append("d")
        elif kind == FACTOR_DELTA:
            parts.append("delta%d" % f[1])
        else:
            parts.append("(%s)" % format_series(f[1]))
    return "*".join(parts)


def format_operator_words(words) -> str:
    if not words:
        return "0"
    return " + ".join(format_operator_word(w) for w in words)


# ---------------------------------------------------------------------------
# field-config headers (shared by the file formats)
# ---------------------------------------------------------------------------

def format_field_header(params: FieldParams):
    return [
        "p %d" % params.p,
        "v %d" % params.v,
        "m %d" % params.m,
        "modulus %s" % ",".join(str(c) for c in params.modulus),
    ]


def parse_field_header(fields: dict) -> FieldParams:
    p, v, m = (_read_int(fields.get(k), "field-config key %r" % k)
               for k in ("p", "v", "m"))
    modulus = None
    if "modulus" in fields:
        modulus = tuple(_read_int(c, "modulus coefficient")
                        for c in fields["modulus"].split(","))
    return FieldParams(p, v, m, modulus)


def _read_int(text, what: str) -> int:
    """The integer written in ``text`` (None for a missing file key); a
    ParseError naming ``what`` otherwise."""
    if text is None:
        raise ParseError("missing %s" % what)
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s is not an integer: %r" % (what, text)) from None
