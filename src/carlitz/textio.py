"""Text syntax for series and operator expressions.

Series literals are sums of terms ``c*x^e`` with an optional precision
marker ``O(x^e)``:

    x^2 + x
    g^3*x^(-1/2) + g*x + 1 + O(x^8)

Coefficients are integers over prime fields and powers ``g^j`` of the
canonical generator over extension fields.  Exponents are integers or
parenthesized rationals.  A term's exponent must have a power of q as its
denominator (the exponent lattice of the perfection); the bound of a
precision marker may be any rational, as a series' precision may lie off
that lattice (``O(x^(7/2))`` over F_3), so every printed series parses
back.  A literal is read in one pass: its terms are gathered into one map,
repeated exponents added in F_Q, and the series is built once by
:meth:`PerfSeries.from_terms`, so an exact ``1`` reads as the field's unit
object.  Canonical printing uses ascending exponents, drops zero terms,
and prints an exact zero as ``0``.  It reads each term from the series'
integer grid, the key k standing for the exponent k / q^dexp, so no term
builds a Fraction: one gcd puts the exponent in lowest terms, by the rule
that also writes the bound of a precision marker.

Operator expressions combine ``tau``, ``d``, ``delta1`` ... ``deltaN``,
parenthesized series literals acting as scalars, ``*`` for composition,
``+``/``-``, and ``^k`` for repeated factors.  Parsing lowers an
expression to a sum of operator words (no rewriting happens here).

This module owns the file formats, ``PERFFUNC``, ``PERFPROBLEM`` and
``PERFHYPER`` (declared in :data:`FORMATS`) and the field-config file:
:func:`format_file` writes one, :func:`read_file` and :func:`parse_config`
read one, and no other module splits a file into lines.  One rule reads
every header line: a key and a value separated by whitespace.  The
field-config header (p, v, m, modulus) reads as the one FieldParams object
of its configuration, so parsed files share its field tables and bracket
cache with the rest of the process (see :mod:`carlitz.ffield`).
The README states the grammar.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError
from .ffield import FFElement, FieldParams
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
    """A rational exponent as printed after ``x^``; it need not lie on the
    exponent grid, as a precision bound need not."""
    return _exponent_text(*e.as_integer_ratio())


def _exponent_text(num: int, den: int) -> str:
    """The exponent num / den (den > 0) in lowest terms: ``n``, ``(-n)``
    or ``(n/d)``.  Term exponents and precision bounds are both written
    by this one rule."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return str(num) if num >= 0 else "(%d)" % num
    return "(%d/%d)" % (num, den)


def _parse_exponent(cur: _Cursor, params: FieldParams = None) -> Fraction:
    """An integer or a parenthesized rational.  With ``params`` it is a
    term's exponent, refused unless its denominator in lowest terms is a
    power of q (``x^(2/6)`` is ``x^(1/3)``); without, a precision bound,
    which may be any rational."""
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
    e = Fraction(num, den)
    if params is not None and _grid_depth(e.denominator, params.q) is None:
        raise ParseError(
            "exponent denominator %d is not a power of q (token %r)"
            % (den, den_tok[1]), den_tok[2])
    return e


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def format_series(s: PerfSeries) -> str:
    """The canonical text of ``s``, each term read from the grid: the key
    k is the exponent k / q^dexp, so k == 0 is the constant term and
    k == q^dexp a bare ``x``."""
    params, terms = s.params, s.terms
    scale = params.q ** s.dexp
    parts = []
    for k in sorted(terms):
        cs = params.coeff_str(terms[k])
        if k == 0:
            parts.append(cs)
        else:
            xpart = "x" if k == scale else "x^" + _exponent_text(k, scale)
            parts.append(xpart if cs == "1" else "%s*%s" % (cs, xpart))
    if s.prec is not INF:
        parts.append("O(x^%s)" % format_exponent(s.prec))
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
            e = _parse_exponent(cur)
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
    """The terms of a literal gathered into one map, repeated exponents
    added in F_Q, and built once at the least marked precision."""
    terms = {}
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
            terms[e] = params.add(terms.get(e, 0), c)
        if cur.at("op", "+"):
            cur.next()
            sign = 1
        elif cur.at("op", "-"):
            cur.next()
            sign = -1
        else:
            break
    return PerfSeries.from_terms(
        params, {e: FFElement(params, c) for e, c in terms.items()}, prec)


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
                    s = PerfSeries.monomial(params, item[0],
                                            FFElement(params, item[1]))
                return [(scalar_factor(s),)]
            raise ParseError("unknown generator %r" % tok[1], tok[2])
        if tok[0] == "int":
            cur.next()
            return [(scalar_factor(PerfSeries.constant(params, int(tok[1]))),)]
        raise ParseError("expected an operator atom, found %r"
                         % (tok[1] or "end of input"), tok[2])

    words = parse_expr()
    cur.expect("eof")
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
# file formats: PERFFUNC, PERFPROBLEM, PERFHYPER and field-config files
# ---------------------------------------------------------------------------

#: magic -> (integer keys after the field header, the word that names them
#: in a refusal, fields before ' : ' per payload kind, kinds whose body is
#: an integer).  Every other payload body is a series.
FORMATS = {
    "PERFFUNC": (("n", "truncM", "truncI"), "function", {"coeff": 3}, ()),
    "PERFPROBLEM": (("n", "truncM", "truncI"), "problem",
                    {"P": 2, "Q": 2, "init": 2}, ()),
    "PERFHYPER": ((), None, {"a": 1, "b": 1, "alpha": 1, "beta": 1},
                  ("alpha", "beta")),
}


def format_file(magic: str, params: FieldParams, values, payload) -> str:
    """The text of a ``magic`` file: the magic line, the field header, a
    ``key int`` line per header key, a ``head : series`` line per (head,
    series) of ``payload``, and END."""
    lines = ["%s 1" % magic] + format_field_header(params)
    lines += ["%s %d" % kv for kv in zip(FORMATS[magic][0], values)]
    lines += ["%s : %s" % (head, format_series(s)) for head, s in payload]
    lines.append("END")
    return "\n".join(lines) + "\n"


def read_file(text: str, magic: str):
    """Read a ``magic`` file.  Returns its FieldParams, the integers of its
    header keys, and its payload lines in file order as (kind, index tuple,
    body), the body read as a series or an integer."""
    keys, what, heads, int_kinds = FORMATS[magic]
    lines = _lines(text)
    first = lines[0].split() if lines else []
    if first[:1] != [magic]:
        raise ParseError("expected a %s file" % magic)
    if first[1:] != ["1"]:
        raise ParseError("expected version 1 of the %s format, got %r"
                         % (magic, " ".join(first[1:])))
    fields, payload = {}, []
    for line in lines[1:]:
        if line == "END":
            break
        kind = line.split(None, 1)[0]
        if kind in heads:
            parts = _SEPARATOR_RE.split(line, 1)
            if len(parts) < 2:
                raise ParseError("payload line missing ' : ' separator: %r" % line)
            payload.append((kind, parts[0].rstrip(), parts[1].lstrip()))
        else:
            key, value = _header_line(line)
            fields[key] = value
    else:
        raise ParseError("missing END marker")
    params = parse_field_header(fields)
    values = [_read_int(fields.get(k), "%s key %r" % (what, k)) for k in keys]
    return params, values, [
        (kind, _payload_index(kind, head, heads[kind]),
         _read_int(body, kind) if kind in int_kinds else parse_series(body, params))
        for kind, head, body in payload]


def parse_config(text: str) -> FieldParams:
    """The FieldParams of a field-config file, whose lines are all header
    lines."""
    return parse_field_header(dict(_header_line(line) for line in _lines(text)))


#: the payload separator: a colon with whitespace on each side
_SEPARATOR_RE = re.compile(r"\s:\s")


def _lines(text: str):
    return [line.strip() for line in text.splitlines() if line.strip()]


def _header_line(line: str):
    """The key and value of a header line: whitespace separates them."""
    parts = line.split(None, 1)
    if len(parts) < 2:
        raise ParseError("malformed header line %r" % line)
    return parts


def _payload_index(kind: str, head: str, fields: int):
    """The integers of a payload head of ``fields`` fields: the kind, then
    one integer per field, the last field a comma list."""
    parts = head.split(None, fields - 1)
    if len(parts) < fields:
        raise ParseError("payload line %r needs %d fields before ' : '"
                         % (head, fields))
    if fields == 1:
        if head != kind:
            raise ParseError("payload line %r has fields after its kind %r"
                             % (head, kind))
        return ()
    *singles, commas = parts[1:]
    return tuple(_read_int(t, "%s index" % kind) for t in singles + commas.split(","))


# ---------------------------------------------------------------------------
# field-config headers (every file format has one)
# ---------------------------------------------------------------------------

def format_field_header(params: FieldParams):
    return [
        "p %d" % params.p,
        "v %d" % params.v,
        "m %d" % params.m,
        "modulus %s" % ",".join(str(c) for c in params.modulus),
    ]


def parse_field_header(fields: dict) -> FieldParams:
    """The FieldParams of a header's p, v, m and modulus keys: the one
    object of that configuration, ``FieldParams.default(q, m)`` itself for
    a shipped one."""
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
