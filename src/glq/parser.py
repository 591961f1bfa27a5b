"""Text expressions for the command-line surface.

The grammar covers scalar arithmetic and the letters of the three
algebras::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/')? factor)*      (juxtaposition multiplies)
    factor  :=  ('-' | '+') factor  |  atom ('^' ('-')? INT)?
    atom    :=  INT  |  'q'  |  '(' expr ')'  |  NAME '[' indices ']'

Letters: ``K[a]``, ``Kinv[a]``, ``E[a,b]`` (adjacent rows only) for the
quantised enveloping algebra; ``t[a,b]``, ``tb[a,b]`` for the coordinate
algebra; ``z[a]``, ``zb[a]`` for the superspace; ``Z[i..;j..]`` and
``Zb[i..;j..]`` for superspace monomials given by a two-part
multi-index (nilpotent exponents, then the rest, separated by ';').

Each entry point parses into one algebra: scalars, rational functions
of q, embed into it, and a letter of any other algebra is an error.
Division and negative powers need a scalar, that is, a subexpression
with no letter in it, and a literal, sum, product or power holding an
integer that ``str`` refuses to print (``sys.get_int_max_str_digits``)
is an error, as is a product, power or ``Z``/``Zb`` monomial with a word
of more than ``MAX_WORD_LENGTH`` letters, which is rejected before it is
built.  Errors carry the 0-based offset where they were detected.
"""

import sys
from functools import cache

from .coeff import _POLY_ONE, ONE, RatFunc, add_term
from .superspace import (
    SuperspaceElement,
    multi_index_of,
    word_of_multi_index,
    z_,
    zb_,
)


class ParseError(ValueError):
    """Syntax or semantic error, with the offset where it occurred."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.message = message
        self.position = position


# Letter name -> number of indices, for the letters of all three
# algebras.  Z and Zb take two index groups instead and build a whole
# word.  Each entry point hands the parser the constructors of its own
# letters, so a letter of another algebra is read, then rejected.
_ARITY = {"K": 1, "Kinv": 1, "E": 2, "t": 2, "tb": 2, "z": 1, "zb": 1,
          "Z": None, "Zb": None}

_PUNCTUATION = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
                "^": "CARET", "(": "LPAREN", ")": "RPAREN",
                "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI"}
_DIGITS = "0123456789"  # not str.isdigit, which holds for "²" and "٣"


_TOO_LONG = "an integer has more than %d digits"

# The most letters a word of a parsed value may hold.  A product
# concatenates words, so each square of a one-term power doubles its
# word: without this budget z[1]^99999999999999999999 would build words
# until memory ran out.
MAX_WORD_LENGTH = 10 ** 6
_TOO_MANY_LETTERS = "a word has more than %d letters" % MAX_WORD_LENGTH


@cache
def _unprintable(limit):
    """10**L, the least integer that str() refuses to print at digit
    limit L, computed once per limit."""
    return 10 ** limit


def _checked(value, at, words=None):
    """The parsed value, unless str() would refuse to print an exponent,
    numerator or denominator of the Q(q) value or of the coefficients of
    the element (at ``words`` only, when given)."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = _unprintable(limit)
        terms = {(): value} if isinstance(value, RatFunc) else value.terms
        for x in [terms[w] for w in words or terms if w in terms]:
            for part in (x.coeffs, x.den):
                for e, c in part.items():
                    if not (-bound < e < bound and c.denominator < bound
                            and -bound < c.numerator < bound):
                        raise ParseError(_TOO_LONG % limit, at)
    return value


def _longest_word(value):
    """The number of letters in the longest word of the value, 0 for a
    scalar."""
    if isinstance(value, RatFunc):
        return 0
    return max(map(len, value.terms), default=0)


def _reject_long_word(length, at):
    if length > MAX_WORD_LENGTH:
        raise ParseError(_TOO_MANY_LETTERS, at)


def _reject_dense_power(base, exponent, at):
    """Reject p^k, for p a polynomial scalar or the coefficient of a
    one-term element, before computing it if a^k > 10^L (k*s + 1), with
    a = max(|p(1)|, |p(-1)|), s the exponent span of p and L the digit
    limit: the at most k*s + 1 coefficients of p^k sum to p(1)^k, and
    with signs to p(-1)^k, so one of them has more than L digits."""
    limit = sys.get_int_max_str_digits()
    p = (base if isinstance(base, RatFunc)
         else next(iter(base.terms.values()), ONE))
    if limit and p and p.den is _POLY_ONE:
        c = p.coeffs
        a = max(abs(sum(c.values())),
                abs(sum(-x if e % 2 else x for e, x in c.items())))
        bound = _unprintable(limit) * (exponent * (max(c) - min(c)) + 1)
        out = 1  # a^k by squaring; each step is at most a^k for a > 1
        while a > 1 and exponent:
            if exponent & 1:
                out *= a
            exponent >>= 1
            if exponent:
                a *= a
            if out > bound or a > bound:
                raise ParseError(_TOO_LONG % limit, at)


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            digits = text[i:j].lstrip("0") or "0"
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                raise ParseError(_TOO_LONG % limit, i)
            tokens.append(("INT", int(digits), i))
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name not in _ARITY and name != "q":
                raise ParseError("unknown name starting with %r" % c, i)
            tokens.append(("NAME", name, i))
            i = j
            continue
        if c in _PUNCTUATION:
            tokens.append((_PUNCTUATION[c], c, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % c, i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    """Parses one text into ``algebra`` (a Combination class), or into
    Q(q) when ``algebra`` is None.  ``letters`` maps each letter name
    the algebra accepts to its constructor (None for Z and Zb).

    A value is a RatFunc until it meets a letter and an element of
    ``algebra`` from then on, so scalar arithmetic stays in Q(q)."""

    def __init__(self, ctx, text, algebra, letters):
        self.ctx = ctx
        self.algebra = algebra
        self.letters = letters
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError("expected %s" % what, tok[2])
        return tok

    # -- value arithmetic ---------------------------------------------------

    def embed(self, value):
        if isinstance(value, RatFunc):
            return self.algebra.one(self.ctx).scale(value)
        return value

    def add(self, a, b, negate):
        """The sum or difference of two scalars."""
        return a + (-b if negate else b)

    def mul(self, a, b, at):
        """The product, rejected at ``at`` before it is built when its
        longest word would pass the budget."""
        if isinstance(a, RatFunc):
            return a * b if isinstance(b, RatFunc) else b.scale(a)
        if isinstance(b, RatFunc):
            return a.scale(b)
        _reject_long_word(_longest_word(a) + _longest_word(b), at)
        return a * b

    def div(self, a, b, at):
        if not isinstance(b, RatFunc):
            raise ParseError("division by a non-scalar", at)
        if not b:
            raise ParseError("division by zero", at)
        return self.mul(a, b.inverse(), at)

    def power(self, base, exponent, at):
        unit = isinstance(base, RatFunc) and base.signed_q_power()
        if unit:
            # (c q^e)^k = c^k q^(ek) for c = +-1, in one step: a printed
            # normal form holds many q^-k.
            e, c = unit
            return _checked(RatFunc.q_power(e * exponent,
                                            c if exponent % 2 else 1), at)
        if exponent < 0:
            if not isinstance(base, RatFunc):
                raise ParseError("negative power of a non-scalar", at)
            if not base:
                raise ParseError("zero to a negative power", at)
            base, exponent = base.inverse(), -exponent
        _reject_long_word(exponent * _longest_word(base), at)
        out = ONE
        if not isinstance(base, RatFunc) and len(base.terms) > 1:
            # One factor at a time: the term order of the product sets
            # the order in which normal_form rewrites it.
            for _ in range(exponent):
                out = self.mul(out, base, at)
            return _checked(out, at)
        # A scalar or a one-term element has one term order, so it is
        # powered by squaring.  Each square is checked, so 2^99999999
        # fails within 15 squarings.
        _reject_dense_power(base, exponent, at)
        while exponent:
            if exponent & 1:
                out = _checked(self.mul(out, base, at), at)
            exponent >>= 1
            if exponent:
                base = _checked(self.mul(base, base, at), at)
        return out

    # -- grammar ------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError("unexpected trailing input", tok[2])
        return value if self.algebra is None else self.embed(value)

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            term = self.term()
            negate = op[0] == "MINUS"
            if isinstance(value, RatFunc) and isinstance(term, RatFunc):
                value = self.add(value, term, negate)
            else:
                # Every element that term() returns is new and held
                # nowhere else, so the sum takes each later term in
                # place: t terms cost O(t), not a copy per term.
                value = self.embed(value)
                for w, c in self.embed(term).terms.items():
                    add_term(value.terms, w, -c if negate else c)
            # Only the coefficients at the new term's words can change.
            _checked(value, op[2], getattr(term, "terms", ((),)))
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "STAR":
                self.advance()
                value = self.mul(value, self.factor(), tok[2])
            elif tok[0] == "SLASH":
                self.advance()
                value = self.div(value, self.factor(), tok[2])
            elif tok[0] in ("INT", "NAME", "LPAREN"):
                value = self.mul(value, self.factor(), tok[2])
            else:
                return value
            _checked(value, tok[2])

    def factor(self):
        tok = self.peek()
        if tok[0] in ("PLUS", "MINUS"):
            self.advance()
            inner = self.factor()
            if tok[0] == "PLUS":
                return inner
            return self.mul(-ONE, inner, tok[2])
        value = self.atom()
        if self.peek()[0] == "CARET":
            at = self.advance()[2]
            sign = 1
            if self.peek()[0] == "MINUS":
                self.advance()
                sign = -1
            etok = self.expect("INT", "an integer exponent")
            value = self.power(value, sign * etok[1], at)
        return value

    def atom(self):
        tok = self.advance()
        if tok[0] == "INT":
            return RatFunc.from_int(tok[1])
        if tok[0] == "LPAREN":
            value = self.expr()
            self.expect("RPAREN", "a closing parenthesis")
            return value
        if tok[0] == "NAME":
            if tok[1] == "q":
                return RatFunc.q_power(1)
            return self.letter(tok)
        raise ParseError("expected a value", tok[2])

    # -- letters ------------------------------------------------------------

    def _index(self):
        sign = 1
        if self.peek()[0] == "MINUS":
            self.advance()
            sign = -1
        tok = self.expect("INT", "an index")
        return sign * tok[1], tok[2]

    def _index_list(self):
        out = [self._index()]
        while self.peek()[0] == "COMMA":
            self.advance()
            out.append(self._index())
        return out

    def _index_group(self, size):
        """One index group of Z[...] or Zb[...]; it may be empty exactly
        when its block has size 0."""
        if size == 0 and self.peek()[0] in ("SEMI", "RBRACK"):
            return []
        return self._index_list()

    def _check_row(self, value, at):
        if not 1 <= value <= self.ctx.N:
            raise ParseError("index %d out of range 1..%d"
                             % (value, self.ctx.N), at)
        return value

    def letter(self, tok):
        name, at = tok[1], tok[2]
        if name not in self.letters:
            raise ParseError("letter %r not allowed here" % name, at)
        self.expect("LBRACK", "'['")
        if name in ("Z", "Zb"):
            value = self.multi_index_monomial(name, at)
        else:
            value = self.simple_letter(name, self._index_list(), at)
        self.expect("RBRACK", "']'")
        return value

    def simple_letter(self, name, indices, at):
        arity = _ARITY[name]
        if len(indices) != arity:
            raise ParseError("%s takes %s" % (
                name, "one index" if arity == 1 else "two indices"), at)
        rows = [self._check_row(*index) for index in indices]
        if name == "E" and abs(rows[0] - rows[1]) != 1:
            raise ParseError("E indices must be adjacent", indices[1][1])
        return self.algebra.from_word(self.ctx,
                                      (self.letters[name](*rows),))

    def multi_index_monomial(self, name, at):
        ctx = self.ctx
        first = self._index_group(ctx.m)
        self.expect("SEMI", "';' between the two index groups")
        second = self._index_group(ctx.n)
        if len(first) != ctx.m or len(second) != ctx.n:
            raise ParseError(
                "%s takes %d;%d exponents at size (%d|%d)"
                % (name, ctx.m, ctx.n, ctx.m, ctx.n), at)
        for v, p in first:
            if v not in (0, 1):
                raise ParseError("nilpotent exponent must be 0 or 1", p)
        for v, p in second:
            if v < 0:
                raise ParseError("exponent must be non-negative", p)
        index = (tuple(v for v, _ in first), tuple(v for v, _ in second))
        _reject_long_word(sum(index[0]) + sum(index[1]), at)
        zero = ((0,) * ctx.m, (0,) * ctx.n)
        if name == "Z":
            word = word_of_multi_index(ctx, index, zero)
        else:
            word = word_of_multi_index(ctx, zero, index)
        return SuperspaceElement.from_word(ctx, word)


def parse_scalar(text):
    """A rational function of q; letters are rejected."""
    return _Parser(None, text, None, {}).parse()


def parse_uq(ctx, text):
    """An element of the quantised enveloping algebra."""
    from .uq import UqExpression, gen_E, gen_K, gen_Kinv

    return _Parser(ctx, text, UqExpression,
                   {"K": gen_K, "Kinv": gen_Kinv, "E": gen_E}).parse()


def parse_coords(ctx, text):
    """An element of the coordinate algebra."""
    from .coords import GqElement, t_, tbar_

    return _Parser(ctx, text, GqElement, {"t": t_, "tb": tbar_}).parse()


def parse_superspace(ctx, text):
    """An element of the superspace algebra."""
    return _Parser(ctx, text, SuperspaceElement,
                   {"z": z_, "zb": zb_, "Z": None, "Zb": None}).parse()


# ---------------------------------------------------------------------------
# Printing normal forms so that re-parsing recovers the element.
# ---------------------------------------------------------------------------


def _coeff_string(c):
    s = str(c)
    if " + " in s or " - " in s or " / " in s:
        return "(%s)" % s
    return s


def format_normal_form(ctx, element):
    """Render a normal superspace element; parse_superspace inverts it."""
    if element.is_zero():
        return "0"
    parts = []
    for word in sorted(element.terms):
        coeff = element.terms[word]
        (tp, lp), (tb, lb) = multi_index_of(ctx, word)
        factors = []
        if any(tp) or any(lp):
            factors.append("Z[%s;%s]" % (",".join(map(str, tp)),
                                         ",".join(map(str, lp))))
        if any(tb) or any(lb):
            factors.append("Zb[%s;%s]" % (",".join(map(str, tb)),
                                          ",".join(map(str, lb))))
        body = " ".join(factors)
        if not body:
            parts.append(_coeff_string(coeff))
        elif coeff == ONE:
            parts.append(body)
        elif coeff == -ONE:
            parts.append("-" + body)
        else:
            parts.append("%s * %s" % (_coeff_string(coeff), body))
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
