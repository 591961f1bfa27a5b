"""Exact arithmetic over the field Q(q) of rational functions in one variable.

Elements are manipulated as ratios of Laurent polynomials in q with rational
coefficients.  A coefficient is stored as an ``int`` when it is integral and
as a ``Fraction`` only when its denominator is greater than 1, so integer
arithmetic, the common case, never builds a ``Fraction``; every division
goes through ``Fraction`` and is exact.  Every value is kept in a canonical
reduced form so that structural equality coincides with mathematical
equality:

  * the denominator is an ordinary polynomial in q (lowest exponent 0) with
    a nonzero constant term, and it is monic;
  * numerator and denominator share no polynomial factor;
  * all unit factors (rational scalars and powers of q) live in the numerator.

A one-term canonical denominator is therefore 1, so polynomial arithmetic
never reaches the gcd: construction over a unit divides it out, and sums
and products of polynomials are built already reduced.

Specialisation substitutes an exact rational number for q, so no floating
point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _canon(c):
    """The one stored form of an exact rational: an int when it is
    integral, a Fraction otherwise.  Equal values compare, hash and print
    alike in both forms."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a / b in stored form; never a float."""
    return _canon(Fraction(a) / b)


def _settle(d):
    """Put the values of d that a Fraction produced into stored form."""
    for e, c in d.items():
        if type(c) is not int and c.denominator == 1:
            d[e] = c.numerator
    return d


class LaurentPoly:
    """A Laurent polynomial sum_e c_e q^e with exact rational coefficients:
    an int when integral, a Fraction otherwise."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        # coeffs: dict exponent -> nonzero coefficient in stored form (an
        # int when integral, a Fraction otherwise).  Trusted by internal
        # callers; use the constructors below from outside.
        self.coeffs = coeffs or {}
        self._hash = None

    @staticmethod
    def from_dict(d):
        return LaurentPoly({e: _canon(c) for e, c in d.items() if c})

    @staticmethod
    def from_int(n):
        n = _canon(n)
        return LaurentPoly({0: n} if n else {})

    @staticmethod
    def q_power(e, coeff=1):
        coeff = _canon(coeff)
        return LaurentPoly({e: coeff} if coeff else {})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s += c
                if not s:
                    del out[e]
                elif type(s) is int:
                    out[e] = s
                else:
                    out[e] = _canon(s)
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return LaurentPoly()
        if len(b) == 1:
            # A product of nonzero coefficients cannot cancel.
            (e2, c2), = b.items()
            return LaurentPoly(_settle({e1 + e2: c1 * c2
                                        for e1, c1 in a.items()}))
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return LaurentPoly(_settle(out))

    def scale(self, r):
        r = _canon(r)
        if not r:
            return LaurentPoly()
        return LaurentPoly(_settle({e: c * r for e, c in self.coeffs.items()}))

    def shift(self, k):
        """Multiply by q^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    @property
    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def is_monomial(self):
        return len(self.coeffs) == 1

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0}

    def evaluate(self, q0):
        """Exact value at q = q0 (a nonzero Fraction)."""
        q0 = Fraction(q0)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q0 ** e
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                base = "q" if e == 1 else "q^%d" % e
                if c == 1:
                    term = base
                elif c == -1:
                    term = "-" + base
                else:
                    term = "%s*%s" % (c, base)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    __repr__ = __str__


def _to_list(p):
    """Coefficient list of a Laurent polynomial with min_exp == 0."""
    n = p.max_exp
    out = [0] * (n + 1)
    for e, c in p.coeffs.items():
        out[e] = c
    return out


def _from_list(lst):
    return LaurentPoly({e: c for e, c in enumerate(lst) if c})


def _list_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if not c:
            continue
        f = _div(c, lead)
        quot[i - dn] = f
        for j, d in enumerate(den):
            num[i - dn + j] = _canon(num[i - dn + j] - f * d)
    while num and not num[-1]:
        num.pop()
    return quot, num


def _list_gcd(a, b):
    """Monic gcd of two coefficient lists over Q."""
    a = list(a)
    b = list(b)
    while b:
        _, r = _list_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    if lead != 1:
        a = [_div(c, lead) for c in a]
    return a


# The canonical denominator of every polynomial.  LaurentPoly values are
# never mutated, so one instance is shared.
_POLY_ONE = LaurentPoly({0: 1})


class RatFunc:
    """An element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _reduced=False):
        if _reduced:
            self.num = num
            self.den = den
            self._hash = None
            return
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        self._hash = None
        if not num:
            self.num = LaurentPoly()
            self.den = _POLY_ONE
            return
        if len(den.coeffs) == 1:
            # A unit c*q^e: divide it out; there is nothing to reduce.
            (e, c), = den.coeffs.items()
            if c == 1:
                self.num = num.shift(-e)
            else:
                self.num = LaurentPoly({k - e: _div(v, c)
                                        for k, v in num.coeffs.items()})
            self.den = _POLY_ONE
            return
        shift_n = num.min_exp
        shift_d = den.min_exp
        net = shift_n - shift_d
        nl = _to_list(num.shift(-shift_n))
        dl = _to_list(den.shift(-shift_d))
        if len(dl) > 1:
            g = _list_gcd(nl, dl)
            if len(g) > 1:
                nl, _ = _list_divmod(nl, g)
                dl, _ = _list_divmod(dl, g)
        lead = dl[-1]
        if lead != 1:
            nl = [_div(c, lead) for c in nl]
            dl = [_div(c, lead) for c in dl]
        self.num = _from_list(nl).shift(net)
        self.den = _from_list(dl)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(n):
        return RatFunc(LaurentPoly.from_int(n), _POLY_ONE, _reduced=True)

    @staticmethod
    def q_power(e, coeff=1):
        """coeff * q^e."""
        return RatFunc(LaurentPoly.q_power(e, coeff), _POLY_ONE, _reduced=True)

    @staticmethod
    def from_poly(p):
        return RatFunc(p, _POLY_ONE, _reduced=True)

    # -- structure ------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def is_polynomial(self):
        return self.den.is_constant()

    def is_monomial(self):
        return self.den.is_constant() and self.num.is_monomial()

    # -- arithmetic -----------------------------------------------------

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            return RatFunc(self.num + other.num, _POLY_ONE, _reduced=True)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            return RatFunc(self.num * other.num, _POLY_ONE, _reduced=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverting zero in Q(q)")
        return RatFunc(self.den, self.num)

    def scale(self, r):
        return RatFunc(self.num.scale(r), self.den, _reduced=True) \
            if Fraction(r) else ZERO

    # -- specialisation --------------------------------------------------

    def evaluate(self, q0):
        """Exact value at q = q0; raises ZeroDivisionError on a pole."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q = 0 is outside the domain")
        d = self.den.evaluate(q0)
        if d == 0:
            raise ZeroDivisionError("pole at q = %s" % q0)
        return self.num.evaluate(q0) / d

    def specialize(self, q0):
        """Evaluate at a rational q0 with q0 not in {0, 1}."""
        q0 = Fraction(q0)
        if q0 in (0, 1):
            raise ValueError("specialisation point q0 = %s is rejected" % q0)
        return self.evaluate(q0)

    def __str__(self):
        if self.den.is_constant():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.coeffs) > 1:
            ns = "(%s)" % ns
        return "%s / (%s)" % (ns, self.den)

    __repr__ = __str__


ZERO = RatFunc.from_int(0)
ONE = RatFunc.from_int(1)
Q = RatFunc.q_power(1)
QINV = RatFunc.q_power(-1)


def q_int(e):
    """The monomial q^e."""
    return RatFunc.q_power(e)


def sign_pow(k):
    """(-1)^k as a RatFunc."""
    return ONE if k % 2 == 0 else -ONE


def add_term(terms, key, c):
    """terms[key] += c in a sparse dict, dropping the key when it cancels."""
    s = terms.get(key, ZERO) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


class Combination:
    """A Q(q)-linear combination of words: {word: nonzero RatFunc}.

    Subclasses fix what a word is.  The product here concatenates words
    with no sign; a subclass whose product needs one overrides
    ``__mul__``.  Elements are mutable and therefore unhashable."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if c} if terms else {}

    def _new(self, terms):
        """An element of the same kind as self with the given terms."""
        return type(self)(self.ctx, terms)

    # Keyword terms: a subclass whose constructor takes more than
    # (ctx, terms) gets a TypeError here rather than a wrong element.
    @classmethod
    def zero(cls, ctx):
        return cls(ctx, terms=None)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, terms={(): ONE})

    @classmethod
    def from_word(cls, ctx, word, coeff=ONE):
        return cls(ctx, terms={tuple(word): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            add_term(out, w, c)
        return self._new(out)

    def __neg__(self):
        return self._new({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        if isinstance(s, int):
            s = RatFunc.from_int(s)
        if not s:
            return self._new(None)
        return self._new({w: c * s for w, c in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product of words, with no sign."""
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(out, w1 + w2, c1 * c2)
        return self._new(out)

    def map_words(self, f):
        """The linear extension of f: word -> (word', coeff)."""
        out = {}
        for w, c in self.terms.items():
            nw, nc = f(w)
            add_term(out, nw, c * nc)
        return self._new(out)
