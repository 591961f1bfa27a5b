"""Exact arithmetic over the field Q(q) of rational functions in one variable.

An element is one ``RatFunc``: the ratio of two Laurent polynomials in q,
each a sparse dict exponent -> nonzero rational coefficient (the sparse
representation of Johnson, "Sparse polynomial arithmetic", 1974).  There
is no separate polynomial type.  A coefficient is stored as an ``int``
when it is integral and as a ``Fraction`` only when its denominator is
greater than 1, so integer arithmetic, the common case, never builds a
``Fraction``.  Every division is exact: an integer quotient stays an
``int``, and any other goes through ``Fraction``.  ``fractions`` is
imported where a non-integral rational can first appear, so a job that
meets none never loads it.
Every value is kept in a canonical reduced form so that structural
equality coincides with mathematical equality:

  * the denominator is an ordinary polynomial in q (lowest exponent 0) with
    a nonzero constant term, and it is monic;
  * numerator and denominator share no polynomial factor;
  * all unit factors (rational scalars and powers of q) live in the numerator.

A one-term canonical denominator is therefore 1, and every polynomial
carries the one shared denominator dict ``_POLY_ONE``.  Sums, products and
negation of polynomials test ``den is _POLY_ONE`` and build the result
dict directly, so they never reach the gcd or the general constructor
``RatFunc(num, den)``, which takes any two dicts.  Values and their dicts
are never mutated, so ``q_int(e)`` hands out one shared instance per
exponent, ``add_term`` stores a coefficient as it is, and a product with
a factor equal to 1 is the other factor itself, not a copy.

Specialisation substitutes an exact rational number for q, so no floating
point enters anywhere.
"""


def _canon(c):
    """The one stored form of an exact rational: an int when it is
    integral, a Fraction otherwise.  Equal values compare, hash and print
    alike in both forms."""
    if type(c) is int:
        return c
    from fractions import Fraction

    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a / b in stored form; never a float.  An exact
    integer quotient is computed as an int and builds no Fraction."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    from fractions import Fraction

    return _canon(Fraction(a) / b)


def _settle(d):
    """Put the values of d that a Fraction produced into stored form."""
    for e, c in d.items():
        if type(c) is not int and c.denominator == 1:
            d[e] = c.numerator
    return d


# -- coefficient dicts: exponent -> nonzero coefficient in stored form ------
#
# Numerator and denominator of a RatFunc are such dicts.  Each function
# below returns a new dict and never changes its arguments.

def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
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
    return out


def _mul(a, b):
    # A product of nonzero coefficients cannot cancel, so a product with
    # a monomial needs no zero test.  Monomial times monomial comes first:
    # it is most of the products glq makes.
    if len(a) == 1 and len(b) == 1:
        [(e1, c1)] = a.items()
        [(e2, c2)] = b.items()
        c = c1 * c2
        if type(c) is int:
            return {e1 + e2: c}
        return {e1 + e2: c.numerator if c.denominator == 1 else c}
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        [(e2, c2)] = b.items()
        return _settle({e1 + e2: c1 * c2 for e1, c1 in a.items()})
    out = {}
    if not b:
        return out
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
    return _settle(out)


def _scale(a, r):
    """a times the nonzero stored rational r."""
    return _settle({e: c * r for e, c in a.items()})


def _evaluate(a, q0):
    """Exact value at q = q0 (a nonzero Fraction)."""
    from fractions import Fraction

    total = Fraction(0)
    for e, c in a.items():
        total += c * q0 ** e
    return total


def _format(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
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


def _to_list(d, low):
    """Coefficient list of the dict d divided by q^low, its lowest
    exponent."""
    out = [0] * (max(d) - low + 1)
    for e, c in d.items():
        out[e - low] = c
    return out


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


# The canonical denominator of every polynomial.  Coefficient dicts are
# never mutated, so one dict is shared, and a RatFunc is a polynomial
# exactly when its den is this object.
_POLY_ONE = {0: 1}

_new = object.__new__


def _make(coeffs, den=_POLY_ONE):
    """The RatFunc coeffs / den of a numerator dict and a denominator that
    are already in canonical form; nothing is checked or reduced."""
    x = _new(RatFunc)
    x.coeffs = coeffs
    x.den = den
    return x


class RatFunc:
    """An element of Q(q) in canonical reduced form.

    ``coeffs`` and ``den`` are the coefficient dicts of numerator and
    denominator; ``den`` is ``_POLY_ONE`` exactly when the value is a
    polynomial.  ``RatFunc(num, den)`` reduces any two dicts exponent ->
    exact rational to this form."""

    # _hash is set on first use: most values are never hashed.
    __slots__ = ("coeffs", "den", "_hash")

    def __init__(self, num, den):
        den = {e: _canon(c) for e, c in den.items() if c}
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        num = {e: _canon(c) for e, c in num.items() if c}
        if not num:
            self.coeffs = num
            self.den = _POLY_ONE
            return
        if len(den) == 1:
            # A unit c*q^e: divide it out; there is nothing to reduce.
            (e, c), = den.items()
            if c == 1:
                self.coeffs = {k - e: v for k, v in num.items()}
            else:
                self.coeffs = {k - e: _div(v, c) for k, v in num.items()}
            self.den = _POLY_ONE
            return
        low_n = min(num)
        low_d = min(den)
        nl = _to_list(num, low_n)
        dl = _to_list(den, low_d)
        g = _list_gcd(nl, dl)
        if len(g) > 1:
            nl, _ = _list_divmod(nl, g)
            dl, _ = _list_divmod(dl, g)
        lead = dl[-1]
        if lead != 1:
            nl = [_div(c, lead) for c in nl]
            dl = [_div(c, lead) for c in dl]
        net = low_n - low_d
        self.coeffs = {e + net: c for e, c in enumerate(nl) if c}
        # A gcd that takes all of den leaves the polynomial denominator.
        self.den = (_POLY_ONE if len(dl) == 1
                    else {e: c for e, c in enumerate(dl) if c})

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(n):
        n = _canon(n)
        return _make({0: n} if n else {})

    @staticmethod
    def q_power(e, coeff=1):
        """coeff * q^e."""
        coeff = _canon(coeff)
        return _make({e: coeff} if coeff else {})

    # -- structure ------------------------------------------------------

    def term_count(self):
        """Terms in numerator and denominator together: a crude size."""
        return len(self.coeffs) + len(self.den)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.den is other.den or self.den == other.den)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((frozenset(self.coeffs.items()),
                               frozenset(self.den.items())))
            return self._hash

    # -- arithmetic -----------------------------------------------------

    def __neg__(self):
        return _make({e: -c for e, c in self.coeffs.items()}, self.den)

    def __add__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        den = self.den
        if den is _POLY_ONE and other.den is _POLY_ONE:
            return _make(_add(self.coeffs, other.coeffs))
        if den == other.den:
            return RatFunc(_add(self.coeffs, other.coeffs), den)
        return RatFunc(_add(_mul(self.coeffs, other.den),
                            _mul(other.coeffs, den)), _mul(den, other.den))

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
        # A factor 1 hands back the other factor itself: values are
        # never mutated.  Most products on the pairing path have one.
        if self.den is _POLY_ONE and self.coeffs == _POLY_ONE:
            return other
        if other.den is _POLY_ONE:
            if other.coeffs == _POLY_ONE:
                return self
            if self.den is _POLY_ONE:
                return _make(_mul(self.coeffs, other.coeffs))
        return RatFunc(_mul(self.coeffs, other.coeffs),
                       _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not other:
            raise ZeroDivisionError("division by zero in Q(q)")
        return RatFunc(_mul(self.coeffs, other.den),
                       _mul(self.den, other.coeffs))

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero in Q(q)")
        return RatFunc(self.den, self.coeffs)

    def scale(self, r):
        r = _canon(r)
        return _make(_scale(self.coeffs, r), self.den) if r else ZERO

    def signed_q_power(self):
        """(e, c) when self is the unit c * q^e with c = 1 or -1, else
        None."""
        if self.den is _POLY_ONE and len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            if c == 1 or c == -1:
                return e, c
        return None

    def times_unit(self, e, negate=False):
        """self * q^e, negated when asked.  Units live in the numerator,
        so shifting its exponents keeps the value canonical over the same
        den: no product and no gcd."""
        if negate:
            return _make({k + e: -c for k, c in self.coeffs.items()},
                         self.den)
        if e:
            return _make({k + e: c for k, c in self.coeffs.items()},
                         self.den)
        return self

    # -- specialisation --------------------------------------------------

    def evaluate(self, q0):
        """Exact value at q = q0; raises ZeroDivisionError on a pole."""
        from fractions import Fraction

        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q = 0 is outside the domain")
        d = _evaluate(self.den, q0)
        if d == 0:
            raise ZeroDivisionError("pole at q = %s" % q0)
        return _evaluate(self.coeffs, q0) / d

    def specialize(self, q0):
        """Evaluate at a rational q0 with q0 not in {0, 1}."""
        from fractions import Fraction

        q0 = Fraction(q0)
        if q0 in (0, 1):
            raise ValueError("specialisation point q0 = %s is rejected" % q0)
        return self.evaluate(q0)

    def __str__(self):
        ns = _format(self.coeffs)
        if self.den is _POLY_ONE:
            return ns
        if len(self.coeffs) > 1:
            ns = "(%s)" % ns
        return "%s / (%s)" % (ns, _format(self.den))

    __repr__ = __str__


ZERO = RatFunc.from_int(0)
ONE = RatFunc.from_int(1)

# q^e for every exponent asked for so far: values are never mutated, so
# each monomial is built once and shared.
_Q_POWERS = {}


def q_int(e):
    """The monomial q^e, one shared instance per exponent."""
    x = _Q_POWERS.get(e)
    if x is None:
        x = _Q_POWERS[e] = _make({e: 1})
    return x


Q = q_int(1)
QINV = q_int(-1)


def sign_pow(k):
    """(-1)^k as a RatFunc."""
    return ONE if k % 2 == 0 else -ONE


def add_term(terms, key, c):
    """terms[key] += c in a sparse dict of nonzero RatFuncs, dropping the
    key when it cancels.  On a miss c is stored as it is (values are never
    mutated), and a zero c stores nothing."""
    s = terms.get(key)
    if s is None:
        if c.coeffs:
            terms[key] = c
        return
    s = s + c
    if s.coeffs:
        terms[key] = s
    else:
        del terms[key]


# -- Hopf maps on words from their values on letters ------------------------
#
# Both Hopf superalgebras (the enveloping and the coordinate one) state
# their coproduct, antipode and stars on letters only; these two functions
# carry every such map to words, with the Koszul sign each rule needs.

def split_word(word, letter_split, parity):
    """The coproduct of a word, {(left, right): coeff}, from the coproduct
    of its letters, letter_split(letter) -> [(left piece, right piece,
    coeff)].  It is multiplicative with the Koszul leg-collection sign:
    appending the pieces u (x) v of a letter to wl (x) wr gives
    (-1)^{|wr||u|} wl u (x) wr v, where parity(word) is 0 or 1."""
    out = {((), ()): ONE}
    for letter in word:
        pieces = [(u, v, c, parity(u)) for u, v, c in letter_split(letter)]
        nxt = {}
        for (wl, wr), coeff in out.items():
            odd_right = parity(wr)
            for u, v, c, odd_u in pieces:
                cc = coeff * c
                if odd_right & odd_u:
                    cc = -cc
                add_term(nxt, (wl + u, wr + v), cc)
        out = nxt
    return out


def reverse_word(word, letter_map, parity=None):
    """The anti-multiplicative extension of letter_map(letter) -> (piece,
    coeff): (piece of the last letter + ... + piece of the first, product
    of the coeffs).  Given the letter parity, it adds the reversal sign
    (-1)^{sum_{i<j} p_i p_j} of an antipode; a star takes none."""
    out = ()
    coeff = ONE
    for letter in reversed(word):
        piece, c = letter_map(letter)
        out += piece
        coeff = coeff * c
    if parity is not None:
        odd = sum(parity(letter) for letter in word)
        if odd * (odd - 1) // 2 % 2:
            coeff = -coeff
    return out, coeff


class Combination:
    """A Q(q)-linear combination of words: {word: nonzero RatFunc}.

    Subclasses fix what a word is; the product concatenates words with
    no sign.  Elements are mutable and therefore unhashable."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {w: c for w, c in terms.items() if c} if terms else {}

    def _new(self, terms):
        """An element of the same kind as self with the given terms."""
        return type(self)(self.ctx, terms)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(): ONE})

    @classmethod
    def from_word(cls, ctx, word, coeff=ONE):
        return cls(ctx, {tuple(word): coeff})

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

    def split_words(self, letter_split, parity):
        """The sum of split_word over the terms: {(left, right): coeff}."""
        out = {}
        for w, c in self.terms.items():
            for key, dc in split_word(w, letter_split, parity).items():
                add_term(out, key, c * dc)
        return out
