"""The quantised enveloping superalgebra of the general linear superalgebra.

Elements are Q(q)-linear combinations of free words in the generators
K_a^{+-1} (a = 1..m+n) and the simple root vectors E_{a,a+1}, E_{a+1,a}
(a = 1..m+n-1).  No normal form is imposed at this level: the defining
relations are exported as explicit elements (checked as vanishing
matrices in representations), and structural identities throughout the
package are verified by evaluating words in faithful tensor
representations.

Hopf structure on generators:

    Delta(E_{a,a+1}) = E_{a,a+1} (x) K_a K_{a+1}^{-1} + 1 (x) E_{a,a+1}
    Delta(E_{a+1,a}) = E_{a+1,a} (x) 1 + K_a^{-1} K_{a+1} (x) E_{a+1,a}
    Delta(K^{+-1})   = K^{+-1} (x) K^{+-1}
    eps(E) = 0,  eps(K^{+-1}) = 1
    S(E_{a,a+1}) = -E_{a,a+1} K_a^{-1} K_{a+1}
    S(E_{a+1,a}) = -K_a K_{a+1}^{-1} E_{a+1,a},  S(K^{+-1}) = K^{-+1}

extended to words by `coeff.split_word` (Delta) and `coeff.reverse_word`
(S, with its reversal sign).  Delta and its opposite are plain dicts
{(left word, right word): coeff}, the form of `coords.coproduct`; a
tensor of two words is evaluated by `reps.eval_tensor_pair`.  The square
of the antipode is conjugation by the group-like element K_{2 rho} (see
GradingContext.k2rho_exponents), which also realises the inverse
antipode as S^{-1}(x) = K_{2 rho}^{-1} S(x) K_{2 rho}.

Two star operations are provided (type 1 and type 2), both antilinear
anti-automorphisms extended by `coeff.reverse_word` without a sign.  They
differ by the sign (-1)^{(theta+1)} on the odd simple pair, and
x -> (-1)^{|x|} *(x) exchanges the two types.
"""

import itertools
from functools import partial

from .coeff import Combination, ZERO, ONE, q_int, reverse_word, sign_pow


# ---------------------------------------------------------------------------
# Generators: ("K", a), ("Kinv", a), ("E", a, b) with |a - b| = 1.
# ---------------------------------------------------------------------------


def gen_K(a):
    return ("K", a)


def gen_Kinv(a):
    return ("Kinv", a)


def gen_E(a, b):
    if abs(a - b) != 1:
        raise ValueError("simple root vectors need |a - b| = 1, got E_%d,%d"
                         % (a, b))
    return ("E", a, b)


def gen_parity(ctx, g):
    if g[0] == "E":
        return (ctx.parity(g[1]) + ctx.parity(g[2])) % 2
    return 0


def word_parity(ctx, word):
    return sum(gen_parity(ctx, g) for g in word) % 2


def all_generators(ctx):
    """K_1..K_N, K_1^{-1}..K_N^{-1}, raising ascending, lowering ascending."""
    N = ctx.N
    gens = [gen_K(a) for a in range(1, N + 1)]
    gens += [gen_Kinv(a) for a in range(1, N + 1)]
    gens += [gen_E(a, a + 1) for a in range(1, N)]
    gens += [gen_E(a + 1, a) for a in range(1, N)]
    return gens


class UqExpression(Combination):
    """A Q(q)-linear combination of free words in the generators."""

    __slots__ = ()

    @staticmethod
    def from_gen(ctx, g):
        return UqExpression(ctx, {(g,): ONE})

    def parity(self):
        ps = {word_parity(self.ctx, w) for w in self.terms}
        if len(ps) > 1:
            raise ValueError("expression is not parity-homogeneous")
        return ps.pop() if ps else 0

    def __repr__(self):
        if not self.terms:
            return "UqExpression(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            bits.append("(%s) %s" % (self.terms[w], ".".join(
                "%s%s" % (g[0], list(g[1:])) for g in w) or "1"))
        return "UqExpression[%s]" % " + ".join(bits)


def graded_commutator(x, y):
    """[x, y} = x y - (-1)^{|x||y|} y x for parity-homogeneous x, y."""
    sign = x.parity() * y.parity()
    yx = y * x
    return x * y - (yx if sign % 2 == 0 else yx.scale(-1))


# ---------------------------------------------------------------------------
# Hopf structure maps.
# ---------------------------------------------------------------------------


def _delta_gen(g):
    """Coproduct of a generator as [(left word, right word, coeff)]."""
    kind = g[0]
    if kind in ("K", "Kinv"):
        return [((g,), (g,), ONE)]
    _, a, b = g
    if b == a + 1:  # raising
        cartan = (gen_K(a), gen_Kinv(a + 1))
        return [((g,), cartan, ONE), ((), (g,), ONE)]
    cartan = (gen_Kinv(b), gen_K(a))  # lowering: b = a - 1
    return [((g,), (), ONE), (cartan, (g,), ONE)]


def _antipode_gen(g):
    """Antipode of a generator as (word, coeff)."""
    kind = g[0]
    if kind == "K":
        return (gen_Kinv(g[1]),), ONE
    if kind == "Kinv":
        return (gen_K(g[1]),), ONE
    _, a, b = g
    if b == a + 1:
        return (g, gen_Kinv(a), gen_K(a + 1)), -ONE
    return (gen_K(b), gen_Kinv(a), g), -ONE


def _star_gen(ctx, g, theta):
    """Star of a generator as (word, sign exponent) for theta in {1, 2}."""
    kind = g[0]
    if kind in ("K", "Kinv"):
        return (g,), 0
    _, a, b = g
    sign = 1 if (theta == 2 and min(a, b) == ctx.m) else 0
    if b == a + 1:
        return (gen_E(b, a), gen_K(a), gen_Kinv(b)), sign
    return (gen_Kinv(b), gen_K(a), gen_E(b, a)), sign


def counit_word(word):
    """eps of a word: 1 if it contains no root vectors, else 0."""
    return ZERO if any(g[0] == "E" for g in word) else ONE


def counit(expr):
    total = ZERO
    for w, c in expr.terms.items():
        total = total + c * counit_word(w)
    return total


def antipode_word(ctx, word):
    """S on a word: reversed generator antipodes times the Koszul sign."""
    return reverse_word(word, _antipode_gen, partial(gen_parity, ctx))


def antipode(expr):
    ctx = expr.ctx
    return expr.map_words(lambda w: antipode_word(ctx, w))


def star(expr, theta=1):
    """Antilinear anti-automorphism; coefficient conjugation is trivial
    on Q(q) with rational coefficients (q is treated as a real point)."""
    if theta not in (1, 2):
        raise ValueError("star type must be 1 or 2")
    ctx = expr.ctx

    def star_gen(g):
        word, sign = _star_gen(ctx, g, theta)
        return word, sign_pow(sign)

    return expr.map_words(lambda w: reverse_word(w, star_gen))


def k2rho_word(ctx, inverse=False):
    """The group-like word prod_a K_a^{n_a} implementing S^2."""
    word = []
    for a, na in enumerate(ctx.k2rho_exponents(), start=1):
        if inverse:
            na = -na
        g = gen_K(a) if na > 0 else gen_Kinv(a)
        word.extend([g] * abs(na))
    return tuple(word)


def k2rho(ctx, inverse=False):
    return UqExpression.from_word(ctx, k2rho_word(ctx, inverse))


def s_inverse(expr):
    """S^{-1}(x) = K_{2rho}^{-1} S(x) K_{2rho}."""
    ctx = expr.ctx
    return k2rho(ctx, inverse=True) * antipode(expr) * k2rho(ctx)


def coproduct(expr):
    """Delta as {(left word, right word): coeff}, the form of
    coords.coproduct."""
    return expr.split_words(_delta_gen, partial(word_parity, expr.ctx))


def coproduct_opposite(expr):
    """Delta^op: the legs of Delta swapped with the sign (-1)^{|x'||x''|}."""
    ctx = expr.ctx
    return {(w2, w1): -c if word_parity(ctx, w1) & word_parity(ctx, w2)
            else c for (w1, w2), c in coproduct(expr).items()}


# ---------------------------------------------------------------------------
# Defining relations, exported as elements that vanish in representations.
# ---------------------------------------------------------------------------


def _E(ctx, a, b):
    return UqExpression.from_gen(ctx, gen_E(a, b))


def defining_relations(ctx):
    """All defining relations at this (m, n), as (name, element) pairs.

    Every element must evaluate to the zero matrix in any representation.
    The list covers: K-invertibility, the commuting Cartan torus, K-E
    conjugation, the bracket of raising with lowering simple root
    vectors, vanishing squares of the odd simple pair, commuting distant
    simple root vectors, the cubic relations among adjacent even-indexed
    simple root vectors, and (when both blocks have size >= 2) the
    quartic relations coupling the odd simple pair to the composite root
    vectors of length three.
    """
    m, N = ctx.m, ctx.N
    rels = []
    one = UqExpression.one(ctx)

    for a in range(1, N + 1):
        Ka = UqExpression.from_gen(ctx, gen_K(a))
        Kia = UqExpression.from_gen(ctx, gen_Kinv(a))
        rels.append(("k_inverse[%d]" % a, Ka * Kia - one))
        rels.append(("k_inverse_flip[%d]" % a, Kia * Ka - one))

    cartans = [gen_K(a) for a in range(1, N + 1)]
    cartans += [gen_Kinv(a) for a in range(1, N + 1)]
    for i in range(len(cartans)):
        for j in range(i + 1, len(cartans)):
            x = UqExpression.from_gen(ctx, cartans[i])
            y = UqExpression.from_gen(ctx, cartans[j])
            rels.append(("cartan_commute[%s,%s]"
                         % (cartans[i], cartans[j]), x * y - y * x))

    simples = [(b, b + 1) for b in range(1, N)] + [(b + 1, b) for b in range(1, N)]
    for a in range(1, N + 1):
        for (r, c) in simples:
            e = _E(ctx, r, c)
            Ka = UqExpression.from_gen(ctx, gen_K(a))
            Kia = UqExpression.from_gen(ctx, gen_Kinv(a))
            exp = ctx.sigma(a) * ((1 if a == r else 0) - (1 if a == c else 0))
            rels.append(("k_conjugation[%d;%d,%d]" % (a, r, c),
                         Ka * e - (e * Ka).scale(q_int(exp))))
            rels.append(("kinv_conjugation[%d;%d,%d]" % (a, r, c),
                         Kia * e - (e * Kia).scale(q_int(-exp))))

    for a in range(1, N):
        for b in range(1, N):
            e = _E(ctx, a, a + 1)
            f = _E(ctx, b + 1, b)
            lhs = graded_commutator(e, f)
            if a == b:
                qa = q_int(ctx.sigma(a))
                qainv = q_int(-ctx.sigma(a))
                kk = (UqExpression.from_word(ctx, (gen_K(a), gen_Kinv(a + 1)))
                      - UqExpression.from_word(ctx, (gen_Kinv(a), gen_K(a + 1))))
                lhs = lhs - kk.scale((qa - qainv).inverse())
            rels.append(("simple_bracket[%d,%d]" % (a, b), lhs))

    if 1 <= m < N:
        e = _E(ctx, m, m + 1)
        f = _E(ctx, m + 1, m)
        rels.append(("odd_square_raising", e * e))
        rels.append(("odd_square_lowering", f * f))

    for kind, mk in (("raising", lambda a: _E(ctx, a, a + 1)),
                     ("lowering", lambda a: _E(ctx, a + 1, a))):
        for a in range(1, N):
            for b in range(a + 2, N):
                rels.append(("distant_%s[%d,%d]" % (kind, a, b),
                             graded_commutator(mk(a), mk(b))))

    qplus = q_int(1) + q_int(-1)
    for kind, mk in (("raising", lambda a: _E(ctx, a, a + 1)),
                     ("lowering", lambda a: _E(ctx, a + 1, a))):
        for a in range(1, N):
            if a == m:
                continue  # odd simple pair: square is already zero
            for b in (a - 1, a + 1):
                if not 1 <= b <= N - 1:
                    continue
                x, y = mk(a), mk(b)
                rels.append(("serre_%s[%d,%d]" % (kind, a, b),
                             x * x * y - (x * y * x).scale(qplus) + y * x * x))

    if ctx.m >= 2 and ctx.n >= 2:
        xr = composite_root_vector(ctx, m - 1, m + 2)
        yr = _E(ctx, m, m + 1)
        rels.append(("mixed_quartic_raising", xr * yr + yr * xr))
        xl = composite_root_vector(ctx, m + 2, m - 1)
        yl = _E(ctx, m + 1, m)
        rels.append(("mixed_quartic_lowering", xl * yl + yl * xl))

    return rels


def composite_root_vector(ctx, i, j):
    """The root vector E_{i,j} for |i - j| >= 1 via the two-term recursion

        raising  (i < j):  E_{i,j} = E_{i,c} E_{c,j} - q^{-sigma_c} E_{c,j} E_{i,c}
        lowering (i > j):  E_{i,j} = E_{i,c} E_{c,j} - q^{+sigma_c} E_{c,j} E_{i,c}

    with the intermediate index pinned to c = max(i, j) - 1 (validated in
    the representation tests through the quartic relations at (2, 2))."""
    if i == j or not (1 <= i <= ctx.N and 1 <= j <= ctx.N):
        raise ValueError("invalid root vector indices (%d, %d)" % (i, j))
    if abs(i - j) == 1:
        return _E(ctx, i, j)
    c = max(i, j) - 1
    left = composite_root_vector(ctx, i, c)
    right = composite_root_vector(ctx, c, j)
    coeff = q_int(-ctx.sigma(c) if i < j else ctx.sigma(c))
    return left * right - (right * left).scale(coeff)


# ---------------------------------------------------------------------------
# Probe monomials: a deterministic spanning family of low-degree words.
# ---------------------------------------------------------------------------


def _multisets(items, odd, maxlen):
    """Non-decreasing words of length <= maxlen over ``items``, in which
    an item with odd(item) true appears at most once.  Ordered by
    (length, position), the empty word first."""
    words = [()]
    for length in range(1, maxlen + 1):
        # Repeats of an item sit next to each other in a non-decreasing
        # word.
        words += [w for w in itertools.combinations_with_replacement(
            items, length) if not any(
                a == b and odd(a) for a, b in zip(w, w[1:]))]
    return words


def probe_monomials(ctx, degree):
    """Non-decreasing words of length <= degree over the generator
    alphabet (Cartan first, then raising, then lowering), with each odd
    generator appearing at most once.  Ordered by (length, position)."""
    return _multisets(all_generators(ctx), partial(gen_parity, ctx), degree)


def pbw_probe_expressions(ctx, degree):
    """Ordered products (lowering roots) x (Cartan word) x (raising
    roots) of total length <= degree, with composite root vectors for
    the non-simple roots and odd roots used at most once per block.

    Sorted same-type words over simple generators alone miss functionals
    whose weight needs an odd generator twice in separated positions;
    this family spans those too, so it is the right probe set for rank
    and separation arguments.
    """
    N = ctx.N
    lowering = [(i, j) for j in range(1, N + 1) for i in range(j + 1, N + 1)]
    raising = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]

    def odd_root(r):
        return (ctx.parity(r[0]) + ctx.parity(r[1])) % 2

    cartan = [gen_K(a) for a in range(1, N + 1)]
    cartan += [gen_Kinv(a) for a in range(1, N + 1)]
    cartan_words = _multisets(cartan, lambda g: False, degree)
    raising_words = _multisets(raising, odd_root, degree)

    out = []
    for lw in _multisets(lowering, odd_root, degree):
        for cw in cartan_words:
            rest = degree - len(lw) - len(cw)
            if rest < 0:
                continue
            for rw in raising_words:
                if len(rw) > rest:
                    break
                expr = UqExpression.from_word(ctx, cw)
                for r in lw:
                    expr = expr * composite_root_vector(ctx, r[0], r[1])
                for r in rw:
                    expr = expr * composite_root_vector(ctx, r[0], r[1])
                out.append(expr)
    return out
