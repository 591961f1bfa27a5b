"""The coordinate Hopf superalgebra of the quantum general linear supergroup.

Elements are Q(q)-linear combinations of words in the coordinate letters
t_{ab} and t-bar_{ab} (a, b = 1..m+n), of parity |a| + |b|.  A word is
identified with a functional on the quantised enveloping superalgebra
through the canonical pairing

    < w_1 ... w_l , x >  =  (-1)^{sum_{i<j} |w_j| |a_i|}
                            ((rho_1 (x) ... (x) rho_l)(x))_{(a_1..a_l), (b_1..b_l)}

where letter w_i has subscripts (a_i, b_i), rho_i is the vector
representation for a plain letter and its antipode-twisted dual for a
barred one, and multi-indices are flattened row-major.  All structural
identities of the coordinate algebra are *functional*: two elements are
equal when they agree against every probe word up to a chosen degree.

`word_layout` states where a word pairs (profile module, entry, sign),
computed once per size and word (``functools.cache``).
Every pairing is a table read: `pairing_table` groups keyed coordinate
words by module and entry once, and `pair_table` walks only the nonzero
entries of the probe's image in each module.  One functional is a table
with one key (`evaluate`); many functionals, or the legs of a coproduct,
are one table keyed by functional or by leg.

Hopf structure on letters (same shape for barred letters):

    Delta(t_{ab}) = sum_c (-1)^{(|a|+|c|)(|c|+|b|)} t_{ac} (x) t_{cb}
    eps(t_{ab})   = delta_{ab}
    S(t_{ab})     = (-1)^{|a||b| + |a|} t-bar_{ba}
    S(t-bar_{ab}) = (-1)^{|a||b| + |b|} q^{(2rho, eps_b - eps_a)} t_{ba}

extended to words by `coeff.split_word` (Delta) and `coeff.reverse_word`
(S, with its reversal sign).  The star operations (theta = 1, 2) send
t_{ab} to (-1)^{(theta+|a|)(|a|+|b|)} t-bar_{ab} and back with the same
sign, extended by `coeff.reverse_word` without a sign.
"""

from collections import namedtuple
from functools import cache, partial

from .coeff import (Combination, ZERO, ONE, add_term, q_int, reverse_word,
                    sign_pow)
from .graded import GradedMap, invert, tensor_unindex
from .uq import UqExpression, probe_monomials, word_parity
from .reps import profile_rep


CoordLetter = namedtuple("CoordLetter", ["barred", "row", "col"])


def t_(a, b):
    return CoordLetter(False, a, b)


def tbar_(a, b):
    return CoordLetter(True, a, b)


def letter_parity(ctx, letter):
    return (ctx.parity(letter.row) + ctx.parity(letter.col)) % 2


def coord_word_parity(ctx, word):
    return sum(letter_parity(ctx, w) for w in word) % 2


class GqElement(Combination):
    """A Q(q)-linear combination of coordinate words."""

    __slots__ = ()

    @staticmethod
    def from_letter(ctx, letter, coeff=ONE):
        return GqElement(ctx, {(letter,): coeff})

    def __repr__(self):
        if not self.terms:
            return "GqElement(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            name = ".".join(("tb[%d,%d]" if l.barred else "t[%d,%d]")
                            % (l.row, l.col) for l in w) or "1"
            bits.append("(%s) %s" % (self.terms[w], name))
        return "GqElement[%s]" % " + ".join(bits)


# ---------------------------------------------------------------------------
# The canonical pairing against enveloping-algebra words.
# ---------------------------------------------------------------------------


@cache
def word_layout(ctx, word):
    """Where the canonical pairing of a coordinate word (a tuple of
    letters) reads its value: (profile module, flat row, flat column,
    whether the sign negates), computed once per (ctx, word).  The sign
    exponent sum_{i<j} |w_j| |a_i| is counted in one pass over the
    letters."""
    N = ctx.N
    row = col = sign = rows_parity = 0
    for letter in word:
        sign += letter_parity(ctx, letter) * rows_parity
        rows_parity += ctx.parity(letter.row)
        row = row * N + (letter.row - 1)
        col = col * N + (letter.col - 1)
    rep = profile_rep(ctx, tuple(l.barred for l in word))
    return rep, row, col, sign % 2 == 1


def pairing_table(ctx, terms):
    """Group (key, coordinate word, coefficient) triples by where their
    words pair: {profile module: {(row, col): {key: signed coefficient}}},
    the Koszul sign of each word folded into its coefficient.  Terms that
    share a key, a module and an entry are added up."""
    table = {}
    for key, word, c in terms:
        rep, row, col, negate = word_layout(ctx, tuple(word))
        add_term(table.setdefault(rep, {}).setdefault((row, col), {}),
                 key, -c if negate else c)
    return table


def pair_table(table, x):
    """Pair every key of a pairing table with a generator word or a
    UqExpression x: {key: value}, zeros omitted.  Only the nonzero
    entries of x's image in each profile module are read."""
    out = {}
    for rep, cells in table.items():
        image = (rep.evaluate_expr(x) if isinstance(x, UqExpression)
                 else rep.evaluate_word(x))
        for rc, v in image.entries.items():
            keyed = cells.get(rc)
            if keyed:
                for key, c in keyed.items():
                    add_term(out, key, c * v)
    return out


def _functional_table(ctx, element):
    """The pairing table of one GqElement, under the single key None."""
    return pairing_table(ctx, ((None, w, c) for w, c in element.terms.items()))


def evaluate(ctx, element, x):
    """Pair a GqElement with a UqExpression (or a single word): a one-key
    table read."""
    return pair_table(_functional_table(ctx, element), x).get(None, ZERO)


def counit(element):
    """eps(f) = <f, 1>."""
    return evaluate(element.ctx, element, ())


def functional_witness(ctx, f, degree):
    """The first probe word up to degree on which the functional f does
    not vanish, or None when it vanishes on all of them; two elements
    agree as functionals when their difference has no witness."""
    table = _functional_table(ctx, f)
    for x in probe_monomials(ctx, degree):
        if pair_table(table, x):
            return x
    return None


# ---------------------------------------------------------------------------
# Hopf structure.
# ---------------------------------------------------------------------------


def coproduct_letter(ctx, letter):
    """Delta on one letter, split over the internal index c:
    [(left piece, right piece, coeff)]."""
    a, b = letter.row, letter.col
    pa, pb = ctx.parity(a), ctx.parity(b)
    out = []
    for c in range(1, ctx.N + 1):
        pc = ctx.parity(c)
        out.append(((CoordLetter(letter.barred, a, c),),
                    (CoordLetter(letter.barred, c, b),),
                    sign_pow((pa + pc) * (pc + pb))))
    return out


def coproduct(element):
    """Delta on a GqElement: {(left, right): coeff} summed over terms."""
    ctx = element.ctx
    return element.split_words(partial(coproduct_letter, ctx),
                               partial(coord_word_parity, ctx))


def pair_coproduct(ctx, dfn, x, y):
    """< Delta f, x (x) y > with the graded pairing of tensors:
    < f' (x) f'', x (x) y > = (-1)^{|f''||x|} < f', x > < f'', y >."""
    px = word_parity(ctx, x)
    total = ZERO
    for (wl, wr), c in dfn.items():
        sgn = coord_word_parity(ctx, wr) * px
        v1 = evaluate(ctx, GqElement.from_word(ctx, wl), x)
        if not v1:
            continue
        v2 = evaluate(ctx, GqElement.from_word(ctx, wr), y)
        if not v2:
            continue
        term = c * v1 * v2
        total = total + (-term if sgn % 2 else term)
    return total


def antipode_letter(ctx, letter):
    """S on one letter: ((new letter,), coefficient)."""
    a, b = letter.row, letter.col
    pa, pb = ctx.parity(a), ctx.parity(b)
    if not letter.barred:
        return (CoordLetter(True, b, a),), sign_pow(pa * pb + pa)
    exp = ctx.two_rho_eps(b) - ctx.two_rho_eps(a)
    coeff = q_int(exp)
    if (pa * pb + pb) % 2:
        coeff = -coeff
    return (CoordLetter(False, b, a),), coeff


def antipode_word_coords(ctx, letters):
    """S(w_1 ... w_l) = Koszul sign times S(w_l) ... S(w_1)."""
    return reverse_word(letters, partial(antipode_letter, ctx),
                        partial(letter_parity, ctx))


def antipode_coords(element):
    ctx = element.ctx
    return element.map_words(lambda w: antipode_word_coords(ctx, w))


def _star_letter_map(ctx, theta):
    """Star on one letter, as a map letter -> ((new letter,), sign): bar
    status flips, indices stay."""
    if theta not in (1, 2):
        raise ValueError("star type must be 1 or 2")

    def star_letter(letter):
        a, b = letter.row, letter.col
        sgn = (theta + ctx.parity(a)) * (ctx.parity(a) + ctx.parity(b))
        return (CoordLetter(not letter.barred, a, b),), sign_pow(sgn)

    return star_letter


def star_coords(element, theta=1):
    """Antilinear anti-automorphism on coordinates (no Koszul sign);
    conjugation is trivial on rational coefficients at real q."""
    star_letter = _star_letter_map(element.ctx, theta)
    return element.map_words(lambda w: reverse_word(w, star_letter))


def star_coproduct(element, theta=1):
    """(* (x) *) Delta (f), with the Koszul convention for a tensor of
    antilinear odd-degree-aware maps: (* (x) *)(a (x) b) =
    (-1)^{|a||b|} (*a (x) *b).  Compares against Delta(*(f))."""
    ctx = element.ctx
    star_letter = _star_letter_map(ctx, theta)
    out = {}
    for (wl, wr), c in coproduct(element).items():
        if (coord_word_parity(ctx, wl) * coord_word_parity(ctx, wr)) % 2:
            c = -c
        nwl, cl = reverse_word(wl, star_letter)
        nwr, cr = reverse_word(wr, star_letter)
        add_term(out, (nwl, nwr), c * cl * cr)
    return out


# ---------------------------------------------------------------------------
# Matrix coefficients of constructed irreducibles.
# ---------------------------------------------------------------------------


def matrix_coefficients(ctx, profile, summands):
    """Entry functionals of every summand of a tensor representation,
    realized as exact combinations of coordinate words.

    `profile` is the tuple of barred flags defining the ambient tensor
    product (False = vector leg, True = dual leg), and `summands` its full
    decomposition.  One inverse of the change of basis to all summand
    bases serves every summand.  Returns one square list-of-lists of
    GqElements per summand, in order; entry (i, j) evaluates on every
    probe exactly as entry (i, j) of the summand's representation
    matrices.
    """
    rep = profile_rep(ctx, profile)
    dim = rep.dim
    cols = [v for s in summands for v in s.basis]
    if len(cols) != dim:
        raise ValueError("summand list does not decompose the module")
    change = GradedMap(rep.space, rep.space,
                       {(r, c): v for c, vec in enumerate(cols)
                        for r, v in vec.items()})
    inverse = invert(change)
    if inverse is None:
        raise ValueError("summand bases are linearly dependent")
    dims = (ctx.N,) * len(profile)
    grids = []
    start = 0
    for target in summands:
        grid = []
        for i in range(start, start + target.dim):
            out_row = []
            for vj in target.basis:
                terms = {}
                for r in range(dim):
                    di = inverse.get(i, r)
                    if not di:
                        continue
                    rid = tensor_unindex(r, dims)
                    for s_flat, cs in vj.items():
                        sid = tensor_unindex(s_flat, dims)
                        word = tuple(CoordLetter(bar, a + 1, b + 1)
                                     for bar, a, b in zip(profile, rid, sid))
                        coeff = di * cs
                        negate = word_layout(ctx, word)[3]
                        add_term(terms, word, -coeff if negate else coeff)
                out_row.append(GqElement(ctx, terms))
            grid.append(out_row)
        grids.append(grid)
        start += target.dim
    return grids
