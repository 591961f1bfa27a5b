"""Parabolic induction realized on the quantum projective superspace.

Left and right translation turn the coordinate superalgebra into a
two-sided module over the enveloping superalgebra.  The span of the
degree-k plain monomials is stable under left translation and
transforms by a character under right translation by the lower maximal
parabolic (the one containing every lowering generator and all Levi
raisings except the last); the barred span does the same for the upper
parabolic.  Building the left-translation matrices on the normal
monomial basis therefore yields two concrete finite-dimensional modules
per degree — the realized induced modules — whose dimensions, highest
weights, irreducibility, and reciprocity dimensions (both counted by
`hom_dimension`) `glq induce` checks.  The weights are measured, not
asserted from monomial content: `Representation` reads them off the
K_a images that left translation builds.  Since K_a^{+-1} then act
diagonally by the weights, a module map is a weight-preserving map,
and `hom_dimension` solves only the E equations on the entries that
join basis vectors of one weight.

Left translation makes the coordinate algebra a module superalgebra:
g.(a w) = sum (-1)^{|x''||a|} (x'.a)(x''.w) over Delta^op(g) = sum
x' (x) x'', for a first letter a and the rest w of a word.  That is why
the degree-k spans are stable, and `build_induced` builds its matrices
by this rule (`translation_rule`), whose action is cached
(``functools.cache`` on the closure) for one build only.
Words of at most two letters take the coproduct path
(`dot_action_on_word`), which pairs the coordinate coproduct of the
whole word, about N^k terms, with S^-1(g).  That path is the rule's base
case and the oracle it is tested against.

This module is also where superspace meets the coordinate algebra: it
sends superspace words to last-column coordinate words and back, and
holds the co-action and the invariant-subalgebra certificate.  The
rewriting system in `superspace` itself needs only Q(q) and the grading.
"""

from functools import cache

from .coeff import ZERO, ONE, add_term, q_int
from .graded import GradedMap, GradedSpace, nullspace, rank
from .uq import (
    UqExpression,
    all_generators,
    coproduct_opposite,
    defining_relations,
    gen_E,
    gen_K,
    gen_Kinv,
    pbw_probe_expressions,
    s_inverse,
    word_parity,
)
from .coords import (
    CoordLetter,
    GqElement,
    coproduct as coords_coproduct,
    coord_word_parity,
    evaluate,
    functional_witness,
    pair_table,
    pairing_table,
)
from .reps import Representation, check_relations
from .superspace import (
    SpaceLetter,
    SuperspaceElement,
    barred_monomials,
    normal_form,
    plain_monomials,
    space_letter_parity,
)


# ---------------------------------------------------------------------------
# Superspace letters as coordinate functions, the co-action, and the
# invariant subalgebra.
# ---------------------------------------------------------------------------


def to_coordinate_letter(ctx, letter):
    return CoordLetter(letter.barred, letter.index, ctx.N)


def to_coordinate_element(ctx, element):
    return GqElement(ctx, {
        tuple(to_coordinate_letter(ctx, l) for l in word): c
        for word, c in element.terms.items()})


def space_word(ctx, coord_word):
    """The superspace word of a coordinate word in the last column."""
    letters = []
    for l in coord_word:
        if l.col != ctx.N:
            raise ValueError("letter %r is not a superspace letter" % (l,))
        letters.append(SpaceLetter(l.barred, l.row))
    return tuple(letters)


def coaction(ctx, element):
    """The right co-action sending z_a to sum_c z_c (x) t_{ac}: the
    coordinate coproduct with its legs flipped under the Koszul sign.
    Returns {(superspace word, coordinate word): coefficient}."""
    terms = {}
    f = to_coordinate_element(ctx, element)
    for (wl, wr), c in coords_coproduct(f).items():
        sgn = coord_word_parity(ctx, wl) * coord_word_parity(ctx, wr)
        if sgn % 2:
            c = -c
        add_term(terms, (space_word(ctx, wr), wl), c)
    return terms


def coaction_pair(ctx, terms, x, y):
    """Evaluate a co-action element against the probe pair (x, y):
    first legs paired as superspace functionals, second legs as
    coordinate functionals."""
    total = ZERO
    for (ws, wg), c in terms.items():
        f1 = to_coordinate_element(ctx, SuperspaceElement.from_word(ctx, ws))
        v1 = evaluate(ctx, f1, x)
        if not v1:
            continue
        v2 = evaluate(ctx, GqElement(ctx, {wg: ONE}), y)
        if v2:
            total = total + c * v1 * v2
    return total


def cp_basis(ctx, d, probe_degree=None):
    """Candidate spanning monomials of the bidegree-(d, d) slice of the
    invariant subalgebra, with a functional rank certificate.

    Returns (words, rank, dependencies): all products of a degree-d
    plain monomial with a degree-d barred monomial, their exact rank as
    functionals on the PBW probe family, and a basis of the dependency
    space (empty when the monomials are independent)."""
    if probe_degree is None:
        probe_degree = 2 * d
    words = []
    for pw in plain_monomials(ctx, d):
        for bw in barred_monomials(ctx, d):
            words.append(pw + bw)
    table = pairing_table(ctx, (
        (ci, cw, c) for ci, w in enumerate(words)
        for cw, c in to_coordinate_element(
            ctx, SuperspaceElement.from_word(ctx, w)).terms.items()))
    rows = [pair_table(table, x)
            for x in pbw_probe_expressions(ctx, probe_degree)]
    deps = nullspace(rows, len(words))
    return words, len(words) - len(deps), deps


# ---------------------------------------------------------------------------
# Translation actions.
# ---------------------------------------------------------------------------


def _as_expression(ctx, x):
    """Accept a UqExpression, a generator, or a word of generators."""
    if isinstance(x, UqExpression):
        return x
    if x and isinstance(x[0], str):
        x = (x,)
    return UqExpression.from_word(ctx, tuple(x))


def left_translation(ctx, x, element):
    """x . f = sum <f_(1), S^-1(x)> f_(2) on a coordinate element,
    landing back in coordinate words."""
    x = _as_expression(ctx, x)
    table = pairing_table(ctx, ((wr, wl, c) for (wl, wr), c
                                in coords_coproduct(element).items()))
    return GqElement(ctx, pair_table(table, s_inverse(x)))


def right_translation(ctx, x, element):
    """x o f = sum f_(1) (-1)^{|x|(|f| + |x|)} <f_(2), x>, one word of x
    at a time, each signed by its own parity."""
    table = pairing_table(ctx, (
        ((wl, coord_word_parity(ctx, wl + wr)), wr, c)
        for (wl, wr), c in coords_coproduct(element).items()))
    terms = {}
    for w, c in _as_expression(ctx, x).terms.items():
        odd = word_parity(ctx, w)
        for (wl, odd_f), v in pair_table(table, w).items():
            # The sign is -1 exactly when w is odd and the term of f even.
            add_term(terms, wl, -c * v if odd and not odd_f else c * v)
    return GqElement(ctx, terms)


def dot_action_on_word(ctx, x, word):
    """Left translation of a superspace word, reduced to normal form.

    This is the coproduct path: it expands the coordinate coproduct of
    the whole word, about N^k terms at degree k.  It is the base case of
    ``translation_rule`` and the oracle that the rule is tested against."""
    f = to_coordinate_element(ctx, SuperspaceElement.from_word(ctx, word))
    moved = left_translation(ctx, x, f)
    nf, _ = normal_form(ctx, SuperspaceElement(
        ctx, {space_word(ctx, w): c for w, c in moved.terms.items()}))
    return nf


def _signed_opposite_legs(ctx, g, letter):
    """The terms x' (x) x'' of Delta^op(g) as (x', x'', coeff), each
    coefficient carrying the sign (-1)^{|x''||a|} of moving x'' past the
    letter a."""
    odd = space_letter_parity(ctx, letter)
    legs = coproduct_opposite(UqExpression.from_gen(ctx, g))
    return [(x1, x2, -c if odd and word_parity(ctx, x2) else c)
            for (x1, x2), c in legs.items()]


# Words of at most this many letters take the coproduct path in
# translation_rule.  Two odd letters meet the Koszul sign of the
# coordinate word layout there, which a single letter never does.
COPRODUCT_BASE = 2


def translation_rule(ctx):
    """Left translation of normal words by the module-algebra rule.

    Returns act(g, word) -> {normal word: coeff} for a generator g and a
    normal monomial.  Left translation makes the coordinate algebra a
    module superalgebra, so for a first letter a and the rest w,

        g.(a w) = sum (-1)^{|x''||a|} (x'.a)(x''.w)

    over Delta^op(g) = sum x' (x) x''.  A word of generators acts last
    letter first.  The product concatenates the pieces, and normal_form
    reduces the sum once.  Words of at most ``COPRODUCT_BASE`` letters
    take the coproduct path ``dot_action_on_word``.  The returned
    function caches its values, so they live as long as it does."""
    base = COPRODUCT_BASE

    @cache
    def act(g, word):
        if len(word) <= base:
            return dot_action_on_word(ctx, g, word).terms
        terms = {}
        for x1, x2, c in _signed_opposite_legs(ctx, g, word[0]):
            head = act_word(x1, {word[:1]: ONE})
            tail = act_word(x2, {word[1:]: ONE}) if head else {}
            for hw, hc in head.items():
                for tw, tc in tail.items():
                    add_term(terms, hw + tw, c * hc * tc)
        return normal_form(ctx, SuperspaceElement(ctx, terms))[0].terms

    def act_word(gens, terms):
        for g in reversed(gens):
            moved = {}
            for w, c in terms.items():
                for w2, c2 in act(g, w).items():
                    add_term(moved, w2, c * c2)
            terms = moved
        return terms

    return act


# ---------------------------------------------------------------------------
# Parabolic subalgebras and characters.
# ---------------------------------------------------------------------------


def levi_generators(ctx, theta=None):
    """Generators of the Levi subalgebra cut out by a set of simple
    nodes: all Cartan elements, plus the raising and lowering at every
    node in ``theta`` (default: every node except the last)."""
    N = ctx.N
    if theta is None:
        theta = range(1, N - 1)
    theta = sorted(set(theta))
    if any(c < 1 or c > N - 1 for c in theta):
        raise ValueError("nodes must lie in 1..%d" % (N - 1))
    gens = []
    for a in range(1, N + 1):
        gens.append(gen_K(a))
        gens.append(gen_Kinv(a))
    for c in theta:
        gens.append(gen_E(c, c + 1))
        gens.append(gen_E(c + 1, c))
    return gens


def parabolic_generators(ctx, side, theta=None):
    """Generators of the parabolic over the Levi at ``theta`` (default:
    every simple node except the last): the Levi generators together
    with the lowerings ('lower') or raisings ('upper') at the remaining
    nodes."""
    gens = levi_generators(ctx, theta)
    rest = [c for c in range(1, ctx.N) if gen_E(c, c + 1) not in gens]
    if side == "lower":
        gens.extend(gen_E(c + 1, c) for c in rest)
    elif side == "upper":
        gens.extend(gen_E(c, c + 1) for c in rest)
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    return gens


def induced_character(ctx, k, side):
    """The character of the parabolic carried by the degree-k span:
    K_N acts by q_N^{k} on the plain side (paired with 'lower') and by
    q_N^{-k} on the barred side (paired with 'upper'); every other
    generator acts by 1 or 0."""
    N = ctx.N
    values = {}
    for g in parabolic_generators(ctx, side):
        if g[0] == "K":
            e = k if g[1] == N else 0
        elif g[0] == "Kinv":
            e = -k if g[1] == N else 0
        else:
            values[g] = ZERO
            continue
        if side == "upper":
            e = -e
        values[g] = q_int(ctx.sigma(N) * e)
    return values


def equivariance_defects(ctx, k, barred, degree=2):
    """Right-translation equivariance of every degree-k basis monomial
    under the matching parabolic: returns the failing (generator, word)
    pairs, empty when the span transforms by the character."""
    side = "upper" if barred else "lower"
    char = induced_character(ctx, k, side)
    words = barred_monomials(ctx, k) if barred else plain_monomials(ctx, k)
    failures = []
    for g, phi in char.items():
        for w in words:
            f = to_coordinate_element(ctx, SuperspaceElement.from_word(ctx, w))
            moved = right_translation(ctx, g, f)
            diff = moved - f.scale(phi)
            if functional_witness(ctx, diff, degree) is not None:
                failures.append((g, w))
    return failures


# ---------------------------------------------------------------------------
# The realized induced module.
# ---------------------------------------------------------------------------


class RelationError(ValueError):
    """A realized module violates a defining relation."""


def build_induced(ctx, k, barred):
    """Left-translation module on the degree-k normal monomials.

    The action is built by the module-algebra rule of
    ``translation_rule``, on the coproduct base, with an action cache
    local to this call: a cache shared between calls would let one build
    read the actions of another.  Verifies block stability (the action
    lands exactly in the span, else ValueError) and the defining
    relations (else RelationError); returns the Representation and its
    basis.

    Only the relations with an E generator in them are evaluated.  The
    others (k_inverse, k_inverse_flip, cartan_commute) hold by
    construction: ``Representation`` raises WeightError unless every
    K_a^{+-1} is the diagonal map q^{+-sigma_a w_a} of the weights, and
    such diagonal maps commute and are mutually inverse."""
    words = barred_monomials(ctx, k) if barred else plain_monomials(ctx, k)
    index = {w: i for i, w in enumerate(words)}
    parities = tuple(
        sum(space_letter_parity(ctx, l) for l in w) % 2 for w in words)
    space = GradedSpace(parities)
    act = translation_rule(ctx)
    images = {}
    for g in all_generators(ctx):
        ent = {}
        for j, w in enumerate(words):
            for out_word, c in act(g, w).items():
                if out_word not in index:
                    raise ValueError(
                        "action leaves the degree-%d span on %r" % (k, g))
                ent[(index[out_word], j)] = c
        images[g] = GradedMap(space, space, ent)
    name = "induced(%s, k=%d)" % ("barred" if barred else "plain", k)
    rep = Representation(ctx, space, images, name)
    with_e = [(nm, r) for nm, r in defining_relations(ctx)
              if any(g[0] == "E" for w in r.terms for g in w)]
    bad = [nm for nm, ok in check_relations(rep, with_e) if not ok]
    if bad:
        raise RelationError("induced module violates relations: %s" % bad)
    return rep, words


# ---------------------------------------------------------------------------
# Reciprocity dimensions.
# ---------------------------------------------------------------------------


def hom_dimension(rep_w, rep_h):
    """Dimension of the space of maps rep_w -> rep_h over the coefficient
    field (no parity restriction) that intertwine every generator on
    which rep_h is defined.

    Every K_a^{+-1} of a ``Representation`` acts by q^{+-sigma_a w_a} on
    the weights read off K, so a map commutes with the torus exactly
    when it preserves weights.  The unknowns are the entries f[i, j] with
    row i of rep_h and row j of rep_w of one weight, and only the E
    generators give equations, (M_H f - f M_W)[i, j] = 0, built from the
    sparse entries of both maps."""
    w_blocks = rep_w.weight_blocks()
    h_blocks = rep_h.weight_blocks()
    unknown = {}
    for mu, hs in h_blocks.items():
        for j in w_blocks.get(mu, ()):
            for i in hs:
                unknown[i, j] = len(unknown)
    rows = []
    for g, MH in rep_h.images.items():
        if g[0] != "E":
            continue
        eqs = {}
        for (i, kk), v in MH.entries.items():
            for j in w_blocks.get(rep_h.weights[kk], ()):
                add_term(eqs.setdefault((i, j), {}), unknown[kk, j], v)
        for (kk, j), v in rep_w.image(g).entries.items():
            for i in h_blocks.get(rep_w.weights[kk], ()):
                add_term(eqs.setdefault((i, j), {}), unknown[i, kk], -v)
        rows.extend(eqs.values())
    return len(unknown) - rank(rows)


def reciprocity_character(ctx, k, side):
    """Character used on the parabolic side of reciprocity: the
    co-transformation character composed with the antipode.  The
    realized module consists of functions co-transforming by the
    induced character under right translation, and evaluation at the
    counit carries an enveloping-algebra map into a parabolic
    functional only after inverting the Cartan values."""
    return {g: v.inverse() if g[0] in ("K", "Kinv") else v
            for g, v in induced_character(ctx, k, side).items()}


def parabolic_hom_dimension(ctx, rep_w, k, side):
    """Dimension of the maps rep_w -> (the degree-k character line)
    intertwining the parabolic action: hom_dimension into the line on
    which each parabolic generator acts by its reciprocity character."""
    line = GradedSpace((0,))
    images = {g: GradedMap(line, line, {(0, 0): phi})
              for g, phi in reciprocity_character(ctx, k, side).items()}
    return hom_dimension(rep_w, Representation(
        ctx, line, images, name="character"))


def frobenius_dims(ctx, rep_w, rep_h, k, barred):
    """(enveloping-side dim, parabolic-side dim) for one test module
    against the realized induced module rep_h = build_induced(ctx, k,
    barred)."""
    side = "upper" if barred else "lower"
    lhs = hom_dimension(rep_w, rep_h)
    rhs = parabolic_hom_dimension(ctx, rep_w, k, side)
    return lhs, rhs
