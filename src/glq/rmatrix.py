"""R-matrices on pairs of vector/dual-vector representations.

Each R-matrix is stated once, as the matrix-unit coefficients of an R
element (`r_element`); its operator on the graded tensor square
(`r_matrix`) is the Koszul tensor of those matrix units, so the signs
come from the tensor rule in `graded`.  The three R elements:

  * vector (x) vector:
        diag q^{sigma_a} on v_a (x) v_a (else 1), plus
        (q - q^{-1}) sum_{a<b} (-1)^{|b|} e_{ab} (x) e_{ba};
  * dual (x) dual: the same diagonal, with the off-diagonal sum over a > b;
  * dual (x) vector:
        diag q^{-sigma_a} on v-bar_a (x) v_a (else 1), minus
        (q - q^{-1}) sum_{a<b} (-1)^{|a|+|b|+|a||b|} e_{ba} (x) e_{ba}.

Each one intertwines the coproduct with its graded opposite on the
corresponding pair of representations:  R . (r1 (x) r2)(Delta x)
= (r1 (x) r2)(Delta' x) . R.  Composing with the graded flip yields the
braid operator, which satisfies the braid relation on triple tensors.
All three are invertible over Q(q) and become the identity in the
classical limit q -> 1.

The exchange relations with the coordinate generating matrices are
element-level identities in End(V) (x) End(V) (x) G_q: the R element
carries the displayed matrix-unit coefficients (no Koszul realisation),
T places t_ab at slot (a, b) in one matrix leg (T-bar likewise with
t-bar_ab, same index placement), products use the full Koszul sign for
triple tensors, and the G_q leg is paired against probe elements.
R T_1 T_2 = T_2 T_1 R then holds for all three leg pairings.
"""

from .coeff import ONE, Q, QINV, add_term, q_int
from .coords import CoordLetter, letter_parity, pair_table, pairing_table
from .graded import GradedMap, first_difference, graded_flip
from .reps import eval_tensor_pair, profile_rep
from .uq import (
    UqExpression,
    all_generators,
    coproduct,
    coproduct_opposite,
    probe_monomials,
)


def r_element(ctx, kind):
    """The R element as {(i, j, k, l): coeff} for coeff e_ij (x) e_kl."""
    N = ctx.N
    out = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            if a == b:
                e = ctx.sigma(a) if kind in ("vv", "dd") else -ctx.sigma(a)
                out[(a, a, b, b)] = q_int(e)
            else:
                out[(a, a, b, b)] = ONE
    coeff = Q - QINV
    if kind == "vv":
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                c = -coeff if ctx.parity(b) % 2 else coeff
                add_term(out, (a, b, b, a), c)
    elif kind == "dd":
        for a in range(1, N + 1):
            for b in range(1, a):
                c = -coeff if ctx.parity(b) % 2 else coeff
                add_term(out, (a, b, b, a), c)
    elif kind == "dv":
        for a in range(1, N + 1):
            for b in range(a + 1, N + 1):
                pa, pb = ctx.parity(a), ctx.parity(b)
                c = coeff if (pa + pb + pa * pb) % 2 else -coeff
                add_term(out, (b, a, b, a), c)
    else:
        raise ValueError("kind must be 'vv', 'dd' or 'dv'")
    return out


def r_matrix(ctx, kind):
    """The operator form of r_element(ctx, kind): each coefficient times
    the Koszul tensor e_ij (x) e_kl of matrix units on V (x) V."""
    V = profile_rep(ctx, (False,)).space
    out = GradedMap.zero(V.tensor(V), V.tensor(V))
    for (i, j, k, l), c in r_element(ctx, kind).items():
        eij = GradedMap(V, V, {(i - 1, j - 1): c})
        out = out + eij.tensor(GradedMap(V, V, {(k - 1, l - 1): ONE}))
    return out


def intertwines(R, r1, r2):
    """Where R (r1 (x) r2)(Delta x) = (r1 (x) r2)(Delta' x) R first fails:
    (generator x, entry, residual) by first_difference, or None."""
    ctx = r1.ctx
    for g in all_generators(ctx):
        x = UqExpression.from_gen(ctx, g)
        found = first_difference(
            R @ eval_tensor_pair(r1, r2, coproduct(x)),
            eval_tensor_pair(r1, r2, coproduct_opposite(x)) @ R)
        if found is not None:
            return (g,) + found
    return None


def braid_from_r(R, space1, space2):
    """The braid operator: graded flip composed with R."""
    return graded_flip(space1, space2) @ R


def braid_relation_holds(rhat, space):
    """(R^ (x) 1)(1 (x) R^)(R^ (x) 1) = (1 (x) R^)(R^ (x) 1)(1 (x) R^),
    or where it fails: the first_difference of the two sides, or None."""
    ident = GradedMap.identity(space)
    r12 = rhat.tensor(ident)
    r23 = ident.tensor(rhat)
    return first_difference(r12 @ r23 @ r12, r23 @ r12 @ r23)


def classical_limit_is_identity(R):
    """Entrywise evaluation at q = 1 must give the identity matrix."""
    d = R.domain.dim
    seen = set()
    for (r, c), v in R.entries.items():
        val = v.evaluate(1)
        if r == c:
            if val != 1:
                return False
            seen.add(r)
        elif val != 0:
            return False
    return len(seen) == d


# ---------------------------------------------------------------------------
# Exchange relations with the coordinate generating matrices.
#
# These are element-level identities in End(V) (x) End(V) (x) G_q: the
# R element (matrix-unit coefficients exactly as displayed at the top of
# this module, no Koszul realisation) multiplies the generating elements
# T_1 = sum e_ab (x) 1 (x) t_ab, T_2 = sum 1 (x) e_ab (x) t_ab (and the
# barred versions, same index placement) with the full Koszul sign rule
# for triple tensors, and the G_q leg is then paired against probe
# words.  R T_1 T_2 = T_2 T_1 R must hold entrywise for every probe.
# ---------------------------------------------------------------------------


def generating_element(ctx, leg, barred):
    """T (or T-bar) with the coordinate letter in the G_q leg:
    sum_{a,b} e_ab placed in the given matrix leg, times t_ab."""
    N = ctx.N
    out = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            letter = CoordLetter(barred, a, b)
            for c in range(1, N + 1):
                key = ((a, b, c, c, (letter,)) if leg == 1
                       else (c, c, a, b, (letter,)))
                out[key] = ONE
    return out


def triple_product(ctx, A, B):
    """Koszul product in End(V) (x) End(V) (x) G_q on decomposable
    pieces {(i, j, k, l, word): coeff}."""
    out = {}
    for (i1, j1, k1, l1, w1), c1 in A.items():
        p_mid = (ctx.parity(k1) + ctx.parity(l1)) % 2
        p_word = sum(letter_parity(ctx, l) for l in w1) % 2
        for (i2, j2, k2, l2, w2), c2 in B.items():
            if j1 != i2 or l1 != k2:
                continue
            y1 = (ctx.parity(i2) + ctx.parity(j2)) % 2
            y2 = (ctx.parity(k2) + ctx.parity(l2)) % 2
            c = c1 * c2
            if (y1 * (p_mid + p_word) + y2 * p_word) % 2:
                c = -c
            add_term(out, (i1, j2, k1, l2, w1 + w2), c)
    return out


def _with_empty_word(element):
    return {(i, j, k, l, ()): c for (i, j, k, l), c in element.items()}


def rtt_exchange_witness(ctx, kind, probe_words):
    """R T_1 T_2 = T_2 T_1 R against every probe word.  The difference of
    the two sides is built once and grouped by where its coordinate words
    pair; each probe then reads it off the nonzero entries of its image.
    Returns (probe word, (i, j, k, l), residual) for the first probe and
    the first entry on which the difference does not vanish, or None.

    kind selects the pair of legs: 'vv' (both plain), 'dd' (both
    barred), 'dv' (barred then plain), each with its own R element.
    """
    R = _with_empty_word(r_element(ctx, kind))
    t1 = generating_element(ctx, 1, kind in ("dd", "dv"))
    t2 = generating_element(ctx, 2, kind == "dd")
    diff = triple_product(ctx, triple_product(ctx, R, t1), t2)
    rhs = triple_product(ctx, triple_product(ctx, t2, t1), R)
    for key, c in rhs.items():
        add_term(diff, key, -c)
    table = pairing_table(ctx, ((key[:4], key[4], c)
                                for key, c in diff.items()))
    for x in probe_words:
        residuals = pair_table(table, x)
        if residuals:
            entry = min(residuals)
            return x, entry, residuals[entry]
    return None


# ---------------------------------------------------------------------------
# The checks of `glq rmatrix` by kind: each returns its first witness or None.
# ---------------------------------------------------------------------------

_KIND_ALIASES = {"pp": "vv", "bb": "dd", "mixed": "dv",
                 "vv": "vv", "dd": "dd", "dv": "dv"}


def resolve_kind(kind):
    """Normalise a kind label: 'pp'/'vv' both-plain, 'bb'/'dd'
    both-barred, 'mixed'/'dv' barred-then-plain."""
    try:
        return _KIND_ALIASES[kind]
    except KeyError:
        raise ValueError("kind must be one of %s"
                         % sorted(_KIND_ALIASES)) from None


def build_r_matrix(ctx, kind):
    """The R-matrix of the requested kind together with the two
    module factors it intertwines: (R, left factor, right factor)."""
    kind = resolve_kind(kind)
    left = profile_rep(ctx, (kind != "vv",))
    right = profile_rep(ctx, (kind == "dd",))
    return r_matrix(ctx, kind), left, right


def check_intertwiner(ctx, kind):
    """Where the R-matrix of this kind fails to intertwine the coproduct
    with its opposite on its module pair, as in `intertwines`, or None."""
    R, r1, r2 = build_r_matrix(ctx, kind)
    return intertwines(R, r1, r2)


def check_braid(ctx, kind):
    """Where the braid operator of this kind fails the braid relation, as
    in `braid_relation_holds`, or None.  Only the equal-factor kinds
    define one: the mixed kind raises ValueError."""
    if resolve_kind(kind) == "dv":
        raise ValueError("the mixed kind defines no braid operator")
    R, r1, r2 = build_r_matrix(ctx, kind)
    rhat = braid_from_r(R, r1.space, r2.space)
    return braid_relation_holds(rhat, r1.space)


def check_rtt(ctx, kind, probe_degree):
    """The first failure of the exchange identity on the coordinate probe
    words up to the given degree, as in `rtt_exchange_witness`, or None."""
    return rtt_exchange_witness(ctx, resolve_kind(kind),
                                probe_monomials(ctx, probe_degree))
