"""Finite-dimensional weight representations and their decomposition.

A representation stores one sparse matrix per generator and the basis
parities.  Its weights are read off the K_a images (K_a acts on a
weight-w vector by q^{sigma_a w_a}, so an entry q^e at (i, i) gives
w_{i,a} = sigma_a e), and every K_a^{+-1} must be the diagonal map of
those weights: the torus is stated once.  Words are evaluated by
composing generator images, with prefix caching so large probe
families stay cheap.

Provided constructions:

  * the vector representation (basis v_1..v_{m+n}, K_a v_b = q_a^{d_ab} v_b,
    E_{a,b} v_c = d_{bc} v_a);
  * the dual of any representation, twisted by the antipode with the
    Koszul sign on the column index:
        M-bar(g)[r, c] = (-1)^{|g| p(c)} M(S(g))[c, r];
  * graded tensor products via the coproduct and Koszul matrix tensor;
  * the trivial representation; submodule representations on an explicit
    basis;
  * `profile_rep`, the one cache of the tensor products of vector and
    dual legs, each built once per size and leg profile.

Decomposition finds all joint highest-weight vectors (kernels of the
raising operators, one weight block at a time) and closes each under the
lowering generators.  Each summand has one highest-weight line, so it is
irreducible and the summands form a direct sum (see ``decompose``); their
dimensions add up to the whole.  The lowest weight of each summand is
recorded, which drives the dual-label computation.

Weight classification: the labels attached to tensor powers of the
vector representation are exactly the weights read off hook-bounded
Young diagrams (first block = first m rows; second block = the column
excesses over m), and labels of duals form the mirror family.  Both
families are recognised by searching the hook diagrams of the matching
size.

Unitarity: a representation is unitarisable of a given star type when
some positive-definite Gram matrix G satisfies M(g)^T G = G M(*g) for
every generator g.  The natural Gram matrices of the vector
representation, its dual, and their tensor products are provided.
"""

from __future__ import annotations

from .coeff import ONE, q_int
from .graded import (
    Echelon,
    GradedMap,
    GradedSpace,
    nullspace,
    vec_sub_scaled,
)
from .uq import (
    UqExpression,
    all_generators,
    antipode,
    coproduct,
    defining_relations,
    gen_E,
    gen_K,
    gen_Kinv,
    gen_parity,
    star,
)


def cartan_images(ctx, space, weights):
    """K_a^{+-1} on a weight basis: a vector of weight w is scaled by
    q^{+-sigma_a w_a}."""
    images = {}
    for a in range(1, ctx.N + 1):
        s = ctx.sigma(a)
        images[gen_K(a)] = GradedMap(space, space, {
            (i, i): q_int(s * w[a - 1]) for i, w in enumerate(weights)})
        images[gen_Kinv(a)] = GradedMap(space, space, {
            (i, i): q_int(-s * w[a - 1]) for i, w in enumerate(weights)})
    return images


class WeightError(ValueError):
    """A K_a^{+-1} image is not the diagonal map of the weights read off K."""


class Representation:
    """Images of the generators on a graded weight basis, the weights
    read off the K_a images."""

    __slots__ = ("ctx", "space", "images", "weights", "name", "_cache")

    def __init__(self, ctx, space, images, name=""):
        # A K_a entry that is not a power of q fails the comparison below.
        weights = [tuple(
            ctx.sigma(a) * min(images[gen_K(a)].get(i, i).coeffs, default=0)
            for a in range(1, ctx.N + 1)) for i in range(space.dim)]
        for g, mat in cartan_images(ctx, space, weights).items():
            if images.get(g) != mat:
                raise WeightError("%s does not act by q^(sigma_a w_a) on "
                                  "the weights read off K" % (g,))
        self.ctx = ctx
        self.space = space
        self.images = images
        self.weights = weights
        self.name = name
        self._cache = {(): GradedMap.identity(space)}

    @property
    def dim(self):
        return self.space.dim

    def image(self, g):
        return self.images[g]

    def evaluate_word(self, word):
        word = tuple(word)
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        mat = self.evaluate_word(word[:-1]) @ self.images[word[-1]]
        self._cache[word] = mat
        return mat

    def evaluate_expr(self, expr):
        out = GradedMap.zero(self.space, self.space)
        for w, c in expr.terms.items():
            out = out + self.evaluate_word(w).scale(c)
        return out

    def weight_blocks(self):
        """Weight -> sorted list of basis indices, deterministic order."""
        blocks = {}
        for i, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(i)
        return dict(sorted(blocks.items(), reverse=True))

    def __repr__(self):
        return "Representation(%s, dim=%d)" % (self.name or "?", self.dim)


def vector_rep(ctx):
    """The vector representation on basis v_1 .. v_{m+n}."""
    N = ctx.N
    space = GradedSpace(tuple(ctx.parity(a) for a in range(1, N + 1)))
    images = cartan_images(ctx, space, [ctx.eps(a) for a in range(1, N + 1)])
    for a in range(1, N):
        images[gen_E(a, a + 1)] = GradedMap(space, space, {(a - 1, a): ONE})
        images[gen_E(a + 1, a)] = GradedMap(space, space, {(a, a - 1): ONE})
    return Representation(ctx, space, images, name="V")


def trivial_rep(ctx):
    space = GradedSpace((0,))
    images = {}
    for g in all_generators(ctx):
        if g[0] == "E":
            images[g] = GradedMap.zero(space, space)
        else:
            images[g] = GradedMap.identity(space)
    return Representation(ctx, space, images, name="1")


def dual_rep(rep):
    """Antipode-twisted dual on the same parity profile, weights negated."""
    ctx = rep.ctx
    space = rep.space
    images = {}
    for g in all_generators(ctx):
        ms = rep.evaluate_expr(antipode(UqExpression.from_gen(ctx, g)))
        pg = gen_parity(ctx, g)
        out = {}
        for (c, r), v in ms.entries.items():
            if pg and space.parities[c] % 2:
                out[(r, c)] = -v
            else:
                out[(r, c)] = v
        images[g] = GradedMap(space, space, out)
    return Representation(ctx, space, images, name="(%s)~" % rep.name)


def eval_tensor_pair(r1, r2, texpr):
    """Evaluate an arity-2 tensor expression in r1 (x) r2, Koszul matrix
    conventions."""
    space = r1.space.tensor(r2.space)
    out = GradedMap.zero(space, space)
    for (w1, w2), c in texpr.terms.items():
        out = out + r1.evaluate_word(w1).tensor(
            r2.evaluate_word(w2)).scale(c)
    return out


def tensor_rep(r1, r2):
    """Tensor product through the coproduct."""
    ctx = r1.ctx
    space = r1.space.tensor(r2.space)
    images = {g: eval_tensor_pair(r1, r2,
                                  coproduct(UqExpression.from_gen(ctx, g)))
              for g in all_generators(ctx)}
    return Representation(ctx, space, images,
                          name="%s(x)%s" % (r1.name, r2.name))


_profile_reps = {}


def profile_rep(ctx, profile):
    """The module with one vector leg per False and one dual leg per True
    in `profile`, built once per (ctx, profile): no legs is the trivial
    module, and a longer profile is the tensor product of the module of
    all but its last leg with the module of its last leg."""
    profile = tuple(profile)
    key = (ctx, profile)
    rep = _profile_reps.get(key)
    if rep is None:
        if not profile:
            rep = trivial_rep(ctx)
        elif profile == (False,):
            rep = vector_rep(ctx)
        elif profile == (True,):
            rep = dual_rep(profile_rep(ctx, (False,)))
        else:
            rep = tensor_rep(profile_rep(ctx, profile[:-1]),
                             profile_rep(ctx, profile[-1:]))
        _profile_reps[key] = rep
    return rep


def _unit_pivots(basis):
    """For each basis vector, an index where it is 1 and every other
    basis vector is 0 (the smallest such index).  Reduced echelon bases,
    as returned by ``Echelon.basis()``, always have one."""
    owners = {}
    for v in basis:
        for i in v:
            owners[i] = owners.get(i, 0) + 1
    pivots = []
    for j, v in enumerate(basis):
        piv = min((i for i, x in v.items() if owners[i] == 1 and x == ONE),
                  default=None)
        if piv is None:
            raise ValueError("basis vector %d has no unit pivot" % j)
        pivots.append(piv)
    return pivots


def submodule_rep(rep, basis, name="sub"):
    """Restriction of rep to the span of an explicit ordered basis.

    The basis must have unit pivots (see ``_unit_pivots``), as the
    reduced echelon bases from ``Echelon.basis()`` do.  The coordinates
    of each E image are read off at the pivots, and the image minus
    their combination must vanish exactly, or the span is not invariant
    and ValueError is raised.  K_a^{+-1} only scale the weight-homogeneous
    basis vectors, so they are the ``cartan_images`` of their weights."""
    ctx = rep.ctx
    pivots = _unit_pivots(basis)
    parities = []
    weights = []
    for v in basis:
        ps = {rep.space.parities[i] for i in v}
        ws = {rep.weights[i] for i in v}
        if len(ps) != 1 or len(ws) != 1:
            raise ValueError("basis vectors must be parity- and "
                             "weight-homogeneous")
        parities.append(ps.pop())
        weights.append(ws.pop())
    space = GradedSpace(tuple(parities))
    row_of = {piv: r for r, piv in enumerate(pivots)}
    images = cartan_images(ctx, space, weights)
    for g in raising_generators(ctx) + lowering_generators(ctx):
        mat = rep.image(g)
        entries = {}
        for j, v in enumerate(basis):
            target = mat.apply(v)
            residual = target
            # Only the pivots in the image's support can carry a
            # coordinate; they are read in basis order.
            for r in sorted(row_of[i] for i in target if i in row_of):
                x = target[pivots[r]]
                entries[(r, j)] = x
                residual = vec_sub_scaled(residual, basis[r], x)
            if residual:
                raise ValueError("span is not invariant under %s: the image "
                                 "of basis vector %d leaves it" % (g, j))
        images[g] = GradedMap(space, space, entries)
    return Representation(ctx, space, images, name=name)


def check_relations(rep):
    """Evaluate every defining relation; list of (name, vanished)."""
    return [(name, rep.evaluate_expr(expr).is_zero())
            for name, expr in defining_relations(rep.ctx)]


# ---------------------------------------------------------------------------
# Highest-weight analysis and decomposition.
# ---------------------------------------------------------------------------


def raising_generators(ctx):
    return [gen_E(a, a + 1) for a in range(1, ctx.N)]


def lowering_generators(ctx):
    return [gen_E(a + 1, a) for a in range(1, ctx.N)]


def _joint_kernel_in_blocks(rep, gens):
    """Joint kernel of the given generator images, one weight block at a
    time; returns [(weight, ambient vector)] in descending weight order."""
    out = []
    mats = [rep.image(g) for g in gens]
    for weight, block in rep.weight_blocks().items():
        pos = {i: p for p, i in enumerate(block)}
        rows = []
        for mat in mats:
            by_row = {}
            for (r, c), v in mat.entries.items():
                if c in pos:
                    by_row.setdefault(r, {})[pos[c]] = v
            rows.extend(by_row.values())
        for vec in nullspace(rows, len(block)):
            out.append((weight, {block[j]: x for j, x in vec.items()}))
    return out


def highest_weight_vectors(rep):
    return _joint_kernel_in_blocks(rep, raising_generators(rep.ctx))


def generated_submodule(rep, seed):
    """Echelon basis of the submodule U.v = U^-.v (U = U^- U^0 U^+)
    generated by a highest-weight vector v: only the lowering generators
    are applied.  ``submodule_rep`` still checks the span against every
    generator."""
    if len({rep.weights[i] for i, x in seed.items() if x}) != 1:
        raise ValueError("the seed must be a nonzero weight vector")
    if any(rep.image(g).apply(seed) for g in raising_generators(rep.ctx)):
        raise ValueError("the seed must be a highest-weight vector")
    ech = Echelon()
    ech.add(seed)
    queue = [seed]
    mats = [rep.image(g) for g in lowering_generators(rep.ctx)]
    while queue:
        v = queue.pop()
        for mat in mats:
            w = mat.apply(v)
            if w and ech.add(w):
                queue.append(w)
    return ech.basis()


class Summand:
    """One irreducible constituent of a decomposed representation."""

    __slots__ = ("highest_weight", "lowest_weight", "dim", "basis")

    def __init__(self, highest_weight, lowest_weight, basis):
        self.highest_weight = highest_weight
        self.lowest_weight = lowest_weight
        self.basis = basis
        self.dim = len(basis)

    @property
    def dual_label(self):
        """Highest weight of the dual of this summand."""
        return tuple(-x for x in self.lowest_weight)

    def __repr__(self):
        return ("Summand(hw=%s, dim=%d, lw=%s)"
                % (self.highest_weight, self.dim, self.lowest_weight))


def decompose(rep):
    """Split into the submodules U^-.v of a basis of highest-weight
    vectors v, each required to have one lowest- and one highest-weight
    line.  Each is then irreducible, and the sum is direct: a summand's
    intersection with the direct sum of the earlier ones is a submodule,
    so if nonzero it holds v, whose components in the earlier summands
    are highest-weight vectors of v's weight; v would then lie in the
    span of earlier highest-weight vectors, which are independent of it.
    Dimensions adding up to dim(rep) make the sum exhaust it."""
    summands = []
    total = 0
    for weight, vec in highest_weight_vectors(rep):
        basis = generated_submodule(rep, vec)
        sub = submodule_rep(rep, basis, name="hw=%s" % (weight,))
        lows = _joint_kernel_in_blocks(sub, lowering_generators(rep.ctx))
        if len(lows) != 1:
            raise ValueError("summand at %s has %d lowest-weight lines; "
                             "expected exactly 1 at generic q"
                             % (weight, len(lows)))
        highs = highest_weight_vectors(sub)
        if len(highs) != 1:  # the seed's line comes first
            raise ValueError("highest-weight closures overlap at %s"
                             % (highs[1][0],))
        summands.append(Summand(weight, lows[0][0], basis))
        total += len(basis)
    if total != rep.dim:
        raise ValueError("decomposition does not exhaust the module: "
                         "%d of %d" % (total, rep.dim))
    summands.sort(key=lambda s: s.highest_weight, reverse=True)
    return summands


# ---------------------------------------------------------------------------
# The two label families attached to tensor powers of V and of its dual.
# ---------------------------------------------------------------------------


def hook_partitions(ctx, k):
    """Partitions of k whose diagram fits the (m, n)-hook: at most n
    columns beyond row m (that is, row m+1 has length <= n)."""
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            if len(prefix) >= ctx.m and part > ctx.n:
                continue
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def partition_weight(ctx, diagram):
    """Label of the summand attached to a hook diagram: first m rows,
    then the column excesses over m."""
    rows = list(diagram)
    first = [rows[a] if a < len(rows) else 0 for a in range(ctx.m)]
    conj = [sum(1 for r in rows if r >= c + 1)
            for c in range(ctx.n)]
    tail = [max(h - ctx.m, 0) for h in conj]
    return tuple(first + tail)


def in_first_family(ctx, weight):
    """Membership of a label among the tensor-power family: (bool,
    witness).  The witness is the hook diagram of size sum(weight) that
    carries this label, its rows padded with zeros to length >= m+n."""
    weight = tuple(weight)
    for diagram in hook_partitions(ctx, sum(weight)):
        if partition_weight(ctx, diagram) == weight:
            return True, diagram + (0,) * (ctx.N - len(diagram))
    return False, None


_dual_power_cache = {}


def dual_label_of(ctx, weight):
    """Highest weight of the dual of the first-family module labelled by
    the given weight (found inside the k-th tensor power, whose summands
    are decomposed once per size and k)."""
    k = sum(weight)
    key = (ctx, k)
    if key not in _dual_power_cache:
        _dual_power_cache[key] = decompose(profile_rep(ctx, (False,) * k))
    for s in _dual_power_cache[key]:
        if s.highest_weight == tuple(weight):
            return s.dual_label
    raise ValueError("label %s not found in the %d-th tensor power"
                     % (weight, k))


def in_second_family(ctx, weight):
    """Membership among duals of the tensor-power family: (bool, witness).

    The witness is the first-family label whose dual carries this
    weight.  Uses k = -sum(weight) and searches hook diagrams of size k.
    """
    weight = tuple(weight)
    k = -sum(weight)
    for diagram in hook_partitions(ctx, k):
        mu = partition_weight(ctx, diagram)
        if dual_label_of(ctx, mu) == weight:
            return True, mu
    return False, None


# ---------------------------------------------------------------------------
# Contravariant forms and unitarity.
# ---------------------------------------------------------------------------


def vector_gram(ctx):
    """Diagonal Gram matrix (v_a, v_a) = prod_{c<a} q_c^{-1}."""
    N = ctx.N
    space = GradedSpace(tuple(ctx.parity(a) for a in range(1, N + 1)))
    return GradedMap(space, space, {
        (a - 1, a - 1): q_int(-sum(ctx.sigma(c) for c in range(1, a)))
        for a in range(1, N + 1)})


def dual_gram(ctx):
    """Gram matrix on the dual basis making the dual rep unitarisable."""
    N = ctx.N
    space = GradedSpace(tuple(ctx.parity(a) for a in range(1, N + 1)))
    base = vector_gram(ctx)
    return GradedMap(space, space, {
        (a - 1, a - 1): q_int(ctx.two_rho_eps(a)) / base.get(a - 1, a - 1)
        for a in range(1, N + 1)})


def is_adjoint_pair(rep, gram, theta):
    """Does M(g)^T G = G M(*g) hold exactly in Q(q) for every generator?
    Equality over the field implies it at every rational point."""
    ctx = rep.ctx
    for g in all_generators(ctx):
        lhs = rep.image(g).transpose() @ gram
        rhs = gram @ rep.evaluate_expr(star(UqExpression.from_gen(ctx, g),
                                            theta))
        if lhs != rhs:
            return False
    return True


def gram_is_positive(gram, q0):
    """Positive-definiteness for diagonal Gram matrices at rational q0."""
    dense = gram.specialize(q0)
    d = gram.domain.dim
    for i in range(d):
        for j in range(d):
            if i == j:
                if dense[i][i] <= 0:
                    return False
            elif dense[i][j] != 0:
                raise ValueError("positivity test implemented for "
                                 "diagonal Gram matrices only")
    return True


def unitarity_check(rep, gram, q0):
    """Unitarity report: Gram positivity at the rational point q0, the
    star types with the adjointness identity in Q(q), and both combined."""
    positive = gram_is_positive(gram, q0)
    adjoint = [t for t in (1, 2) if is_adjoint_pair(rep, gram, t)]
    return {
        "q0": q0,
        "positive": positive,
        "adjoint_types": adjoint,
        "unitary_types": adjoint if positive else [],
    }
