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
  * the trivial representation; the submodule generated by a
    highest-weight vector (``submodule_rep``), with its basis;
  * `profile_rep`, the tensor products of vector and dual legs, each
    built once per size and leg profile (``functools.cache``).

Decomposition finds all joint highest-weight vectors (kernels of the
raising operators, one weight block at a time) and closes each under the
lowering generators; the closure's echelon gives the summand's basis and
the coordinates of its generator images at once, and only the raising
images are checked against the span.  Each summand has one
highest-weight line, so it is irreducible and the summands form a direct
sum (see ``decompose``); their dimensions add up to the whole.  Each
summand keeps the module it was certified on, and its lowest weight,
which drives the dual-label computation.

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

from functools import cache

from .coeff import ONE, add_term, q_int
from .graded import (
    Echelon,
    GradedMap,
    GradedSpace,
    first_difference,
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
        out = {}
        for w, c in expr.terms.items():
            for rc, v in self.evaluate_word(w).entries.items():
                add_term(out, rc, v * c)
        return GradedMap(self.space, self.space, out)

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


def eval_tensor_pair(r1, r2, terms):
    """Evaluate a tensor of two words, {(w1, w2): coeff} as returned by
    uq.coproduct, in r1 (x) r2 under the Koszul matrix conventions of
    GradedMap.tensor."""
    space = r1.space.tensor(r2.space)
    out = {}
    for (w1, w2), c in terms.items():
        pair = r1.evaluate_word(w1).tensor(r2.evaluate_word(w2))
        for rc, v in pair.entries.items():
            add_term(out, rc, v * c)
    return GradedMap(space, space, out)


def tensor_rep(r1, r2):
    """Tensor product through the coproduct."""
    ctx = r1.ctx
    space = r1.space.tensor(r2.space)
    images = {g: eval_tensor_pair(r1, r2,
                                  coproduct(UqExpression.from_gen(ctx, g)))
              for g in all_generators(ctx)}
    return Representation(ctx, space, images,
                          name="%s(x)%s" % (r1.name, r2.name))


@cache
def profile_rep(ctx, profile):
    """The module with one vector leg per False and one dual leg per True
    in the tuple `profile`, built once per (ctx, profile): no legs is the
    trivial module, and a longer profile is the tensor product of the
    module of all but its last leg with the module of its last leg.
    Call it with positional arguments: the cache keys a keyword call
    apart, and would build a second module."""
    if not profile:
        return trivial_rep(ctx)
    if profile == (False,):
        return vector_rep(ctx)
    if profile == (True,):
        return dual_rep(profile_rep(ctx, (False,)))
    return tensor_rep(profile_rep(ctx, profile[:-1]),
                      profile_rep(ctx, profile[-1:]))


def check_relations(rep, relations=None):
    """Evaluate the (name, element) pairs of ``relations``, by default
    every defining relation; list of (name, vanished)."""
    if relations is None:
        relations = defining_relations(rep.ctx)
    return [(name, rep.evaluate_expr(expr).is_zero())
            for name, expr in relations]


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


def submodule_rep(rep, seed, name="sub"):
    """The submodule U.v = U^-.v (U = U^- U^0 U^+) generated by a
    highest-weight vector v, as (echelon basis, Representation).

    Only the lowering generators are applied, and the span they close is
    invariant under them by construction: every vector the echelon
    accepts is queued, and each of its lowering images is reduced
    against the span.  A reduced echelon row is 1 at its own pivot and 0
    at every other pivot, so an image in the span has its coordinates at
    the pivots.  The closure does not build the raising images: each
    image minus its coordinates' combination must vanish exactly, or the
    span is not invariant and ValueError is raised.  K_a^{+-1} only scale
    the weight-homogeneous basis vectors, so they are the
    ``cartan_images`` of their weights."""
    ctx = rep.ctx
    raising = raising_generators(ctx)
    lowering = lowering_generators(ctx)
    if len({rep.weights[i] for i, x in seed.items() if x}) != 1:
        raise ValueError("the seed must be a nonzero weight vector")
    if any(rep.image(g).apply(seed) for g in raising):
        raise ValueError("the seed must be a highest-weight vector")
    ech = Echelon()
    ech.add(seed)
    queue = [seed]
    while queue:
        v = queue.pop()
        for g in lowering:
            w = rep.image(g).apply(v)
            if w and ech.add(w):
                queue.append(w)
    pivots = sorted(ech.rows)
    basis = [ech.rows[p] for p in pivots]
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
    for g in raising + lowering:
        mat = rep.image(g)
        entries = {}
        for j, v in enumerate(basis):
            target = mat.apply(v)
            # Lowering images lie in the span: only raising ones are checked.
            residual = target if g in raising else None
            # Only the pivots in the image's support carry a coordinate;
            # they are read in basis order.
            for r in sorted(row_of[i] for i in target if i in row_of):
                x = entries[(r, j)] = target[pivots[r]]
                if residual is not None:
                    residual = vec_sub_scaled(residual, basis[r], x)
            if residual:
                raise ValueError("span is not invariant under %s: the image "
                                 "of basis vector %d leaves it" % (g, j))
        images[g] = GradedMap(space, space, entries)
    return basis, Representation(ctx, space, images, name=name)


class Summand:
    """One irreducible constituent of a decomposed representation: its
    basis in the ambient module and the module ``decompose`` certified
    on it (``rep``, one generator image per generator on that basis)."""

    __slots__ = ("highest_weight", "lowest_weight", "dim", "basis", "rep")

    def __init__(self, highest_weight, lowest_weight, basis, rep):
        self.highest_weight = highest_weight
        self.lowest_weight = lowest_weight
        self.basis = basis
        self.rep = rep
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
    vectors v (``submodule_rep``), each required to have one lowest- and
    one highest-weight line, and each kept with its module.  Each is then
    irreducible, and the sum is direct: a summand's intersection with the
    direct sum of the earlier ones is a submodule, so if nonzero it holds
    v, whose components in the earlier summands are highest-weight
    vectors of v's weight; v would then lie in the span of earlier
    highest-weight vectors, which are independent of it.  Dimensions
    adding up to dim(rep) make the sum exhaust it."""
    summands = []
    total = 0
    for weight, vec in highest_weight_vectors(rep):
        basis, sub = submodule_rep(rep, vec, name="hw=%s" % (weight,))
        lows = _joint_kernel_in_blocks(sub, lowering_generators(rep.ctx))
        if len(lows) != 1:
            raise ValueError("summand at %s has %d lowest-weight lines; "
                             "expected exactly 1 at generic q"
                             % (weight, len(lows)))
        highs = highest_weight_vectors(sub)
        if len(highs) != 1:  # the seed's line comes first
            raise ValueError("highest-weight closures overlap at %s"
                             % (highs[1][0],))
        summands.append(Summand(weight, lows[0][0], basis, sub))
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


@cache
def _power_summands(ctx, k):
    """The summands of the k-th tensor power of the vector module,
    decomposed once per (ctx, k)."""
    return decompose(profile_rep(ctx, (False,) * k))


def dual_label_of(ctx, weight):
    """Highest weight of the dual of the first-family module labelled by
    the given weight (found inside the k-th tensor power, whose summands
    are decomposed once per size and k)."""
    k = sum(weight)
    for s in _power_summands(ctx, k):
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
    space = profile_rep(ctx, (False,)).space
    return GradedMap(space, space, {
        (a - 1, a - 1): q_int(-sum(ctx.sigma(c) for c in range(1, a)))
        for a in range(1, N + 1)})


def dual_gram(ctx):
    """Gram matrix on the dual basis making the dual rep unitarisable."""
    N = ctx.N
    base = vector_gram(ctx)
    return GradedMap(base.domain, base.domain, {
        (a - 1, a - 1): q_int(ctx.two_rho_eps(a)) / base.get(a - 1, a - 1)
        for a in range(1, N + 1)})


def is_adjoint_pair(rep, gram, theta):
    """None when M(g)^T G = G M(*g) holds exactly in Q(q) for every
    generator g; else the first g where it fails, with the first
    difference of the two sides, as (generator, entry, residual).
    Equality over the field implies it at every rational point."""
    ctx = rep.ctx
    for g in all_generators(ctx):
        lhs = rep.image(g).transpose() @ gram
        rhs = gram @ rep.evaluate_expr(star(UqExpression.from_gen(ctx, g),
                                            theta))
        found = first_difference(lhs, rhs)
        if found is not None:
            return (g,) + found
    return None


def first_nonpositive_entry(gram, q0):
    """None when the diagonal Gram matrix is positive-definite at the
    rational point q0; else its first diagonal entry that is not positive
    there, as (entry, value at q0).  ValueError on any off-diagonal
    entry."""
    if any(r != c for r, c in gram.entries):
        raise ValueError("positivity test implemented for "
                         "diagonal Gram matrices only")
    for i in range(gram.domain.dim):
        value = gram.get(i, i).specialize(q0)
        if not value > 0:
            return (i, i), value
    return None


def unitarity_check(rep, gram, q0):
    """Unitarity report: Gram positivity at the rational point q0, the
    star types with the adjointness identity in Q(q), and both combined;
    with the witnesses of what fails: the first diagonal entry that is
    not positive at q0, and each star type's (generator, entry,
    residual) where adjointness fails."""
    nonpositive = first_nonpositive_entry(gram, q0)
    not_adjoint = {t: is_adjoint_pair(rep, gram, t) for t in (1, 2)}
    adjoint = [t for t, found in not_adjoint.items() if found is None]
    return {
        "q0": q0,
        "positive": nonpositive is None,
        "adjoint_types": adjoint,
        "unitary_types": adjoint if nonpositive is None else [],
        "nonpositive_entry": nonpositive,
        "not_adjoint": {t: found for t, found in not_adjoint.items()
                        if found is not None},
    }
