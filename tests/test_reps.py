"""Representations: vector/dual/tensor constructions, weight-space
decomposition into highest-weight summands, the two label families, and
contravariant forms / unitarity at generic rational points."""

import random
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from math import factorial

import pytest

from glq import parser, superspace
from glq.coeff import ONE, QINV, ZERO, q_int
from glq.coords import t_, tbar_, word_layout
from glq.graded import (Echelon, GradedMap, GradedSpace, GradingContext,
                        rank, solve)
from glq.reps import (
    Representation,
    cartan_images,
    check_relations,
    decompose,
    dual_gram,
    dual_label_of,
    dual_rep,
    eval_tensor_pair,
    first_nonpositive_entry,
    highest_weight_vectors,
    hook_partitions,
    in_first_family,
    in_second_family,
    is_adjoint_pair,
    partition_weight,
    profile_rep,
    _power_summands,
    submodule_rep,
    tensor_rep,
    trivial_rep,
    vector_gram,
    vector_rep,
    unitarity_check,
)
from glq.uq import (UqExpression, all_generators, coproduct,
                    defining_relations, gen_E, gen_K, gen_Kinv, star)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.fixture(params=SIZES, ids=lambda s: "m%dn%d" % s)
def ctx(request):
    return GradingContext(*request.param)


# ---------------------------------------------------------------------------
# Base representations.
# ---------------------------------------------------------------------------


def test_vector_rep_shape(ctx):
    pi = vector_rep(ctx)
    assert pi.dim == ctx.N
    assert pi.space.parities == tuple(ctx.parity(a) for a in range(1, ctx.N + 1))


def test_dual_rep_frozen_at_1_1():
    pi = vector_rep(GradingContext(1, 1))
    pibar = dual_rep(pi)
    assert pibar.image(("E", 1, 2)).entries == {(1, 0): -QINV}
    assert pibar.image(("E", 2, 1)).entries == {(0, 1): q_int(1)}
    assert pibar.image(("K", 1)).entries == {(0, 0): QINV, (1, 1): ONE}
    assert pibar.weights == [(-1, 0), (0, -1)]


def test_dual_rep_negates_weights(ctx):
    pi = vector_rep(ctx)
    pibar = dual_rep(pi)
    assert pibar.weights == [tuple(-x for x in w) for w in pi.weights]


def test_trivial_rep_counit_values(ctx):
    triv = trivial_rep(ctx)
    for g in all_generators(ctx):
        M = triv.image(g)
        expected = ONE if g[0] in ("K", "Kinv") else None
        if expected is None:
            assert M.is_zero()
        else:
            assert M.entries == {(0, 0): expected}


def test_tensor_rep_weights_add(ctx):
    pi = vector_rep(ctx)
    sq = tensor_rep(pi, pi)
    N = ctx.N
    for i in range(N):
        for j in range(N):
            wt = sq.weights[i * N + j]
            assert wt == tuple(pi.weights[i][a] + pi.weights[j][a]
                               for a in range(N))


class TestWeightsReadOffCartan:
    """A Representation reads its weights off the K_a images, and every
    K_a^{+-1} must be the diagonal map q^{+-sigma_a w_a} of them."""

    @staticmethod
    def _with(ctx, g, entries):
        V = vector_rep(ctx)
        images = dict(V.images)
        images[g] = GradedMap(V.space, V.space, entries)
        return V.space, images

    def test_weights_read_off_k(self, ctx):
        V = vector_rep(ctx)
        again = Representation(ctx, V.space, dict(V.images))
        assert again.weights == [ctx.eps(a) for a in range(1, ctx.N + 1)]

    def test_non_diagonal_k_rejected(self):
        ctx = GradingContext(1, 1)
        space, images = self._with(ctx, gen_K(1), {
            (0, 0): q_int(1), (1, 1): ONE, (0, 1): ONE})
        with pytest.raises(ValueError, match=r"\('K', 1\)"):
            Representation(ctx, space, images)

    @pytest.mark.parametrize("entry", [q_int(1) + q_int(1), -q_int(1)],
                             ids=["2q", "-q"])
    def test_k_entry_not_a_q_power_rejected(self, entry):
        ctx = GradingContext(1, 1)
        space, images = self._with(ctx, gen_K(1), {(0, 0): entry,
                                                   (1, 1): ONE})
        with pytest.raises(ValueError, match=r"\('K', 1\)"):
            Representation(ctx, space, images)

    def test_kinv_not_the_inverse_diagonal_rejected(self):
        ctx = GradingContext(1, 1)
        space, images = self._with(ctx, gen_Kinv(1), {(0, 0): q_int(1),
                                                      (1, 1): ONE})
        with pytest.raises(ValueError, match=r"\('Kinv', 1\)"):
            Representation(ctx, space, images)


def _same_module(rep, fresh):
    return (rep.space == fresh.space and rep.weights == fresh.weights
            and rep.images == fresh.images)


def test_profile_rep_is_built_once_per_context_and_profile():
    ctx = GradingContext(2, 1)
    for profile in [(), (False,), (True,), (False, True, True)]:
        rep = profile_rep(ctx, profile)
        assert profile_rep(GradingContext(2, 1), profile) is rep
        assert profile_rep(GradingContext(1, 2), profile) is not rep


# Each cached table, as a function of the context alone.
CACHED = {
    "word_layout": lambda ctx: word_layout(ctx, (t_(1, 2), tbar_(3, 1))),
    "_rules": superspace._rules,
    "_spelled_rules": superspace._spelled_rules,
    "_power_summands": lambda ctx: _power_summands(ctx, 2),
    "_monomial_word": lambda ctx: parser._monomial_word(
        ctx, "Zb", ((1,) * ctx.m, (2,) * ctx.n)),
    # zbar_m, read back from its one-character spelling.
    "_letter": lambda ctx: superspace._letter(chr(2 * ctx.m + 1)),
}


@pytest.mark.parametrize("name", sorted(CACHED))
def test_cached_table_is_built_once_per_key(name):
    build = CACHED[name]
    table = build(GradingContext(2, 1))
    assert build(GradingContext(2, 1)) is table
    assert build(GradingContext(1, 2)) is not table


@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
def test_profile_rep_matches_fresh_builds(size):
    ctx = GradingContext(*size)
    V = vector_rep(ctx)
    assert _same_module(profile_rep(ctx, ()), trivial_rep(ctx))
    assert _same_module(profile_rep(ctx, (False,)), V)
    assert _same_module(profile_rep(ctx, (True,)), dual_rep(V))
    assert _same_module(profile_rep(ctx, (False,) * 3),
                        tensor_rep(tensor_rep(V, V), V))
    assert _same_module(profile_rep(ctx, (False, True)),
                        tensor_rep(V, dual_rep(V)))


def _random_terms(rng, make_key, relations):
    """Random terms under keys from make_key(), with the terms of two of
    the relations (dicts that evaluate to zero) shuffled in, so that
    entries cancel part way through a sum."""
    coeffs = [ONE, -ONE, q_int(1), q_int(-2), ONE + q_int(1),
              ONE / (ONE + q_int(2))]
    items = [(make_key(), rng.choice(coeffs))
             for _ in range(rng.randint(1, 6))]
    for rel in rng.sample(relations, 2):
        items.extend(rel.items())
    rng.shuffle(items)
    return dict(items)


def _assert_folded_order(got, pieces):
    """got has the entries, in order, of a zero map plus each piece in
    turn; returns whether an entry was dropped and added again on the
    way, which moves it behind the entries first seen after it."""
    want = sum(pieces, GradedMap.zero(got.domain, got.codomain))
    assert list(got.entries.items()) == list(want.entries.items())
    seen = dict.fromkeys(rc for p in pieces for rc in p.entries)
    return [rc for rc in seen if rc in want.entries] != list(want.entries)


@pytest.mark.parametrize("size", [(2, 1), (1, 2)])
def test_word_sums_keep_the_term_by_term_entry_order(size):
    # Entry order feeds min(entries) witnesses and echelon pivots, so
    # evaluate_expr and eval_tensor_pair, which add into one dict, must
    # give the entry order of the old fold of one scaled map per term.
    ctx = GradingContext(*size)
    rng = random.Random(27)
    gens = all_generators(ctx)
    relations = [rel for _, rel in defining_relations(ctx)]
    V = profile_rep(ctx, (False,))
    D = profile_rep(ctx, (True,))

    def word():
        return tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))

    moved = 0
    for _ in range(12):
        expr = UqExpression(ctx, _random_terms(
            rng, word, [rel.terms for rel in relations]))
        for rep in (V, D):
            moved += _assert_folded_order(rep.evaluate_expr(expr), [
                rep.evaluate_word(w).scale(c) for w, c in expr.terms.items()])
        pairs = _random_terms(rng, lambda: (word(), word()),
                              [coproduct(rel) for rel in relations])
        moved += _assert_folded_order(eval_tensor_pair(V, D, pairs), [
            V.evaluate_word(w1).tensor(D.evaluate_word(w2)).scale(c)
            for (w1, w2), c in pairs.items()])
    # The order of a re-added entry is what a plain union would get wrong.
    assert moved


# ---------------------------------------------------------------------------
# Decomposition of tensor powers: frozen highest/lowest weights and dims.
# ---------------------------------------------------------------------------

EXPECTED_SQUARES = {
    (1, 1): [((2, 0), 2, (1, 1)), ((1, 1), 2, (0, 2))],
    (2, 1): [((2, 0, 0), 5, (0, 1, 1)), ((1, 1, 0), 4, (0, 0, 2))],
    (1, 2): [((2, 0, 0), 4, (0, 1, 1)), ((1, 1, 0), 5, (0, 0, 2))],
    (2, 2): [((2, 0, 0, 0), 8, (0, 0, 1, 1)), ((1, 1, 0, 0), 8, (0, 0, 0, 2))],
}

EXPECTED_CUBES = {
    (1, 1): [((3, 0), 2, (2, 1)), ((2, 1), 2, (1, 2)),
             ((2, 1), 2, (1, 2)), ((1, 2), 2, (0, 3))],
    (2, 1): [((3, 0, 0), 7, (0, 2, 1)), ((2, 1, 0), 8, (0, 1, 2)),
             ((2, 1, 0), 8, (0, 1, 2)), ((1, 1, 1), 4, (0, 0, 3))],
    (1, 2): [((3, 0, 0), 4, (1, 1, 1)), ((2, 1, 0), 8, (0, 1, 2)),
             ((2, 1, 0), 8, (0, 1, 2)), ((1, 2, 0), 7, (0, 0, 3))],
    (2, 2): [((3, 0, 0, 0), 12, (0, 1, 1, 1)), ((2, 1, 0, 0), 20, (0, 0, 1, 2)),
             ((2, 1, 0, 0), 20, (0, 0, 1, 2)), ((1, 1, 1, 0), 12, (0, 0, 0, 3))],
}


def test_tensor_square_decomposition(ctx):
    V = vector_rep(ctx)
    rep = tensor_rep(V, V)
    summands = decompose(rep)
    got = [(s.highest_weight, s.dim, s.lowest_weight) for s in summands]
    assert got == EXPECTED_SQUARES[(ctx.m, ctx.n)]
    assert sum(s.dim for s in summands) == rep.dim


def test_tensor_cube_decomposition(ctx):
    V = vector_rep(ctx)
    rep = tensor_rep(tensor_rep(V, V), V)
    summands = decompose(rep)
    got = [(s.highest_weight, s.dim, s.lowest_weight) for s in summands]
    assert got == EXPECTED_CUBES[(ctx.m, ctx.n)]
    assert sum(s.dim for s in summands) == rep.dim


def test_decompose_rejects_overlapping_closures():
    """V (x) V-bar at (1|1) is not completely reducible, so the modules
    that its highest-weight vectors generate are not independent, and
    decompose raises instead of returning summands."""
    rep = profile_rep(GradingContext(1, 1), (False, True))
    with pytest.raises(ValueError,
                       match=r"highest-weight closures overlap at \(0, 0\)"):
        decompose(rep)


def test_decompose_rejects_two_lowest_weight_lines():
    """At (2|2) the closure of a highest-weight vector of V (x) V-bar has
    two lowest-weight lines, which the lowest-weight check finds before
    the highest-weight one is asked."""
    rep = profile_rep(GradingContext(2, 2), (False, True))
    with pytest.raises(ValueError, match="2 lowest-weight lines"):
        decompose(rep)


def _standard_tableaux(diagram):
    """f^lambda by the hook-length formula: k! over the product of the
    hook lengths of the cells of the diagram."""
    columns = [sum(1 for row in diagram if row > j)
               for j in range(diagram[0])]
    hooks = 1
    for i, row in enumerate(diagram):
        for j in range(row):
            hooks *= (row - j) + (columns[j] - i) - 1
    return factorial(sum(diagram)) // hooks


@pytest.mark.parametrize("size,k", [((1, 1), 4), ((2, 1), 4), ((2, 2), 4),
                                    ((3, 1), 3), ((1, 2), 3)],
                         ids=lambda x: "-".join(map(str, x))
                         if isinstance(x, tuple) else "k%d" % x)
def test_tensor_power_follows_berele_regev(size, k):
    """Super Schur-Weyl duality (Berele-Regev, Adv. Math. 64, 1987): the
    k-th tensor power of V is the sum, over the partitions lambda of k in
    the (m, n)-hook, of f^lambda copies of the irreducible labelled by
    lambda.  The summand bases together also have full rank, the
    independence that ``decompose`` derives instead of computing."""
    ctx = GradingContext(*size)
    rep = profile_rep(ctx, (False,) * k)
    summands = decompose(rep)
    expected = Counter()
    for diagram in hook_partitions(ctx, k):
        expected[partition_weight(ctx, diagram)] += _standard_tableaux(diagram)
    assert Counter(s.highest_weight for s in summands) == expected
    assert rank([v for s in summands for v in s.basis]) == rep.dim


@lru_cache(maxsize=None)
def _power_dims(m, n, k):
    """{highest weight: dims} of the summands of V^{(x)k} at (m|n)."""
    out = {}
    for s in decompose(profile_rep(GradingContext(m, n), (False,) * k)):
        out.setdefault(s.highest_weight, []).append(s.dim)
    return out


def _supertableaux(m, n, diagram):
    """The number of (m|n)-semistandard supertableaux of the shape
    (Berele-Regev): entries 1..m are even and weakly increase along rows
    and strictly down columns, entries m+1..m+n are odd and strictly
    increase along rows and weakly down columns.  Brute force, cell by
    cell in row order."""
    cells = [(i, j) for i, row in enumerate(diagram) for j in range(row)]
    filling = {}

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        left = filling.get((i, j - 1), 0)
        up = filling.get((i - 1, j), 0)
        total = 0
        for x in range(1, m + n + 1):
            odd = x > m
            if x < left or (x == left and odd):
                continue
            if x < up or (x == up and not odd):
                continue
            filling[i, j] = x
            total += fill(k + 1)
        filling.pop((i, j), None)
        return total

    return fill(0)


def _conjugate(diagram):
    return tuple(sum(1 for row in diagram if row > c)
                 for c in range(diagram[0]))


@pytest.mark.parametrize("size", [(2, 1), (1, 2), (2, 2), (3, 2)],
                         ids=lambda s: "m%dn%d" % s)
def test_tensor_power_summand_dims_count_supertableaux(size):
    """Each summand of V^{(x)k}, k = 2, 3, 4, has the dimension of the
    irreducible of its hook shape lambda: the number of (m|n)-semistandard
    supertableaux of shape lambda (Berele-Regev, Adv. Math. 64, 1987).
    The count is a brute-force filling, independent of any module."""
    m, n = size
    ctx = GradingContext(m, n)
    for k in (2, 3, 4):
        shapes = {partition_weight(ctx, d): d for d in hook_partitions(ctx, k)}
        dims = _power_dims(m, n, k)
        assert set(dims) == set(shapes)
        for weight, found in dims.items():
            assert set(found) == {_supertableaux(m, n, shapes[weight])}, (
                k, shapes[weight])


@pytest.mark.parametrize("size,k", [((2, 1), 3), ((2, 1), 4), ((3, 1), 3),
                                    ((3, 1), 4), ((3, 2), 3), ((2, 2), 3),
                                    ((2, 2), 4)],
                         ids=lambda x: "m%dn%d" % x if isinstance(x, tuple)
                         else "k%d" % x)
def test_summand_dims_agree_under_the_super_swap(size, k):
    """gl(m|n) and gl(n|m) are isomorphic, and the hook Schur function of
    lambda in (m|n) variables is that of the conjugate lambda' in (n|m):
    so dim L_(m|n)(lambda) = dim L_(n|m)(lambda').  Both sides are
    decompositions; at (2|2) the swap pairs the summands of one module."""
    m, n = size
    ctx = GradingContext(m, n)
    swapped = GradingContext(n, m)
    here = _power_dims(m, n, k)
    there = _power_dims(n, m, k)
    diagrams = hook_partitions(ctx, k)
    assert sorted(map(_conjugate, diagrams)) == sorted(
        hook_partitions(swapped, k))
    for diagram in diagrams:
        dims = here[partition_weight(ctx, diagram)]
        swapped_dims = there[partition_weight(swapped, _conjugate(diagram))]
        assert set(dims) == set(swapped_dims), diagram


def test_vector_times_dual_splits_off_the_trivial_line():
    rep = profile_rep(GradingContext(2, 1), (False, True))
    summands = decompose(rep)
    assert [s.dim for s in summands] == [8, 1]
    assert rank([v for s in summands for v in s.basis]) == rep.dim == 9


def _closure_under_every_generator(rep, seed):
    ech = Echelon()
    ech.add(seed)
    queue = [seed]
    while queue:
        v = queue.pop()
        for g in all_generators(rep.ctx):
            w = rep.image(g).apply(v)
            if w and ech.add(w):
                queue.append(w)
    return ech.basis()


@pytest.mark.parametrize("size", [(2, 1), (1, 2)])
def test_generated_submodule_needs_only_the_e_generators(size):
    """A K^{+-1} image of a weight vector is a multiple of it, and the
    raising images of U^-.v stay in it for a highest-weight v, so closing
    under the lowering generators alone gives the same echelon basis."""
    rep = profile_rep(GradingContext(*size), (False, False, True))
    vectors = highest_weight_vectors(rep)
    assert vectors
    for _, vec in vectors:
        basis, _ = submodule_rep(rep, vec)
        assert basis == _closure_under_every_generator(rep, vec)


def test_generated_submodule_rejects_a_seed_of_two_weights():
    V = vector_rep(GradingContext(1, 1))
    with pytest.raises(ValueError, match="weight vector"):
        submodule_rep(V, {0: ONE, 1: ONE})


def test_generated_submodule_rejects_a_seed_that_is_not_highest():
    V = vector_rep(GradingContext(1, 1))
    with pytest.raises(ValueError, match="highest-weight vector"):
        submodule_rep(V, {1: ONE})


def test_summand_subreps_satisfy_relations():
    ctx = GradingContext(2, 1)
    V = vector_rep(ctx)
    for s in decompose(tensor_rep(V, V)):
        assert all(ok for _, ok in check_relations(s.rep))


def _solved_image(rep, basis, g):
    """Matrix of g on the span of the basis, found by a general linear
    solve over the ambient coordinates the basis touches."""
    ambient = sorted({i for v in basis for i in v})
    rows = [{r: v[i] for r, v in enumerate(basis) if i in v}
            for i in ambient]
    entries = {}
    for j, v in enumerate(basis):
        target = rep.image(g).apply(v)
        x = solve(rows, len(basis), [target.get(i, ZERO) for i in ambient])
        assert x is not None
        entries.update(((r, j), val) for r, val in x.items() if val)
    return entries


@pytest.mark.parametrize("size,profile", [
    ((2, 1), (False,) * 3), ((1, 2), (True,) * 3), ((2, 2), (False,) * 3)],
    ids=["V3-m2n1", "Vbar3-m1n2", "V3-m2n2"])
def test_submodule_rep_matches_solved_coordinates(size, profile):
    ctx = GradingContext(*size)
    rep = profile_rep(ctx, profile)
    for s in decompose(rep):
        for g in all_generators(ctx):
            assert s.rep.image(g).entries == \
                _solved_image(rep, s.basis, g), g


def test_submodule_rep_matches_solved_coordinates_beyond_a_direct_sum():
    """V (x) V (x) V-bar at (2|1) is not the direct sum of its closures,
    which ``decompose`` rejects; each closure is still a submodule."""
    ctx = GradingContext(2, 1)
    rep = profile_rep(ctx, (False, False, True))
    with pytest.raises(ValueError, match="overlap"):
        decompose(rep)
    for _, vec in highest_weight_vectors(rep):
        basis, sub = submodule_rep(rep, vec)
        for g in all_generators(ctx):
            assert sub.image(g).entries == _solved_image(rep, basis, g), g


def _hand_built(ctx, weights, e_entries):
    """An even module on the given weights whose E generators have the
    given entries, every other E acting by 0."""
    space = GradedSpace((0,) * len(weights))
    images = cartan_images(ctx, space, weights)
    for g in all_generators(ctx):
        if g[0] == "E":
            images[g] = GradedMap(space, space, e_entries.get(g, {}))
    return Representation(ctx, space, images)


def test_submodule_rep_rejects_non_invariant_span():
    """E_21 sends v0 to v1 and E_12 sends v1 to v2: the lowering closure
    of the highest-weight v0 is span(v0, v1), and E_12 leaves it."""
    ctx = GradingContext(2, 0)
    rep = _hand_built(ctx, [(1, 0), (0, 1), (1, 0)], {
        gen_E(2, 1): {(1, 0): ONE}, gen_E(1, 2): {(2, 1): ONE}})
    with pytest.raises(ValueError, match="not invariant under"):
        submodule_rep(rep, {0: ONE})


def test_submodule_rep_rejects_an_image_of_two_weights():
    ctx = GradingContext(2, 0)
    rep = _hand_built(ctx, [(1, 0), (0, 1), (1, 0)], {
        gen_E(2, 1): {(1, 0): ONE, (2, 0): ONE}})
    with pytest.raises(ValueError,
                       match="parity- and weight-homogeneous"):
        submodule_rep(rep, {0: ONE})


def test_highest_weight_vector_count(ctx):
    V = vector_rep(ctx)
    rep = tensor_rep(V, V)
    assert len(highest_weight_vectors(rep)) == 2


# ---------------------------------------------------------------------------
# Independent closure oracle: plain Fraction-matrix span growth at a
# generic rational point, written locally so it shares no code with the
# library's decomposition path.
# ---------------------------------------------------------------------------


def _local_rank(rows):
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    for c in range(cols):
        pivot = None
        for i, row in enumerate(rows):
            if not used[i] and row[c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        for i, row in enumerate(rows):
            if i != pivot and row[c] != 0:
                f = Fraction(row[c], rows[pivot][c])
                for k in range(cols):
                    row[k] -= f * rows[pivot][k]
    return rank


def _closure_dim_at_point(rep, seed_vec, q0):
    mats = [rep.image(g).specialize(q0) for g in all_generators(rep.ctx)]
    span = [[Fraction(x) for x in seed_vec]]
    changed = True
    while changed:
        changed = False
        current = _local_rank(span)
        new_rows = []
        for row in span:
            for M in mats:
                out = [sum(M[r][c] * row[c] for c in range(len(row)))
                       for r in range(len(row))]
                if any(out):
                    new_rows.append(out)
        if _local_rank(span + new_rows) > current:
            span = span + new_rows
            changed = True
    return _local_rank(span)


def test_tensor_square_summand_dims_by_independent_oracle():
    ctx = GradingContext(2, 1)
    V = vector_rep(ctx)
    rep = tensor_rep(V, V)
    q0 = Fraction(3, 2)
    dims = set()
    for _, hw in highest_weight_vectors(rep):
        vec = [hw.get(i, None) for i in range(rep.dim)]
        vec = [v.evaluate(q0) if v is not None else Fraction(0) for v in vec]
        dims.add(_closure_dim_at_point(rep, vec, q0))
    assert dims == {4, 5}
    assert sum(s.dim for s in decompose(rep)) == 9


# ---------------------------------------------------------------------------
# The two label families.
# ---------------------------------------------------------------------------


def test_hook_partitions_respect_arm_bound():
    ctx = GradingContext(2, 1)
    assert hook_partitions(ctx, 3) == [(3,), (2, 1), (1, 1, 1)]
    for k in range(1, 5):
        for rows in hook_partitions(ctx, k):
            assert all(rows[i] <= ctx.n for i in range(ctx.m, len(rows)))
            assert sum(rows) == k
            assert list(rows) == sorted(rows, reverse=True)


def test_partition_weight_examples():
    ctx = GradingContext(2, 1)
    assert partition_weight(ctx, (2, 1)) == (2, 1, 0)
    assert partition_weight(ctx, (1, 1, 1)) == (1, 1, 1)
    assert partition_weight(ctx, (3,)) == (3, 0, 0)


def test_first_family_membership_roundtrip():
    ctx = GradingContext(2, 1)
    ok, rows = in_first_family(ctx, (2, 1, 0))
    assert ok and rows == (2, 1, 0)
    ok, rows = in_first_family(ctx, (3, 1, 2))
    assert ok and rows == (3, 1, 1, 1)
    assert in_first_family(ctx, (0, 2, 0)) == (False, None)
    ctx11 = GradingContext(1, 1)
    ok, rows = in_first_family(ctx11, (1, 2))
    assert ok and rows == (1, 1, 1)
    # A tail longer than the m-th row.
    assert in_first_family(ctx, (1, 0, 1)) == (False, None)
    assert in_first_family(ctx11, (0, 0)) == (True, (0, 0))


def test_weight_to_diagram_rejects_non_partitions():
    """A label whose rows do not decrease is the weight of no diagram."""
    ctx = GradingContext(2, 1)
    assert in_first_family(ctx, (1, 2, 0)) == (False, None)


def test_dual_labels_of_small_hooks():
    ctx = GradingContext(2, 1)
    assert dual_label_of(ctx, (2, 0, 0)) == (0, -1, -1)
    assert dual_label_of(ctx, (1, 1, 0)) == (0, 0, -2)


def test_second_family_membership():
    ctx = GradingContext(2, 1)
    assert in_second_family(ctx, (0, 0, 0)) == (True, (0, 0, 0))
    assert in_second_family(ctx, (0, -1, -1)) == (True, (2, 0, 0))
    assert in_second_family(ctx, (0, 0, -2)) == (True, (1, 1, 0))
    assert in_second_family(ctx, (0, 0, -1)) == (True, (1, 0, 0))
    assert in_second_family(ctx, (-1, -1, -1)) == (False, None)


# ---------------------------------------------------------------------------
# Contravariant forms and unitarity.
# ---------------------------------------------------------------------------


def test_vector_gram_frozen_at_1_1():
    g = vector_gram(GradingContext(1, 1))
    assert g.entries == {(0, 0): ONE, (1, 1): QINV}
    assert [x.evaluate(Fraction(3, 2)) for x in
            (g.get(0, 0), g.get(1, 1))] == [1, Fraction(2, 3)]


def test_dual_gram_frozen_at_1_1():
    g = dual_gram(GradingContext(1, 1))
    assert g.entries == {(0, 0): QINV, (1, 1): ONE}


@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(2)])
def test_vector_rep_unitarity(ctx, q0):
    pi = vector_rep(ctx)
    g = vector_gram(ctx)
    types = unitarity_check(pi, g, q0)["unitary_types"]
    assert types == [1]


@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(2)])
def test_dual_rep_unitarity(ctx, q0):
    # Dualising swaps the two flavours of star structure, so the dual of
    # the (type-1 unitary) vector module is unitary of the second type.
    pi = vector_rep(ctx)
    pibar = dual_rep(pi)
    g = dual_gram(ctx)
    types = unitarity_check(pibar, g, q0)["unitary_types"]
    assert types == [2]


@pytest.mark.parametrize("q0", [Fraction(3, 2), Fraction(2)])
def test_tensor_square_unitarity(ctx, q0):
    pi = vector_rep(ctx)
    sq = tensor_rep(pi, pi)
    # Diagonal grams acquire no Koszul signs: the tensor of the grams.
    g = vector_gram(ctx).tensor(vector_gram(ctx))
    types = unitarity_check(sq, g, q0)["unitary_types"]
    assert types == [1]


@pytest.mark.parametrize("entries", [
    {(0, 0): ONE, (0, 1): q_int(1), (1, 1): ONE},
    {(0, 0): -ONE, (1, 0): ONE, (1, 1): ONE},
], ids=["positive-diagonal", "negative-diagonal-first"])
def test_gram_positivity_rejects_a_non_diagonal_gram(entries):
    space = GradedSpace((0, 1))
    with pytest.raises(ValueError, match="diagonal Gram matrices only"):
        first_nonpositive_entry(GradedMap(space, space, entries),
                                Fraction(3, 2))


@pytest.mark.parametrize("entries", [
    {(0, 0): ONE},
    {(0, 0): ONE, (1, 1): q_int(1) - q_int(-1)},
], ids=["zero", "vanishing-at-q0"])
def test_gram_with_a_zero_diagonal_entry_is_not_positive(entries):
    space = GradedSpace((0, 1))
    gram = GradedMap(space, space, entries)
    assert first_nonpositive_entry(gram, -1) == ((1, 1), 0)


def test_adjoint_pair_is_exact_over_the_field():
    """Type 1 is adjoint on the vector module; type 2 is not, and its
    witness is the first generator whose two sides differ, with their
    first differing entry and the residual there."""
    ctx = GradingContext(1, 1)
    pi = vector_rep(ctx)
    gram = vector_gram(ctx)
    assert is_adjoint_pair(pi, gram, 1) is None
    g, entry, residual = is_adjoint_pair(pi, gram, 2)
    differences = []
    for h in all_generators(ctx):
        diff = (pi.image(h).transpose() @ gram
                - gram @ pi.evaluate_expr(star(UqExpression.from_gen(ctx, h),
                                               2)))
        if diff.entries:
            differences.append((h, diff))
    first, diff = differences[0]
    assert g == first
    assert entry == min(diff.entries) and diff.entries[entry] == residual


class TestClassifyWeight:
    """Each label's membership in the two families, with the witnesses:
    the hook diagram and the tensor-family label whose dual it is."""

    def test_tensor_label(self):
        ctx = GradingContext(2, 1)
        assert in_first_family(ctx, (2, 1, 0)) == (True, (2, 1, 0))
        assert in_second_family(ctx, (2, 1, 0)) == (False, None)

    def test_dual_label(self):
        ctx = GradingContext(2, 1)
        assert in_second_family(ctx, (0, 0, -1)) == (True, (1, 0, 0))
        assert in_first_family(ctx, (0, 0, -1)) == (False, None)

    def test_neither(self):
        ctx = GradingContext(2, 1)
        assert in_first_family(ctx, (-1, 0, 0)) == (False, None)
        assert in_second_family(ctx, (-1, 0, 0)) == (False, None)

    def test_zero_weight_in_both(self):
        ctx = GradingContext(1, 1)
        assert in_first_family(ctx, (0, 0))[0] is True
        assert in_second_family(ctx, (0, 0))[0] is True


class TestUnitarityCheck:
    def test_vector_module_report(self):
        ctx = GradingContext(1, 1)
        rep = vector_rep(ctx)
        out = unitarity_check(rep, vector_gram(ctx), Fraction(3, 2))
        assert out["positive"] is True
        assert out["adjoint_types"] == [1]
        assert out["unitary_types"] == [1]
        assert out["nonpositive_entry"] is None
        assert out["not_adjoint"] == {2: is_adjoint_pair(
            rep, vector_gram(ctx), 2)}
