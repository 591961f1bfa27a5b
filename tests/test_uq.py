"""Defining relations, Hopf structure maps, and star operations of the
quantized enveloping superalgebra, checked through faithful-enough
matrix representations at every desk size."""

import pytest

from glq.coeff import ONE, add_term, q_int, sign_pow
from glq.graded import GradingContext, GradedMap, graded_flip
from glq.uq import (
    UqExpression,
    all_generators,
    antipode,
    antipode_word,
    composite_root_vector,
    coproduct,
    coproduct_opposite,
    counit,
    counit_word,
    defining_relations,
    gen_E,
    gen_K,
    gen_Kinv,
    graded_commutator,
    k2rho,
    probe_monomials,
    s_inverse,
    star,
    word_parity,
)
from glq.reps import (
    check_relations,
    dual_rep,
    eval_tensor_pair,
    tensor_rep,
    vector_rep,
)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.fixture(params=SIZES, ids=lambda s: "m%dn%d" % s)
def ctx(request):
    return GradingContext(*request.param)


def _assert_all_relations(rep):
    failures = [name for name, ok in check_relations(rep) if not ok]
    assert failures == []


# ---------------------------------------------------------------------------
# Defining relations hold in a battery of representations.
# ---------------------------------------------------------------------------


def test_relations_vector_rep(ctx):
    _assert_all_relations(vector_rep(ctx))


def test_relations_dual_rep(ctx):
    _assert_all_relations(dual_rep(vector_rep(ctx)))


def test_relations_tensor_square(ctx):
    V = vector_rep(ctx)
    _assert_all_relations(tensor_rep(V, V))


def test_relations_tensor_cube(ctx):
    V = vector_rep(ctx)
    _assert_all_relations(tensor_rep(tensor_rep(V, V), V))


def test_relations_mixed_tensor(ctx):
    pi = vector_rep(ctx)
    pibar = dual_rep(pi)
    _assert_all_relations(tensor_rep(pi, pibar))
    _assert_all_relations(tensor_rep(pibar, pi))


def test_quartic_relation_requires_two_by_two():
    for (m, n) in SIZES:
        names = {name for name, _ in defining_relations(GradingContext(m, n))}
        has_quartic = any(name.startswith("mixed_quartic") for name in names)
        assert has_quartic == (m >= 2 and n >= 2)


def test_odd_generator_squares_vanish(ctx):
    pi = vector_rep(ctx)
    m = ctx.m
    for g in (gen_E(m, m + 1), gen_E(m + 1, m)):
        M = pi.evaluate_word((g, g))
        assert M.is_zero()


# ---------------------------------------------------------------------------
# Coalgebra axioms hold syntactically on generators.
# ---------------------------------------------------------------------------


def _coproduct_of_word(ctx, word):
    return coproduct(UqExpression.from_word(ctx, word))


def test_coassociativity_on_generators(ctx):
    """(Delta (x) id) Delta = (id (x) Delta) Delta on {(legs): coeff}."""
    for g in all_generators(ctx):
        left, right = {}, {}
        for (w1, w2), c in coproduct(UqExpression.from_gen(ctx, g)).items():
            for (a, b), dc in _coproduct_of_word(ctx, w1).items():
                add_term(left, (a, b, w2), c * dc)
            for (a, b), dc in _coproduct_of_word(ctx, w2).items():
                add_term(right, (w1, a, b), c * dc)
        assert left == right


def _koszul_product(ctx, d1, d2):
    """(a1 (x) a2)(b1 (x) b2) = (-1)^{|a2||b1|} a1 b1 (x) a2 b2."""
    out = {}
    for (a1, a2), c1 in d1.items():
        for (b1, b2), c2 in d2.items():
            c = c1 * c2
            if word_parity(ctx, a2) & word_parity(ctx, b1):
                c = -c
            add_term(out, (a1 + b1, a2 + b2), c)
    return out


def test_coproduct_is_an_algebra_map_on_generator_pairs(ctx):
    """Delta(xy) = Delta(x) Delta(y): the leg-collection sign of
    coeff.split_word on the left against the Koszul product of two leg
    dicts on the right, two statements of one sign rule."""
    gens = [UqExpression.from_gen(ctx, g) for g in all_generators(ctx)]
    for x in gens:
        for y in gens:
            assert coproduct(x * y) == _koszul_product(
                ctx, coproduct(x), coproduct(y))


def test_counit_axiom_on_generators(ctx):
    """(eps (x) id) Delta = id = (id (x) eps) Delta."""
    for g in all_generators(ctx):
        e = UqExpression.from_gen(ctx, g)
        left, right = {}, {}
        for (w1, w2), c in coproduct(e).items():
            add_term(left, w2, c * counit_word(w1))
            add_term(right, w1, c * counit_word(w2))
        assert left == e.terms == right


def test_counit_is_algebra_map_on_probes(ctx):
    probes = probe_monomials(ctx, 2)
    for w1 in probes[:12]:
        for w2 in probes[:12]:
            x = UqExpression.from_word(ctx, w1)
            y = UqExpression.from_word(ctx, w2)
            assert counit(x * y) == counit(x) * counit(y)


def test_opposite_coproduct_is_graded_flip(ctx):
    """Delta^op x on r1 (x) r2 is Delta x on r2 (x) r1 conjugated by
    graded.graded_flip: the swap sign of coproduct_opposite against the
    Koszul sign of the flip matrix, two statements of one sign rule."""
    V = vector_rep(ctx)
    Vbar = dual_rep(V)
    for r1, r2 in ((V, V), (Vbar, V), (V, Vbar)):
        there = graded_flip(r1.space, r2.space)
        back = graded_flip(r2.space, r1.space)
        for word in probe_monomials(ctx, 2):
            x = UqExpression.from_word(ctx, word)
            assert eval_tensor_pair(r1, r2, coproduct_opposite(x)) == (
                back @ eval_tensor_pair(r2, r1, coproduct(x)) @ there)


# ---------------------------------------------------------------------------
# Antipode properties, checked in the vector representation.
# ---------------------------------------------------------------------------


def _antipode_axiom_defect(ctx, rep, word):
    """rep(m (S (x) id) Delta(x)) - counit(x) * identity."""
    x = UqExpression.from_word(ctx, word)
    collapsed = {}
    for (w1, w2), c in coproduct(x).items():
        sw, sc = antipode_word(ctx, w1)
        add_term(collapsed, sw + w2, c * sc)
    lhs = rep.evaluate_expr(UqExpression(ctx, collapsed))
    rhs = GradedMap.identity(rep.space).scale(counit(x))
    return lhs - rhs


def test_antipode_axiom_in_vector_rep(ctx):
    rep = vector_rep(ctx)
    for word in probe_monomials(ctx, 2):
        assert _antipode_axiom_defect(ctx, rep, word).is_zero()


def test_antipode_squared_is_conjugation_by_k2rho(ctx):
    rep = vector_rep(ctx)
    k = rep.evaluate_expr(k2rho(ctx))
    kinv = rep.evaluate_expr(k2rho(ctx, inverse=True))
    for word in probe_monomials(ctx, 2):
        x = UqExpression.from_word(ctx, word)
        lhs = rep.evaluate_expr(antipode(antipode(x)))
        rhs = k @ rep.evaluate_expr(x) @ kinv
        assert lhs == rhs


def test_antipode_inverse_roundtrip(ctx):
    rep = vector_rep(ctx)
    for word in probe_monomials(ctx, 2):
        x = UqExpression.from_word(ctx, word)
        assert rep.evaluate_expr(antipode(s_inverse(x))) == rep.evaluate_expr(x)
        assert rep.evaluate_expr(s_inverse(antipode(x))) == rep.evaluate_expr(x)


def test_k2rho_exponents_frozen():
    expected = {
        (1, 1): (-1, 1),
        (2, 1): (0, -2, 2),
        (1, 2): (-2, 2, 0),
        (2, 2): (-1, -3, 3, 1),
    }
    for size, exps in expected.items():
        assert GradingContext(*size).k2rho_exponents() == exps


# ---------------------------------------------------------------------------
# Star operations.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [1, 2])
def test_star_is_involutive_in_vector_rep(ctx, theta):
    rep = vector_rep(ctx)
    for word in probe_monomials(ctx, 2):
        x = UqExpression.from_word(ctx, word)
        assert rep.evaluate_expr(star(star(x, theta), theta)) == rep.evaluate_expr(x)


@pytest.mark.parametrize("theta", [1, 2])
def test_star_reverses_products(ctx, theta):
    rep = vector_rep(ctx)
    gens = all_generators(ctx)
    for g in gens:
        for h in gens:
            x = UqExpression.from_gen(ctx, g)
            y = UqExpression.from_gen(ctx, h)
            lhs = rep.evaluate_expr(star(x * y, theta))
            rhs = rep.evaluate_expr(star(y, theta) * star(x, theta))
            assert lhs == rhs


def test_star_fixes_cartan_generators(ctx):
    for a in range(1, ctx.N + 1):
        for g in (gen_K(a), gen_Kinv(a)):
            e = UqExpression.from_gen(ctx, g)
            assert star(e, 1) == e
            assert star(e, 2) == e


def test_twisted_star_swaps_the_two_types(ctx):
    for g in all_generators(ctx):
        e = UqExpression.from_gen(ctx, g)
        twist = sign_pow(e.parity())
        assert star(e, 1).scale(twist) == star(e, 2)
        assert star(e, 2).scale(twist) == star(e, 1)


# One star map is left; the row id keeps the name it had beside the
# deleted twisted star.
@pytest.mark.parametrize("star_map", [star], ids=["star"])
@pytest.mark.parametrize("theta", [0, 3, 7])
def test_star_rejects_unknown_type(star_map, theta):
    ctx = GradingContext(2, 1)
    with pytest.raises(ValueError, match="star type"):
        star_map(UqExpression.from_gen(ctx, gen_E(2, 3)), theta)
    # The type is checked once per call, so even zero is rejected.
    with pytest.raises(ValueError, match="star type"):
        star_map(UqExpression.zero(ctx), theta)


# ---------------------------------------------------------------------------
# Composite root vectors and probe monomials.
# ---------------------------------------------------------------------------


def test_composite_root_vectors_act_as_matrix_units(ctx):
    pi = vector_rep(ctx)
    N = ctx.N
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            M = pi.evaluate_expr(composite_root_vector(ctx, i, j))
            assert M.entries == {(i - 1, j - 1): ONE}


def test_composite_root_vector_parity(ctx):
    for i in range(1, ctx.N + 1):
        for j in range(1, ctx.N + 1):
            if i == j:
                continue
            x = composite_root_vector(ctx, i, j)
            # parity() raises on an expression that is not homogeneous.
            assert x.parity() == (ctx.parity(i) + ctx.parity(j)) % 2


def test_probe_monomials_shape(ctx):
    probes = probe_monomials(ctx, 2)
    assert () in probes
    assert len(set(probes)) == len(probes)
    for w in probes:
        assert len(w) <= 2
        odd = [g for g in w if word_parity(ctx, (g,)) % 2]
        assert len(odd) == len(set(odd))


def test_probe_monomial_counts_frozen():
    assert len(probe_monomials(GradingContext(1, 1), 3)) == 70
    assert len(probe_monomials(GradingContext(2, 1), 2)) == 64
    assert len(probe_monomials(GradingContext(1, 2), 2)) == 64
    assert len(probe_monomials(GradingContext(2, 2), 2)) == 118


def test_cartan_generators_commute_in_vector_rep(ctx):
    pi = vector_rep(ctx)
    x = UqExpression.from_gen(ctx, gen_K(1))
    y = UqExpression.from_gen(ctx, gen_Kinv(ctx.N))
    assert pi.evaluate_expr(graded_commutator(x, y)).is_zero()


def test_simple_bracket_value_frozen():
    # At (1, 1) both basis weights give weight-ratio 1, so the graded
    # bracket of the two odd simple generators acts as the identity.
    ctx = GradingContext(1, 1)
    pi = vector_rep(ctx)
    bracket = graded_commutator(
        UqExpression.from_gen(ctx, gen_E(1, 2)),
        UqExpression.from_gen(ctx, gen_E(2, 1)),
    )
    M = pi.evaluate_expr(bracket)
    assert M.entries == {(0, 0): ONE, (1, 1): ONE}


def test_vector_rep_weights_frozen(ctx):
    pi = vector_rep(ctx)
    for idx, wt in enumerate(pi.weights):
        expected = tuple(1 if a == idx else 0 for a in range(ctx.N))
        assert wt == expected
    K = pi.evaluate_expr(UqExpression.from_gen(ctx, gen_K(1)))
    assert K.get(0, 0) == q_int(ctx.sigma(1))
