"""Tests for the realized parabolically induced modules."""

from __future__ import annotations

from math import comb

import itertools

import pytest

from glq.coeff import ZERO, ONE, Q, QINV, add_term, q_int
from glq.graded import (GradedMap, GradedSpace, GradingContext,
                        nullspace)
from glq import induction
from glq.uq import (
    UqExpression,
    all_generators,
    coproduct_opposite,
    gen_E,
    gen_K,
    gen_Kinv,
    gen_parity,
    word_parity,
)
from glq.coords import functional_witness
from glq.reps import (
    Representation,
    decompose,
    partition_weight,
    profile_rep,
    tensor_rep,
    trivial_rep,
    vector_rep,
)
from glq.superspace import (
    SuperspaceElement,
    barred_monomials,
    plain_monomials,
    space_letter_parity,
    z_,
    zb_,
)
from glq.induction import (
    build_induced,
    dot_action_on_word,
    equivariance_defects,
    frobenius_dims,
    levi_generators,
    hom_dimension,
    induced_character,
    left_translation,
    parabolic_generators,
    parabolic_hom_dimension,
    reciprocity_character,
    right_translation,
    to_coordinate_element,
    translation_rule,
)

SIZES = [(1, 1), (2, 1), (1, 2)]


def ctx_of(size):
    return GradingContext(*size)


# ---------------------------------------------------------------------------
# Left translation on single letters.
# ---------------------------------------------------------------------------


class TestDotAction:
    def test_cartan_on_plain_letters(self):
        for size in SIZES:
            ctx = ctx_of(size)
            for a in range(1, ctx.N + 1):
                for b in range(1, ctx.N + 1):
                    got = dot_action_on_word(ctx, gen_K(b), (z_(a),))
                    coeff = q_int(-ctx.sigma(b)) if a == b else ONE
                    want = SuperspaceElement.from_word(ctx, (z_(a),)).scale(coeff)
                    assert got == want

    def test_cartan_on_barred_letters(self):
        for size in SIZES:
            ctx = ctx_of(size)
            for a in range(1, ctx.N + 1):
                for b in range(1, ctx.N + 1):
                    got = dot_action_on_word(ctx, gen_K(b), (zb_(a),))
                    coeff = q_int(ctx.sigma(b)) if a == b else ONE
                    want = SuperspaceElement.from_word(ctx, (zb_(a),)).scale(coeff)
                    assert got == want

    def test_frozen_simple_images_1_1(self):
        ctx = ctx_of((1, 1))
        assert dot_action_on_word(ctx, gen_E(1, 2), (z_(1),)).terms == {
            (z_(2),): -QINV}
        assert dot_action_on_word(ctx, gen_E(1, 2), (z_(2),)).terms == {}
        assert dot_action_on_word(ctx, gen_E(2, 1), (z_(2),)).terms == {
            (z_(1),): Q}
        assert dot_action_on_word(ctx, gen_E(2, 1), (z_(1),)).terms == {}
        assert dot_action_on_word(ctx, gen_E(1, 2), (zb_(2),)).terms == {
            (zb_(1),): -ONE}
        assert dot_action_on_word(ctx, gen_E(2, 1), (zb_(1),)).terms == {
            (zb_(2),): -ONE}

    def test_sided_translations_commute(self):
        ctx = ctx_of((1, 1))
        f = to_coordinate_element(
            ctx, SuperspaceElement.from_word(ctx, (z_(1), z_(2))))
        x, y = gen_E(2, 1), gen_E(1, 2)
        lhs = left_translation(ctx, x, right_translation(ctx, y, f))
        rhs = right_translation(ctx, y, left_translation(ctx, x, f))
        assert lhs.terms or rhs.terms
        assert functional_witness(ctx, lhs - rhs, 3) is None


# ---------------------------------------------------------------------------
# Right-translation equivariance under the matching parabolic.
# ---------------------------------------------------------------------------


class TestEquivariance:
    def test_parabolic_generator_counts(self):
        for size in SIZES:
            ctx = ctx_of(size)
            for side in ("lower", "upper"):
                gens = parabolic_generators(ctx, side)
                assert len(gens) == 2 * ctx.N + 2 * (ctx.N - 2) + 1

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            parabolic_generators(ctx_of((1, 1)), "sideways")

    def test_character_values(self):
        for size in SIZES:
            ctx = ctx_of(size)
            for k in range(4):
                low = induced_character(ctx, k, "lower")
                up = induced_character(ctx, k, "upper")
                assert low[gen_K(ctx.N)] == q_int(ctx.sigma(ctx.N) * k)
                assert up[gen_K(ctx.N)] == q_int(-ctx.sigma(ctx.N) * k)
                assert low[gen_Kinv(ctx.N)] == q_int(-ctx.sigma(ctx.N) * k)
                for a in range(1, ctx.N):
                    assert low[gen_K(a)] == ONE
                    assert up[gen_K(a)] == ONE
                for g, v in low.items():
                    if g[0] == "E":
                        assert v == ZERO

    @pytest.mark.parametrize("size", SIZES)
    def test_spans_transform_by_character(self, size):
        ctx = ctx_of(size)
        for k in (0, 1, 2):
            for barred in (False, True):
                assert equivariance_defects(ctx, k, barred, degree=2) == []

    def test_wrong_parabolic_fails(self):
        ctx = ctx_of((1, 1))
        char = induced_character(ctx, 1, "upper")
        bad = 0
        for g, phi in char.items():
            for w in plain_monomials(ctx, 1):
                f = to_coordinate_element(ctx, SuperspaceElement.from_word(ctx, w))
                diff = right_translation(ctx, g, f) - f.scale(phi)
                if functional_witness(ctx, diff, 2) is not None:
                    bad += 1
        assert bad > 0


# ---------------------------------------------------------------------------
# The induced modules themselves.
# ---------------------------------------------------------------------------

EXPECTED_DIMS = {
    (1, 1): [1, 2, 2, 2],
    (2, 1): [1, 3, 4, 4],
    (1, 2): [1, 3, 5, 7],
}


# Highest weight of the degree-k barred module, k = 0..3: the first k
# marks, with the overflow beyond the even block piled on index m+1.
COLUMN_LABELS = {
    (1, 1): [(0, 0), (1, 0), (1, 1), (1, 2)],
    (2, 1): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)],
    (1, 2): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0)],
}


class TestBorelWeil:
    def test_dimension_formula(self):
        for size in SIZES:
            m, n = size
            for k in range(4):
                want = sum(
                    comb(m, j) * comb(n - 1 + k - j, k - j)
                    for j in range(k + 1))
                assert want == EXPECTED_DIMS[size][k]

    @pytest.mark.parametrize("size", SIZES)
    def test_summary_grid(self, size):
        """Both degree-k modules are irreducible of the expected
        dimension; the plain one is headed by (0, ..., 0, -k) and the
        barred one by the label of the one-column diagram of size k."""
        ctx = ctx_of(size)
        for k in range(4):
            plain = tuple(-k if a == ctx.N else 0
                          for a in range(1, ctx.N + 1))
            for barred, want in ((False, plain),
                                 (True, COLUMN_LABELS[size][k])):
                rep, _ = build_induced(ctx, k, barred)
                summands = decompose(rep)
                assert rep.dim == EXPECTED_DIMS[size][k]
                assert len(summands) == 1
                assert summands[0].highest_weight == want, (k, barred)

    def test_skew_weights(self):
        """The barred module's highest weight is the label of one column
        of k boxes."""
        assert partition_weight(ctx_of((2, 1)), (1, 1)) == (1, 1, 0)
        assert partition_weight(ctx_of((2, 1)), (1, 1, 1)) == (1, 1, 1)
        assert partition_weight(ctx_of((1, 2)), (1, 1, 1)) == (1, 2, 0)
        assert partition_weight(ctx_of((1, 1)), (1, 1)) == (1, 1)

    def test_frozen_matrices_1_1_degree_2(self):
        ctx = ctx_of((1, 1))
        rep, words = build_induced(ctx, 2, barred=False)
        assert words == [(z_(1), z_(2)), (z_(2), z_(2))]
        assert rep.image(gen_E(1, 2)).entries == {(1, 0): -QINV}
        gap_up = rep.image(gen_E(2, 1)).entries
        assert gap_up == {(0, 1): Q * Q + ONE}
        assert rep.image(gen_K(1)).entries == {(0, 0): QINV, (1, 1): ONE}

    def test_weights_match_monomial_content(self):
        # The weights are read off the K_a images that left translation
        # builds; the oracle is the monomial content, barred index
        # counts minus plain ones.
        for size in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            ctx = ctx_of(size)
            for k in range(4):
                for barred in (False, True):
                    rep, words = build_induced(ctx, k, barred)
                    for wt, w in zip(rep.weights, words):
                        acc = [0] * ctx.N
                        for l in w:
                            acc[l.index - 1] += 1 if l.barred else -1
                        assert wt == tuple(acc)

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_relations_without_e_hold_by_construction(self, size,
                                                      monkeypatch):
        """build_induced evaluates only the relations with an E in them.
        Evaluating all of them finds no failure either, and the ones it
        leaves out are exactly the k_inverse, k_inverse_flip and
        cartan_commute families."""
        ctx = ctx_of(size)
        evaluated = []
        full = induction.check_relations

        def spy(rep, relations=None):
            out = full(rep, relations)
            evaluated.append(out)
            return out

        monkeypatch.setattr(induction, "check_relations", spy)
        for k in (2, 3):
            for barred in (False, True):
                rep, _ = build_induced(ctx, k, barred)
                assert all(ok for _, ok in full(rep)), (k, barred)
        names = {name for name, _ in full(rep)}
        left_out = names - {name for name, _ in evaluated[-1]}
        assert {name.split("[")[0] for name in left_out} == {
            "k_inverse", "k_inverse_flip", "cartan_commute"}
        assert len(left_out) == 2 * ctx.N + comb(2 * ctx.N, 2)

    def test_action_stays_in_degree_block(self):
        # build_induced raises if any generator image leaves the span.
        ctx = ctx_of((1, 2))
        rep, _ = build_induced(ctx, 3, barred=False)
        assert rep.dim == EXPECTED_DIMS[(1, 2)][3]


# ---------------------------------------------------------------------------
# The module-algebra rule against the coproduct path.
# ---------------------------------------------------------------------------

# (m, n, k): every (generator, normal monomial) pair is compared, on
# both sides.
RULE_SIZES = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2),
              (1, 1, 3), (2, 1, 3), (1, 2, 3), (2, 2, 3), (3, 2, 3)]

_oracles = {}


def _oracle(m, n, k, barred):
    """{(generator, word): terms} of the coproduct path, computed once."""
    key = (m, n, k, barred)
    if key not in _oracles:
        ctx = GradingContext(m, n)
        words = barred_monomials(ctx, k) if barred else plain_monomials(ctx, k)
        _oracles[key] = {(g, w): dot_action_on_word(ctx, g, w).terms
                         for g in all_generators(ctx) for w in words}
    return _oracles[key]


def _mismatches(*sizes):
    """How many (generator, word) pairs at the sizes (m, n, k), over both
    sides, on which the rule disagrees with the coproduct path, and how
    many it compared."""
    bad = total = 0
    for m, n, k in sizes:
        for barred in (False, True):
            act = translation_rule(GradingContext(m, n))
            for (g, w), want in _oracle(m, n, k, barred).items():
                total += 1
                bad += act(g, w) != want
    return bad, total


def _unsigned_legs(ctx, g, letter):
    legs = coproduct_opposite(UqExpression.from_gen(ctx, g))
    return [(x1, x2, c) for (x1, x2), c in legs.items()]


def _legs_signed_by_x1(ctx, g, letter):
    odd = space_letter_parity(ctx, letter)
    legs = coproduct_opposite(UqExpression.from_gen(ctx, g))
    return [(x1, x2, -c if odd and word_parity(ctx, x1) else c)
            for (x1, x2), c in legs.items()]


class TestModuleAlgebraRule:
    """``build_induced`` acts by g.(a w) = sum (-1)^{|x''||a|} (x'.a)(x''.w)
    over Delta^op(g).  Its oracle is ``dot_action_on_word``, which
    expands the coordinate coproduct of the whole word instead.  A
    one-letter coproduct base runs the rule down to single letters, so
    every k >= 2 exercises it; ``build_induced`` runs it on the
    two-letter base.

    Weak spot: no ``induce`` report sees a dropped rule sign.  With it
    dropped, all 16 reports at (1|1) through (2|2), k = 2 and 3, both
    sides, stay ok, so this comparison is the only gate on the sign
    until ROADMAP item 7's agreement check puts it into the report."""

    @pytest.fixture(autouse=True)
    def _one_letter_base(self, monkeypatch):
        monkeypatch.setattr(induction, "COPRODUCT_BASE", 1)

    @pytest.mark.parametrize("m,n,k", RULE_SIZES)
    def test_rule_matches_the_coproduct_path(self, monkeypatch, m, n, k):
        assert _mismatches((m, n, k))[0] == 0
        if k > 2:
            monkeypatch.setattr(induction, "COPRODUCT_BASE", 2)
            assert _mismatches((m, n, k))[0] == 0

    def test_rule_sign_dropped_is_caught(self, monkeypatch):
        monkeypatch.setattr(induction, "_signed_opposite_legs",
                            _unsigned_legs)
        assert _mismatches((2, 1, 2), (2, 1, 3)) == (4, 160)
        assert _mismatches((2, 2, 2), (2, 2, 3)) == (6, 560)

    def test_rule_sign_from_x1_is_caught(self, monkeypatch):
        monkeypatch.setattr(induction, "_signed_opposite_legs",
                            _legs_signed_by_x1)
        assert _mismatches((1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2)) == \
            (12, 428)

    def test_memo_is_per_rule(self, monkeypatch):
        # A memo shared between builds would hand a later build the
        # actions of an earlier one, defects included.
        ctx = ctx_of((2, 1))
        w = plain_monomials(ctx, 3)[0]
        assert translation_rule(ctx)(gen_K(1), w)
        monkeypatch.setattr(induction, "_signed_opposite_legs",
                            lambda ctx, g, letter: [])
        assert translation_rule(ctx)(gen_K(1), w) == {}


# ---------------------------------------------------------------------------
# Reciprocity dimensions.
# ---------------------------------------------------------------------------


def _test_modules(ctx):
    V = vector_rep(ctx)
    mods = [("trivial", trivial_rep(ctx)), ("vector", V)]
    square = tensor_rep(V, V)
    for s in decompose(square):
        mods.append(("square-%s" % (s.highest_weight,), s.rep))
    return mods


def _dense_hom_dimension(rep_w, rep_h):
    """Oracle of ``hom_dimension``: every entry f[i, j] of a map
    rep_w -> rep_h is an unknown, and every generator of rep_h, K_a^{+-1}
    included, gives one equation (M_H f - f M_W)[i, j] = 0 per entry,
    with f[i, j] at column i * dim W + j."""
    dw, dh = rep_w.dim, rep_h.dim
    rows = []
    for g, MH in rep_h.images.items():
        MW = rep_w.image(g)
        for i in range(dh):
            for j in range(dw):
                row = {}
                for kk in range(dw):
                    v = MW.get(kk, j)
                    if v:
                        add_term(row, i * dw + kk, v)
                for kk in range(dh):
                    v = MH.get(i, kk)
                    if v:
                        add_term(row, kk * dw + j, -v)
                if row:
                    rows.append(row)
    return len(nullspace(rows, dh * dw))


def _character_line(ctx, k, side):
    """The line ``parabolic_hom_dimension`` maps into."""
    line = GradedSpace((0,))
    return Representation(ctx, line, {
        g: GradedMap(line, line, {(0, 0): phi})
        for g, phi in reciprocity_character(ctx, k, side).items()})


class TestFrobenius:
    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_hom_dimension_matches_the_dense_solve(self, size):
        # Sources: the profile modules of at most two legs and the
        # induced modules; targets: the induced modules and the
        # character lines, k = 0..3 on both sides.  240 pairs per size.
        ctx = ctx_of(size)
        induced = [build_induced(ctx, k, barred)[0]
                   for k in range(4) for barred in (False, True)]
        sources = [profile_rep(ctx, p) for legs in range(3)
                   for p in itertools.product((False, True), repeat=legs)]
        targets = induced + [_character_line(ctx, k, side) for k in range(4)
                             for side in ("lower", "upper")]
        nonzero = 0
        for W in sources + induced:
            for H in targets:
                want = _dense_hom_dimension(W, H)
                assert hom_dimension(W, H) == want, (W, H)
                nonzero += want > 0
        assert nonzero == 40

    @pytest.mark.parametrize("m,n,k", [(1, 1, 2), (2, 1, 3), (2, 2, 2),
                                       (2, 2, 3), (3, 2, 3)])
    @pytest.mark.parametrize("barred", [False, True])
    def test_reciprocity_against_the_tensor_power(self, m, n, k, barred):
        # The plain-side module is headed by (0, ..., 0, -k), a summand of
        # the k-th power of the dual; the barred one by the one-column
        # label, a summand of the k-th power of the vector module.
        ctx = GradingContext(m, n)
        rep_h, _ = build_induced(ctx, k, barred)
        power = profile_rep(ctx, (not barred,) * k)
        assert frobenius_dims(ctx, power, rep_h, k, barred) == (1, 1)

    def test_hom_dimension_schur(self):
        ctx = ctx_of((1, 1))
        V = vector_rep(ctx)
        assert hom_dimension(V, V) == 1
        assert hom_dimension(V, trivial_rep(ctx)) == 0
        square = tensor_rep(V, V)
        assert hom_dimension(square, square) == 2

    def test_reciprocity_character_inverts_cartan(self):
        ctx = ctx_of((1, 1))
        char = reciprocity_character(ctx, 2, "upper")
        assert char[gen_K(2)] == q_int(-2)
        assert char[gen_Kinv(2)] == q_int(2)
        assert char[gen_K(1)] == ONE
        assert char[gen_E(1, 2)] == ZERO

    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_dimensions_agree(self, size):
        ctx = ctx_of(size)
        mods = _test_modules(ctx)
        nonzero = {}
        for k in (0, 1, 2):
            for barred in (False, True):
                rep_h, _ = build_induced(ctx, k, barred)
                for name, W in mods:
                    lhs, rhs = frobenius_dims(ctx, W, rep_h, k, barred)
                    assert lhs == rhs, (size, k, barred, name, lhs, rhs)
                    if lhs:
                        nonzero[(k, barred, name.split("-")[0],
                                 name.split("-")[-1])] = lhs
        one_one = ["(1, 1)", "(1, 1, 0)"]
        assert all(v == 1 for v in nonzero.values())
        keys = {(k, barred, fam) for (k, barred, fam, _) in nonzero}
        assert keys == {
            (0, False, "trivial"),
            (0, True, "trivial"),
            (1, True, "vector"),
            (2, True, "square"),
        }
        labels = [lab for (k, barred, fam, lab) in nonzero if fam == "square"]
        assert labels[0] in one_one

    def test_parabolic_side_alone(self):
        # The vector module maps onto the degree-1 barred character line
        # and onto nothing on the plain side.
        ctx = ctx_of((2, 1))
        V = vector_rep(ctx)
        assert parabolic_hom_dimension(ctx, V, 1, "upper") == 1
        assert parabolic_hom_dimension(ctx, V, 1, "lower") == 0


class TestGeneralParabolic:
    def test_levi_counts(self):
        ctx = GradingContext(2, 2)
        assert len(levi_generators(ctx, [])) == 8
        assert len(levi_generators(ctx, [1, 2, 3])) == 8 + 6
        assert len(levi_generators(ctx)) == 8 + 4

    def test_default_matches_maximal(self):
        ctx = GradingContext(2, 1)
        assert (parabolic_generators(ctx, "lower")
                == parabolic_generators(ctx, "lower", range(1, ctx.N - 1)))

    def test_empty_theta_is_borel_type(self):
        """With no Levi nodes the parabolic is triangular: Cartans plus
        one-sided simple generators only."""
        ctx = GradingContext(2, 1)
        gens = parabolic_generators(ctx, "upper", [])
        es = [g for g in gens if g[0] == "E"]
        assert es == [gen_E(1, 2), gen_E(2, 3)]
        gens = parabolic_generators(ctx, "lower", [])
        es = [g for g in gens if g[0] == "E"]
        assert es == [gen_E(2, 1), gen_E(3, 2)]

    def test_bad_node_rejected(self):
        ctx = GradingContext(1, 1)
        with pytest.raises(ValueError):
            levi_generators(ctx, [5])


class TestTranslationCommutation:
    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_sided_translations_graded_commute(self, size):
        """x circle (y dot f) equals (-1)^{[x][y]} y dot (x circle f)
        on a full generator-pair grid, and the sign is not vacuous:
        some odd-odd pairs differ from strict commutation."""
        ctx = GradingContext(*size)
        N = ctx.N
        gens = [gen_K(a) for a in range(1, N + 1)]
        gens += [gen_E(a, a + 1) for a in range(1, N)]
        gens += [gen_E(a + 1, a) for a in range(1, N)]
        words = [(z_(1),), (zb_(1),), (z_(1), z_(N)),
                 (z_(1), zb_(1)), (zb_(N), zb_(1))]
        sign_mattered = 0
        for x, y in itertools.product(gens, gens):
            for w in words:
                f = to_coordinate_element(
                    ctx, SuperspaceElement.from_word(ctx, w))
                a = right_translation(ctx, x, left_translation(ctx, y, f))
                b = left_translation(ctx, y, right_translation(ctx, x, f))
                if (gen_parity(ctx, x) * gen_parity(ctx, y)) % 2:
                    b = b.scale(-1)
                assert not (a - b).terms, (x, y, w)
                if b.terms and gen_parity(ctx, x) and gen_parity(ctx, y):
                    strict = not (a - b.scale(-1)).terms
                    if not strict:
                        sign_mattered += 1
        assert sign_mattered > 0
