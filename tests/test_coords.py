"""Coordinate superalgebra of quantum matrix functions: the canonical
pairing with the enveloping superalgebra, and the induced bialgebra,
antipode, and star structure on coordinate words."""

import itertools

import pytest
from hypothesis import given, strategies as st

import glq.coords as coords
import glq.reps as reps
from glq.coeff import ONE, ZERO, RatFunc, add_term, q_int, sign_pow
from glq.graded import GradingContext, rank
from glq.coords import (
    GqElement,
    antipode_coords,
    coproduct,
    counit,
    evaluate,
    functional_witness,
    pair_coproduct,
    star_coords,
    star_coproduct,
    t_,
    tbar_,
)
from glq.induction import left_translation, right_translation
from glq.uq import (
    pbw_probe_expressions,
    UqExpression,
    all_generators,
    antipode,
    gen_E,
    gen_K,
    probe_monomials,
    s_inverse,
    word_parity,
)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.fixture(params=SIZES, ids=lambda s: "m%dn%d" % s)
def ctx(request):
    return GradingContext(*request.param)


def _probe_degree(ctx):
    return 3 if (ctx.m, ctx.n) == (1, 1) else 2


# ---------------------------------------------------------------------------
# The canonical pairing.
# ---------------------------------------------------------------------------


def test_pairing_of_single_letters(ctx):
    N = ctx.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            # <t_ab, E_cd> = delta_bc delta_ad on simple raising gens
            f = GqElement.from_letter(ctx, t_(a, b))
            for c in range(1, N):
                v = evaluate(ctx, f, (gen_E(c, c + 1),))
                expected = ONE if (b == c + 1 and a == c) else ZERO
                assert v == expected
            # <t_ab, K_c> = delta_ab q_c^{delta_ac}
            for c in range(1, N + 1):
                v = evaluate(ctx, f, (gen_K(c),))
                if a != b:
                    assert v == ZERO
                else:
                    assert v == (q_int(ctx.sigma(c)) if a == c else ONE)


def test_pairing_against_identity_is_counit(ctx):
    N = ctx.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for letter in (t_(a, b), tbar_(a, b)):
                f = GqElement.from_letter(ctx, letter)
                assert counit(f) == (ONE if a == b else ZERO)


def test_pairing_respects_products_of_arguments(ctx):
    """< f, x y > = < Delta f, x (x) y > for coordinate words f."""
    deg = _probe_degree(ctx) - 1
    probes = [w for w in probe_monomials(ctx, deg)][:14]
    words = [
        (t_(1, 1),),
        (t_(1, ctx.N), tbar_(1, 1)),
        (tbar_(ctx.N, 1), t_(ctx.N, ctx.N)),
    ]
    for letters in words:
        f = GqElement.from_word(ctx, letters)
        df = coproduct(f)
        for x in probes:
            for y in probes:
                xy = UqExpression.from_word(ctx, x) * UqExpression.from_word(ctx, y)
                lhs = evaluate(ctx, f, xy)
                rhs = pair_coproduct(ctx, df, x, y)
                assert lhs == rhs


def _layout_by_formula(ctx, word):
    """(row, col, whether the sign negates) of a coordinate word, taken
    straight from the pairing formula: the sign sum_{i<j} |w_j| |a_i|
    summed pair by pair, the indices flattened row-major."""
    N = ctx.N
    par = ctx.parity
    length = len(word)
    sign = sum((par(word[j].row) + par(word[j].col)) * par(word[i].row)
               for i in range(length) for j in range(i + 1, length))
    row = sum((l.row - 1) * N ** (length - 1 - i) for i, l in enumerate(word))
    col = sum((l.col - 1) * N ** (length - 1 - i) for i, l in enumerate(word))
    return row, col, sign % 2 == 1


def _pair_by_formula(ctx, word, xw):
    """<word, xw> for a coordinate word and a generator word, read off the
    profile module's matrix at the formula's entry and sign.  It shares
    no code with `coords`, so it is the oracle for the table reads."""
    row, col, negate = _layout_by_formula(ctx, word)
    rep = reps.profile_rep(ctx, tuple(l.barred for l in word))
    val = rep.evaluate_word(xw).get(row, col)
    return -val if negate else val


@pytest.mark.parametrize("size", [(2, 1), (1, 2)])
def test_word_layout_matches_pairwise_sign_and_row_major_index(size):
    ctx = GradingContext(*size)
    N = ctx.N
    letters = [make(a, b) for make in (t_, tbar_)
               for a in range(1, N + 1) for b in range(1, N + 1)]
    for length in range(4):  # length 0 is the empty word
        for word in itertools.product(letters, repeat=length):
            rep = reps.profile_rep(ctx, tuple(l.barred for l in word))
            assert coords.word_layout(ctx, word) == (
                rep,) + _layout_by_formula(ctx, word), word


_COEFFS = st.builds(lambda c, e: RatFunc.from_int(c) * q_int(e),
                    st.integers(-3, 3).filter(bool), st.integers(-2, 2))


def _coord_words(ctx):
    """Words of length 0..3 over plain and barred letters, so that plain,
    barred and mixed profiles all occur."""
    N = ctx.N
    letters = st.builds(coords.CoordLetter, st.booleans(),
                        st.integers(1, N), st.integers(1, N))
    return st.lists(letters, max_size=3).map(tuple)


def _keyed_terms(ctx):
    """(key, coordinate word, coefficient) triples, with a few keys so
    that terms share them."""
    return st.lists(st.tuples(st.integers(0, 3), _coord_words(ctx), _COEFFS),
                    min_size=1, max_size=8)


def _pair_term_by_term(ctx, terms, x):
    out = {}
    for key, w, c in terms:
        for xw, xc in x.terms.items():
            v = _pair_by_formula(ctx, w, xw)
            if v:
                add_term(out, key, c * v * xc)
    return out


@pytest.mark.parametrize("size", [(2, 1), (1, 2)])
def test_pair_table_matches_pairing_term_by_term(size):
    ctx = GradingContext(*size)
    words = probe_monomials(ctx, 2)
    expressions = pbw_probe_expressions(ctx, 2)

    @given(_keyed_terms(ctx))
    def check(terms):
        table = coords.pairing_table(ctx, terms)
        for word in words:
            assert coords.pair_table(table, word) == _pair_term_by_term(
                ctx, terms, UqExpression.from_word(ctx, word)), word
        for x in expressions:
            assert coords.pair_table(table, x) == _pair_term_by_term(
                ctx, terms, x), x

    check()


def _evaluate_term_by_term(ctx, f, x):
    return _pair_term_by_term(
        ctx, [(None, w, c) for w, c in f.terms.items()], x).get(None, ZERO)


def _left_translation_term_by_term(ctx, x, f):
    """x . f = sum <f_(1), S^-1(x)> f_(2), one coproduct term at a time."""
    six = s_inverse(x)
    out = {}
    for (wl, wr), c in coproduct(f).items():
        v = _evaluate_term_by_term(ctx, GqElement.from_word(ctx, wl), six)
        add_term(out, wr, c * v)
    return out


def _right_translation_term_by_term(ctx, x, f):
    """x o f = sum f_(1) (-1)^{|x|(|f| + |x|)} <f_(2), x>, one coproduct
    term and one word of x at a time, each word signed by its own
    parity."""
    out = {}
    for (wl, wr), c in coproduct(f).items():
        pf = sum(ctx.parity(l.row) + ctx.parity(l.col) for l in wl + wr)
        for w, cx in x.terms.items():
            px = word_parity(ctx, w)
            add_term(out, wl, sign_pow(px * (pf + px)) * c * cx
                     * _pair_by_formula(ctx, wr, w))
    return out


@pytest.mark.parametrize("size", [(2, 1), (1, 2)])
def test_table_reads_match_term_by_term_pairing(size):
    """evaluate and the two translations pair through tables; each must
    equal the sum over its terms, paired one at a time by the formula.
    The probes include odd, even and inhomogeneous expressions, so the
    translation signs are exercised."""
    ctx = GradingContext(*size)
    elements = st.lists(st.tuples(_coord_words(ctx), _COEFFS),
                        min_size=1, max_size=3).map(
        lambda terms: sum((GqElement.from_word(ctx, w, c) for w, c in terms),
                          GqElement.zero(ctx)))
    basis = [UqExpression.from_word(ctx, w) for w in probe_monomials(ctx, 2)]
    basis += pbw_probe_expressions(ctx, 2)
    expressions = st.lists(st.sampled_from(basis), min_size=1,
                           max_size=2).map(lambda xs: sum(xs[1:], xs[0]))

    @given(elements, expressions)
    def check(f, x):
        assert evaluate(ctx, f, x) == _evaluate_term_by_term(ctx, f, x)
        assert left_translation(ctx, x, f).terms == \
            _left_translation_term_by_term(ctx, x, f)
        assert right_translation(ctx, x, f).terms == \
            _right_translation_term_by_term(ctx, x, f)

    check()


@pytest.mark.parametrize("size", [(1, 1), (2, 1)])
def test_right_translation_is_linear_in_x(size):
    """(x + y) o f = x o f + y o f for every two generators x, y, of one
    parity or of two, and every one- and two-letter plain word f."""
    ctx = GradingContext(*size)
    gens = [UqExpression.from_gen(ctx, g) for g in all_generators(ctx)]
    letters = [t_(i, j) for i in range(1, ctx.N + 1)
               for j in range(1, ctx.N + 1)]
    words = [(a,) for a in letters] + list(itertools.product(letters,
                                                              repeat=2))
    for w in words:
        f = GqElement.from_word(ctx, w)
        moved = [right_translation(ctx, x, f) for x in gens]
        for (i, x), (j, y) in itertools.combinations(enumerate(gens), 2):
            assert right_translation(ctx, x + y, f) == moved[i] + moved[j], (
                w, x, y)


def test_functional_zero_detects_nonzero(ctx):
    f = GqElement.from_letter(ctx, t_(1, 1))
    assert functional_witness(ctx, f, 1) is not None
    assert functional_witness(ctx, f - f, 2) is None


# ---------------------------------------------------------------------------
# Antipode on coordinates.
# ---------------------------------------------------------------------------


def test_antipode_is_dual_to_the_enveloping_antipode(ctx):
    deg = _probe_degree(ctx)
    probes = probe_monomials(ctx, deg)
    words = [
        (t_(1, 1),),
        (tbar_(1, ctx.N),),
        (t_(1, ctx.N), t_(ctx.N, 1)),
        (tbar_(1, 1), t_(1, ctx.N)),
    ]
    for letters in words:
        f = GqElement.from_word(ctx, letters)
        sf = antipode_coords(f)
        for x in probes:
            lhs = evaluate(ctx, sf, x)
            rhs = evaluate(ctx, f, antipode(UqExpression.from_word(ctx, x)))
            assert lhs == rhs


def test_antipode_of_barred_letter_frozen_at_1_1():
    ctx = GradingContext(1, 1)
    f = GqElement.from_letter(ctx, tbar_(1, 2))
    expected = GqElement.from_letter(ctx, t_(2, 1)).scale(-ONE)
    assert antipode_coords(f).terms == expected.terms


def test_antipode_squared_scales_by_weight_ratio(ctx):
    deg = _probe_degree(ctx)
    N = ctx.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            f = GqElement.from_letter(ctx, t_(a, b))
            s2 = antipode_coords(antipode_coords(f))
            e = ctx.two_rho_eps(a) - ctx.two_rho_eps(b)
            diff = s2 - f.scale(q_int(e))
            assert functional_witness(ctx, diff, deg) is None


# ---------------------------------------------------------------------------
# Star structure on coordinates.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [1, 2])
def test_star_is_involutive_on_letters(ctx, theta):
    N = ctx.N
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            for letter in (t_(a, b), tbar_(a, b)):
                f = GqElement.from_letter(ctx, letter)
                assert star_coords(star_coords(f, theta), theta).terms == f.terms


@pytest.mark.parametrize("theta", [1, 2])
def test_star_commutes_with_coproduct(ctx, theta):
    """Delta(star f) equals the graded (star (x) star) of Delta f."""
    N = ctx.N
    words = [
        (t_(1, 1),),
        (tbar_(1, N),),
        (t_(1, N), tbar_(N, 1)),
    ]
    for letters in words:
        f = GqElement.from_word(ctx, letters)
        lhs = coproduct(star_coords(f, theta))
        rhs = star_coproduct(f, theta)
        assert lhs == rhs


def test_star_exchanges_plain_and_barred(ctx):
    f = GqElement.from_letter(ctx, t_(1, ctx.N))
    sf = star_coords(f, 1)
    (letters, coeff), = sf.terms.items()
    assert len(letters) == 1
    assert letters[0].barred
    assert (letters[0].row, letters[0].col) == (1, ctx.N)
    assert coeff in (ONE, -ONE)


# ---------------------------------------------------------------------------
# Certificates, matrix coefficients, separation.
# ---------------------------------------------------------------------------


class TestWitness:
    def test_no_witness_for_equal(self):
        ctx = GradingContext(1, 1)
        f = GqElement.from_word(ctx, (t_(1, 1),))
        assert coords.functional_witness(ctx, f - f, 3) is None

    def test_witness_is_first_disagreeing_probe(self):
        ctx = GradingContext(1, 1)
        f = GqElement.from_word(ctx, (t_(1, 1),))
        g = GqElement.from_word(ctx, (t_(2, 2),))
        w = coords.functional_witness(ctx, f - g, 2)
        assert w == (("K", 1),)


class TestMatrixCoefficients:
    def test_vector_summand_recovers_letters(self):
        ctx = GradingContext(1, 1)
        V = reps.vector_rep(ctx)
        mc, = coords.matrix_coefficients(ctx, (False,), reps.decompose(V))
        for i in range(2):
            for j in range(2):
                assert mc[i][j].terms == {(t_(i + 1, j + 1),): ONE}

    def test_dependent_summand_bases_rejected(self):
        from types import SimpleNamespace

        ctx = GradingContext(1, 1)
        twice = SimpleNamespace(basis=[{0: ONE}, {0: ONE}], dim=2)
        with pytest.raises(ValueError, match="linearly dependent"):
            coords.matrix_coefficients(ctx, (False,), [twice])

    def test_trivial_profile_gives_counit(self):
        ctx = GradingContext(1, 1)
        triv = reps.trivial_rep(ctx)
        mc, = coords.matrix_coefficients(ctx, (), reps.decompose(triv))
        assert mc[0][0].terms == {(): ONE}

    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_entries_match_submodule_matrices(self, size):
        ctx = GradingContext(*size)
        V = reps.vector_rep(ctx)
        square = reps.tensor_rep(V, V)
        summands = reps.decompose(square)
        grids = coords.matrix_coefficients(ctx, (False, False), summands)
        for s, mc in zip(summands, grids):
            for w in probe_monomials(ctx, 2):
                M = s.rep.evaluate_word(w)
                for i in range(s.dim):
                    for j in range(s.dim):
                        assert coords.evaluate(ctx, mc[i][j], w) == M.get(i, j)

    def test_dual_profile_entries_match(self):
        ctx = GradingContext(1, 1)
        V = reps.vector_rep(ctx)
        D = reps.dual_rep(V)
        mc, = coords.matrix_coefficients(ctx, (True,), reps.decompose(D))
        for w in probe_monomials(ctx, 2):
            M = D.evaluate_word(w)
            for i in range(2):
                for j in range(2):
                    assert coords.evaluate(ctx, mc[i][j], w) == M.get(i, j)

    def test_peter_weyl_rank_1_1(self):
        ctx = GradingContext(1, 1)
        funcs = self._coefficient_family(ctx)
        assert len(funcs) == 13
        probes = probe_monomials(ctx, 4)
        vecs = [
            {pi: v for pi, v in enumerate(
                coords.evaluate(ctx, f, x) for x in probes) if v}
            for f in funcs]
        assert rank(vecs) == 13

    def test_peter_weyl_rank_2_1(self):
        ctx = GradingContext(2, 1)
        funcs = self._coefficient_family(ctx)
        assert len(funcs) == 51
        probes = pbw_probe_expressions(ctx, 2)
        vecs = [
            {pi: v for pi, v in enumerate(
                coords.evaluate(ctx, f, x) for x in probes) if v}
            for f in funcs]
        assert rank(vecs) == 51

    @staticmethod
    def _coefficient_family(ctx):
        V = reps.vector_rep(ctx)
        funcs = [GqElement.one(ctx)]
        mc, = coords.matrix_coefficients(ctx, (False,), reps.decompose(V))
        funcs += [mc[i][j] for i in range(V.dim) for j in range(V.dim)]
        square = reps.tensor_rep(V, V)
        summands = reps.decompose(square)
        grids = coords.matrix_coefficients(ctx, (False, False), summands)
        for s, mc in zip(summands, grids):
            funcs += [mc[i][j] for i in range(s.dim) for j in range(s.dim)]
        return funcs


class TestSeparation:
    def test_sample_expressions_are_separated(self):
        ctx = GradingContext(1, 1)
        N = ctx.N
        letters = [t_(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
        letters += [tbar_(a, b)
                    for a in range(1, N + 1) for b in range(1, N + 1)]
        samples = [e for e in pbw_probe_expressions(ctx, 3) if e.terms][:25]
        assert len(samples) >= 20
        for e in samples:
            assert self._separated(ctx, letters, e)

    @staticmethod
    def _separated(ctx, letters, e):
        for length in (1, 2, 3):
            for word in itertools.product(letters, repeat=length):
                if coords.evaluate(ctx, GqElement.from_word(ctx, word), e):
                    return True
        return False
