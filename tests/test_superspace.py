"""Rewriting system of the quantum projective superspace: functional
soundness of every rule, instrumented termination, strategy-independent
normal forms, the rewrite loop against a tuple-word oracle, the
inhomogeneous sphere identity, and linear independence of the normal
monomials."""

import importlib.util
import itertools
import math
import pathlib
import random

import pytest

from glq import superspace
from glq.coeff import ONE, RatFunc, add_term, q_int
from glq.graded import GradingContext, rank
from glq.coords import GqElement, evaluate, functional_witness
from glq.parser import parse_superspace
from glq.superspace import (
    SuperspaceElement,
    apply_rule,
    barred_monomials,
    gl1_weight,
    is_normal,
    measure,
    multidegree,
    normal_form,
    plain_monomials,
    redexes,
    sphere_relation_element,
    multi_index_of,
    verify_identities,
    word_of_multi_index,
    z_,
    zb_,
)
from glq.induction import (
    coaction,
    coaction_pair,
    cp_basis,
    to_coordinate_element,
    to_coordinate_letter,
)
from glq.uq import gen_K
from glq.uq import UqExpression, pbw_probe_expressions, probe_monomials

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2)]


@pytest.fixture(params=SIZES, ids=lambda s: "m%dn%d" % s)
def ctx(request):
    return GradingContext(*request.param)


def _alphabet(ctx):
    N = ctx.N
    return ([z_(a) for a in range(1, N + 1)]
            + [zb_(a) for a in range(1, N + 1)])


# ---------------------------------------------------------------------------
# Each rewrite rule is an identity of coordinate functionals.
# ---------------------------------------------------------------------------


def test_every_rule_is_functionally_sound(ctx):
    deg = 3 if (ctx.m, ctx.n) == (1, 1) else 2
    for x in _alphabet(ctx):
        for y in _alphabet(ctx):
            word = (x, y)
            for i in redexes(ctx, word):
                lhs = SuperspaceElement.from_word(ctx, word)
                rhs = SuperspaceElement(ctx, apply_rule(ctx, word, i))
                diff = to_coordinate_element(ctx, lhs - rhs)
                assert functional_witness(ctx, diff, deg) is None, (word, i)


def test_rules_sound_against_root_vector_probes():
    """Stronger oracle at (2,1): probes built from composite root
    vectors, which separate functionals that sorted simple-generator
    words cannot reach."""
    ctx = GradingContext(2, 1)
    probes = pbw_probe_expressions(ctx, 3)
    for x in _alphabet(ctx):
        for y in _alphabet(ctx):
            word = (x, y)
            for i in redexes(ctx, word):
                lhs = SuperspaceElement.from_word(ctx, word)
                rhs = SuperspaceElement(ctx, apply_rule(ctx, word, i))
                diff = to_coordinate_element(ctx, lhs - rhs)
                assert all(not evaluate(ctx, diff, p) for p in probes), (
                    word, i)


def _normal_pair(m, n, x, y):
    """The normal monomial of the module docstring, stated on one
    adjacent pair: plain ascending, barred descending, an odd letter
    (index <= m) never repeated, no barred letter before a plain one,
    and never z_N directly before zbar_N."""
    if x.barred and not y.barred:
        return False
    if not x.barred and y.barred:
        return not (x.index == y.index == m + n)
    if x.index == y.index:
        return x.index > m
    if x.barred:
        return x.index > y.index
    return x.index < y.index


@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2),
                                  (0, 2), (2, 0)],
                         ids=lambda s: "m%dn%d" % s)
def test_normal_pairs_match_the_stated_shape(size):
    ctx = GradingContext(*size)
    for x in _alphabet(ctx):
        for y in _alphabet(ctx):
            assert is_normal(ctx, (x, y)) == _normal_pair(*size, x, y), (
                x, y)


def test_normal_form_is_functionally_sound(ctx):
    deg = 3 if (ctx.m, ctx.n) == (1, 1) else 2
    rng = random.Random(7401)
    letters = _alphabet(ctx)
    for _ in range(8):
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randrange(2, 5)))
        e = SuperspaceElement.from_word(ctx, word)
        nf, _ = normal_form(ctx, e)
        diff = to_coordinate_element(ctx, e - nf)
        assert functional_witness(ctx, diff, deg) is None, word


# ---------------------------------------------------------------------------
# Frozen small rewrites.
# ---------------------------------------------------------------------------


def test_frozen_rewrites_at_1_1():
    ctx = GradingContext(1, 1)

    def nf(*letters):
        out, _ = normal_form(ctx, SuperspaceElement.from_word(ctx, letters))
        return out.terms

    assert nf(zb_(1), z_(1)) == {(z_(1), zb_(1)): -q_int(2)}
    assert nf(zb_(2), z_(2)) == {(): ONE, (z_(1), zb_(1)): q_int(2)}
    assert nf(z_(2), zb_(2)) == {(): ONE, (z_(1), zb_(1)): ONE}
    assert nf(z_(1), z_(1)) == {}
    assert nf(zb_(1), zb_(1)) == {}


# ---------------------------------------------------------------------------
# Termination (instrumented measure) and confluence across strategies.
# ---------------------------------------------------------------------------


def test_unknown_strategy_rejected_before_rewriting():
    """An element that is already normal takes no rewriting step, and a
    misspelt strategy is still an error."""
    ctx = GradingContext(2, 1)
    element = SuperspaceElement.from_word(ctx, (z_(1), z_(2)))
    assert normal_form(ctx, element) == (element, 0)
    with pytest.raises(ValueError, match="unknown strategy 'typo'"):
        normal_form(ctx, element, strategy="typo")


def test_termination_measure_decreases_on_random_words(ctx):
    rng = random.Random(52100 + ctx.N)
    letters = _alphabet(ctx)
    trials = 30 if ctx.N < 4 else 12
    for _ in range(trials):
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randrange(2, 6)))
        e = SuperspaceElement.from_word(ctx, word)
        # instrument=True asserts the strict lexicographic decrease of
        # the measure at every single step
        out, steps = normal_form(ctx, e, "random", seed=steps_seed(word),
                                 instrument=True)
        assert all(is_normal(ctx, w) for w in out.terms)


def steps_seed(word):
    return len(word) * 1009 + sum(l.index for l in word)


def test_confluence_across_strategies(ctx):
    rng = random.Random(90125 + ctx.N)
    letters = _alphabet(ctx)
    trials = 30 if ctx.N < 4 else 12
    for trial in range(trials):
        word = tuple(rng.choice(letters)
                     for _ in range(rng.randrange(2, 6)))
        e = SuperspaceElement.from_word(ctx, word)
        nf_left, _ = normal_form(ctx, e, "leftmost", instrument=True)
        nf_right, _ = normal_form(ctx, e, "rightmost", instrument=True)
        nf_rand, _ = normal_form(ctx, e, "random", seed=trial,
                                 instrument=True)
        assert nf_left == nf_right == nf_rand, word


def test_confluence_on_sphere_overlaps(ctx):
    N = ctx.N
    overlaps = [
        (zb_(N), z_(N), zb_(N)),
        (z_(N), zb_(N), z_(N)),
        (z_(N), z_(N), zb_(N), zb_(N)),
        (z_(1), z_(N), zb_(N), zb_(1)),
    ]
    for word in overlaps:
        e = SuperspaceElement.from_word(ctx, word)
        nf_left, _ = normal_form(ctx, e, "leftmost", instrument=True)
        nf_right, _ = normal_form(ctx, e, "rightmost", instrument=True)
        assert nf_left == nf_right, word


# ---------------------------------------------------------------------------
# The rewrite loop against a tuple-word oracle.
# ---------------------------------------------------------------------------


def _tuple_normal_form(ctx, element, strategy="leftmost", seed=0):
    """Oracle of ``normal_form``: the same loop stated on tuples of
    letters, listing every redex by a scan of the adjacent pairs."""
    table = superspace._rules(ctx)
    rng = random.Random(seed)
    work = dict(element.terms)
    done = {}
    steps = 0
    while work:
        word, coeff = work.popitem()
        reds = [i for i, pair in enumerate(zip(word, word[1:]))
                if pair in table]
        if not reds:
            add_term(done, word, coeff)
            continue
        if strategy == "leftmost":
            i = reds[0]
        elif strategy == "rightmost":
            i = reds[-1]
        else:
            i = reds[rng.randrange(len(reds))]
        steps += 1
        head, tail = word[:i], word[i + 2:]
        for mid, c in table[word[i:i + 2]].items():
            add_term(work, head + mid + tail, coeff * c)
    return SuperspaceElement(ctx, done), steps


def _assert_same_rewrite(ctx, element, strategy="leftmost", seed=0):
    got, steps = normal_form(ctx, element, strategy, seed=seed)
    want, want_steps = _tuple_normal_form(ctx, element, strategy, seed)
    assert list(got.terms.items()) == list(want.terms.items())
    assert steps == want_steps


@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)],
                         ids=lambda s: "m%dn%d" % s)
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random"])
def test_rewrite_matches_the_tuple_word_oracle(size, strategy):
    """Same normal form, term order and step count, on seeded sums of up
    to three words whose coefficients can merge and cancel."""
    ctx = GradingContext(*size)
    rng = random.Random("oracle-%d-%d-%s" % (size + (strategy,)))
    letters = _alphabet(ctx)
    for trial in range(25):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(letters)
                         for _ in range(rng.randrange(0, 8)))
            add_term(terms, word,
                     rng.choice((ONE, -ONE)) * q_int(rng.randint(-2, 2)))
        _assert_same_rewrite(ctx, SuperspaceElement(ctx, terms), strategy,
                             seed=trial)


def _benchmark_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location(
        "workloads", path / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rewrite_jobs(seed):
    """(ctx, parsed element) for each of the twelve products of linear
    forms that the benchmark's rewrite workload sends through ``glq
    normalform``."""
    for argv in _benchmark_workloads().rewrite_jobs(seed):
        ctx = GradingContext(int(argv[argv.index("--m") + 1]),
                             int(argv[argv.index("--n") + 1]))
        yield ctx, parse_superspace(ctx, argv[-1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rewrite_jobs_match_the_tuple_word_oracle(seed):
    """Under each strategy: the chains that ``normal_form`` follows in
    place meet other words, merges and rng draws on each."""
    for ctx, element in _rewrite_jobs(seed):
        for strategy in ("leftmost", "rightmost", "random"):
            _assert_same_rewrite(ctx, element, strategy, seed=seed)


def _words(*spelled):
    """Plain words from strings of indices: "32" is z_3 z_2."""
    return [tuple(z_(int(ch)) for ch in text) for text in spelled]


def test_a_unit_chain_merges_into_a_waiting_word():
    """At (2|1) z_3 z_2 z_1 takes the unit rule q^-1 to z_2 z_3 z_1, a
    word that is already in the work list and not yet normal.  So the
    chain stops and merges there; the sum then rewrites once, by q^-1
    and -q^-1 (z_1 and z_2 are odd), to z_1 z_2 z_3.  A chain that ran
    on past the merge would rewrite z_2 z_3 z_1 twice: 5 steps, not 3.
    With the waiting coefficient -q^-1 the merge cancels."""
    ctx = GradingContext(2, 1)
    waiting, crossed, normal = _words("231", "321", "123")
    for first, want, want_steps in (
            (ONE, {normal: -(q_int(-2) + q_int(-3))}, 3),
            (-q_int(-1), {}, 1)):
        element = SuperspaceElement(ctx, {waiting: first, crossed: ONE})
        assert normal_form(ctx, element) == (
            SuperspaceElement(ctx, want), want_steps)
        for strategy in ("leftmost", "rightmost", "random"):
            _assert_same_rewrite(ctx, element, strategy, seed=7)


def test_a_unit_chain_ends_at_an_odd_square():
    """z_2 z_1 z_1 at (2|1): leftmost, two unit swaps reach z_1 z_1 z_2,
    whose odd square rewrites to nothing, so the word drops out and
    z_3 stays."""
    ctx = GradingContext(2, 1)
    word, kept = _words("211", "3")
    element = SuperspaceElement(ctx, {kept: q_int(2), word: -ONE})
    assert normal_form(ctx, element) == (
        SuperspaceElement(ctx, {kept: q_int(2)}), 3)
    for strategy in ("leftmost", "rightmost", "random"):
        _assert_same_rewrite(ctx, element, strategy, seed=3)


def test_a_rewrite_chain_makes_one_product(monkeypatch):
    """Work counter: a chain of one-replacement unit rules builds its
    coefficient once, so the twelve seed-0 rewrite jobs make at most
    30000 Q(q) products in ``normal_form`` over their 96050 steps; a
    product per step would make 93809."""
    jobs = list(_rewrite_jobs(0))
    products = 0
    multiply = RatFunc.__mul__

    def counting(x, y):
        nonlocal products
        products += 1
        return multiply(x, y)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    steps = sum(normal_form(ctx, element)[1] for ctx, element in jobs)
    assert steps == 96050
    assert products <= 30000


def test_instrument_catches_a_rule_that_raises_the_measure(monkeypatch):
    """A rule sending z_2 z_1 to zbar_1 z_1 adds a cross pair, and
    instrument=True stops at that step."""
    ctx = GradingContext(2, 1)
    table = dict(superspace._rules(ctx))
    table[z_(2), z_(1)] = {(zb_(1), z_(1)): ONE}
    monkeypatch.setattr(superspace, "_rules", lambda c: table)
    superspace._spelled_rules.cache_clear()
    element = SuperspaceElement.from_word(ctx, (z_(2), z_(1)))
    try:
        with pytest.raises(AssertionError,
                           match="measure failed to decrease"):
            normal_form(ctx, element, instrument=True)
    finally:
        superspace._spelled_rules.cache_clear()


def test_normal_form_is_idempotent(ctx):
    e = SuperspaceElement.from_word(ctx, (z_(1), zb_(1)))
    nf, _ = normal_form(ctx, e)
    again, steps = normal_form(ctx, nf)
    assert again == nf
    assert steps == 0


# ---------------------------------------------------------------------------
# The inhomogeneous sphere identity.
# ---------------------------------------------------------------------------


def test_signed_sphere_relation_rewrites_to_zero(ctx):
    nf, _ = normal_form(ctx, sphere_relation_element(ctx, signed=True),
                        instrument=True)
    assert nf.is_zero()


def test_unsigned_sphere_variant_is_genuinely_nonzero():
    """The variant without the parity sign does not vanish: it fails to
    rewrite to zero and a concrete probe detects it, so the sign in the
    scalar identity is forced."""
    ctx = GradingContext(1, 1)
    unsigned = sphere_relation_element(ctx, signed=False)
    nf, _ = normal_form(ctx, unsigned)
    assert not nf.is_zero()
    probe = UqExpression.from_word(ctx, (("E", 2, 1), ("E", 1, 2)))
    value = evaluate(ctx, to_coordinate_element(ctx, unsigned), probe)
    assert value == q_int(-2) + q_int(-2)


def test_unsigned_sphere_variant_nonzero_at_all_sizes(ctx):
    nf, _ = normal_form(ctx, sphere_relation_element(ctx, signed=False))
    assert not nf.is_zero()


# ---------------------------------------------------------------------------
# Normal monomials: counts, exclusions, independence.
# ---------------------------------------------------------------------------


def _normal_words_upto(ctx, max_len):
    letters = _alphabet(ctx)
    out = [()]
    for length in range(1, max_len + 1):
        for w in itertools.product(letters, repeat=length):
            if is_normal(ctx, w):
                out.append(w)
    return out


def test_monomial_counts_match_binomial_formula(ctx):
    m, n = ctx.m, ctx.n
    for k in range(0, 4):
        mons = plain_monomials(ctx, k)
        expected = sum(math.comb(m, j) * math.comb(n - 1 + k - j, k - j)
                       for j in range(0, min(m, k) + 1))
        assert len(mons) == expected
        assert all(is_normal(ctx, w) for w in mons)
        bmons = barred_monomials(ctx, k)
        assert len(bmons) == expected
        assert all(is_normal(ctx, w) for w in bmons)


def test_no_normal_monomial_holds_both_top_letters(ctx):
    N = ctx.N
    for w in _normal_words_upto(ctx, 3):
        has_plain_top = any(not l.barred and l.index == N for l in w)
        has_barred_top = any(l.barred and l.index == N for l in w)
        assert not (has_plain_top and has_barred_top), w


def test_normal_monomials_are_independent_functionals():
    cases = [((1, 1), 3, 4, 20), ((2, 1), 2, 4, 23)]
    for (m, n), max_len, deg, expected in cases:
        ctx = GradingContext(m, n)
        words = _normal_words_upto(ctx, max_len)
        assert len(words) == expected
        probes = pbw_probe_expressions(ctx, deg)
        rows = []
        for w in words:
            f = GqElement.from_word(
                ctx, tuple(to_coordinate_letter(ctx, l) for l in w))
            row = {}
            for j, x in enumerate(probes):
                v = evaluate(ctx, f, x)
                if v:
                    row[j] = v
            rows.append(row)
        assert rank(rows) == len(words)


# ---------------------------------------------------------------------------
# Gradings.
# ---------------------------------------------------------------------------


def test_multidegree_and_charge(ctx):
    word = (z_(1), z_(ctx.N), zb_(1))
    plain, barred = multidegree(ctx, word)
    assert plain[0] == 1 and plain[-1] == 1
    assert barred[0] == 1
    # The circle grading is (barred count) - (plain count).
    assert gl1_weight(ctx, SuperspaceElement.from_word(ctx, word)) == -1
    assert gl1_weight(ctx, SuperspaceElement.one(ctx)) == 0


def test_measure_of_sorted_word_is_minimal(ctx):
    word = tuple(z_(a) for a in range(1, ctx.N + 1))
    assert measure(ctx, word) == (0, 0, 1, 0)


class TestGl1Weight:
    def test_letters(self):
        c = GradingContext(1, 1)
        assert gl1_weight(c, SuperspaceElement.from_word(c, (z_(1),))) == -1
        assert gl1_weight(c, SuperspaceElement.from_word(c, (zb_(1),))) == 1
        mixed = SuperspaceElement.from_word(c, (z_(1), zb_(1)))
        assert gl1_weight(c, mixed) == 0

    def test_inhomogeneous_rejected(self):
        c = GradingContext(1, 1)
        bad = (SuperspaceElement.from_word(c, (z_(1),))
               + SuperspaceElement.from_word(c, (zb_(1),)))
        with pytest.raises(ValueError):
            gl1_weight(c, bad)

    def test_zero_element(self):
        c = GradingContext(1, 1)
        assert gl1_weight(c, SuperspaceElement.zero(c)) == 0

    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_last_cartan_scales_by_weight(self, size):
        """Right translation by the last Cartan generator multiplies a
        bidegree word by q to the power (barred degree - plain degree)."""
        from glq.induction import right_translation

        c = GradingContext(*size)
        N = c.N
        words = [(z_(1),), (zb_(1),), (z_(1), zb_(1)),
                 (zb_(1), zb_(N)), (z_(1), z_(N))]
        for word in words:
            el = SuperspaceElement.from_word(c, word)
            f = to_coordinate_element(c, el)
            out = right_translation(c, gen_K(N), f)
            expected = f.scale(q_int(gl1_weight(c, el)))
            assert not (out - expected).terms, word


class TestMultiIndex:
    def test_split(self):
        c = GradingContext(1, 1)
        (tp, lp), (tb, lb) = multi_index_of(c, (z_(1), zb_(2), zb_(1)))
        assert (tp, lp) == ((1,), (0,))
        assert (tb, lb) == ((1,), (1,))

    def test_round_trip(self):
        c = GradingContext(2, 1)
        word = (z_(1), z_(3), z_(3), zb_(3), zb_(2))
        assert word_of_multi_index(c, *multi_index_of(c, word)) == word

    def test_repeated_nilpotent_rejected(self):
        c = GradingContext(1, 1)
        with pytest.raises(ValueError):
            multi_index_of(c, (zb_(1), zb_(1)))


class TestCoaction:
    def test_letters_map_to_coordinate_row(self):
        """omega(z_a) = sum_c z_c (x) t_{a c} with unit coefficients,
        and likewise for barred letters."""
        c = GradingContext(2, 1)
        for bar, mk in ((False, z_), (True, zb_)):
            for a in range(1, c.N + 1):
                terms = coaction(c, SuperspaceElement.from_word(c, (mk(a),)))
                assert len(terms) == c.N
                found = {(ws[0].index, wg[0].col): coeff
                         for (ws, wg), coeff in terms.items()}
                for col in range(1, c.N + 1):
                    assert found[(col, col)] == ONE
                for (ws, wg), coeff in terms.items():
                    assert ws[0].barred is bar and wg[0].barred is bar
                    assert wg[0].row == a and wg[0].col == ws[0].index

    @pytest.mark.parametrize("size", [(1, 1), (2, 1)])
    def test_respects_rewrite_rules(self, size):
        """The co-action agrees on both sides of every length-2 rewrite
        rule, tested against a grid of probe pairs."""
        c = GradingContext(*size)
        letters = [z_(a) for a in range(1, c.N + 1)]
        letters += [zb_(a) for a in range(1, c.N + 1)]
        probes = pbw_probe_expressions(c, 2)[:5]
        pairs = list(itertools.product(probes, probes))
        checked = 0
        for l1 in letters:
            for l2 in letters:
                word = (l1, l2)
                for pos in redexes(c, word):
                    out = apply_rule(c, word, pos)
                    lhs = coaction(c, SuperspaceElement.from_word(c, word))
                    rhs = coaction(c, SuperspaceElement(c, out))
                    for x, y in pairs:
                        assert (coaction_pair(c, lhs, x, y)
                                == coaction_pair(c, rhs, x, y)), (word, pos)
                    checked += 1
        assert checked >= {(1, 1): 9, (2, 1): 20}[size]


class TestCpBasis:
    def test_1_1_degree_1(self):
        """All four plain-times-barred words of bidegree (1, 1) are
        independent functionals."""
        c = GradingContext(1, 1)
        words, r, deps = cp_basis(c, 1)
        assert len(words) == 4 and r == 4 and deps == []
        content = {tuple((l.barred, l.index) for l in w) for w in words}
        assert content == {
            ((False, 1), (True, 1)), ((False, 1), (True, 2)),
            ((False, 2), (True, 1)), ((False, 2), (True, 2))}

    def test_1_1_degree_2(self):
        c = GradingContext(1, 1)
        words, r, deps = cp_basis(c, 2)
        assert len(words) == 4 and r == 4 and deps == []

    def test_2_1_degree_1(self):
        c = GradingContext(2, 1)
        words, r, deps = cp_basis(c, 1)
        assert len(words) == 9 and r == 9 and deps == []

    def test_degree_zero(self):
        c = GradingContext(1, 1)
        words, r, deps = cp_basis(c, 0)
        assert len(words) == 1 and r == 1 and deps == []


class TestVerifyIdentities:
    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2)])
    def test_report(self, size):
        c = GradingContext(*size)
        report = verify_identities(c, seed=11, word_count=12, max_len=5)
        assert report["derived_identity"] is True
        assert report["unsigned_variant_nonzero"] is True
        assert report["unit_relation"] is True
        assert report["confluence"] is True
        assert report["witness"] is None
