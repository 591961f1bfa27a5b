"""Quantum projective superspace: the subalgebra of coordinate functions
generated by the last-column entries z_a = t_{a,N} and their barred
partners, presented by an explicit rewriting system.

A letter is (barred, index).  The rules are one table per (m, n)
(``functools.cache``), keyed by adjacent letter pair: a pair that
rewrites maps to its replacement {word: coeff}, and a word is normal
exactly when none of its adjacent pairs is a key.  The table

  * sorts same-type neighbours (plain ascending, barred descending;
    the square of an odd letter maps to zero),
  * pushes barred letters to the right past plain ones, producing
    lower-index correction pairs on equal indices,
  * eliminates the index-N cross pairs in both orders against the
    inhomogeneous sphere relation.

Every rule strictly decreases a four-component lexicographic measure
(cross pairs, cross index weight, index-N letter count, same-type
disorder), so rewriting terminates regardless of strategy.  Normal
monomials are ascending plain letters followed by descending barred
letters; the descending barred order guarantees that a word holding
both z_N and zbar_N exposes them adjacently at the block junction,
where the sphere rule removes them — so no normal monomial contains
both, which is what makes the normal form a genuine basis.  Each rule
is an identity of coordinate functionals, which the test-suite checks
by pairing both sides against probe elements of the enveloping
superalgebra.

Words are tuples of letters everywhere except inside `normal_form`.
There each word is spelled as a string with one character per letter,
the table is restated on those strings once per (m, n), cached the
same way, and one compiled alternation of its pair keys finds the
leftmost redex; the words are read back into tuples on the way out.
Most rules have one replacement with a unit coefficient +-q^e, and the
word it makes is rewritten next, so `normal_form` follows such a chain
with the shift e and the sign summed as ints and builds the Q(q)
coefficient once, where the chain ends.

The rewriting system needs only Q(q) and the grading.  The map to
coordinate functions, the co-action and the invariant subalgebra live
in `induction`, so `glq normalform` loads no algebra layer.
"""

import random
import re
from collections import namedtuple
from functools import cache

from .coeff import Combination, ONE, add_term, q_int

SpaceLetter = namedtuple("SpaceLetter", ["barred", "index"])


def z_(a):
    return SpaceLetter(False, a)


def zb_(a):
    return SpaceLetter(True, a)


def space_letter_parity(ctx, letter):
    """z_a carries the parity of t_{a,N}, i.e. |a| + 1."""
    return (ctx.parity(letter.index) + 1) % 2


class SuperspaceElement(Combination):
    """Linear combination of superspace words over the coefficient field."""

    __slots__ = ()

    def __repr__(self):
        return "SuperspaceElement(%d terms)" % len(self.terms)


# ---------------------------------------------------------------------------
# The rewriting system.
# ---------------------------------------------------------------------------


def measure(ctx, word):
    """Four-component termination measure, compared lexicographically:
    (cross pairs, cross index weight, index-N letters, same-type
    inversions)."""
    N = ctx.N
    cross = 0
    cross_weight = 0
    top = sum(1 for l in word if l.index == N)
    inversions = 0
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            li, lj = word[i], word[j]
            if li.barred and not lj.barred:
                cross += 1
                cross_weight += li.index + lj.index
            if not li.barred and not lj.barred and li.index > lj.index:
                inversions += 1
            if li.barred and lj.barred and li.index < lj.index:
                inversions += 1
    return (cross, cross_weight, top, inversions)


@cache
def _rules(ctx):
    """The rewriting system as one table, built once per ctx: each
    adjacent pair (x, y) that is a redex maps to {replacement: coeff},
    and x y rewrites to the sum of coeff * replacement."""
    N = ctx.N

    def odd(letter):
        return space_letter_parity(ctx, letter) == 1

    def swap(x, y, e):
        c = q_int(e)
        return {(y, x): -c if odd(x) and odd(y) else c}

    gap = q_int(1) - q_int(-1)
    table = {}
    for a in range(1, N + 1):
        for b in range(1, a):
            # Plain letters sort ascending, barred ones descending, so
            # that a word holding both z_N and zbar_N always exposes the
            # sphere redex at the junction of the two blocks.
            table[z_(a), z_(b)] = swap(z_(a), z_(b), -1)
            table[zb_(b), zb_(a)] = swap(zb_(b), zb_(a), -1)
            table[zb_(a), z_(b)] = swap(zb_(a), z_(b), 1)
            table[zb_(b), z_(a)] = swap(zb_(b), z_(a), 1)
        if odd(z_(a)):
            table[z_(a), z_(a)] = {}
            table[zb_(a), zb_(a)] = {}
        if a < N:
            # zbar_a passes z_a leaving lower-index correction pairs.
            s = q_int(ctx.sigma(a)) * (-ONE if odd(z_(a)) else ONE)
            entry = {(z_(a), zb_(a)): q_int(1) * s}
            for b in range(1, a):
                entry[zb_(b), z_(b)] = -(s * gap)
            table[zb_(a), z_(a)] = entry
    # The sphere relation removes the index-N pair in either order.
    crossed = {(): ONE}
    ordered = {(): ONE}
    for c in range(1, N):
        crossed[zb_(c), z_(c)] = -ONE
        e = q_int(ctx.two_rho_eps(c) - ctx.two_rho_eps(N))
        ordered[z_(c), zb_(c)] = e if ctx.parity(c) != ctx.parity(N) else -e
    table[zb_(N), z_(N)] = crossed
    table[z_(N), zb_(N)] = ordered
    return table


def redexes(ctx, word):
    """The positions i at which the pair word[i], word[i + 1] rewrites."""
    table = _rules(ctx)
    return [i for i, pair in enumerate(zip(word, word[1:])) if pair in table]


def apply_rule(ctx, word, i):
    """Replace the pair at position i, returning {word: coeff}."""
    head, tail = word[:i], word[i + 2:]
    return {head + mid + tail: c
            for mid, c in _rules(ctx)[word[i:i + 2]].items()}


def is_normal(ctx, word):
    return not redexes(ctx, word)


class _Spelling(dict):
    """letter -> chr(2 * index + barred), filled on first use."""

    def __missing__(self, letter):
        char = self[letter] = chr(2 * letter.index + letter.barred)
        return char


# A dict, not a functools.cache: _spell reads its hits in C.
_CHARS = _Spelling()


def _spell(word):
    """The word as a string of one character per letter: slicing,
    joining and hashing a string is cheaper than on a tuple of letters.
    ``_read`` inverts it."""
    return "".join(map(_CHARS.__getitem__, word))


@cache
def _letter(char):
    """The letter spelled as char, built once per character."""
    o = ord(char)
    return SpaceLetter(bool(o & 1), o >> 1)


def _read(spelled):
    return tuple(map(_letter, spelled))


@cache
def _spelled_rules(ctx):
    """The table of _rules(ctx) on spelled words, each pair key mapping
    to its [(replacement, coeff)]; the alternation of the keys, whose
    first match in a word starts at its leftmost redex; and the unit
    rules, each pair whose one replacement has a coefficient +-q^e
    mapping to (replacement, e, negated)."""
    table = {_spell(pair): [(_spell(w), c) for w, c in out.items()]
             for pair, out in _rules(ctx).items()}
    pattern = re.compile("|".join(map(re.escape, table)))
    units = {}
    for pair, out in table.items():
        unit = len(out) == 1 and out[0][1].signed_q_power()
        if unit:
            units[pair] = out[0][0], unit[0], unit[1] < 0
    return table, pattern, units


def normal_form(ctx, element, strategy="leftmost", seed=0,
                instrument=False):
    """Rewrite to normal form.

    strategy: 'leftmost', 'rightmost', or 'random' (seeded).  With
    instrument=True, every step asserts the strict lexicographic
    decrease of the termination measure and the step count is returned.
    Returns (normal element, steps).

    Each step pops the last word of the work list and pushes back what
    its redex rewrites to, so a rule with one replacement hands the new
    word straight back, unless it merges with a word already there.
    Such a chain of unit rules +-q^e is followed in place: it sums the
    exponents and signs as ints and builds the coefficient once, when
    the chain ends.  Words, merges, steps and rng draws are those of one
    step at a time.
    """
    if strategy not in ("leftmost", "rightmost", "random"):
        raise ValueError("unknown strategy %r" % strategy)
    table, pattern, units = _spelled_rules(ctx)
    leftmost = strategy == "leftmost"
    rng = random.Random(seed)
    work = {_spell(w): c for w, c in element.terms.items()}
    done = {}
    steps = 0
    while work:
        word, coeff = work.popitem()
        shift = 0
        negate = False
        while True:
            if leftmost:
                found = pattern.search(word)
                i = found.start() if found else None
            else:
                reds = [i for i in range(len(word) - 1)
                        if word[i:i + 2] in table]
                if not reds:
                    i = None
                elif strategy == "rightmost":
                    i = reds[-1]
                else:
                    i = reds[rng.randrange(len(reds))]
            if i is None:
                add_term(done, word, coeff.times_unit(shift, negate))
                break
            steps += 1
            pair = word[i:i + 2]
            if instrument:
                before = measure(ctx, _read(word))
                for mid, _ in table[pair]:
                    new_word = word[:i] + mid + word[i + 2:]
                    assert measure(ctx, _read(new_word)) < before, (
                        "measure failed to decrease", i, _read(word),
                        _read(new_word))
            unit = units.get(pair)
            if unit is not None:
                # The leftmost redex is the first occurrence of its pair,
                # since an earlier one would be an earlier match of the
                # pattern; so replacing that occurrence rewrites it.
                new_word = (word.replace(pair, unit[0], 1) if leftmost
                            else word[:i] + unit[0] + word[i + 2:])
                if new_word not in work:
                    word = new_word
                    shift += unit[1]
                    negate ^= unit[2]
                    continue
            out = table[pair]
            if out:
                head, tail = word[:i], word[i + 2:]
                coeff = coeff.times_unit(shift, negate)
                for mid, c in out:
                    add_term(work, head + mid + tail, coeff * c)
            break
    normal = {_read(w): c for w, c in done.items()}
    return SuperspaceElement(ctx, normal), steps


# ---------------------------------------------------------------------------
# Distinguished elements and monomial bases.
# ---------------------------------------------------------------------------


def sphere_relation_element(ctx, signed=True):
    """sum_c s_c q^{(2rho, eps_c)} z_c zbar_c minus its scalar value,
    where s_c = (-1)^{|c|} in the signed (correct) version and 1 in the
    unsigned one.  The signed version rewrites to zero; the unsigned one
    does not, and is kept only so the defect stays documented."""
    N = ctx.N
    total = SuperspaceElement.zero(ctx)
    for c in range(1, N + 1):
        coeff = q_int(ctx.two_rho_eps(c))
        if signed and ctx.parity(c) % 2:
            coeff = -coeff
        total = total + SuperspaceElement.from_word(
            ctx, (z_(c), zb_(c)), coeff)
    scalar = q_int(ctx.two_rho_eps(N))
    if signed and ctx.parity(N) % 2:
        scalar = -scalar
    return total - SuperspaceElement(ctx, {(): scalar})


def plain_monomials(ctx, k):
    """Normal pure-z words of total degree k (odd indices at most once,
    even indices with repetition, sorted)."""
    N = ctx.N
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for a in range(start, N + 1):
            # z_a with a <= m is odd and appears at most once.
            top = 1 if ctx.parity(a) == 0 else remaining
            for count in range(1, top + 1):
                rec(a + 1, remaining - count, acc + [z_(a)] * count)

    rec(1, k, [])
    return out


def barred_monomials(ctx, k):
    """Normal pure-zbar words of total degree k (descending index
    order, odd indices at most once)."""
    return [tuple(zb_(l.index) for l in reversed(w))
            for w in plain_monomials(ctx, k)]


def multidegree(ctx, word):
    """Counts per index, barred counted with the opposite sign on the
    grading used by the translation action."""
    plain = [0] * ctx.N
    barred = [0] * ctx.N
    for l in word:
        if l.barred:
            barred[l.index - 1] += 1
        else:
            plain[l.index - 1] += 1
    return tuple(plain), tuple(barred)


# ---------------------------------------------------------------------------
# Gradings and multi-indices.
# ---------------------------------------------------------------------------


def gl1_weight(ctx, element):
    """The integer grading (barred letter count) - (plain letter count),
    constant across the element's terms; mixed input is an error."""
    values = {sum(1 if l.barred else -1 for l in w) for w in element.terms}
    if not values:
        return 0
    if len(values) > 1:
        raise ValueError("element is not homogeneous: weights %s"
                         % sorted(values))
    return values.pop()


def multi_index_of(ctx, word):
    """The (theta; l) exponent pair of each block of a normal monomial:
    theta collects the nilpotent indices (at most 1 each), l the rest."""
    plain, barred = multidegree(ctx, word)
    m = ctx.m

    def split(counts):
        theta = counts[:m]
        if any(t > 1 for t in theta):
            raise ValueError("nilpotent letter repeated: %s" % (counts,))
        return theta, counts[m:]

    return split(plain), split(barred)


def word_of_multi_index(ctx, plain_index, barred_index):
    """Canonical word with the given exponents: plain ascending, then
    barred descending."""
    theta_p, l_p = plain_index
    theta_b, l_b = barred_index
    plain_counts = tuple(theta_p) + tuple(l_p)
    barred_counts = tuple(theta_b) + tuple(l_b)
    if len(plain_counts) != ctx.N or len(barred_counts) != ctx.N:
        raise ValueError("multi-index length must be m + n")
    word = []
    for a in range(1, ctx.N + 1):
        word.extend([z_(a)] * plain_counts[a - 1])
    for a in range(ctx.N, 0, -1):
        word.extend([zb_(a)] * barred_counts[a - 1])
    return tuple(word)


def verify_identities(ctx, seed=0, word_count=20, max_len=6):
    """Report on the scalar identity, the unit relation, and strategy
    confluence on random words."""
    report = {}
    signed, _ = normal_form(ctx, sphere_relation_element(ctx, signed=True))
    report["derived_identity"] = signed.is_zero()
    unsigned, _ = normal_form(ctx, sphere_relation_element(ctx, signed=False))
    report["unsigned_variant_nonzero"] = not unsigned.is_zero()
    unit = SuperspaceElement.zero(ctx)
    for c in range(1, ctx.N + 1):
        unit = unit + SuperspaceElement.from_word(ctx, (zb_(c), z_(c)))
    unit_nf, _ = normal_form(ctx, unit)
    report["unit_relation"] = unit_nf == SuperspaceElement.one(ctx)
    rng = random.Random(seed)
    alphabet = [z_(a) for a in range(1, ctx.N + 1)]
    alphabet += [zb_(a) for a in range(1, ctx.N + 1)]
    report["confluence_words"] = word_count
    report["confluence"] = True
    report["witness"] = None
    for t in range(word_count):
        length = rng.randint(2, max_len)
        word = tuple(rng.choice(alphabet) for _ in range(length))
        elem = SuperspaceElement.from_word(ctx, word)
        first, _ = normal_form(ctx, elem, strategy="leftmost")
        for strategy in ("rightmost", "random"):
            other, _ = normal_form(ctx, elem, strategy=strategy,
                                   seed=seed + t)
            if other != first:
                report["confluence"] = False
                if report["witness"] is None:
                    report["witness"] = word
    return report
