"""Property tests for Q(q) arithmetic.

The oracle is evaluation at rational points that are not poles: it is a
ring homomorphism Q(q) -> Q and shares no code with the gcd reduction
that puts every RatFunc into canonical form.  A raw dict is evaluated by
the test-local ``_eval``, which shares no code with ``coeff`` either."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, strategies as st

import pytest

from glq.coeff import ONE, RatFunc, ZERO, _POLY_ONE, _div, add_term, q_int

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
_nonzero_coeffs = _coeffs.filter(bool)
_laurent = st.dictionaries(st.integers(-3, 3), _coeffs, max_size=4)
_nonzero_laurent = st.dictionaries(st.integers(-3, 3), _nonzero_coeffs,
                                   min_size=1, max_size=4)
ratfuncs = st.builds(RatFunc, _laurent, _nonzero_laurent)
points = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
    min_size=3, max_size=3, unique=True)


def _eval(d, point):
    """The exact value at point of the raw dict d: exponent -> rational."""
    return sum(Fraction(c) * point ** e for e, c in d.items())


def _nonzero(d):
    """The raw dict d without its zero coefficients."""
    return {e: c for e, c in d.items() if c}


def _values(point, *xs):
    """The value of each x at point, or None when point is a pole of one."""
    try:
        return [x.evaluate(point) for x in xs]
    except ZeroDivisionError:
        return None


def _assert_canonical(x):
    den = x.den
    assert min(den) == 0
    assert den[0] != 0
    assert den[max(den)] == 1
    if not x:
        assert x.den == {0: 1}
    # A polynomial carries the one shared denominator, however it was made.
    assert (x.den is _POLY_ONE) == (den == {0: 1})


@given(_laurent, _nonzero_laurent, points)
def test_construction_keeps_the_function(num, den, pts):
    x = RatFunc(num, den)
    _assert_canonical(x)
    checked = 0
    for p in pts:
        d = _eval(den, p)
        if d:
            assert x.evaluate(p) == _eval(num, p) / d
            checked += 1
    assume(checked)


@given(ratfuncs, ratfuncs, points)
def test_field_operations_commute_with_evaluation(a, b, pts):
    results = {"+": a + b, "-": a - b, "*": a * b}
    if b:
        results["/"] = a / b
        results["inverse"] = b.inverse()
    for x in results.values():
        _assert_canonical(x)
    checked = 0
    for p in pts:
        values = _values(p, a, b)
        if values is None:
            continue
        va, vb = values
        assert results["+"].evaluate(p) == va + vb
        assert results["-"].evaluate(p) == va - vb
        assert results["*"].evaluate(p) == va * vb
        if vb:
            assert results["/"].evaluate(p) == va / vb
            assert results["inverse"].evaluate(p) == 1 / vb
        checked += 1
    assume(checked)


@given(ratfuncs, ratfuncs.filter(bool), _nonzero_laurent)
def test_equal_values_hash_equal(a, b, c):
    back = a * b / b
    assert back == a
    assert hash(back) == hash(a)
    expanded = RatFunc(_raw_mul(a.coeffs, c), _raw_mul(a.den, c))
    assert expanded == a
    assert hash(expanded) == hash(a)


# -- fast paths -----------------------------------------------------------
#
# A one-term denominator is a unit, and the canonical denominator of a
# polynomial is 1, so construction over a unit and polynomial sums and
# products skip the gcd.  The oracles below reach the same values through
# the gcd path (a non-unit factor on both sides) or through plain dict
# arithmetic on the raw numerators, which shares no code with coeff.

_units = st.tuples(st.integers(-3, 3), _nonzero_coeffs)
_non_units = st.sampled_from([{0: 1, 1: 1}, {0: 2, 2: -1}, {-1: 3, 1: 1}])
_raw_polys = st.dictionaries(st.integers(-3, 3), _coeffs, max_size=4)


def _raw_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _raw_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _assert_exact(x):
    """Every coefficient has its one stored form: an int (never a bool)
    when it is integral, a Fraction with denominator > 1 otherwise, and
    never a float or an integral Fraction."""
    for c in list(x.coeffs.values()) + list(x.den.values()):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
            repr(c)


@given(_raw_polys, _units, _non_units)
def test_unit_denominator_matches_the_gcd_path(num, unit, p):
    e, c = unit
    fast = RatFunc(num, {e: c})
    slow = RatFunc(_raw_mul(num, p), _raw_mul({e: c}, p))
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fast.den == {0: 1}
    _assert_exact(fast)


@given(_raw_polys, _raw_polys, _non_units)
def test_polynomial_sums_and_products_match_raw_numerators(a, b, p):
    x = RatFunc(a, {0: 1})
    y = RatFunc(b, {0: 1})
    for got, want in ((x + y, _raw_add(a, b)), (x * y, _raw_mul(a, b)),
                      (x - y, _raw_add(a, {e: -c for e, c in b.items()}))):
        assert got.coeffs == want
        assert got.den == {0: 1}
        assert got == RatFunc(_raw_mul(want, p), p)
        _assert_exact(got)
    for k in (-2, 0, 3):
        _assert_exact(RatFunc.from_int(k))
        _assert_exact(RatFunc.q_power(k, Fraction(k + 5, 2)))


@given(_raw_polys, _raw_polys, _units, ratfuncs)
def test_fast_path_results_share_no_coefficients(a, b, unit, other):
    e, c = unit
    x = RatFunc(a, {0: 1})
    y = RatFunc(b, {0: 1})
    den = {e: c}
    inputs = (x.coeffs, y.coeffs, den)
    results = [x + y, x * y, y * x, x - y, -x, RatFunc(x.coeffs, den),
               RatFunc(y.coeffs, {0: 1})]
    snapshot = [(dict(r.coeffs), dict(r.den)) for r in results]
    # A product with a factor 1 is the other factor itself (a left factor
    # 1 is tested first); every other result holds a dict of its own.
    for i, r in enumerate(results):
        if i in (1, 2) and ONE in (x, y):
            a, b = (x, y) if i == 1 else (y, x)
            assert r is (b if a == ONE else a)
            continue
        for p in inputs:
            assert r.coeffs is not p
    # Combine the inputs and the results with more terms; nothing that
    # was already computed may move.
    for s in (x, y, *results):
        for combined in (s + other, s * other, other + s, other * s,
                         s - other, s.scale(3)):
            _assert_canonical(combined)
    assert x.coeffs == _nonzero(a)
    assert y.coeffs == _nonzero(b)
    assert [(dict(r.coeffs), dict(r.den)) for r in results] == snapshot
    # The shared polynomial denominator is a plain dict: nothing may
    # have written into it.
    assert _POLY_ONE == {0: 1}


# Every polynomial carries the one shared denominator _POLY_ONE, so the
# fast paths test it by identity and build their result directly.  The
# oracle is the general constructor over a common non-unit factor p: it
# runs the gcd and the monic step, which must hand back _POLY_ONE too.
# Values are shared (q_int(e) is one instance per exponent), so no fast
# path may change an operand.

_monomials = st.builds(lambda e, c: {e: c}, st.integers(-3, 3),
                       _nonzero_coeffs)
_poly_operands = st.one_of(_raw_polys, _monomials)
_SHARED = [ZERO, ONE] + [q_int(e) for e in range(-3, 4)]
_SHARED_BEFORE = [(str(v), hash(v), dict(v.coeffs)) for v in _SHARED]


def _via_gcd(coeffs, p):
    """coeffs as a value of Q(q), built as (coeffs * p) / p."""
    return RatFunc(_raw_mul(coeffs, p), p)


@given(_poly_operands, _poly_operands, st.integers(-3, 3),
       st.integers(-3, 3), _non_units)
def test_fast_paths_match_the_general_construction(a, b, e, k, p):
    x = RatFunc(a, {0: 1})
    y = RatFunc(b, {0: 1})
    qe = q_int(e)
    assert qe is q_int(e)
    neg_b = {f: -c for f, c in b.items() if c}
    cases = [
        (x + y, _raw_add(a, b)), (x - y, _raw_add(a, neg_b)),
        (x * y, _raw_mul(a, b)), (-y, neg_b),
        (x * qe, _raw_mul(a, {e: 1})), (qe * y, _raw_mul({e: 1}, b)),
        (qe * qe, {2 * e: 1}), (x + qe, _raw_add(a, {e: 1})),
        (x * k, _raw_mul(a, {0: k} if k else {})),
        (k + y, _raw_add({0: k} if k else {}, b)),
        (x.scale(Fraction(k, 2)), _raw_mul(a, {0: Fraction(k, 2)}
                                           if k else {})),
    ]
    for got, want in cases:
        slow = _via_gcd(want, p)
        assert slow.den is _POLY_ONE
        assert got.den is _POLY_ONE
        assert got == slow and hash(got) == hash(slow)
        assert got.coeffs == want
        _assert_exact(got)
    assert x.coeffs == _nonzero(a)
    assert y.coeffs == _nonzero(b)
    assert [(str(v), hash(v), dict(v.coeffs))
            for v in _SHARED] == _SHARED_BEFORE


# -- add_term ---------------------------------------------------------------
#
# The one sparse accumulation step: a miss stores the coefficient itself,
# but never a zero; a hit stores the sum, or pops the key when it cancels.

def test_add_term_stores_nothing_for_a_zero_on_a_miss():
    terms = {"v": ONE}
    add_term(terms, "w", ZERO)
    assert terms == {"v": ONE}
    add_term(terms, "u", q_int(1) - q_int(1))
    assert terms == {"v": ONE}
    c = q_int(2)
    add_term(terms, "w", c)
    assert terms == {"v": ONE, "w": c} and terms["w"] is c


def test_add_term_pops_a_key_that_cancels():
    terms = {"w": q_int(1), "v": ONE}
    add_term(terms, "w", -q_int(1))
    assert terms == {"v": ONE}


def test_add_term_stores_the_sum_on_a_hit():
    terms = {"w": q_int(1)}
    add_term(terms, "w", ONE)
    assert terms == {"w": q_int(1) + ONE}
    add_term(terms, "w", ZERO)
    assert terms == {"w": q_int(1) + ONE}


# -- stored form ----------------------------------------------------------
#
# Each exact value has one stored form, so an integral coefficient that a
# Fraction produced (a sum of halves, a division, a rational scale) must
# come back as an int, and no division may leave a float behind.

@given(ratfuncs, ratfuncs, _nonzero_coeffs, _units, _raw_polys, _non_units,
       points)
def test_every_coefficient_has_one_stored_form(a, b, r, unit, num, p, pts):
    e, c = unit
    results = [a + b, a - b, a * b, -a, a.scale(r), a.scale(2),
               RatFunc(num, p), RatFunc(num, {e: c}), RatFunc.q_power(e, c),
               RatFunc({f: v * r for f, v in a.coeffs.items()}, {0: 1})]
    if b:
        results += [a / b, b.inverse()]
    for x in results:
        _assert_exact(x)
        for pt in pts:
            value = _values(pt, x)
            if value is not None:
                assert type(value[0]) is Fraction


def test_integral_values_are_stored_as_int():
    half = Fraction(1, 2)
    x = RatFunc.q_power(1, half) + RatFunc.q_power(1, half)
    assert x.coeffs == {1: 1} and type(x.coeffs[1]) is int
    poly = RatFunc({0: True, 1: Fraction(4, 2), 2: half}, {0: 1})
    assert [type(poly.coeffs[k]) for k in range(3)] == [int, int, Fraction]
    assert type(RatFunc.from_int(Fraction(6, 3)).coeffs[0]) is int
    # A monic step divides every coefficient by an integer lead.
    y = RatFunc({0: 2, 1: 4}, {0: 3, 1: 2})
    assert y.den == {0: Fraction(3, 2), 1: 1}
    assert y.coeffs == {0: 1, 1: 2}
    _assert_exact(y)
    assert type(RatFunc.from_int(0).evaluate(2)) is Fraction
    assert type(RatFunc.from_int(3).evaluate(1)) is Fraction


@given(st.integers(), st.integers().filter(bool))
def test_integer_division_is_the_exact_quotient(a, b):
    """An exact integer quotient is an int and any other a Fraction;
    either equals a / b, and a zero divisor raises what Fraction
    raises."""
    for n in (a, a * b):
        x = _div(n, b)
        assert x == Fraction(n, b)
        assert (type(x) is int) == (n % b == 0)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-?\d+, 0\)$"):
        _div(a, 0)


def test_constructor_puts_both_dicts_into_stored_form():
    # The public boundary: any exact rationals, zeros included.
    x = RatFunc({0: True, 1: Fraction(4, 2), 2: 0}, {0: 1})
    assert x.coeffs == {0: 1, 1: 2}
    assert [type(c) for c in x.coeffs.values()] == [int, int]
    assert x.den is _POLY_ONE
    y = RatFunc({1: 1}, {0: Fraction(2, 1), 1: 0, 3: 2})
    assert y.coeffs == {1: Fraction(1, 2)} and y.den == {0: 1, 3: 1}
    assert [type(c) for c in y.den.values()] == [int, int]
    # A zero at the lowest exponent must not count as its lowest term.
    z = RatFunc({0: 1}, {0: 0, 1: 1, 2: 1})
    assert z.coeffs == {-1: 1} and z.den == {0: 1, 1: 1}
    for den in ({}, {0: 0}, {1: Fraction(0), 2: False}):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RatFunc({0: 1}, den)
