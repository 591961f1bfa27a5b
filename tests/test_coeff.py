"""Exact rational-function arithmetic: canonical forms and field axioms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from glq.coeff import (RatFunc, ZERO, ONE, Q, QINV, _POLY_ONE, q_int,
                       sign_pow)
from glq.coords import GqElement, t_, tbar_
from glq.graded import GradingContext
from glq.superspace import SuperspaceElement, z_, zb_
from glq.uq import UqExpression, gen_E, gen_K


def test_laurent_basithmetic():
    p = RatFunc.q_power(1) - RatFunc.q_power(-1)  # q - q^-1
    r = p + RatFunc.q_power(-1)
    assert r == RatFunc.q_power(1)
    assert p * RatFunc.q_power(1) == RatFunc({2: 1, 0: -1}, {0: 1})
    assert (p * Q).coeffs == {2: 1, 0: -1} and (p * Q).den is _POLY_ONE


def test_laurent_evaluate():
    p = RatFunc({2: 1, -2: -1}, {0: 1})  # q^2 - q^-2
    assert p.evaluate(2) == Fraction(15, 4)
    assert p.evaluate(1) == 0


def test_laurent_shift_and_bounds():
    p = RatFunc({-1: 1, 3: 2}, {0: 1})
    assert (min(p.coeffs), max(p.coeffs)) == (-1, 3)
    assert p * q_int(2) == RatFunc({1: 1, 5: 2}, {0: 1})
    assert (p * q_int(2)).coeffs == {1: 1, 5: 2}
    assert RatFunc({-1: 1, 3: 2}, {2: 1}).coeffs == {-3: 1, 1: 2}


def test_ratfunc_simple_identities():
    assert Q * QINV == ONE
    assert Q - Q == ZERO
    assert (Q - QINV) + QINV == Q
    assert q_int(3) == Q * Q * Q


def test_ratfunc_canonical_reduction():
    # (q^2 - 1)/(q - 1) reduces to the polynomial q + 1
    r = RatFunc({2: 1, 0: -1}, {1: 1, 0: -1})
    assert r.den is _POLY_ONE
    assert r == Q + ONE


def test_ratfunc_monic_denominator_normal_form():
    # 1/(q - q^-1) and q/(q^2 - 1) are the same canonical object
    a = ONE / (Q - QINV)
    b = RatFunc({1: 1}, {2: 1, 0: -1})
    assert a == b
    assert a.den == {2: 1, 0: -1}
    assert min(a.den) == 0
    # denominator is monic with nonzero constant term
    assert a.den[max(a.den)] == 1
    assert 0 in a.den


def test_specialize_values():
    r = q_int(2) - q_int(-2)
    assert r.specialize(2) == Fraction(15, 4)
    assert (ONE / (Q - QINV)).specialize(2) == Fraction(2, 3)
    assert (ONE / (Q - QINV)).specialize(Fraction(3, 2)) == Fraction(6, 5)


def test_specialize_rejects_degenerate_points():
    with pytest.raises(ValueError):
        Q.specialize(0)
    with pytest.raises(ValueError):
        Q.specialize(1)


def test_specialize_pole():
    r = ONE / (Q - RatFunc.from_int(2))
    with pytest.raises(ZeroDivisionError):
        r.specialize(2)


def test_evaluate_at_one_is_allowed_internally():
    # .evaluate has no q0 != 1 restriction; the classical limit uses it
    assert (Q - QINV).evaluate(1) == 0
    assert (ONE / (Q + ONE)).evaluate(1) == Fraction(1, 2)


def test_zero_division_errors():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_int_mixing_and_equality():
    assert ONE + 1 == 2
    assert 2 * Q == Q + Q
    assert 1 - QINV == (Q - ONE) * QINV


def test_a_product_with_one_is_the_other_factor():
    # Values are never mutated, so a product with a factor 1 hands back
    # the other factor itself, in its canonical form, whichever instance
    # of 1 (or the int 1) it meets.
    values = [RatFunc({0: 3, 2: -1}, {0: 1}),
              RatFunc({1: Fraction(1, 2), 0: 2}, {0: 1}),
              RatFunc({1: 1}, {0: 1, 2: 1}),  # q / (1 + q^2)
              ZERO]
    assert [type(c) for c in values[0].coeffs.values()] == [int, int]
    assert values[0].den is _POLY_ONE and values[2].den == {0: 1, 2: 1}
    ones = [ONE, q_int(0), RatFunc.from_int(1), RatFunc({2: 3}, {2: 3}), 1]
    for x in values:
        for one in ones:
            assert x * one is x and one * x is x
    assert ONE * ONE is ONE


def _random_laurent(rng, maxterms=3):
    d = {}
    for _ in range(rng.randint(0, maxterms)):
        d[rng.randint(-3, 3)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return {e: c for e, c in d.items() if c}


def _poly_mul(a, b):
    """The product of two raw coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _random_ratfunc(rng):
    num = _random_laurent(rng)
    den = {}
    while not den:
        den = _random_laurent(rng)
    return RatFunc(num, den)


def test_field_axioms_randomised():
    rng = random.Random(20817)
    for _ in range(120):
        a = _random_ratfunc(rng)
        b = _random_ratfunc(rng)
        c = _random_ratfunc(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == ZERO
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == ONE


def test_canonical_equality_randomised():
    rng = random.Random(58112)
    for _ in range(80):
        a = _random_ratfunc(rng)
        c = _random_ratfunc(rng)
        if not c:
            continue
        scaled = RatFunc(_poly_mul(a.coeffs, c.coeffs),
                         _poly_mul(a.den, c.coeffs))
        assert scaled == a
        assert hash(scaled) == hash(a)
        mul_div = (a * c) / c
        assert mul_div == a


def test_specialisation_is_a_homomorphism():
    rng = random.Random(90210)
    q0 = Fraction(3, 2)
    for _ in range(60):
        a = _random_ratfunc(rng)
        b = _random_ratfunc(rng)
        try:
            av, bv = a.specialize(q0), b.specialize(q0)
        except ZeroDivisionError:
            continue
        assert (a + b).specialize(q0) == av + bv
        assert (a * b).specialize(q0) == av * bv


def test_sign_pow():
    assert sign_pow(0) == ONE
    assert sign_pow(1) == -ONE
    assert sign_pow(2) == ONE
    assert sign_pow(7) == -ONE


def test_str_smoke():
    assert str(ZERO) == "0"
    assert str(Q - QINV) == "q - q^-1"
    assert "/" in str(ONE / (Q + ONE))


# (constructor, two words) for each subclass of coeff.Combination.
COMBINATIONS = {
    "UqExpression": (UqExpression, (gen_K(1),), (gen_E(1, 2),)),
    "GqElement": (GqElement, (t_(1, 2),), (tbar_(2, 1),)),
    "SuperspaceElement": (SuperspaceElement, (z_(1),), (zb_(2),)),
}


@pytest.mark.parametrize("make, u, v", COMBINATIONS.values(),
                         ids=list(COMBINATIONS))
def test_combination_base(make, u, v):
    ctx = GradingContext(2, 1)
    a = make(ctx, {u: Q, v: ZERO})
    assert a.terms == {u: Q}
    b = make(ctx, {u: ONE, v: QINV})
    assert a + b - b == a
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert b.scale(2) == b.scale(RatFunc.from_int(2))
    assert (a * b).terms == {u + u: Q, u + v: ONE}
    assert a != make(GradingContext(1, 2), {u: Q})
    with pytest.raises(TypeError):
        hash(a)
