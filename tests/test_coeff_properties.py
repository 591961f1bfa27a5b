"""Property tests for Q(q) arithmetic.

The oracle is evaluation at rational points that are not poles: it is a
ring homomorphism Q(q) -> Q and shares no code with the gcd reduction
that puts every RatFunc into canonical form."""

from __future__ import annotations

from hypothesis import assume, given, strategies as st

from glq.coeff import LaurentPoly, RatFunc

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)
_nonzero_coeffs = _coeffs.filter(bool)
_laurent = st.dictionaries(st.integers(-3, 3), _coeffs,
                           max_size=4).map(LaurentPoly.from_dict)
_nonzero_laurent = st.dictionaries(st.integers(-3, 3), _nonzero_coeffs,
                                   min_size=1,
                                   max_size=4).map(LaurentPoly.from_dict)
ratfuncs = st.builds(RatFunc, _laurent, _nonzero_laurent)
points = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
    min_size=3, max_size=3, unique=True)


def _values(point, *xs):
    """The value of each x at point, or None when point is a pole of one."""
    try:
        return [x.evaluate(point) for x in xs]
    except ZeroDivisionError:
        return None


def _assert_canonical(x):
    den = x.den.coeffs
    assert min(den) == 0
    assert den[0] != 0
    assert den[max(den)] == 1
    if not x:
        assert x.den == LaurentPoly.from_int(1)


@given(_laurent, _nonzero_laurent, points)
def test_construction_keeps_the_function(num, den, pts):
    x = RatFunc(num, den)
    _assert_canonical(x)
    checked = 0
    for p in pts:
        d = den.evaluate(p)
        if d:
            assert x.evaluate(p) == num.evaluate(p) / d
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
    expanded = RatFunc(a.num * c, a.den * c)
    assert expanded == a
    assert hash(expanded) == hash(a)
