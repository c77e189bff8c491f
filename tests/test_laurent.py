import pytest
from hypothesis import given, settings, strategies as st

from knotcode.laurent import ONE, T, ZERO, LaurentPoly, as_int
from oracles import int_poly_content_gcd, int_poly_divmod, unit_ratio

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6)
polys = st.builds(LaurentPoly.make, coeff_lists, st.integers(min_value=-3, max_value=3))


def test_normalization_strips_zeros():
    p = LaurentPoly.make([0, 0, 1, 2, 0], min_deg=-1)
    assert p.min_deg == 1
    assert p.coeffs == (1, 2)
    assert LaurentPoly.make([0, 0]) == ZERO


def test_laurent_poly_is_a_value_not_a_sequence():
    p = LaurentPoly.make((1, -1, 1))
    assert p == LaurentPoly((1, -1, 1), 0) and hash(p) == hash(LaurentPoly((1, -1, 1)))
    assert p != (1, -1, 1) and p != LaurentPoly((1, -1, 1), 1)
    assert repr(p) == "LaurentPoly(coeffs=(1, -1, 1), min_deg=0)"
    for op in (lambda: 3 * p, lambda: len(p), lambda: p < p, lambda: list(p)):
        with pytest.raises(TypeError):
            op()


def test_from_json_refuses_what_int_would_truncate_or_coerce():
    assert LaurentPoly.from_json({"min_deg": 1.0, "coeffs": ["2", 3]}) == LaurentPoly((2, 3), 1)
    for obj in ({"min_deg": 0.5, "coeffs": [1]}, {"min_deg": 0, "coeffs": [1.7]}, {"min_deg": 0, "coeffs": [True]}):
        with pytest.raises(TypeError, match="is not an integer"):
            LaurentPoly.from_json(obj)


def test_from_json_needs_a_coefficient_list():
    """Text coeffs are refused, not read digit by digit as 1 + 2T."""
    for coeffs in ("12", 12, {"0": 1}):
        with pytest.raises(TypeError, match="coeffs must be a list"):
            LaurentPoly.from_json({"min_deg": 0, "coeffs": coeffs})


@pytest.mark.parametrize("text", ["1_1", " 12", "12 ", "+-1", "", "-", "\u0661\u0662", "1.0", "0x1f", "\u00b2"])
def test_as_int_reads_only_a_sign_and_ascii_digits(text):
    with pytest.raises(ValueError):
        as_int(text)


def test_as_int_on_signed_digit_text():
    assert [as_int(t) for t in ("12", "+12", "-12", "007", "-0")] == [12, 12, -12, 7, 0]


def test_basic_identities():
    p = ONE - T
    assert str(p) == "1 - T"
    assert p.eval_int(1) == 0
    assert (p * p).coeffs == (1, -2, 1)
    assert T.shift(-1) == ONE
    assert (T - ONE).eval_int(-1) == -2


@settings(deadline=None)
@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(deadline=None)
@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(deadline=None)
@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(deadline=None)
@given(polys, polys)
def test_exact_division_of_products(a, b):
    if a.is_zero:
        return
    assert (a * b).exact_div(a) == b


@settings(deadline=None)
@given(polys, st.integers(min_value=1, max_value=4))
def test_subst_power_evaluates_consistently(p, b):
    assert p.subst_power(b).eval_int(1) == p.eval_int(1)
    if p.min_deg >= 0:
        assert p.subst_power(b).eval_int(2) == p.eval_int(2**b)


def test_exact_div_rejects_inexact():
    with pytest.raises(ValueError):
        (T * T + ONE).exact_div(T - ONE)


def test_unit_ratio():
    p = ONE - T + T * T
    assert unit_ratio(p, p.shift(3)) == (1, -3)
    assert unit_ratio(p, -p) == (-1, 0)
    assert unit_ratio(p, p + ONE) is None


def test_alexander_normalization():
    p = LaurentPoly.make([-1, 1, -1], min_deg=-4)
    q = p.alexander_normalized()
    assert q.min_deg == 0
    assert q.coeffs == (1, -1, 1)


def test_divmod_examples():
    num = (T - ONE) * (T * T + ONE)
    q, r = int_poly_divmod(num, T - ONE)
    assert q == T * T + ONE and r == ZERO


def test_content_gcd_examples():
    a = (T + ONE) * (T * T - T + ONE)  # T^3 + 1
    assert int_poly_content_gcd(a, T * T - T + ONE) == T * T - T + ONE
    assert int_poly_content_gcd(ZERO, a) == a
    assert int_poly_content_gcd(LaurentPoly.const(9), LaurentPoly.const(3)) == LaurentPoly.const(3)


@settings(deadline=None)
@given(polys, polys)
def test_content_gcd_divides_both(a, b):
    g = int_poly_content_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert a.exact_div(g) * g == a and b.exact_div(g) * g == b  # exact_div raises unless g divides


def test_json_roundtrip():
    p = LaurentPoly.make([2, 0, -3], min_deg=-1)
    assert LaurentPoly.from_json(p.to_json()) == p
