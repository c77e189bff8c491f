import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from knotcode.fields import FqField, PolyMod, RingFpT, RingLaurent, is_prime
from knotcode.laurent import ONE, ZERO, LaurentPoly, T
from oracles import poly_mulmod


def test_primality():
    bound = 3_317_044_064_679_887_385_961_981  # bases 2..37 are proven below it
    primes = {2, 3, 5, 7, 11, 101, 10007, 1_000_003, 10**18 + 3, bound - 168}
    for p in primes:
        assert is_prime(p)
    for n in (0, 1, 4, 9, 1_000_005, 25326001, 10**18 + 1, bound + 1):
        assert not is_prime(n)
    # a strong pseudoprime to every base 2..37 is not taken for a prime
    assert bound == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(bound)


def test_primality_agrees_with_a_sieve():
    """The witness loop and Miller-Rabin decide every n below 2 * 10^4 as
    a sieve of Eratosthenes does."""
    limit = 2 * 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_irreducibility():
    assert PolyMod(2, (1, 1, 1)).is_field()  # x^2+x+1
    assert not PolyMod(2, (1, 0, 1)).is_field()  # x^2+1 = (x+1)^2
    assert PolyMod(2, (1, 1, 0, 1)).is_field()  # x^3+x+1
    assert PolyMod(5, (2, 0, 1)).is_field()  # x^2+2
    assert not PolyMod(5, (4, 0, 1)).is_field()  # x^2+4 = (x+1)(x+4)... x^2-1
    with pytest.raises(ValueError):
        FqField(2, [1, 0, 1])
    with pytest.raises(ValueError):
        FqField(4)


def test_laurent_units():
    """Z[T, T^-1] inverts exactly +-T^k, negative k included."""
    R = RingLaurent()
    for c in (1, -1):
        for k in (-3, -1, 0, 1, 4):
            u = LaurentPoly((c,), k)
            assert R.inv(u) == LaurentPoly((c,), -k) and R.mul(u, R.inv(u)) == ONE
    for x in (LaurentPoly.const(2), ONE - T, T * T - ONE, ZERO):
        assert R.inv(x) is None


def test_poly_gcd_example():
    # T^3 + 1 = (T + 1)(T^2 - T + 1) over F_5
    R = RingFpT(5)
    a = R.trim([1, 0, 0, 1])
    b = R.trim([1, -1, 1])
    assert R.gcd(a, b) == b
    assert R.gcd((), b) == b


def test_f4_table():
    F4 = FqField(2, [1, 1, 1])
    alpha = F4.element([0, 1])
    square = F4.mul(alpha, alpha)
    assert F4.decode(square) == (1, 1)  # alpha^2 = alpha + 1
    assert F4.mul(square, alpha) == 1
    assert F4.order(alpha) == 3


def test_order_example():
    F7 = FqField(7)
    assert F7.order(F7.element(3)) == 6
    assert F7.order(F7.element(2)) == 3


fields = [FqField(2), FqField(3), FqField(5), FqField(2, [1, 1, 1]), FqField(3, [1, 0, 1]), FqField(7)]


@pytest.mark.parametrize("field", fields, ids=lambda f: repr(f))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_field_axioms(field, data):
    q = field.q
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert field.add(x, field.add(y, z)) == field.add(field.add(x, y), z)
    assert field.mul(x, field.mul(y, z)) == field.mul(field.mul(x, y), z)
    assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
    assert field.add(x, field.neg(x)) == 0
    # Frobenius is additive
    frob = lambda v: field.pow(v, field.p)
    assert frob(field.add(x, y)) == field.add(frob(x), frob(y))
    if x:
        assert field.mul(x, field.inv(x)) == field.element(1)
        assert field.order(x) % 1 == 0 and (q - 1) % field.order(x) == 0


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        FqField(5).inv(0)


def test_field_axioms_bulk_random_triples():
    import random

    rng = random.Random(99)
    per_field = 10_000 // len(fields) + 1
    for field in fields:
        q, one = field.q, field.element(1)
        for _ in range(per_field):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
            assert field.add(x, field.add(y, z)) == field.add(field.add(x, y), z)
            if x:
                assert field.mul(x, field.inv(x)) == one


def test_large_field_paths_without_tables():
    # beyond the table limit the slow multiplication path must agree
    big_prime = FqField(4099)
    assert big_prime.mul(4098, 4098) == 1  # (-1)^2
    F_5_6 = FqField(5, [2, 1, 0, 0, 0, 0, 1])  # x^6 + x + 2 irreducible over F_5
    assert F_5_6.q == 15625 and F_5_6.mul_table is None
    x = F_5_6.element([1, 2, 3, 4, 0, 1])
    assert F_5_6.mul(x, F_5_6.inv(x)) == 1
    assert F_5_6.mul(F_5_6.pow(x, 7), F_5_6.pow(x, -7)) == 1
    # F_{2^11} has 4M products: the table is never built, and a first
    # product takes no time to set up
    F_2_11 = FqField(2, [1, 0, 1] + [0] * 8 + [1])  # x^11 + x^2 + 1
    start = time.perf_counter()
    assert F_2_11.mul(2, 1 << 10) == 5  # x * x^10 = x^2 + 1
    assert time.perf_counter() - start < 1.0 and F_2_11.mul_table is None


def test_quotient_ring_zero_divisors():
    """F_5[T]/(T^2 + 1) = F_5[T]/(T - 2) x F_5[T]/(T + 2) is no field: inv
    finds no inverse of a zero divisor and at() rejects one as t."""
    R = PolyMod(5, (1, 0, 1))
    divisor = R.element((2, 1))  # T + 2
    assert R.mul(divisor, R.element((3, 1))) == 0  # (T + 2)(T - 2) = T^2 + 1
    assert R.inv(divisor) is None and R.inv(0) is None and PolyMod(5, (1, 1)).inv(0) is None
    assert R.lift(divisor) == (2, 1) and R.lift(R.element(3)) == (3,) and R.lift(0) == ()
    units = [x for x in range(R.q) if R.inv(x) is not None]
    assert len(units) == 25 - 9 and all(R.mul(x, R.inv(x)) == 1 for x in units)
    for t in ((2, 1), 0, (0, 0, 1, 0, 1)):  # T^4 + T^2 = T^2 (T^2 + 1) = 0
        with pytest.raises(ValueError, match="t must be invertible"):
            R.at(t)
    with pytest.raises(ZeroDivisionError):
        R.pow(divisor, -1)
    assert R.at((0, 1))(LaurentPoly.make([1, 0, 1])) == 0


def test_encode_decode_roundtrip():
    F9 = FqField(3, [1, 0, 1])
    for v in range(9):
        assert F9.encode(F9.decode(v)) == v


def test_eval_laurent():
    F7 = FqField(7)
    delta = LaurentPoly.make([1, -1, 1])  # T^2 - T + 1
    assert F7.eval_laurent(delta, F7.element(3)) == 0  # 9 - 3 + 1 = 7
    assert F7.eval_laurent(delta, F7.element(-1)) == 3
    neg = LaurentPoly.make([1], min_deg=-1)  # T^-1
    assert F7.eval_laurent(neg, F7.element(3)) == F7.inv(3)


def test_fp_divmod_roundtrip():
    p = 5
    a = (1, 2, 3, 4)
    b = (2, 1)
    R = RingFpT(p)
    q, r = R.divmod(a, b)
    assert R.add(R.mul(q, b), r) == a


@pytest.mark.parametrize(
    "ring",
    [
        FqField(2, (1, 1, 0, 0, 1)),  # F_16
        FqField(3, (1, 2, 0, 1)),  # F_27
        FqField(7, (1, 0, 1)),  # F_49
        FqField(2, (1, 1, 0, 1, 1, 0, 1)),  # F_64
        PolyMod(3, (1, 0, 0, 1)),  # x^3 + 1 = (x + 1)^3 over F_3
        PolyMod(2, (0, 1, 1, 0, 1)),  # x (x^3 + x + 1)
    ],
)
def test_mul_table_is_the_slow_products(ring):
    """The table built from the monomial rows by additions holds every
    product of the polynomials mod f, over fields and reducible moduli."""
    q = ring.q
    table = ring.mul_table
    assert len(table) == q * q
    assert all(table[x * q + y] == ring._mul_slow(x, y) for x in range(q) for y in range(q))


def test_modulus_keeps_its_degree():
    """A leading coefficient divisible by p is refused, not trimmed away to
    a modulus of lower degree."""
    for build in (PolyMod, FqField):
        with pytest.raises(ValueError, match="leading coefficient"):
            build(3, (1, 1, 3))
        with pytest.raises(ValueError, match="leading coefficient"):
            build(3, [2, 1, 0])
    assert PolyMod(3, (4, 1)).f == (1, 1)  # lower coefficients are reduced mod p


@pytest.mark.parametrize(
    "ring",
    [
        FqField(2, (1, 1, 1)),  # F_4
        FqField(2, (1, 1, 0, 1)),  # F_8
        FqField(3, (1, 0, 1)),  # F_9
        FqField(2, (1, 1, 0, 0, 1)),  # F_16
        FqField(5, (2, 0, 1)),  # F_25
        FqField(3, (1, 2, 0, 1)),  # F_27
        FqField(2, (1, 0, 1, 0, 0, 1)),  # F_32
        FqField(7, (1, 0, 1)),  # F_49
        FqField(2, (1, 1, 0, 0, 0, 0, 1)),  # F_64
        PolyMod(3, (0, 0, 1)),  # F_3[x]/(x^2)
        PolyMod(2, (1, 0, 1)),  # F_2[x]/(x^2 + 1) = F_2[x]/((x + 1)^2)
    ],
)
def test_inverses_read_off_the_table_are_the_gcdext_ones(ring):
    """Below the table limit inv reads the multiplication table; each
    element's answer is the one the extended gcd with the modulus gives,
    None on every non-unit."""
    assert ring.mul_table is not None

    def by_gcdext(x):
        g, s = ring.cover.gcdext(ring.decode(x), ring.f)
        return ring.encode(s) if g == (1,) else None

    units = range(1, ring.q) if isinstance(ring, FqField) else range(ring.q)
    assert [ring.inv(x) for x in units] == [by_gcdext(x) for x in units]
    if not isinstance(ring, FqField):
        assert ring.inv(0) is None and None in map(ring.inv, units[1:])


def _oracle_product(ring, x, y):
    return ring.encode(poly_mulmod(ring.decode(x), ring.decode(y), ring.p, ring.f))


@pytest.mark.parametrize(
    "ring",
    [
        FqField(3, (2, 1, 0, 0, 1)),  # F_81, x^4 + x + 2
        FqField(2, (1, 1, 0, 0, 0, 0, 0, 1)),  # F_128, x^7 + x + 1
        FqField(3, (1, 2, 0, 0, 0, 1)),  # F_243, x^5 + 2x + 1
        PolyMod(5, (2, 0, 0, 1)),  # x^3 + 2 = (x - 2)(x^2 + 2x + 4) over F_5
        PolyMod(5, (1, 2, 3, 4)),  # not monic
    ],
)
def test_products_past_the_table_match_the_oracle_on_every_pair(ring):
    """Past the table limit mul is Kronecker substitution; every product
    is the schoolbook one reduced mod f."""
    assert ring.mul_table is None
    q = ring.q
    assert all(ring.mul(x, y) == _oracle_product(ring, x, y) for x in range(q) for y in range(q))


@pytest.mark.parametrize(
    "ring",
    [
        FqField(2, (1, 0, 1) + (0,) * 8 + (1,)),  # F_{2^11}, x^11 + x^2 + 1
        FqField(5, (2, 1, 0, 0, 0, 0, 1)),  # F_{5^6}, x^6 + x + 2
        FqField(97, (92, 0, 1)),  # F_{97^2}, x^2 - 5 (5 is not a square mod 97)
    ],
)
def test_products_in_large_fields_match_the_oracle(ring):
    """20 000 random products each, in fields far past the table."""
    rng = random.Random(ring.q)
    pairs = [(rng.randrange(ring.q), rng.randrange(ring.q)) for _ in range(20_000)]
    assert all(ring.mul(x, y) == _oracle_product(ring, x, y) for x, y in pairs)


def _fullest_slot(ring):
    """The largest coefficient, before reduction mod p, of the square of
    the element whose digits are all p - 1 once its high coefficients are
    folded back times X^k mod f: the fullest slot the Kronecker product
    ever holds for this ring."""
    p, a = ring.p, ring.a
    coeffs = [(p - 1) ** 2 * min(k + 1, 2 * a - 1 - k) for k in range(2 * a - 1)]
    low = coeffs[:a]
    for k in range(a, 2 * a - 1):
        for i, r in enumerate(poly_mulmod((0,) * k + (1,), (1,), p, ring.f)):
            low[i] += coeffs[k] * r
    return max(low)


@pytest.mark.parametrize(
    "ring, every_bit",
    [
        (FqField(3, (2, 1, 1)), True),  # F_9, x^2 + x + 2, through _mul_slow below the table limit
        (PolyMod(3, (1, 1, 2, 1, 1)), True),
        (PolyMod(2, (1,) + (0,) * 9 + (1, 1)), True),  # x^11 + x^10 + 1
        (PolyMod(5, (1, 0, 4, 1, 1, 3, 1)), True),
        (PolyMod(5, (2, 0, 0, 1)), False),
        (FqField(97, (92, 0, 1)), False),
    ],
)
def test_products_with_the_fullest_slots(ring, every_bit):
    """Squaring the element with every digit p - 1 fills the slots most.
    On the rings marked every_bit one slot then needs every bit of the
    slot width s, the bit length of a (p-1)^2 (1 + (a-1)(p-1)), so that
    slot would overflow a width one bit narrower."""
    p, a, top = ring.p, ring.a, ring.q - 1
    width = (a * (p - 1) ** 2 * (1 + (a - 1) * (p - 1))).bit_length()
    assert (_fullest_slot(ring).bit_length() == width) is every_bit
    assert ring._mul_slow(top, top) == ring.mul(top, top) == _oracle_product(ring, top, top)


@pytest.mark.parametrize(
    "ring",
    [
        PolyMod(5, (2, 0, 0, 1)),  # F_5 x F_25: the non-units are the multiples of x - 2 or x^2 + 2x + 4
        FqField(3, (1, 2, 0, 0, 0, 1)),  # F_243
        PolyMod(3, (0, 0, 0, 0, 0, 1)),  # F_3[x]/(x^5), local: the units are x's non-multiples
    ],
)
def test_inverses_past_the_table_are_the_gcdext_ones_first_and_again(ring):
    """Past the table limit inv runs the extended gcd on an element's
    first call and reads its memo after; both answers are the gcdext one,
    None on every non-unit."""
    assert ring.mul_table is None

    def by_gcdext(x):
        g, s = ring.cover.gcdext(ring.decode(x), ring.f)
        return ring.encode(s) if g == (1,) else None

    elements = range(1, ring.q) if isinstance(ring, FqField) else range(ring.q)
    expect = [by_gcdext(x) for x in elements]
    assert [ring.inv(x) for x in elements] == expect
    assert [ring.inv(x) for x in elements] == expect
    assert all(ring.mul(x, y) == 1 for x, y in zip(elements, expect) if y is not None)
    if isinstance(ring, FqField):
        assert None not in expect
        with pytest.raises(ZeroDivisionError):
            ring.inv(0)
        with pytest.raises(ZeroDivisionError):
            ring.inv(0)  # zero is refused on every call, never memoized
    else:
        assert ring.inv(0) is None and None in expect
