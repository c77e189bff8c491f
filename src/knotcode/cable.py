"""Torus-knot Alexander polynomials in closed form and the code
dimensions of (iterated) torus knots around companions.

No cable diagrams are built: over a field every evaluated elementary
ideal is 0 or everything, so a knot's ideals are fixed by the first
index where they become everything, its code dimension, and cabling
moves that index by one closed-form rule (cable_dimensions), and
no torus polynomial is expanded either: its value at t, torus_delta, is a
quotient of two geometric sums, each from a few powers of t.

A t is read by FqField.element, so an int t is n * 1; the t of a stage
holds the ascending coefficients FqField.decode gives, so it can be
passed back as a t, and the value of torus_delta is an encoded field
int.
"""

from __future__ import annotations

import math

from .laurent import ONE, LaurentPoly, T
from .fields import FqField
from .diagram import Diagram
from .codes import code_from_diagram


def _torus_params(a: int, b: int) -> tuple[int, int]:
    """|a|, |b|, which must be nonzero and coprime: signs are dropped, since
    mirrors share the polynomial up to units."""
    a, b = abs(a), abs(b)
    if a == 0 or b == 0:
        raise ValueError("torus parameters must be nonzero")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) not coprime")
    return a, b


def torus_alexander(a: int, b: int) -> LaurentPoly:
    """Closed form (T^{ab} - 1)(T - 1) / ((T^a - 1)(T^b - 1)); the division
    is exact for coprime parameters."""
    a, b = _torus_params(a, b)
    num = (T.subst_power(a * b) - ONE) * (T - ONE)
    den = (T.subst_power(a) - ONE) * (T.subst_power(b) - ONE)
    return num.exact_div(den).alexander_normalized()


def cable_alexander(base: LaurentPoly, a: int, b: int) -> LaurentPoly:
    """Alexander polynomial of the (a,b)-torus knot around a companion
    with polynomial base: the torus factor times base(T^b)."""
    a, b = abs(a), abs(b)
    return (torus_alexander(a, b) * base.subst_power(b)).alexander_normalized()


def torus_delta(field: FqField, a: int, b: int, t) -> int:
    """The torus Alexander value at t, the quantity that decides whether
    cabling bumps the dimension, from O(log ab) field operations and no
    polynomial: torus_alexander(a, b) is G(a, b) / G(1, b), where
    G(e, k) = 1 + T^e + ... + T^(e(k-1)), which is (t^(ek) - 1)/(t^e - 1)
    at t, or k * 1 where t^e = 1.  Where G(1, b) vanishes at t, a and b
    swap roles; G(1, a) and G(1, b) never both vanish, since a and b are
    coprime."""
    a, b = _torus_params(a, b)
    x = field.element(t)

    def geometric(e: int, k: int) -> int:
        y = field.pow(x, e)
        if y == 1:
            return field.element(k)
        return field.mul(field.sub(field.pow(y, k), 1), field.inv(field.sub(y, 1)))

    if geometric(1, b) == 0:
        a, b = b, a
    return field.mul(geometric(a, b), field.inv(geometric(1, b)))


def cable_dimensions(base: Diagram, field: FqField, t, pairs) -> list[tuple]:
    """Code dimensions of the iterated torus knots around the companion
    base: cable the (a_1,b_1)-torus knot around base, then (a_2,b_2)
    around that, and so on, evaluated at t.

    Returns one (t_i, delta_i, k_i) per stage, the base first: stage i
    is evaluated at t_i = t^(|b_{i+1}| ... |b_m|), k_0 is the dimension
    of base's Fox code at t_0 (the unknot's is 1), and delta_i is
    torus_delta of (a_i, b_i) at t_i (None for the base).  Over a field
    every evaluated elementary ideal is 0 or everything; with e_k the
    flag "the k-th is everything", cabling turns e_k into
    (delta != 0 and e_k) or e_{k-1}, so k_i is k_{i-1} plus 1 exactly
    when delta_i is 0.  t must be a unit.
    """
    ts = [field.element(t)]
    for _, b in reversed(pairs):
        ts.insert(0, field.pow(ts[0], abs(b)))
    ts = [field.decode(x) for x in ts]
    k = code_from_diagram(base, field, ts[0]).k
    stages = [(ts[0], None, k)]
    for (a, b), ti in zip(pairs, ts[1:]):
        delta = torus_delta(field, a, b, ti)
        if delta == 0:
            k += 1
        stages.append((ti, delta, k))
    return stages


def iterated_cable_length(p: int, m: int) -> int:
    """Length of the code of the m-fold (2,p) iterated torus knot:
    n_1 = 3 and n_{m+1} = 4 n_m + p."""
    if m < 1:
        raise ValueError("need m >= 1 iterations")
    n = 3
    for _ in range(m - 1):
        n = 4 * n + p
    return n
