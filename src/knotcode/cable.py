"""Torus-knot Alexander polynomials in closed form and the dimension
calculus for (iterated) torus knots around companions.

No cable diagrams are built: over a field every evaluated elementary
ideal is 0 or everything, so an ideal sequence is just the first index
where it becomes everything (the code dimension), and cabling transforms
that index by one closed-form rule.

A t is read by FqField.element, so an int t is n * 1; the t of a
sequence holds the ascending coefficients FqField.decode gives, so it
can be passed back as a t, and the value of torus_delta is an encoded
field int.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .laurent import ONE, LaurentPoly, T
from .fields import FqField
from .diagram import Diagram
from .exactlin import rank
from .coloring import evaluate


def torus_alexander(a: int, b: int) -> LaurentPoly:
    """Closed form (T^{ab} - 1)(T - 1) / ((T^a - 1)(T^b - 1)); the division
    is exact for coprime parameters.  Signs are dropped: mirrors share the
    polynomial up to units."""
    a, b = abs(a), abs(b)
    if a == 0 or b == 0:
        raise ValueError("torus parameters must be nonzero")
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) not coprime")
    num = (T.subst_power(a * b) - ONE) * (T - ONE)
    den = (T.subst_power(a) - ONE) * (T.subst_power(b) - ONE)
    return num.exact_div(den).alexander_normalized()


def cable_alexander(base: LaurentPoly, a: int, b: int) -> LaurentPoly:
    """Alexander polynomial of the (a,b)-torus knot around a companion
    with polynomial base: the torus factor times base(T^b)."""
    a, b = abs(a), abs(b)
    return (torus_alexander(a, b) * base.subst_power(b)).alexander_normalized()


class EvaluatedIdealSeq(namedtuple("EvaluatedIdealSeq", "field t dimension")):
    """Evaluated elementary ideals of a coloring matrix over a field: the
    k-th ideal is the whole field exactly when k >= dimension (the code
    dimension), so the sequence is held as that threshold; t holds the
    ascending coefficients FqField.decode gives."""

    __slots__ = ()


def ideal_seq_from_diagram(d: Diagram, field: FqField, t) -> EvaluatedIdealSeq:
    dim = d.arc_count - rank(field, evaluate(d.fox_rows, field.at(t)))
    if dim < 1:
        raise AssertionError("coloring matrix of a knot diagram must be singular")
    return EvaluatedIdealSeq(field, field.decode(field.element(t)), dim)


def torus_delta(field: FqField, a: int, b: int, t) -> int:
    """The torus Alexander value at t, the quantity that decides whether
    cabling bumps the dimension."""
    return field.eval_laurent(torus_alexander(a, b), field.element(t))


def cable_ideal_seq(base: EvaluatedIdealSeq, a: int, b: int, t) -> EvaluatedIdealSeq:
    """Ideal sequence of the (a,b)-torus knot around the companion whose
    sequence is base, evaluated at t.

    The k-th flag becomes (delta != 0 and e_k) or e_{k-1} with
    delta = torus Alexander at t, so the dimension moves up by one
    exactly when delta vanishes.  base must be evaluated at t^b.
    """
    a, b = abs(a), abs(b)
    field = base.field
    te = field.element(t)
    if field.pow(te, b) != field.element(base.t):
        raise ValueError("base sequence must be evaluated at t^b")
    bump = 1 if torus_delta(field, a, b, t) == 0 else 0
    return EvaluatedIdealSeq(field, field.decode(te), base.dimension + bump)


def unknot_ideal_seq(field: FqField, t) -> EvaluatedIdealSeq:
    """Companion seed: the unknot has only the trivial colorings."""
    field.at(t)  # t must be a unit
    return EvaluatedIdealSeq(field, field.decode(field.element(t)), 1)


def iterated_cable_length(p: int, m: int) -> int:
    """Length of the code of the m-fold (2,p) iterated torus knot:
    n_1 = 3 and n_{m+1} = 4 n_m + p."""
    if m < 1:
        raise ValueError("need m >= 1 iterations")
    n = 3
    for _ in range(m - 1):
        n = 4 * n + p
    return n
