"""Coloring matrices of a diagram and what they compute: the Alexander
polynomial, the knot determinant, colorability over quotient rings, exact
coloring counts, and the passage between strand and region colorings.

The Fox coloring matrix has one row per crossing and one column per arc
(d.arc_count); the Dehn matrix has a column per region (d.region_count).
A coloring matrix is its diagram's rows over Z[T, T^-1], cached as
Diagram.fox_rows and Diagram.dehn_rows (their docstrings give the
coefficients) and derived once however many functions here read them.
Strand colorings are kernel vectors of the Fox matrix; region colorings
are kernel vectors of the Dehn matrix.

Everything else is those rows pushed by evaluate through a ring map
ring.at(t), which checks that t is a unit: into F_q for codes and the
Fox/Dehn conversions, and into F_q, Z/m or F_p[T]/(f) for the one
coloring count, which eliminates there on unit pivots and takes a Smith
form of the few rows left, lifted into the ring's cover (Z or F_p[T]).
"""

from __future__ import annotations

import math

from .laurent import ONE, ZERO, LaurentPoly
from .fields import FqField, RingLaurent
from .diagram import Diagram
from .generators import split_sum
from .exactlin import dot, kronecker_det, snf, unit_residual


def evaluate(rows, value) -> tuple:
    """The sparse rows with every stored coefficient mapped through the
    ring map value (for example ring.at(t)), as ((column, image), ...)
    pairs; cells whose image is zero (falsy) are dropped.  A coloring
    matrix has only a handful of distinct coefficients, each mapped once
    per call."""
    images = {}
    out = []
    for row in rows:
        cells = []
        for col, e in row:
            v = images.get(e)
            if v is None:
                v = images[e] = value(e)
            if v:
                cells.append((col, v))
        out.append(tuple(cells))
    return tuple(out)


# -- Alexander polynomial ---------------------------------------------------------


def alexander_polynomial(d: Diagram) -> LaurentPoly:
    """Normalized generator of the first elementary ideal: the (1,1) minor
    of the Fox matrix scaled to a positive constant term.

    Delta is multiplicative under connected sum (Crowell & Fox,
    Introduction to Knot Theory; Rolfsen, Knots and Links), so it is the
    product of the visible summands' Delta, each summand one of
    split_sum(d); a diagram with no splice is its own one summand.  On
    each summand, unit-pivot elimination over Z[T, T^-1] pivots only on
    units +-T^k, so its minor is a unit times the determinant of the rows
    it leaves on the free columns, and zero when those rows fall short of
    the columns.  That residual is a few dense rows on a visibly prime
    summand (no more than the strands less one on the torus, pretzel and
    braid closures tried), and kronecker_det takes its determinant by one
    elimination over Z.
    """
    delta = ONE
    for s in split_sum(d)[0]:
        minor = [tuple((c - 1, e) for c, e in row if c) for row in s.fox_rows[1:]]
        free, rest = unit_residual(RingLaurent(), minor, s.arc_count - 1)
        if len(rest) < free:
            delta = ZERO
            break
        delta *= kronecker_det(rest)
    delta = delta.alexander_normalized()
    if abs(delta.eval_int(1)) != 1:
        raise AssertionError("Alexander normalization failed: |value at 1| != 1")
    return delta


def knot_determinant(d: Diagram) -> int:
    return abs(alexander_polynomial(d).eval_int(-1))


def first_minors_agree(d: Diagram) -> bool:
    """Whether every first minor of the Fox matrix A is the Alexander
    polynomial up to a unit of Z[T, T^-1], by two identities instead of
    n^2 determinants: about 3n products of Laurent polynomials, at any size.

    The identities are A 1 = 0 (each row holds 1-T, -1 and T) and w^T A = 0
    with w_c = sign(c) T^(-ind R_c), where ind is the region index
    (Alexander, Trans. AMS 30, 1928) and R_c the region on the right of
    over_in at a positive crossing and of under_in at a negative one.

    Why they suffice (Crowell & Fox, Introduction to Knot Theory, ch.
    VII-VIII): A is square and A 1 = 0, so rank A <= n-1.  If rank A < n-1
    every first minor is 0, and so is their normalized (1,1) minor Delta.
    If rank A = n-1, then A adj(A) = adj(A) A = det(A) I = 0 puts the
    columns of adj(A) in the kernel, spanned by 1 over Q(T), and its rows
    in the left kernel, spanned by w; so adj(A) = c 1 w^T, and c lies in
    Z[T, T^-1] because w_1 is a unit.  The minor without row i and column j
    is then +-c w_i: every one is c times a unit, and so is Delta.

    Why w^T A = 0: follow an arc a from the crossing where it leaves as an
    understrand to the one where it ends, and let r_0, ..., r_m be the
    indices of the regions on its right along its edges.  Crossing a strand
    from its left to its right lowers the index by 1, so where a passes
    over a crossing c of sign s the index steps from r to r' = r - s, and
    ind R_c is r when s = +1 and r' when s = -1.  Either way w_c (1-T) =
    T^(-r) - T^(-r'), and these telescope along a to T^(-r_0) - T^(-r_m).
    The first crossing adds -T^(-r_0) to column a (coefficient -1 with
    ind R_c = r_0 when positive, T with ind R_c = r_0 + 1 when negative),
    and the last adds T^(-r_m) (coefficient T with ind R_c = r_m + 1 when
    positive, -1 with ind R_c = r_m when negative), so the column is 0.
    Coincident roles are summed in A, and their terms add alike.
    """
    rows = d.fox_rows
    index = d.region_index
    column = [ZERO] * d.arc_count  # w^T A
    for c, row in zip(d.crossings, rows):
        w = LaurentPoly((c.sign,), -index[d.side_regions(c.over_in if c.sign == 1 else c.under_in)[1]])
        for j, e in row:
            column[j] += w * e
    return all(row_sum(row).is_zero for row in rows) and not any(column)


def row_sum(row) -> LaurentPoly:
    """The sum of a sparse row's entries: zero for every Fox row."""
    return sum((e for _, e in row), ZERO)


# -- colorability and counting ------------------------------------------------------


def count_colorings(d: Diagram, ring, t) -> int:
    """Number of Fox colorings over the ring (IntMod, PolyMod or FqField)
    at a unit t: size^free * prod annihilated_by(d_i)/size over the nonzero
    invariant factors d_i of what unit-pivot elimination over the ring
    leaves, each entry lifted by ring.lift into the ring's cover (Z or
    F_p[T]) for the Smith form (never enumeration)."""
    free, rest = unit_residual(ring, evaluate(d.fox_rows, ring.at(t)), d.arc_count)
    rest = [[ring.lift(x) for x in row] for row in rest]
    factors = [di for di in snf(rest, ring.cover).invariant_factors if di]
    return ring.size ** (free - len(factors)) * math.prod(ring.annihilated_by(di) for di in factors)


def is_colorable(d: Diagram, ring, t) -> bool:
    """Nontrivial Fox colorability over the ring: more colorings than the
    constant ones.  Over F_q and for a knot that is Delta(t) = 0."""
    return count_colorings(d, ring, t) > ring.size


# -- Fox <-> Dehn ---------------------------------------------------------------------


def fox_to_dehn(d: Diagram, field: FqField, t, fox, anchor) -> list[int]:
    """Lift a Fox coloring to the Dehn coloring with the unbounded region
    set to anchor; region colors propagate across each strand by
    x = U_left - t * U_right.  fox and anchor are encoded field ints."""
    value = field.at(t)
    tv = field.element(t)
    vec = field.word(fox)
    [av] = field.word([anchor])
    if len(vec) != d.arc_count:
        raise ValueError("expected one color per arc")
    if d.n == 0:
        # bare loop: outer on the strand's left; x = U_outer - t U_inner
        inner = field.mul(field.inv(tv), field.sub(av, vec[0]))
        return [inner, av]
    rows = evaluate(d.fox_rows, value)
    if any(dot(field, row, vec) for row in rows):
        raise ValueError("not a Fox coloring: vector is not in the kernel")
    tinv = field.inv(tv)
    arcs = d.arcs
    colors = {d.outer_region: av}
    for e, r, s, step in d._region_walk:
        x = vec[arcs[e]]
        if step == 1:  # s is on the strand's left
            colors[s] = field.add(x, field.mul(tv, colors[r]))
        else:
            colors[s] = field.mul(tinv, field.sub(colors[r], x))
    out = [colors[r] for r in range(d.region_count)]
    rows = evaluate(d.dehn_rows, value)
    if any(dot(field, row, out) for row in rows):
        raise AssertionError("lifted vector is not a Dehn coloring")
    return out


def dehn_to_fox(d: Diagram, field: FqField, t, dehn) -> list[int]:
    """Strand colors x = U_left - t * U_right of a Dehn coloring (a word of
    encoded field ints)."""
    value = field.at(t)
    tv = field.element(t)
    vec = field.word(dehn)
    if len(vec) != d.region_count:
        raise ValueError("expected one color per region")
    if d.n == 0:
        return [field.sub(vec[1], field.mul(tv, vec[0]))]
    rows = evaluate(d.dehn_rows, value)
    if any(dot(field, row, vec) for row in rows):
        raise ValueError("not a Dehn coloring: vector is not in the kernel")
    out = []
    for arc in range(d.arc_count):
        e = d.arc_edges(arc)[0]
        l, r = d.side_regions(e)
        out.append(field.sub(vec[l], field.mul(tv, vec[r])))
    return out
