import math
import random
import time
from functools import partial
from itertools import product

import pytest

from knotcode.laurent import ONE, T, ZERO, LaurentPoly
from knotcode import coloring
from knotcode.fields import FqField, IntMod, PolyMod, RingFpT, RingLaurent
from knotcode.diagram import LEFT, RIGHT
from knotcode.generators import builtin, connected_sum, from_braid, pretzel_diagram, torus_diagram
from knotcode.coloring import (
    alexander_polynomial,
    count_colorings,
    dehn_to_fox,
    evaluate,
    first_minors_agree,
    fox_to_dehn,
    is_colorable,
    knot_determinant,
)
from knotcode.codes import code_from_diagram
from knotcode.cable import cable_dimensions, torus_alexander
from knotcode.exactlin import dense, echelon, echelon_kernel, snf, unit_residual

from conftest import small_diagrams
from moves import reidemeister_r1
from oracles import (
    bareiss_minors,
    colorable_by_alexander,
    count_colorings_brute,
    first_minors_agree_brute,
    fp_compose,
    int_poly_content_gcd,
    fp_gcd_degree,
    minor_family,
    poly_mulmod,
    sparse_det,
    sparse_rows,
    torus_alexander_coeffs,
    unit_ratio,
)

DELTA_TREFOIL = ONE - T + T * T


def test_trefoil_dehn_matrix_is_the_published_one(trefoil):
    expect = [
        [ONE, -T, -ONE, T, ZERO],
        [ONE, -ONE, ZERO, T, -T],
        [ONE, ZERO, -T, T, -ONE],
    ]
    assert dense(trefoil.dehn_rows, trefoil.region_count, ZERO) == expect


def test_dehn_matrix_row_weights():
    k = reidemeister_r1(builtin("unknot"), 0)
    dm = dense(k.dehn_rows, k.region_count, ZERO)
    assert len(dm) == 1
    assert sum(1 for e in dm[0] if not e.is_zero) <= 4


def test_fox_row_sums_vanish():
    for d in small_diagrams():
        for row in dense(d.fox_rows, d.arc_count, ZERO):
            total = ZERO
            for e in row:
                total = total + e
            assert total.is_zero


def test_dehn_row_sums_vanish():
    for d in small_diagrams():
        for row in dense(d.dehn_rows, d.region_count, ZERO):
            total = ZERO
            for e in row:
                total = total + e
            assert total.is_zero


def test_alexander_examples(trefoil, figure_eight, unknot):
    assert alexander_polynomial(trefoil) == DELTA_TREFOIL
    assert alexander_polynomial(unknot) == ONE
    assert alexander_polynomial(figure_eight) == LaurentPoly.make([1, -3, 1])
    assert knot_determinant(figure_eight) == 5


def test_determinant_examples(trefoil):
    assert knot_determinant(trefoil) == 3
    assert knot_determinant(pretzel_diagram([3, 2, 3, 5])) == 123
    granny = connected_sum(trefoil, 0, trefoil, 0)
    assert knot_determinant(granny) == 9


def test_principal_minors_at_one_are_units():
    for d in small_diagrams():
        for m in minor_family(d, "fox", 1):
            assert abs(m.eval_int(1)) == 1


def test_minors_agree_up_to_unit():
    for d in small_diagrams():
        delta = alexander_polynomial(d)
        for m in minor_family(d, "fox", 1):
            assert unit_ratio(m, delta) is not None


def _left_product(d, sign, token) -> list:
    """w^T A for the Fox matrix A and w_c = sign(c) T^(-ind R_c), R_c the
    region of the token token(c)."""
    out = [ZERO] * d.arc_count
    for c, row in zip(d.crossings, d.fox_rows):
        w = LaurentPoly((sign(c),), -d.region_index[d.regions[token(c)]])
        for j, e in row:
            out[j] += w * e
    return out


def test_left_kernel_weights_and_their_mutants():
    """w^T A = 0 for the rule first_minors_agree uses, and not for a dropped
    sign or for over_in's right at a negative crossing.  Only diagrams with
    both signs tell those apart: on T(2, 5) and T(2, -5) they are the rule
    up to a global unit, as the left quadrant is everywhere (each index
    one higher)."""
    signed, unsigned = (lambda c: c.sign), (lambda c: 1)
    right = lambda c: (c.over_in if c.sign == 1 else c.under_in, RIGHT)
    left = lambda c: (c.over_in if c.sign == 1 else c.under_in, LEFT)
    over_in = lambda c: (c.over_in, RIGHT)
    mixed = [builtin("figure_eight"), pretzel_diagram([3, -5, 7]), from_braid(3, [1, -2, 1, -2])]
    one_handed = [torus_diagram(2, 5), torus_diagram(2, -5)]
    for d in mixed + one_handed:
        assert first_minors_agree(d) and first_minors_agree_brute(d)
        assert not any(_left_product(d, signed, right))
        assert not any(_left_product(d, signed, left))
    for d in mixed:
        assert any(_left_product(d, unsigned, right))
        assert any(_left_product(d, signed, over_in))
    for d in one_handed:
        assert not any(_left_product(d, unsigned, right))
        assert not any(_left_product(d, signed, over_in))


def test_first_minor_identity_at_any_size():
    """No size limit: T(2, 1601) within 5 s, and agreement with all n^2
    minors on the 8 crossings of T(3, 5)."""
    assert first_minors_agree(torus_diagram(3, 5)) and first_minors_agree_brute(torus_diagram(3, 5))
    t0 = time.perf_counter()
    assert first_minors_agree(torus_diagram(2, 1601))
    assert time.perf_counter() - t0 < 5


def test_alexander_ladder():
    """Long and many-stranded torus knots against their closed forms."""
    minus_t = [(-1) ** i for i in range(81)]  # sum of (-T)^i, i = 0..80
    assert alexander_polynomial(torus_diagram(2, 81)) == LaurentPoly.make(minus_t)
    for a, b in ((4, 13), (5, 9)):
        assert alexander_polynomial(torus_diagram(a, b)) == torus_alexander(a, b)


def test_alexander_determinant_per_summand(monkeypatch, trefoil):
    """kronecker_det gets the one row that unit pivots leave of T(2,81), and
    one row per summand of ten trefoils each spliced in at arc 0, whose
    whole minor's residual rows would fill in; both results are the closed
    forms."""
    sizes = []
    real = coloring.kronecker_det
    monkeypatch.setattr(coloring, "kronecker_det", lambda rows: sizes.append(len(rows)) or real(rows))
    assert alexander_polynomial(torus_diagram(2, 81)) == LaurentPoly.make([(-1) ** i for i in range(81)])
    assert sizes == [1]
    nested = trefoil
    for _ in range(9):
        nested = connected_sum(nested, 0, trefoil, 0)
    assert alexander_polynomial(nested) == math.prod([DELTA_TREFOIL] * 10, start=ONE)
    assert sizes == [1] * 11


def _minor_and_residual(d):
    """The (1,1) Fox minor as sparse rows, and the dense rows that unit
    pivots leave of it."""
    minor = [tuple((c - 1, e) for c, e in row if c) for row in d.fox_rows[1:]]
    return minor, unit_residual(RingLaurent(), minor, d.arc_count - 1)[1]


# (strands, letters, seed, residual rows, span of Delta, |Delta(-1)|) of
# closures of random braid words that are knots; the residuals of 5-10
# rows are where kronecker_det's elimination runs past one step
MANY_STRAND_BRAIDS = [
    (8, 41, 49, 5, 10, 1689),
    (10, 81, 24, 7, 28, 6540621),
    (12, 121, 9, 10, 36, 322352211),
    (8, 161, 12, 7, 46, 4398682487),
]


def test_alexander_of_many_strand_braids():
    """Delta of braid closures on 8-12 strands and of T(7,5) and T(7,9),
    whose residuals have 5-10 rows: against the closed form on the torus
    knots, and against sparse_det of the whole minor up to 81 crossings;
    on the two largest, whose whole minors take seconds, against
    sparse_det of the same residual rows."""
    for a, b, rows in ((7, 5, 5), (7, 9, 6)):
        d = torus_diagram(a, b)
        minor, rest = _minor_and_residual(d)
        assert len(rest) == rows
        assert alexander_polynomial(d) == torus_alexander(a, b) == sparse_det(minor).alexander_normalized()
    for strands, letters, seed, rows, span, det in MANY_STRAND_BRAIDS:
        rng = random.Random(seed)
        d = from_braid(strands, [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(letters)])
        minor, rest = _minor_and_residual(d)
        delta = alexander_polynomial(d)
        assert (len(rest), delta.max_deg - delta.min_deg, abs(delta.eval_int(-1))) == (rows, span, det)
        whole = minor if d.n <= 81 else sparse_rows(rest)
        assert delta == sparse_det(whole).alexander_normalized()


def test_first_minors_match_bareiss_oracle():
    d = torus_diagram(3, 5)
    assert d.n >= 8
    assert minor_family(d, "fox", 1) == bareiss_minors(dense(d.fox_rows, d.arc_count, ZERO), d.n - 1)


def test_trefoil_minor_families(trefoil):
    fam = minor_family(trefoil, "fox", 1)
    assert all(m.coeffs in ((1, -1, 1), (-1, 1, -1)) for m in fam)
    # published multiset: 0, +-(T^3-T^2+T), +-(T^2-T+1), T^3+1; the first
    # two normalize to T^2-T+1 once the T unit is dropped
    dehn_fam = minor_family(trefoil, "dehn", 2)
    normalized = {("0" if m.is_zero else str(m.alexander_normalized())) for m in dehn_fam}
    assert normalized == {"0", "1 - T + T^2", "1 + T^3"}
    raw = {("0" if m.is_zero else str(m)) for m in dehn_fam}
    assert "1 + T^3" in raw or "-1 - T^3" in raw


def test_full_fox_determinant_vanishes(trefoil):
    assert minor_family(trefoil, "fox", 0) == [ZERO]


def test_dehn_second_ideal_generated_by_alexander():
    for d in small_diagrams():
        delta = alexander_polynomial(d)
        fam = [m for m in minor_family(d, "dehn", 2)]
        g = ZERO
        for m in fam:
            g = int_poly_content_gcd(g, m)
        assert unit_ratio(g, delta) is not None


def test_dehn_first_ideal_vanishes():
    for d in small_diagrams()[:4]:
        assert all(m.is_zero for m in minor_family(d, "dehn", 1))


def test_colorability_table(trefoil, F4, F7):
    assert not is_colorable(trefoil, IntMod(4), -1)
    assert is_colorable(trefoil, F4, [0, 1])
    assert is_colorable(trefoil, F7, 3)
    for dmult in range(1, 11):
        assert is_colorable(trefoil, IntMod(3 * dmult), -1)


def test_colorability_requires_invertible_t(trefoil):
    with pytest.raises(ValueError):
        is_colorable(trefoil, IntMod(4), 2)
    with pytest.raises(ValueError):
        is_colorable(trefoil, PolyMod(2, (1, 1, 1)), (0, 1, 1, 1))
    with pytest.raises(ValueError):
        is_colorable(trefoil, IntMod(1), -1)
    # F_p[T] needs a prime p: Z/4[T] is not a polynomial ring over a field
    for p in (0, 4, -3):
        with pytest.raises(ValueError, match="not a prime"):
            is_colorable(trefoil, PolyMod(p, (1, 1)), (0, 1))
        with pytest.raises(ValueError, match="not a prime"):
            count_colorings(trefoil, PolyMod(p, (1, 1)), (0, 1))
    # the cable dimensions, for the unknot as for a diagram base, and the
    # Fox/Dehn conversions need an invertible t too
    F3 = FqField(3)
    for call in (
        lambda: is_colorable(trefoil, F3, 0),
        lambda: cable_dimensions(builtin("unknot"), F3, 0, [(2, 3)]),
        lambda: cable_dimensions(trefoil, F3, 0, [(2, 3)]),
        lambda: fox_to_dehn(trefoil, F3, 0, [0, 0, 0], 0),
        lambda: dehn_to_fox(trefoil, F3, 0, [0] * 5),
    ):
        with pytest.raises(ValueError, match="t must be invertible"):
            call()


def test_poly_colorability(trefoil):
    assert is_colorable(trefoil, PolyMod(2, (1, 1, 1)), (0, 1))
    assert not is_colorable(trefoil, PolyMod(5, (1, 1)), (0, 1))


def test_colorability_matches_alexander_oracle():
    """The coloring counts decide colorability as the Alexander polynomial
    does: Z/(m) for m = 2..30, F_p[T]/(f) for several f, some reducible,
    and F_q for q = 2, 3, 4, 5, 7, 9 at every nonzero t."""
    fields = [FqField(2), FqField(3), FqField(2, [1, 1, 1]), FqField(5), FqField(7), FqField(3, [1, 0, 1])]
    poly_rings = [
        (PolyMod(2, (1, 1, 1)), (0, 1)),
        (PolyMod(3, (1, 0, 1)), (0, 1)),
        (PolyMod(3, (2, 1)), (1, 1)),
        (PolyMod(5, (1, 1)), (0, 1)),
        (PolyMod(5, (2, 0, 0, 1)), (0, 1)),
        (PolyMod(7, (1, 0, 1, 0, 1)), (0, 1)),
    ]
    for d in small_diagrams():
        for m in range(2, 31):
            for t in (-1, 2, 5):
                if math.gcd(m, t) == 1:
                    ring = IntMod(m)
                    assert is_colorable(d, ring, t) == colorable_by_alexander(d, ring, t)
        for ring, t in poly_rings:
            assert is_colorable(d, ring, t) == colorable_by_alexander(d, ring, t)
        for field in fields:
            for t in map(field.decode, range(1, field.q)):
                assert is_colorable(d, field, t) == colorable_by_alexander(d, field, t)


def test_field_colorability_needs_no_determinant(monkeypatch, F3):
    """Over F_q colorability is the nullity of the evaluated Fox matrix, not
    a root of the Alexander polynomial computed by determinants."""

    def spy(rows):
        raise AssertionError("is_colorable over F_q computed a determinant")

    monkeypatch.setattr(coloring, "kronecker_det", spy)
    assert is_colorable(torus_diagram(2, 81), F3, -1)
    assert not is_colorable(builtin("figure_eight"), F3, -1)


def test_multiple_of_three_admits_the_spread_coloring(trefoil):
    # over Z/(3d) the three strands can take the colors 0, d, 2d
    from itertools import permutations
    from oracles import fox_relation_holds

    for dmult in range(1, 6):
        m = 3 * dmult
        assert any(
            fox_relation_holds(trefoil, perm, m, -1)
            for perm in permutations((0, dmult, 2 * dmult))
        )


def test_count_colorings_examples(trefoil):
    assert count_colorings(trefoil, IntMod(3), -1) == 9
    assert count_colorings(trefoil, IntMod(4), -1) == 4
    assert count_colorings(trefoil, IntMod(9), -1) == 27


def test_count_colorings_against_brute_force():
    diagrams = [
        builtin("trefoil"),
        builtin("figure_eight"),
        torus_diagram(2, 5),
        pretzel_diagram([1, 1, 1]),
        reidemeister_r1(builtin("trefoil"), 0),
    ]
    for d in diagrams:
        for m in range(2, 10):
            for t in range(1, m):
                if math.gcd(m, t) != 1:
                    continue
                assert count_colorings(d, IntMod(m), t) == count_colorings_brute(d, m, t)


def test_count_colorings_mod_stays_fast_on_a_trefoil_sum(trefoil):
    # a Smith form of the whole 12 x 12 integer matrix ran past 100 s here
    d = trefoil
    for _ in range(3):
        d = connected_sum(d, 0, trefoil, 0)
    start = time.perf_counter()
    count = count_colorings(d, IntMod(3), 5)
    assert time.perf_counter() - start < 1.0
    assert count == 3 ** code_from_diagram(d, FqField(3), 5).k == 243


@pytest.mark.parametrize("a, b", [(4, 11), (7, 5), (5, 12)])
def test_count_colorings_poly_mod_stays_fast_on_torus_knots(a, b):
    # a Smith form of the whole matrix over F_3[T] ran past 2 minutes on
    # T(4,11) and T(7,5)
    d = torus_diagram(a, b)
    start = time.perf_counter()
    count = count_colorings(d, PolyMod(3, (1, 0, 1)), (0, 1))
    assert time.perf_counter() - start < 1.0
    assert count == 9 ** code_from_diagram(d, FqField(3, [1, 0, 1]), [0, 1]).k
    # T^2 + 1 is irreducible over F_3: the quotient ring is the field F_9
    assert count == count_colorings(d, FqField(3, [1, 0, 1]), [0, 1])


@pytest.mark.parametrize(
    "a, b",
    [(2, 3), (2, 7), (2, -51), (2, 401), (3, 4), (4, 3), (3, -8), (4, 9), (3, 5), (3, 13), (4, 7), (5, 6), (6, 5)],
)
def test_counts_over_a_reducible_cubic_quotient_match_the_torus_closed_form(a, b):
    """Over F_5[x]/(x^3 + 2), where x^3 + 2 = (x - 2)(x^2 + 2x + 4) and
    q = 125 is past the product table, at t = x: a torus knot's Alexander
    module is cyclic, so the count is p^(deg f + deg gcd(f, Delta mod p)),
    Delta from the closed form.  The quadratic factor's roots have order
    12, so it divides Delta of T(3, 4), T(3, 8) and T(4, 9) and no other
    here."""
    p, f = 5, (2, 0, 0, 1)
    expect = p ** (len(f) - 1 + fp_gcd_degree(f, torus_alexander_coeffs(a, b), p))
    assert count_colorings(torus_diagram(a, b), PolyMod(p, f), (0, 1)) == expect


def test_counts_hand_the_smith_form_only_a_residual(monkeypatch):
    """Unit-pivot elimination over the quotient ring leaves the Smith form
    a few rows at most, never the full Fox matrix."""
    seen = []

    def spy(rows, ring):
        seen.append(len(rows))
        return snf(rows, ring)

    monkeypatch.setattr(coloring, "snf", spy)
    b = 401
    assert count_colorings(torus_diagram(2, b), IntMod(27), -1) == 27 * math.gcd(27, b)
    p, f = 3, (1, 0, 1)
    R = RingFpT(p)
    delta = fp_compose(torus_alexander(5, 8), (0, 1), R)
    expect = p ** (len(f) - 1 + len(R.gcd(f, delta)) - 1)
    assert count_colorings(torus_diagram(5, 8), PolyMod(p, f), (0, 1)) == expect
    assert len(seen) == 2 and max(seen) <= 2


def test_count_colorings_poly_examples(trefoil):
    assert count_colorings(trefoil, PolyMod(2, (1, 1, 1)), (0, 1)) == 16
    assert count_colorings(trefoil, PolyMod(5, (1, 1)), (0, 1)) == 5
    with pytest.raises(ValueError):
        count_colorings(trefoil, PolyMod(2, (1,)), (0, 1))


@pytest.mark.parametrize("p, g", [(2, (1, 1, 1)), (2, (1, 1, 0, 1)), (3, (1, 0, 1)), (5, (2, 0, 1))])
def test_quotient_by_an_irreducible_is_the_field(p, g):
    """PolyMod(p, g) and FqField(p, g) are one ring for irreducible g (F_4,
    F_8, F_9, F_25): the same products, inverses, ring maps and counts."""
    R, F = PolyMod(p, g), FqField(p, g)
    q = F.q
    assert R.q == q
    for x in range(q):  # against schoolbook products mod g
        for y in range(q):
            assert R.mul(x, y) == F.mul(x, y)
            assert R.decode(R.mul(x, y)) == poly_mulmod(R.decode(x), R.decode(y), p, g)
    assert all(R.inv(x) == F.inv(x) for x in range(1, q))
    polys = [DELTA_TREFOIL, LaurentPoly.make([3, -1, 0, 0, 1], min_deg=-3), torus_alexander(3, 4)]
    for t in (1, -1, (0, 1), (1, 1)):
        assert [R.at(t)(e) for e in polys] == [F.at(t)(e) for e in polys]
    for d in (builtin("trefoil"), builtin("figure_eight"), torus_diagram(3, 5)):
        for t in (-1, (0, 1)):
            assert count_colorings(d, R, t) == count_colorings(d, F, t)


def test_poly_count_matches_field_kernel(trefoil, figure_eight, F4):
    # F_4 = F_2[T]/(T^2+T+1) with t the class of T
    for d in (trefoil, figure_eight):
        k = code_from_diagram(d, F4, [0, 1]).k
        assert count_colorings(d, PolyMod(2, (1, 1, 1)), (0, 1)) == 4**k


def test_colorings_at_t_one_are_trivial():
    for d in small_diagrams():
        for field in (FqField(2), FqField(3), FqField(5)):
            rows = evaluate(d.fox_rows, partial(field.eval_laurent, t=field.element(1)))
            assert len(echelon_kernel(field, echelon(field, rows), d.arc_count)) == 1


def test_evaluated_rows_match_symbolic_matrix(F3, F4, F5, F7):
    # over Z, F_q and F_p[T]: (ring map, ring zero)
    maps = [(partial(LaurentPoly.eval_int, t=t), 0) for t in (-1, 2, 3)]
    maps += [(partial(f.eval_laurent, t=tv), 0) for f in (F3, F4, F5, F7) for tv in range(1, f.q)]
    maps += [(partial(fp_compose, t=tp, ring=RingFpT(p)), ()) for p, tp in ((3, (0, 1)), (5, (2, 1)), (2, (1, 1, 1)))]
    for d in small_diagrams():
        for sparse, ncols in ((d.fox_rows, d.arc_count), (d.dehn_rows, d.region_count)):
            sym = dense(sparse, ncols, ZERO)
            assert len(sym) == d.n and all(len(row) == ncols for row in sym)
            distinct = {e for row in sparse for _, e in row}
            for value, zero in maps:
                expect = [[value(e) if e else zero for e in row] for row in sym]
                seen = []
                rows = evaluate(sparse, lambda e: seen.append(e) or value(e))
                assert dense(rows, ncols, zero) == expect
                assert all(v != zero for row in rows for _, v in row)
                assert sorted(map(str, seen)) == sorted(map(str, distinct))  # each once


def test_determinants_match_modular_oracle():
    from oracles import int_det_crt

    for d in small_diagrams():
        rows = dense(evaluate(d.fox_rows, lambda e: e.eval_int(-1)), d.n, 0)
        minor = [row[1:] for row in rows[1:]]
        assert knot_determinant(d) == abs(int_det_crt(minor))


def test_unknot_counts(unknot):
    assert count_colorings(unknot, IntMod(6), 1) == 6
    assert count_colorings(unknot, PolyMod(3, (1, 1)), (1,)) == 3


def test_unknot_fox_matrix_is_0_by_1(unknot):
    """The bare loop has one arc and no crossing: no relations on one color."""
    assert (unknot.fox_rows, unknot.arc_count) == ((), 1)
    assert minor_family(unknot, "fox", 1) == []


# -- Fox <-> Dehn -------------------------------------------------------------------


def test_zero_fox_lifts_to_index_powers(F5):
    for d in small_diagrams()[:5]:
        t = F5.element(3)
        zero = [0] * d.arc_count
        lifted = fox_to_dehn(d, F5, t, zero, 1)
        idx = d.region_index
        for r in range(d.region_count):
            assert lifted[r] == F5.pow(t, idx[r])


def test_zero_fox_at_minus_one_gives_checkerboard_constant(F5, trefoil):
    lifted = fox_to_dehn(trefoil, F5, -1, [0, 0, 0], 1)
    colors = trefoil.checkerboard
    values = {"white": {lifted[r] for r, c in colors.items() if c == "white"}}
    values["black"] = {lifted[r] for r, c in colors.items() if c == "black"}
    assert len(values["white"]) == 1 and len(values["black"]) == 1


def test_fox_dehn_roundtrip(trefoil, figure_eight):
    # over F_4 and F_9 words hold encoded ints >= p, read as they are
    cases = [(FqField(3), -1), (FqField(2, [1, 1, 1]), (0, 1)), (FqField(3, [1, 0, 1]), -1)]
    for (field, t), d in product(cases, (trefoil, figure_eight)):
        fox = code_from_diagram(d, field, t)
        dehn = code_from_diagram(d, field, t, kind="dehn")
        for vec in fox.codewords():
            assert fox.contains(vec)
            lifted = fox_to_dehn(d, field, t, vec, anchor=field.q - 1)
            assert dehn.contains(lifted)
            assert tuple(dehn_to_fox(d, field, t, lifted)) == vec
        for vec in dehn.codewords():
            assert dehn.contains(vec) and fox.contains(dehn_to_fox(d, field, t, vec))


def test_fox_dehn_roundtrip_t2_401(F3):
    # the region walk and the arc map are linear: 401 crossings take milliseconds
    d = torus_diagram(2, 401)
    fox = code_from_diagram(d, F3, -1)
    dehn = code_from_diagram(d, F3, -1, kind="dehn")
    for vec in fox.generator:
        lifted = fox_to_dehn(d, F3, -1, vec, anchor=F3.q - 1)
        assert dehn.contains(lifted)
        back = dehn_to_fox(d, F3, -1, lifted)
        assert tuple(back) == vec and fox.contains(back)


def test_checkerboard_dehn_weight_two_maps_to_weight_p(F5):
    d = torus_diagram(2, 5)
    colors = d.checkerboard
    dehn = [0 if colors[r] == "white" else 3 for r in range(d.region_count)]
    assert sum(1 for u in dehn if u) == 2
    rows = evaluate(d.dehn_rows, partial(F5.eval_laurent, t=F5.element(-1)))
    assert not any(_dot_mod(row, dehn, F5) for row in dense(rows, d.region_count, 0))
    fox = dehn_to_fox(d, F5, -1, dehn)
    assert sum(1 for x in fox if x) == 5


def _dot_mod(row, vec, field):
    acc = 0
    for a, b in zip(row, vec):
        acc = field.add(acc, field.mul(a, b))
    return acc


def test_conversion_rejects_non_colorings(F3, trefoil):
    with pytest.raises(ValueError):
        fox_to_dehn(trefoil, F3, -1, [1, 0, 0], 0)
    with pytest.raises(ValueError):
        dehn_to_fox(trefoil, F3, -1, [1, 0, 0, 0, 0])
    for call in (
        lambda: fox_to_dehn(trefoil, F3, -1, [2, 2, -1], 0),
        lambda: fox_to_dehn(trefoil, F3, -1, [1, 1, 1], 3),
        lambda: dehn_to_fox(trefoil, F3, -1, [0, 0, 0, 0, 3]),
    ):
        with pytest.raises(ValueError, match="range"):
            call()


def test_dehn_kernel_dimension_exceeds_fox_by_one():
    for d in small_diagrams():
        for field in (FqField(3), FqField(5), FqField(7)):
            k_fox = code_from_diagram(d, field, -1).k
            k_dehn = code_from_diagram(d, field, -1, kind="dehn").k
            assert k_dehn == k_fox + 1
