import math

import pytest

from knotcode.laurent import ONE, T, LaurentPoly
from knotcode.fields import FqField
from knotcode.generators import torus_diagram
from knotcode.coloring import alexander_polynomial
from knotcode.cable import (
    cable_alexander,
    cable_ideal_seq,
    ideal_seq_from_diagram,
    iterated_cable_length,
    torus_alexander,
    torus_delta,
    unknot_ideal_seq,
)

DELTA_TREFOIL = ONE - T + T * T


def test_torus_alexander_small_cases():
    assert torus_alexander(2, 3) == DELTA_TREFOIL
    assert torus_alexander(2, 5).eval_int(-1) == 5
    assert torus_alexander(3, 5).eval_int(-1) == 1
    assert torus_alexander(3, 1) == ONE


def test_torus_alexander_rejects_common_factors():
    with pytest.raises(ValueError):
        torus_alexander(2, 4)
    with pytest.raises(ValueError):
        torus_alexander(0, 5)


def test_torus_alexander_exact_division_up_to_200():
    for a in range(1, 15):
        for b in range(a, 201):
            if a * b > 200 or math.gcd(a, b) != 1:
                continue
            delta = torus_alexander(a, b)
            assert abs(delta.eval_int(1)) == 1
            assert delta.min_deg == 0
            assert delta.max_deg == (a - 1) * (b - 1)


def test_torus_minus_one_three_case_table():
    for a in range(1, 9):
        for b in range(1, 9):
            if math.gcd(a, b) != 1:
                continue
            value = abs(torus_alexander(a, b).eval_int(-1))
            if a % 2 and b % 2:
                assert value == 1
            elif a % 2 == 0:
                assert value == b
            else:
                assert value == a


def test_diagram_alexander_matches_closed_form_2_b():
    for b in range(1, 16, 2):
        assert alexander_polynomial(torus_diagram(2, b)) == torus_alexander(2, b)


def test_cable_alexander_trefoil():
    expect = DELTA_TREFOIL * DELTA_TREFOIL.subst_power(3)
    assert cable_alexander(DELTA_TREFOIL, 2, 3) == expect.alexander_normalized()
    assert cable_alexander(ONE, 4, 5) == torus_alexander(4, 5)
    base = LaurentPoly.make([1, -3, 1])
    assert cable_alexander(base, 3, 1) == base


def test_ideal_seq_examples(F3, F5, trefoil):
    seq = ideal_seq_from_diagram(trefoil, F3, -1)
    assert seq.dimension == 2
    assert ideal_seq_from_diagram(trefoil, F5, -1).dimension == 1
    assert ideal_seq_from_diagram(torus_diagram(2, 9), F3, -1).dimension == 2


def test_torus_ideals_whole_ring_from_k2(F3, F5, F7):
    # the second and later evaluated ideals of a torus knot never vanish
    for (a, b) in ((2, 3), (2, 5), (3, 4), (2, 9), (3, 5)):
        d = torus_diagram(a, b)
        for field in (F3, F5, F7):
            for tval in range(1, field.q):
                seq = ideal_seq_from_diagram(d, field, tval)
                assert 1 <= seq.dimension <= 2


def test_cable_shift_rule(F3, trefoil):
    t = F3.element(-1)
    base = ideal_seq_from_diagram(trefoil, F3, F3.pow(t, 3))
    assert torus_delta(F3, 2, 3, t) == 0
    lifted = cable_ideal_seq(base, 2, 3, t)
    assert lifted.dimension == base.dimension + 1 == 3
    # nonvanishing torus value keeps the dimension
    F7 = FqField(7)
    t7 = F7.element(-1)
    base7 = ideal_seq_from_diagram(trefoil, F7, F7.pow(t7, 3))
    assert torus_delta(F7, 2, 3, t7) != 0
    assert cable_ideal_seq(base7, 2, 3, t7).dimension == base7.dimension


def test_cable_requires_matching_argument(F3, trefoil):
    base = ideal_seq_from_diagram(trefoil, F3, 1)
    with pytest.raises(ValueError):
        cable_ideal_seq(base, 2, 3, F3.element(-1))  # (-1)^3 != 1


def test_unknot_cable_dimensions(F3, F5):
    for p, field in ((3, F3), (5, F5)):
        t = field.element(-1)
        seq = unknot_ideal_seq(field, t)
        assert seq.dimension == 1
        for m in range(1, 5):
            seq = cable_ideal_seq(seq, 2, p, t)
            assert seq.dimension == m + 1


def test_iterated_lengths():
    assert iterated_cable_length(3, 1) == 3
    assert iterated_cable_length(3, 2) == 15
    assert [iterated_cable_length(5, m) for m in (1, 2, 3)] == [3, 17, 73]
    with pytest.raises(ValueError):
        iterated_cable_length(3, 0)


def test_cable_dimension_respects_valuation_bound(F3, F5):
    # each cabling stage must stay within dim <= e+1 for the p-adic
    # valuation e of the cabled Alexander value; the (2,p) tower attains it
    for p, field in ((3, F3), (5, F5)):
        t = field.element(-1)
        delta = ONE
        seq = unknot_ideal_seq(field, t)
        for _ in range(3):
            delta = cable_alexander(delta, 2, p)
            seq = cable_ideal_seq(seq, 2, p, t)
            value = abs(delta.eval_int(-1))
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            assert seq.dimension <= e + 1
            assert seq.dimension == e + 1  # attained along this tower


def test_monotone_flags(F3, trefoil):
    # the ideal chain is held as its threshold, which lies inside the matrix
    seq = ideal_seq_from_diagram(trefoil, F3, -1)
    assert 1 <= seq.dimension <= trefoil.arc_count == 3


def test_sequence_t_passes_back_as_t(trefoil):
    # over F_4 and F_9 the t a sequence holds names the same element when
    # passed back as a t, where an encoded int would be read as n * 1
    for field in (FqField(2, (1, 1, 1)), FqField(3, (1, 0, 1))):
        seq = unknot_ideal_seq(field, (0, 1))
        assert seq.t == (0, 1)
        assert unknot_ideal_seq(field, seq.t) == seq
        assert ideal_seq_from_diagram(trefoil, field, seq.t).t == seq.t
        lifted = cable_ideal_seq(seq, 2, 1, seq.t)
        assert cable_ideal_seq(lifted, 3, 1, lifted.t).t == seq.t
