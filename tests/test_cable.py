import math
from itertools import product

import pytest

from knotcode.laurent import ONE, T, LaurentPoly
from knotcode.fields import FqField
from knotcode.generators import builtin, from_braid, torus_diagram
from knotcode.coloring import alexander_polynomial
from knotcode.cable import (
    cable_alexander,
    cable_dimensions,
    iterated_cable_length,
    torus_alexander,
    torus_delta,
)

from conftest import small_diagrams
from oracles import fox_rows_by_sums, rank_dense, torus_alexander_coeffs

DELTA_TREFOIL = ONE - T + T * T
UNKNOT = builtin("unknot")


def base_dimension(d, field, t) -> int:
    """k_0: the dimension of d's Fox code at t, a tower of no pairs."""
    (stage,) = cable_dimensions(d, field, t, [])
    return stage[2]


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


def test_torus_delta_is_the_polynomial_value_on_a_grid():
    """torus_delta, a quotient of geometric sums, equals the value of the
    expanded polynomial at every unit t of F_2, F_3, F_5, F_7, F_4, F_9,
    F_16 and F_243, for every coprime a <= 8, b <= 15: 22,199 cases, among
    them each t where G(1, b) vanishes and a and b swap roles."""
    fields = [FqField(p) for p in (2, 3, 5, 7)]
    fields += [FqField(2, (1, 1, 1)), FqField(3, (1, 0, 1)), FqField(2, (1, 1, 0, 0, 1)), FqField(3, (1, 2, 0, 0, 0, 1))]
    cases = 0
    for field in fields:
        for a, b in product(range(1, 9), range(1, 16)):
            if math.gcd(a, b) != 1:
                continue
            poly = torus_alexander(a, b)
            for x in range(1, field.q):
                t = field.decode(x)
                assert torus_delta(field, a, b, t) == field.eval_laurent(poly, x), (field, a, b, t)
                cases += 1
    assert cases == 22199


def test_torus_delta_expands_no_polynomial(F3, F7):
    """b = 10005 is one of O(log ab) powers, not a 10004-term quotient:
    Delta_{2,b}(-1) = b, 0 over F_3 and 2 over F_7; signs are dropped, and
    the parameter errors are torus_alexander's."""
    assert torus_delta(F3, 2, 10005, -1) == torus_delta(F3, -10005, 2, -1) == 0
    assert torus_delta(F7, 2, -10005, -1) == 10005 % 7 == 2
    with pytest.raises(ValueError, match="torus parameters must be nonzero"):
        torus_delta(F3, 0, 5, -1)
    with pytest.raises(ValueError, match=r"\(2,4\) not coprime"):
        torus_delta(F3, -2, 4, -1)


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
    # the first evaluated elementary ideal that is everything: k_0
    assert base_dimension(trefoil, F3, -1) == 2
    assert base_dimension(trefoil, F5, -1) == 1
    assert base_dimension(torus_diagram(2, 9), F3, -1) == 2
    assert base_dimension(UNKNOT, F3, -1) == 1


def test_torus_ideals_whole_ring_from_k2(F3, F5, F7):
    # the second and later evaluated ideals of a torus knot never vanish
    for (a, b) in ((2, 3), (2, 5), (3, 4), (2, 9), (3, 5)):
        d = torus_diagram(a, b)
        for field in (F3, F5, F7):
            for tval in range(1, field.q):
                assert 1 <= base_dimension(d, field, tval) <= 2


def test_cable_shift_rule(F3, F7, trefoil):
    # t = -1 and (-1)^3 = -1: the base is evaluated at t^3 = t
    assert torus_delta(F3, 2, 3, -1) == 0
    assert cable_dimensions(trefoil, F3, -1, [(2, 3)]) == [((2,), None, 2), ((2,), 0, 3)]
    # nonvanishing torus value keeps the dimension
    assert torus_delta(F7, 2, 3, -1) != 0
    (_, _, k0), (_, delta, k1) = cable_dimensions(trefoil, F7, -1, [(2, 3)])
    assert delta == torus_delta(F7, 2, 3, -1) and k1 == k0 == 1
    # a stage is evaluated at t^(|b| of the later pairs): over F_7, t = 3
    # has order 6, and the trefoil polynomial of (3,-2) vanishes at a
    # primitive sixth root of unity, but not at t^2
    stages = cable_dimensions(UNKNOT, F7, 3, [(2, 3), (3, -2)])
    assert [s[0] for s in stages] == [(F7.pow(3, 6),), (F7.pow(3, 2),), (3,)]
    assert [s[2] for s in stages] == [1, 1, 2]


def test_unknot_cable_dimensions(F3, F5):
    for p, field in ((3, F3), (5, F5)):
        stages = cable_dimensions(UNKNOT, field, -1, [(2, p)] * 4)
        assert [k for _, _, k in stages] == [1, 2, 3, 4, 5]


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
        delta = ONE
        stages = cable_dimensions(UNKNOT, field, -1, [(2, p)] * 3)
        for _, _, dim in stages[1:]:
            delta = cable_alexander(delta, 2, p)
            value = abs(delta.eval_int(-1))
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            assert dim <= e + 1
            assert dim == e + 1  # attained along this tower


def test_monotone_flags(F3, trefoil):
    # the ideal chain is held as its threshold, which lies inside the
    # matrix, and cabling never lowers it
    stages = cable_dimensions(trefoil, F3, -1, [(2, 3), (3, 2), (2, 5)])
    dims = [k for _, _, k in stages]
    assert 1 <= dims[0] <= trefoil.arc_count == 3
    assert all(0 <= b - a <= 1 for a, b in zip(dims, dims[1:]))


def test_sequence_t_passes_back_as_t(trefoil):
    # over F_4 and F_9 the t a stage holds names the same element when
    # passed back as a t, where an encoded int would be read as n * 1
    for field in (FqField(2, (1, 1, 1)), FqField(3, (1, 0, 1))):
        stages = cable_dimensions(UNKNOT, field, (0, 1), [(2, 1), (3, 1)])
        assert [s[0] for s in stages] == [(0, 1)] * 3
        assert cable_dimensions(UNKNOT, field, stages[0][0], [(2, 1), (3, 1)]) == stages
        assert cable_dimensions(trefoil, field, stages[0][0], [])[0][0] == (0, 1)


def _horner(field, coeffs, t) -> int:
    """Ascending integer coefficients at the encoded element t of field."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, t), field.element(c))
    return acc


def test_cable_dimensions_match_oracles():
    """k_0 is n less the dense rank of the union-find Fox rows at t_0, and a
    stage adds 1 exactly when the closed-form torus polynomial vanishes at
    its t, over prime and extension fields at every unit t."""
    braids = [(3, [1, -2, 1, -2]), (3, [1, 1, 1, 2, -1, 2]), (4, [1, 2, -3, 2, 1, -3, 2])]
    knots = small_diagrams() + [from_braid(*braid) for braid in braids]
    fields = [FqField(3), FqField(5), FqField(7), FqField(2, (1, 1, 1)), FqField(3, (1, 0, 1))]
    choices = [(2, 3), (2, -5), (3, 2), (3, 4)]
    # every tower of 1 or 2 pairs and every 7th of the 64 of 3 pairs
    towers = [list(tower) for m in (1, 2) for tower in product(choices, repeat=m)]
    towers += [list(tower) for tower in list(product(choices, repeat=3))[::7]]
    for d in knots:
        rows = fox_rows_by_sums(d)
        for field in fields:
            k0_at = {}
            for t, tower in product(range(1, field.q), towers):
                stages = cable_dimensions(d, field, field.decode(t), tower)
                exponents = [math.prod(abs(b) for _, b in tower[i:]) for i in range(len(tower) + 1)]
                ts = [field.pow(t, e) for e in exponents]
                assert [s[0] for s in stages] == [field.decode(x) for x in ts]
                if ts[0] not in k0_at:
                    grid = [[0] * d.arc_count for _ in rows]
                    for row, cells in zip(grid, rows):
                        for c, e in cells:
                            row[c] = field.mul(_horner(field, e.coeffs, ts[0]), field.pow(ts[0], e.min_deg))
                    k0_at[ts[0]] = d.arc_count - rank_dense(field, grid)
                assert stages[0][2] == k0_at[ts[0]]
                for (a, b), ti, (_, _, before), (_, _, after) in zip(tower, ts[1:], stages, stages[1:]):
                    vanishes = _horner(field, torus_alexander_coeffs(a, b), ti) == 0
                    assert after - before == int(vanishes)
