import math
import random

import pytest

from knotcode.diagram import DiagramError
from knotcode.generators import (
    builtin,
    connected_sum,
    from_braid,
    is_pretzel_knot,
    pretzel_diagram,
    torus_diagram,
)
from knotcode.coloring import alexander_polynomial, fox_matrix, knot_determinant
from knotcode.cable import torus_alexander
from knotcode.codes import code_from_diagram
from knotcode.exactlin import dense
from knotcode.laurent import ONE, T

from moves import same_up_to_relabeling


def test_builtin_trefoil_fox_matrix_is_the_published_one(trefoil):
    expect = [
        [ONE - T, T, -ONE],
        [-ONE, ONE - T, T],
        [T, -ONE, ONE - T],
    ]
    assert [list(r) for r in fox_matrix(trefoil).entries] == expect


def test_builtin_figure_eight_matches_published_matrix_at_minus_one(figure_eight):
    # the published 4x4 matrix lists the rows scaled by -1
    expect = [
        [1, 1, -2, 0],
        [0, 1, 1, -2],
        [-2, 0, 1, 1],
        [1, -2, 0, 1],
    ]
    rows = fox_matrix(figure_eight).entries
    assert [[-e.eval_int(-1) for e in row] for row in rows] == expect


def test_builtin_unknot():
    assert builtin("unknot").n == 0
    with pytest.raises(DiagramError):
        builtin("granny")


def test_torus_2_b_has_b_crossings():
    for b in (1, 3, 5, 7, 9):
        d = torus_diagram(2, b)
        assert d.n == b


def test_torus_23_is_trefoil(trefoil):
    assert alexander_polynomial(torus_diagram(2, 3)) == ONE - T + T * T
    assert same_up_to_relabeling(torus_diagram(2, 3), trefoil)


def test_torus_29_dimension(F3):
    assert code_from_diagram(torus_diagram(2, 9), F3, -1).k == 2


def test_torus_35_only_trivial_colorings(F3, F5, F7):
    d = torus_diagram(3, 5)
    assert knot_determinant(d) == 1
    for field in (F3, F5, F7):
        assert code_from_diagram(d, field, -1).k == 1


def test_torus_rejects_bad_parameters():
    with pytest.raises(DiagramError):
        torus_diagram(2, 4)
    with pytest.raises(DiagramError):
        torus_diagram(0, 3)


def test_torus_alexander_matches_closed_form_small():
    pairs = [(a, b) for a in range(1, 6) for b in range(1, 36) if a * b <= 35 and math.gcd(a, b) == 1]
    for a, b in pairs:
        d = torus_diagram(a, b)
        assert alexander_polynomial(d) == torus_alexander(a, b)


def test_torus_mirror_parameters():
    d = torus_diagram(2, -3)
    assert knot_determinant(d) == 3


def test_is_pretzel_knot_cases():
    assert is_pretzel_knot((3, 2, 3, 5))
    assert not is_pretzel_knot((3, 3))
    assert not is_pretzel_knot((2, 2, 3))
    assert is_pretzel_knot((3, 3, 3))
    assert is_pretzel_knot((2,))
    assert not is_pretzel_knot((3, 0, 3))


def test_pretzel_rejects_links():
    with pytest.raises(DiagramError):
        pretzel_diagram([3, 3])


def test_pretzel_3235():
    d = pretzel_diagram([3, 2, 3, 5])
    assert d.n == 13
    assert knot_determinant(d) == 123


def test_pretzel_333_code(F3):
    from knotcode.codes import min_distance

    c = code_from_diagram(pretzel_diagram([3, 3, 3]), F3, -1)
    assert (c.n, c.k, min_distance(c)) == (9, 3, 4)


def test_pretzel_mirror_trefoil(trefoil):
    d = pretzel_diagram([-1, -1, -1])
    assert d.n == 3
    assert knot_determinant(d) == 3


def test_pretzel_determinant_matches_brute_force():
    from oracles import int_det_crt

    rng = random.Random(11)
    specs = [[3, 3, 3], [1, 1, 1], [5, 3, 1], [3, 2, 3], [2, 3, 3], [-3, 3, 3], [5, -3, 3], [2, 5, 5], [3, 3, 3, 3, 2]]
    for _ in range(6):
        m = rng.choice([1, 3])
        spec = [rng.choice([-3, -1, 1, 3, 5]) for _ in range(m)]
        if is_pretzel_knot(spec) and sum(map(abs, spec)) <= 15:
            specs.append(spec)
    for spec in specs:
        if not is_pretzel_knot(spec) or sum(map(abs, spec)) > 15:
            continue
        d = pretzel_diagram(spec)
        assert d.n == sum(abs(p) for p in spec)
        rows = dense(fox_matrix(d).evaluate(lambda e: e.eval_int(-1), 0), d.n, 0)
        minor = [row[1:] for row in rows[1:]]
        assert knot_determinant(d) == abs(int_det_crt(minor))
        if all(p % 2 for p in spec):  # all-odd pretzels have a closed form
            total = sum(_product_skipping(spec, i) for i in range(len(spec)))
            assert knot_determinant(d) == abs(total)


def _product_skipping(values, skip):
    out = 1
    for i, v in enumerate(values):
        if i != skip:
            out *= v
    return out


def test_connected_sum_structure(trefoil, figure_eight, unknot):
    s = connected_sum(trefoil, 2, figure_eight, 3)
    assert s.n == 7
    assert len(set(s.arcs.values())) == 7
    assert knot_determinant(s) == 15


def test_connected_sum_with_unknot(trefoil, unknot, F3):
    assert connected_sum(trefoil, 0, unknot, 0) == trefoil
    assert connected_sum(unknot, 0, trefoil, 0) == trefoil


def test_connected_sum_determinant_multiplicative():
    pieces = [builtin("trefoil"), builtin("figure_eight"), torus_diagram(2, 5), pretzel_diagram([3, 3, 3])]
    rng = random.Random(5)
    for _ in range(10):
        d1, d2 = rng.choice(pieces), rng.choice(pieces)
        a1 = rng.randrange(d1.arc_count)
        a2 = rng.randrange(d2.arc_count)
        s = connected_sum(d1, a1, d2, a2)
        assert knot_determinant(s) == knot_determinant(d1) * knot_determinant(d2)


def test_connected_sum_alexander_multiplicative(trefoil, figure_eight):
    s = connected_sum(trefoil, 1, figure_eight, 2)
    assert alexander_polynomial(s) == (
        alexander_polynomial(trefoil) * alexander_polynomial(figure_eight)
    )


def test_connected_sum_invariants_independent_of_arc_choice(trefoil, figure_eight, F3, F5):
    # different splice arcs give different diagrams of the same knot, so
    # every computed invariant must agree across the choices
    dims = set()
    alexes = set()
    for a1 in range(3):
        for a2 in range(4):
            s = connected_sum(trefoil, a1, figure_eight, a2)
            dims.add((code_from_diagram(s, F3, -1).k, code_from_diagram(s, F5, -1).k))
            alexes.add(alexander_polynomial(s))
    assert len(dims) == 1 and len(alexes) == 1


def test_from_braid_unknot_cases():
    assert from_braid(1, []).n == 0
    with pytest.raises(DiagramError):
        from_braid(3, [1])  # position 3 never used: split link


def test_generated_diagrams_all_validate():
    diagrams = [
        torus_diagram(3, 5),
        torus_diagram(4, 3),
        pretzel_diagram([5, 3, 1]),
        pretzel_diagram([2,]),
        pretzel_diagram([3, 2, 3, 5]),
        connected_sum(torus_diagram(2, 5), 0, builtin("trefoil"), 1),
    ]
    for d in diagrams:  # each was checked as it was built
        assert len(set(d.arcs.values())) == d.n and len(set(d.regions.values())) == d.n + 2
