import hashlib
import math
import random
from collections import Counter

import pytest

from knotcode import generators
from knotcode.diagram import DiagramError
from knotcode.generators import (
    builtin,
    connected_sum,
    from_braid,
    is_pretzel_knot,
    pretzel_diagram,
    split_sum,
    torus_diagram,
)
from knotcode.coloring import alexander_polynomial, evaluate, knot_determinant
from knotcode.cable import torus_alexander
from knotcode.codes import code_from_diagram, tied_weight_enumerator, weight_enumerator
from knotcode.exactlin import dense
from knotcode.laurent import ONE, T, ZERO

from moves import same_up_to_relabeling


def test_builtin_trefoil_fox_matrix_is_the_published_one(trefoil):
    expect = [
        [ONE - T, T, -ONE],
        [-ONE, ONE - T, T],
        [T, -ONE, ONE - T],
    ]
    assert dense(trefoil.fox_rows, trefoil.arc_count, ZERO) == expect


def test_builtin_figure_eight_matches_published_matrix_at_minus_one(figure_eight):
    # the published 4x4 matrix lists the rows scaled by -1
    expect = [
        [1, 1, -2, 0],
        [0, 1, 1, -2],
        [-2, 0, 1, 1],
        [1, -2, 0, 1],
    ]
    rows = dense(figure_eight.fox_rows, figure_eight.arc_count, ZERO)
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
        rows = dense(evaluate(d.fox_rows, lambda e: e.eval_int(-1)), d.n, 0)
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


def test_split_sum_undoes_connected_sum(trefoil, figure_eight):
    """Each summand keeps its crossings in order and its edge numbering, and
    the tie names the two arcs the sum was spliced at.  The strand cut off
    first is the figure-eight's; the trefoil keeps its outer marker, which
    the sum kept.  Each summand arc but the two tied ones is the place of
    exactly one arc of the sum, and the sum's two arcs through the splice
    are placed at the tied arcs, which carry one color (maybe both at one:
    the place map need not be one to one)."""
    every = {(0, a) for a in range(4)} | {(1, a) for a in range(3)}
    for arc1 in range(3):
        for arc2 in range(4):
            summands, ties, place = split_sum(connected_sum(trefoil, arc1, figure_eight, arc2))
            assert summands[0].crossings == figure_eight.crossings and summands[1] == trefoil
            assert ties == [(0, arc2, 1, arc1)]
            tied = {(0, arc2), (1, arc1)}
            assert len(place) == 7 and sorted(p for p in place if p not in tied) == sorted(every - tied)


def test_split_sum_of_a_visibly_prime_diagram_is_itself():
    """T(2,401) and P(13,13,13) have no two edges between the same two
    faces; neither has the unknot, which has no edges."""
    for d in (torus_diagram(2, 401), pretzel_diagram([13, 13, 13]), builtin("unknot")):
        assert split_sum(d) == ([d], [], [(0, a) for a in range(d.arc_count)])


def test_split_sum_cuts_off_kinks(trefoil):
    """A kink is a 1-crossing summand, tied at its one arc: the closure of
    s1^3 s2, a stabilized trefoil, is a kink and the trefoil."""
    summands, ties, _ = split_sum(from_braid(3, [1, 1, 1, 2]))
    assert [p.n for p in summands] == [1, 3] and same_up_to_relabeling(summands[1], trefoil)
    assert ties == [(0, 0, 1, 0)]


def test_split_sum_builds_each_summand_once(trefoil, monkeypatch):
    """One walk of the edge cycle builds each summand, the rest included,
    exactly once: ten Diagrams for the 10-fold arc-0 trefoil sum, and none
    for T(2,401), which is its own one summand."""
    d = trefoil
    for _ in range(9):
        d = connected_sum(d, 0, trefoil, 0)
    prime = torus_diagram(2, 401)
    built = []

    class Counted(generators.Diagram):
        def __init__(self, crossings, outer=None):
            built.append(len(crossings))
            super().__init__(crossings, outer)

    monkeypatch.setattr(generators, "Diagram", Counted)
    summands, ties, _ = split_sum(d)
    assert (len(summands), len(ties), built) == (10, 9, [3] * 10)
    built.clear()
    assert split_sum(prime)[:2] == ([prime], []) and built == []


def test_split_sum_cuts_three_splices_through_the_same_two_faces(trefoil, figure_eight, F3, F5):
    """A figure-eight and then T(2,5) summed in at one arc of the trefoil
    leave three edges between the same two faces, cut in turn: the summands
    are T(2,5), the figure-eight and the trefoil, with two ties, and the tie
    DP over their codes gives the walk's weights of the whole Fox code."""
    t25 = torus_diagram(2, 5)
    want = [alexander_polynomial(k) for k in (t25, figure_eight, trefoil)]
    for a in range(3):
        for b in range(5):
            d = connected_sum(connected_sum(trefoil, a, figure_eight, 0), a, t25, b)
            assert max(Counter(frozenset(faces) for faces in d.edge_faces()).values()) == 3
            summands, ties, _ = split_sum(d)
            assert [s.n for s in summands] == [5, 4, 3] and len(ties) == 2
            assert [alexander_polynomial(s) for s in summands] == want
            for field in (F3, F5):
                codes = [code_from_diagram(s, field, -1) for s in summands]
                assert tied_weight_enumerator(codes, ties) == weight_enumerator(code_from_diagram(d, field, -1))


def test_from_braid_unknot_cases():
    assert from_braid(1, []).n == 0
    with pytest.raises(DiagramError, match="position 3 unused"):
        from_braid(3, [1])  # a free loop the constructor cannot see
    with pytest.raises(DiagramError, match="not a single closed component"):
        from_braid(2, [1, 1])  # the Hopf link: the constructor refuses it


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


# sha256 of dumps() for a ladder of generated diagrams: the golden CLI corpus
# pins only T(2,5) and P(3,3,3), so these pin each generator's slot and edge
# numbering, and the arc numbering that connected_sum splices at, byte for byte
_LADDER_BRAIDS = {
    "braid3": (3, [1, -2, 1, -2, -2, 1, 2, -1, 1, 2]),
    "braid4": (4, [1, -2, 3, -1, 2, 2, -3, 1, -2, 3, 3, 2, 3]),
    "braid5": (5, [1, -2, 3, -4, 2, -1, -3, 4, 1, 2, -3, -4]),
    "braid6": (6, [1, -2, 3, -4, 5, -1, 2, -3, 4, -5, 1, -2, 3, -4, 5, 1, 2]),
}

_LADDER = [
    ("T(2,153)", lambda: torus_diagram(2, 153), "205aad08769567be73ffddc2c620c4f8f55ccbaace345f490e0bc007030048dc"),
    ("T(2,-153)", lambda: torus_diagram(2, -153), "2e52fa8fa4a28c536e556ecfbf8e15a4768b2723d2d495ae0aa229c611b159f0"),
    ("T(3,-20)", lambda: torus_diagram(3, -20), "c715d437e1b771b723adad3c9ec5221e2aecf80a88b736c52fdb39d68905083c"),
    ("T(4,13)", lambda: torus_diagram(4, 13), "9a45ecf3c80ee19f632c1f05955fba882d7d74c4169d737ffbf247545171680a"),
    ("T(5,9)", lambda: torus_diagram(5, 9), "5f6a7e6e9f332432132ec9188971b665840417367e130676c94feef14c9321db"),
    ("P(-3,2,5)", lambda: pretzel_diagram([-3, 2, 5]), "a4d64149c50540d6f524158604d203c94ad226591d0966f11ab72d2c955cfc46"),
    ("P(3,-5,7,-9,11)", lambda: pretzel_diagram([3, -5, 7, -9, 11]), "99ff8f778d9f38353adb097467c8d841e8f503d2c43e8492a0131a7bd17d0331"),
    ("P(13,13,13)", lambda: pretzel_diagram([13, 13, 13]), "43f94b47b18f87abfe4c72fc24f44dee0fab25c2ebb1181e92fb3910c8b4a3fc"),
    ("braid3", lambda: from_braid(*_LADDER_BRAIDS["braid3"]), "7fa6db09fedd8c2f52298bfac9c6cc1697ef6988d52540b902570c04827af52a"),
    ("braid4", lambda: from_braid(*_LADDER_BRAIDS["braid4"]), "9b05a9cd8f32be86324ced18cb54b02b797dfc7d3d287ee88eab6548521be8bc"),
    ("braid5", lambda: from_braid(*_LADDER_BRAIDS["braid5"]), "ef51829c7a8c5905e5f5dbf44014f9200214a3b9f75b6ca19ce9c4e9a87e85f3"),
    ("braid6", lambda: from_braid(*_LADDER_BRAIDS["braid6"]), "1cc74b8d3866204ceeb0e0404a173671cc3318ad064b94a1df71654c6dda086b"),
    *(
        (
            f"T(2,5)#P(-3,2,5) at arcs {a1},{a2}",
            lambda a1=a1, a2=a2: connected_sum(torus_diagram(2, 5), a1, pretzel_diagram([-3, 2, 5]), a2),
            digest,
        )
        for a1, a2, digest in [
            (0, 0, "458f6530713915d3a82b2ecb883bd84249f47cf034748146173f18aa6e54835e"),
            (2, 5, "5f850a390acbd6bc6be47306f950b95d07de1d6ed9b739c40ce426aedf9e26f1"),
            (4, 9, "8c4d25d9ee981571cf0a4acc12b3917eff43664b4aa3795a0d82766dc03f3818"),
        ]
    ),
    *(
        (
            f"braid4#braid5 at arcs {a1},{a2}",
            lambda a1=a1, a2=a2: connected_sum(
                from_braid(*_LADDER_BRAIDS["braid4"]), a1, from_braid(*_LADDER_BRAIDS["braid5"]), a2
            ),
            digest,
        )
        for a1, a2, digest in [
            (3, 11, "fc035c4a430d656404b2014a77384b69f1f2e25e48cb91e10fc47bd6e4bf9ef0"),
            (9, 0, "657eca38a5c91c3b5bfc26c864bae1998e24c5efe4137ddd2d642724c1be43fa"),
        ]
    ),
]


@pytest.mark.parametrize("build, digest", [case[1:] for case in _LADDER], ids=[case[0] for case in _LADDER])
def test_generated_diagram_bytes_are_pinned(build, digest):
    assert hashlib.sha256(build().dumps().encode()).hexdigest() == digest
