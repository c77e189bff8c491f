import json
import random

import pytest

from knotcode.diagram import Crossing, Diagram, DiagramError
from knotcode.generators import torus_diagram
from knotcode.codes import code_from_diagram
from knotcode.fields import FqField

from conftest import small_diagrams
from moves import (
    MoveError,
    poke_sites,
    random_move,
    reidemeister_r1,
    reidemeister_r1_remove,
    reidemeister_r2,
    reidemeister_r2_remove,
    removable_pokes,
    removable_twists,
    same_up_to_relabeling,
)


def test_trefoil_validates(trefoil):
    d = Diagram(trefoil.crossings, trefoil.outer)
    assert len(set(d.arcs.values())) == 3
    assert len(set(d.regions.values())) == 5


def test_unknot_validates():
    d = Diagram((), None)
    assert d.arc_count == 1
    assert d.region_count == 2


def test_side_regions_refuses_an_edge_outside_the_diagram(trefoil, unknot):
    """An edge outside 0..2n-1 is a KeyError, as a lookup in regions is; a
    negative edge does not count back from the end of the darts."""
    assert trefoil.side_regions(5) == (trefoil.regions[(5, "left")], trefoil.regions[(5, "right")])
    for d, edges in ((trefoil, (-1, -6, 6)), (unknot, (0, -1))):
        for e in edges:
            with pytest.raises(KeyError):
                d.side_regions(e)
    assert unknot.regions == {} and unknot.dehn_rows == () and unknot.outer_region == 1


def test_kinks_add_roles_that_share_a_column(trefoil, unknot):
    """At a Reidemeister I kink the overstrand is one of the understrands
    and one region fills two quadrants: those roles are added into one
    cell, and the unknot's single kink has an empty Fox row."""
    kinked = reidemeister_r1(trefoil, 1)
    assert [len(row) for row in kinked.fox_rows] == [3, 3, 3, 2]
    assert [len(row) for row in kinked.dehn_rows] == [4, 4, 4, 3]
    assert reidemeister_r1(unknot, 0).fox_rows == ((),)
    with pytest.raises(DiagramError, match="must have outer = None"):
        Diagram((), (0, "left"))


def test_duplicate_incoming_edge_is_flagged():
    with pytest.raises(DiagramError, match="matching"):
        Diagram(
            (
                Crossing(under_in=0, under_out=1, over_in=0, over_out=2, sign=1),
                Crossing(under_in=2, under_out=3, over_in=3, over_out=0, sign=1),
            ),
            outer=(0, "left"),
        )


def test_two_component_link_is_flagged():
    # two disjoint kinks wired as one crossing list
    with pytest.raises(DiagramError, match="single closed component"):
        Diagram(
            (
                Crossing(under_in=0, under_out=1, over_in=1, over_out=0, sign=1),
                Crossing(under_in=2, under_out=3, over_in=3, over_out=2, sign=1),
            ),
            outer=(0, "left"),
        )


def test_arc_counts(trefoil, figure_eight, unknot):
    assert trefoil.arc_count == 3
    assert figure_eight.arc_count == 4
    assert unknot.arc_count == 1


def test_region_counts(trefoil, figure_eight):
    assert trefoil.region_count == 5
    assert figure_eight.region_count == 6
    assert torus_diagram(2, 5).region_count == 7


def test_checkerboard_proper(trefoil):
    for d in small_diagrams():
        colors = d.checkerboard
        for e in range(2 * d.n):
            l, r = d.side_regions(e)
            assert colors[l] != colors[r]
        assert colors[d.outer_region] == "white"


def test_edge_faces_are_the_regions_renamed():
    for d in small_diagrams():
        rename = {}
        for e, pair in enumerate(d.edge_faces()):
            for face, region in zip(pair, d.side_regions(e)):
                assert rename.setdefault(face, region) == region
        assert sorted(rename.values()) == (list(range(d.region_count)) if d.n else [])


def test_checkerboard_torus25():
    d = torus_diagram(2, 5)
    colors = d.checkerboard
    assert sum(1 for c in colors.values() if c == "white") == 5
    assert sum(1 for c in colors.values() if c == "black") == 2
    assert colors[d.outer_region] == "white"


def test_checkerboard_unknot(unknot):
    assert sorted(unknot.checkerboard.values()) == ["black", "white"]


def test_region_index_unknot(unknot):
    idx = unknot.region_index
    assert idx[unknot.outer_region] == 0
    inner = next(v for r, v in idx.items() if r != unknot.outer_region)
    assert abs(inner) == 1


def test_region_index_steps_by_one():
    for d in small_diagrams():
        idx = d.region_index
        assert idx[d.outer_region] == 0
        for e in range(2 * d.n):
            l, r = d.side_regions(e)
            assert idx[l] - idx[r] == 1


def test_trefoil_index_window(trefoil):
    vals = trefoil.region_index.values()
    assert max(vals) - min(vals) <= 3


# -- moves ------------------------------------------------------------------------


def test_r1_on_unknot(unknot):
    k = reidemeister_r1(unknot, 0)
    assert k.n == 1 and len(set(k.arcs.values())) == 1
    back = reidemeister_r1_remove(k, 0)
    assert same_up_to_relabeling(back, unknot)


def test_r1_roundtrip(trefoil):
    for direction in ("add_left_twist", "add_right_twist"):
        for arc in range(3):
            bigger = reidemeister_r1(trefoil, arc, direction)
            assert bigger.n == 4
            twists = removable_twists(bigger)
            assert twists
            back = reidemeister_r1_remove(bigger, twists[0])
            assert same_up_to_relabeling(back, trefoil)


def test_r1_remove_rejects_plain_crossing(trefoil):
    with pytest.raises(MoveError):
        reidemeister_r1_remove(trefoil, 0)


def test_r2_roundtrip(trefoil):
    for site in poke_sites(trefoil)[:6]:
        poked = reidemeister_r2(trefoil, *site)
        assert poked.n == 5
        pairs = removable_pokes(poked)
        assert pairs
        back = reidemeister_r2_remove(poked, *pairs[0])
        assert same_up_to_relabeling(back, trefoil)


def test_r2_requires_shared_region(trefoil):
    with pytest.raises(MoveError):
        reidemeister_r2(trefoil, 0, 0, 0)


def test_poked_twisted_unknot_dimension(unknot):
    F5 = FqField(5)
    k = reidemeister_r1(unknot, 0)
    site = poke_sites(k)[0]
    poked = reidemeister_r2(k, *site)
    assert poked.n == 3
    assert code_from_diagram(poked, F5, -1).k == 1


def test_poked_trefoil_dimension(trefoil):
    F3 = FqField(3)
    assert code_from_diagram(trefoil, F3, -1).k == 2
    poked = reidemeister_r2(trefoil, *poke_sites(trefoil)[0])
    assert code_from_diagram(poked, F3, -1).k == 2


def test_poke_across_unbounded_region(trefoil):
    outer = trefoil.outer_region
    sites = [s for s in poke_sites(trefoil) if s[2] == outer]
    assert sites
    poked = reidemeister_r2(trefoil, *sites[0])
    assert poked.n == 5


def test_random_move_orbits_preserve_validity_and_alexander():
    from knotcode.coloring import alexander_polynomial

    rng = random.Random(7)
    for start in small_diagrams()[:4]:
        delta = alexander_polynomial(start)
        d = start
        for _ in range(30):
            d = random_move(d, rng)  # a Diagram, so valid
            assert alexander_polynomial(d) == delta


# -- io -----------------------------------------------------------------------------


def test_json_roundtrip(trefoil, unknot):
    for d in (trefoil, unknot, torus_diagram(3, 4)):
        back = Diagram.loads(d.dumps())
        assert back == d


def test_diagram_is_a_value_of_its_crossings_and_outer_marker(trefoil):
    """Equality and hash read the crossings and the outer marker only, not
    the structure cached on first use; a crossing is an immutable record."""
    d, fresh = (Diagram(trefoil.crossings, trefoil.outer) for _ in range(2))
    assert d.fox_rows and "fox_rows" in vars(d) and "fox_rows" not in vars(fresh)
    assert d == fresh and hash(d) == hash(fresh) and d != trefoil.crossings
    assert d != Diagram(trefoil.crossings, (trefoil.outer[0], "left"))
    c = trefoil.crossings[0]
    assert c._replace(sign=-c.sign) == Crossing(*c[:4], -c.sign) != c
    with pytest.raises(AttributeError):
        c.sign = -c.sign


def test_json_format_shape(trefoil):
    obj = json.loads(trefoil.dumps())
    assert set(obj) == {"crossings", "outer"}
    assert obj["outer"] == {"edge": 1, "side": "right"}
    assert set(obj["crossings"][0]) == {"under_in", "under_out", "over_in", "over_out", "sign"}


def test_canonical_form_detects_difference(trefoil, figure_eight):
    assert not same_up_to_relabeling(trefoil, figure_eight)
    assert same_up_to_relabeling(trefoil, torus_diagram(2, 3))


def test_canonical_form_ignores_crossing_order_and_edge_ids():
    d = torus_diagram(2, 201)
    rng = random.Random(13)
    order = rng.sample(range(d.n), d.n)
    ids = rng.sample(range(2 * d.n), 2 * d.n)
    shuffled = Diagram(
        tuple(
            Crossing(ids[c.under_in], ids[c.under_out], ids[c.over_in], ids[c.over_out], c.sign)
            for c in (d.crossings[i] for i in order)
        ),
        (ids[d.outer[0]], d.outer[1]),
    )
    assert shuffled.crossings != d.crossings
    assert same_up_to_relabeling(shuffled, d)
    assert not same_up_to_relabeling(torus_diagram(2, -201), d)
