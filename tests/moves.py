"""Reidemeister moves, the sites where they apply, and a canonical form up
to relabeling: the machinery of the randomized invariance oracle.  A
random orbit of moves must leave every knot invariant unchanged, and a
move undone must give back the diagram it started from, up to the
numbering of crossings and edges.

_Surgery is the mutable slot picture the moves edit.  Given several
diagrams it also splices them side by side, which makes surgery_sum the
reference for generators.connected_sum.
"""

from __future__ import annotations

import random

from knotcode.diagram import LEFT, Crossing, Diagram, DiagramError

ADD_LEFT_TWIST = "add_left_twist"
ADD_RIGHT_TWIST = "add_right_twist"


class MoveError(DiagramError):
    """A Reidemeister move that does not apply at the requested site."""


class _Surgery:
    """Mutable slot/edge picture of one or more diagrams while a move or a
    splice is applied; each diagram's edges are numbered after those of
    the diagrams before it, and the first diagram's outer marker is kept."""

    def __init__(self, *diagrams: Diagram):
        self.crossings = []
        off = 0
        for d in diagrams:
            self.crossings += [{k: v if k == "sign" else v + off for k, v in c._asdict().items()} for c in d.crossings]
            off += 2 * d.n
        self.next_id = off
        self.outer = diagrams[0].outer

    def fresh(self) -> int:
        e = self.next_id
        self.next_id += 1
        return e

    def emit(self) -> Diagram:
        """The diagram, its edge ids renumbered densely in their order."""
        ids = sorted({v for c in self.crossings for k, v in c.items() if k != "sign"})
        renum = {old: new for new, old in enumerate(ids)}
        crossings = tuple(Crossing(**{k: v if k == "sign" else renum[v] for k, v in c.items()}) for c in self.crossings)
        outer = None if self.outer is None else (renum[self.outer[0]], self.outer[1])
        return Diagram(crossings, outer)


def surgery_sum(d1: Diagram, arc1: int, d2: Diagram, arc2: int) -> Diagram:
    """The connected sum through _Surgery: cross-join the in-slots of the
    first edges of the two arcs; the unknot is the identity."""
    if d1.n == 0:
        return d2
    if d2.n == 0:
        return d1
    e1, e2 = d1.arc_edges(arc1)[0], d2.arc_edges(arc2)[0]
    s = _Surgery(d1, d2)
    h1_ci, h1_role = d1.in_slots[e1]
    h2_ci, h2_role = d2.in_slots[e2]
    s.crossings[h2_ci + d1.n][h2_role + "_in"] = e1
    s.crossings[h1_ci][h1_role + "_in"] = e2 + 2 * d1.n
    return s.emit()


# -- the moves ----------------------------------------------------------------------


def reidemeister_r1(d: Diagram, arc: int, direction: str = ADD_LEFT_TWIST) -> Diagram:
    """Add a twist on the given arc (left twist gives a +1 crossing)."""
    if direction not in (ADD_LEFT_TWIST, ADD_RIGHT_TWIST):
        raise MoveError(f"unknown twist direction {direction!r}")
    sign = 1 if direction == ADD_LEFT_TWIST else -1
    if d.n == 0:
        if arc != 0:
            raise MoveError("the unknot has a single arc 0")
        kink = Crossing(under_in=0, under_out=1, over_in=1, over_out=0, sign=sign)
        return Diagram((kink,), outer=(0, LEFT))
    edges = d.arc_edges(arc)
    if not edges:
        raise MoveError(f"no such arc {arc}")
    e = edges[0]
    s = _Surgery(d)
    ci, role = d.in_slots[e]
    loop = s.fresh()
    out = s.fresh()
    x = {"under_in": e, "under_out": loop, "over_in": loop, "over_out": out, "sign": sign}
    s.crossings.append(x)
    s.crossings[ci][role + "_in"] = out
    # outer marker on e stays on the tail-side piece, which keeps the id
    return s.emit()


def reidemeister_r1_remove(d: Diagram, crossing: int) -> Diagram:
    """Undo a twist: the crossing must have an arc that is both its
    overstrand and an understrand (a loop edge feeding the same crossing)."""
    if not 0 <= crossing < d.n:
        raise MoveError(f"no crossing {crossing}")
    if not _is_twist(d.crossings[crossing]):
        raise MoveError(f"crossing {crossing} is not a removable twist")
    return _delete_crossings(d, {crossing})


def reidemeister_r2(d: Diagram, arc_a: int, arc_b: int, region: int) -> Diagram:
    """Poke arc_a over arc_b across the named region (two new crossings)."""
    if d.n == 0:
        raise MoveError("poke needs two strand edges on a region boundary")
    ea = _arc_edge_on_region(d, arc_a, region)
    eb = _arc_edge_on_region(d, arc_b, region, exclude=ea)
    if ea is None or eb is None:
        raise MoveError(f"arcs {arc_a},{arc_b} do not both bound region {region}")
    fwd_a = d.regions[(ea, LEFT)] == region
    fwd_b = d.regions[(eb, LEFT)] == region
    sign1 = 1 if fwd_b else -1

    s = _Surgery(d)
    a2, a3 = s.fresh(), s.fresh()
    b2, b3 = s.fresh(), s.fresh()
    x1 = len(s.crossings)
    x2 = x1 + 1
    ca, role_a = d.in_slots[ea]
    cb, role_b = d.in_slots[eb]
    s.crossings.append({"over_in": ea, "over_out": a2, "under_in": -1, "under_out": -1, "sign": sign1})
    s.crossings.append({"over_in": a2, "over_out": a3, "under_in": -1, "under_out": -1, "sign": -sign1})
    s.crossings[ca][role_a + "_in"] = a3
    first, second = (x1, x2) if fwd_a != fwd_b else (x2, x1)
    s.crossings[first]["under_in"] = eb
    s.crossings[first]["under_out"] = b2
    s.crossings[second]["under_in"] = b2
    s.crossings[second]["under_out"] = b3
    s.crossings[cb][role_b + "_in"] = b3
    return s.emit()


def reidemeister_r2_remove(d: Diagram, c1: int, c2: int) -> Diagram:
    """Undo a poke: c1, c2 must bound a bigon with one strand over at both
    crossings and the other under at both."""
    if c1 == c2 or not all(0 <= c < d.n for c in (c1, c2)):
        raise MoveError("need two distinct crossings")
    x, y = d.crossings[c1], d.crossings[c2]
    if x.over_out != y.over_in:
        x, y = y, x  # the overstrand may run from c2 into c1
    defect = _poke_defect(d, x, y)
    if defect:
        raise MoveError(defect)
    return _delete_crossings(d, {c1, c2})


def _is_twist(c: Crossing) -> bool:
    """Whether a loop edge leaves the crossing and feeds it again."""
    return c.under_out == c.over_in or c.over_out == c.under_in


def _poke_defect(d: Diagram, x: Crossing, y: Crossing) -> str | None:
    """Why x, then y along x's overstrand, do not bound a removable poke:
    one strand over at both, the other under at both, and a bigon
    between; None when they do."""
    if x.over_out != y.over_in:
        return "no overstrand connecting the two crossings"
    if x.under_out == y.under_in:
        b2 = x.under_out
    elif y.under_out == x.under_in:
        b2 = y.under_out
    else:
        return "no understrand connecting the two crossings"
    if not set(d.side_regions(x.over_out)) & set(d.side_regions(b2)):
        return "the two crossings do not bound a bigon"
    return None


def _delete_crossings(d: Diagram, dead: set) -> Diagram:
    """Remove whole crossings and splice the freed edge runs back together.

    Walking the knot, every maximal run of edges whose intermediate
    passages all die merges into one edge keeping the run's first id, so
    the outer token can always be re-anchored on a surviving strand side.
    """
    survivors = [ci for ci in range(d.n) if ci not in dead]
    if not survivors:
        return Diagram((), None)
    seq = d.traversal
    passages = [d.in_slots[e] for e in seq]
    live = [i for i, (ci, _) in enumerate(passages) if ci not in dead]
    m = len(seq)
    s = _Surgery(d)
    splice = {}
    for idx, i in enumerate(live):
        prev = live[idx - 1]
        kept = seq[(prev + 1) % m]
        j = (prev + 1) % m
        while True:
            splice[seq[j]] = kept
            if j == i:
                break
            j = (j + 1) % m
        ci, role = passages[i]
        s.crossings[ci][role + "_in"] = kept
        ci, role = passages[prev]
        s.crossings[ci][role + "_out"] = kept
    s.crossings = [s.crossings[ci] for ci in survivors]
    # the outer token follows its merged edge: the new face flanking the
    # spliced edge on that side absorbs the old one
    s.outer = (splice[d.outer[0]], d.outer[1])
    return s.emit()


def _arc_edge_on_region(d: Diagram, arc: int, region: int, exclude: int | None = None):
    for e in d.arc_edges(arc):
        if e != exclude and region in d.side_regions(e):
            return e
    return None


# -- move sites and random orbits ----------------------------------------------------


def removable_twists(d: Diagram) -> list[int]:
    return [ci for ci, c in enumerate(d.crossings) if _is_twist(c)]


def removable_pokes(d: Diagram) -> list[tuple[int, int]]:
    out = []
    for ci, x in enumerate(d.crossings):
        cj = d.in_slots[x.over_out][0]  # where x's overstrand edge arrives
        if cj != ci and _poke_defect(d, x, d.crossings[cj]) is None:
            out.append((ci, cj))
    return out


def poke_sites(d: Diagram) -> list[tuple[int, int, int]]:
    """(arc_a, arc_b, region) triples where a poke applies; a strand may
    be poked over itself when two of its edges bound the region."""
    by_region = {}
    for (e, side), r in d.regions.items():
        by_region.setdefault(r, {}).setdefault(d.arcs[e], set()).add(e)
    out = []
    for r, arcs_here in sorted(by_region.items()):
        arcs_sorted = sorted(arcs_here)
        for i, a in enumerate(arcs_sorted):
            if len(arcs_here[a]) >= 2:
                out.append((a, a, r))
            for b in arcs_sorted[i + 1 :]:
                out.append((a, b, r))
                out.append((b, a, r))
    return out


def random_move(d: Diagram, rng: random.Random, max_crossings: int = 12) -> Diagram:
    """Apply one random valid Reidemeister move, preferring removals once
    the diagram gets big; returns the new diagram."""
    options = []
    twists = removable_twists(d)
    pokes = removable_pokes(d)
    if d.n + 1 <= max_crossings:
        options.append("r1")
    if d.n + 2 <= max_crossings and d.n >= 1:
        options.append("r2")
    if twists:
        options.append("r1_remove")
    if pokes:
        options.append("r2_remove")
    kind = rng.choice(options)
    if kind == "r1":
        arc = rng.randrange(max(d.arc_count, 1))
        return reidemeister_r1(d, arc, rng.choice([ADD_LEFT_TWIST, ADD_RIGHT_TWIST]))
    if kind == "r2":
        return reidemeister_r2(d, *rng.choice(poke_sites(d)))
    if kind == "r1_remove":
        return reidemeister_r1_remove(d, rng.choice(twists))
    return reidemeister_r2_remove(d, *rng.choice(pokes))


# -- canonical form ----------------------------------------------------------------


def canonical_key(d: Diagram) -> tuple:
    """Relabeling-invariant key: minimum over start edges of the passage
    encoding, with the outer face pinned by its first traversal token.
    The walk from each start is a rotation of the edge cycle."""
    cycle = d.traversal
    if d.n == 0:
        return ("unknot",)
    size = len(cycle)
    passes = [(ci, role, d.crossings[ci].sign) for ci, role in (d.in_slots[e] for e in cycle)]
    pos = {e: i for i, e in enumerate(cycle)}
    outer_face = d.outer_region
    outer_tokens = [(pos[e], side) for (e, side), r in d.regions.items() if r == outer_face]
    best = None
    for start in range(size):
        number = {}
        passages = tuple(
            (number.setdefault(ci, len(number)), role, sign) for ci, role, sign in passes[start:] + passes[:start]
        )
        key = (passages, min(((p - start) % size, side) for p, side in outer_tokens))
        if best is None or key < best:
            best = key
    return best


def same_up_to_relabeling(a: Diagram, b: Diagram) -> bool:
    return canonical_key(a) == canonical_key(b)
