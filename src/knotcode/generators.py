"""Diagram constructors: built-in small knots, torus knots as braid
closures, pretzel knots, and connected sums, with split_sum to cut a
visibly composite diagram back into its summands.

The built-in trefoil and figure-eight carry a fixed labeling chosen so
that the coloring matrices come out in the familiar published form under
the canonical arc/crossing ordering; the tests pin those matrices.
"""

from __future__ import annotations

import math

from .diagram import Crossing, Diagram, DiagramError, RIGHT

# T(2,3) twist column with crossings listed bottom-up and edges numbered
# along the knot; this labeling reproduces the classical 3x3 Fox matrix
# [[1-T,T,-1],[-1,1-T,T],[T,-1,1-T]] and its 3x5 Dehn companion exactly.
_TREFOIL = Diagram(
    (
        Crossing(under_in=2, under_out=3, over_in=5, over_out=0, sign=1),
        Crossing(under_in=4, under_out=5, over_in=1, over_out=2, sign=1),
        Crossing(under_in=0, under_out=1, over_in=3, over_out=4, sign=1),
    ),
    outer=(1, RIGHT),
)

# closure of the 3-strand braid (s1 s2^-1)^2 relabeled so that the Fox
# matrix at T=-1 is the published 4x4 figure-eight matrix up to sign
_FIGURE_EIGHT = Diagram(
    (
        Crossing(under_in=0, under_out=1, over_in=3, over_out=4, sign=1),
        Crossing(under_in=2, under_out=3, over_in=5, over_out=6, sign=-1),
        Crossing(under_in=4, under_out=5, over_in=7, over_out=0, sign=1),
        Crossing(under_in=6, under_out=7, over_in=1, over_out=2, sign=-1),
    ),
    outer=(3, RIGHT),
)

_UNKNOT = Diagram((), None)

_BUILTINS = {"trefoil": _TREFOIL, "figure_eight": _FIGURE_EIGHT, "unknot": _UNKNOT}


def builtin(name: str) -> Diagram:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise DiagramError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}") from None


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


# -- braid closures -----------------------------------------------------------


def from_braid(strand_count: int, word) -> Diagram:
    """Close a braid word into a diagram.

    Letters are nonzero ints: +i crosses positions i, i+1 with the strand
    entering top-right passing over (a positive twist), -i mirrors it.
    Strands run downward; the closure joins bottom position j back to top
    position j.  Edges are numbered in the order they close: as the word
    is read, then the closing edges by position.
    """
    word = list(word)
    if strand_count < 1:
        raise DiagramError("braid needs at least one strand")
    if strand_count == 1 or not word:
        if word:
            raise DiagramError("no room for crossings on one strand")
        return _UNKNOT
    # slots[4 * ci + role], roles in Crossing field order: under_in, under_out, over_in, over_out
    slots = [0] * (4 * len(word))
    tail = [None] * strand_count  # the out-slot of the edge now open at each position
    first_head = [None] * strand_count  # the in-slot where each position's closing edge ends
    eid = 0
    for ci, letter in enumerate(word):
        i = abs(letter)
        if not 1 <= i <= strand_count - 1:
            raise DiagramError(f"letter {letter} outside braid positions")
        # in-slots of the strands arriving from positions i and i + 1
        left, right = (4 * ci, 4 * ci + 2) if letter > 0 else (4 * ci + 2, 4 * ci)
        for pos, head in ((i - 1, left), (i, right)):
            if tail[pos] is None:
                first_head[pos] = head
            else:
                slots[tail[pos]] = slots[head] = eid
                eid += 1
        tail[i - 1], tail[i] = right + 1, left + 1
    for pos in range(strand_count):
        if first_head[pos] is None:
            raise DiagramError(f"braid position {pos + 1} unused: closure is a split link")
        slots[tail[pos]] = slots[first_head[pos]] = eid
        eid += 1
    crossings = tuple(
        Crossing(*slots[4 * ci : 4 * ci + 4], 1 if letter > 0 else -1) for ci, letter in enumerate(word)
    )
    # the unbounded region is the one right of the edge entering crossing 0 at top right
    return Diagram(crossings, (slots[2 if word[0] > 0 else 0], RIGHT))


def torus_diagram(a: int, b: int) -> Diagram:
    """Standard diagram of the (a,b) torus knot: the closed braid
    (s1 ... s_{a-1})^b, which for a=2 is the b-crossing twist column.
    Negative parameters mirror the twists."""
    if a == 0 or b == 0:
        raise DiagramError("torus parameters must be nonzero")
    if math.gcd(abs(a), abs(b)) != 1:
        raise DiagramError(f"({a},{b}) is a torus link, not a knot: parameters must be coprime")
    mirror = (a < 0) != (b < 0)
    a, b = abs(a), abs(b)
    if a == 1:
        return _UNKNOT
    letter_sign = -1 if mirror else 1
    word = [letter_sign * i for _ in range(b) for i in range(1, a)]
    return from_braid(a, word)


# -- pretzels -------------------------------------------------------------------


def is_pretzel_knot(twists) -> bool:
    """Parity test: a pretzel link is a knot iff the twist count and every
    twist are odd, or exactly one twist is even."""
    twists = list(twists)
    if not twists or any(p == 0 for p in twists):
        return False
    evens = sum(1 for p in twists if p % 2 == 0)
    if evens == 1:
        return True
    return evens == 0 and len(twists) % 2 == 1


def pretzel_diagram(twists) -> Diagram:
    """Diagram of the pretzel knot P(p_1, ..., p_m): m side-by-side twist
    regions, positive twists having the top-right strand over."""
    twists = [int(p) for p in twists]
    if not is_pretzel_knot(twists):
        raise DiagramError(f"P{tuple(twists)} is a multi-component link, not a knot")
    m = len(twists)

    joint = {}

    def join(p1, p2):
        joint[p1] = p2
        joint[p2] = p1

    for i, p in enumerate(twists):
        for j in range(abs(p) - 1):
            join((i, j, "BL"), (i, j + 1, "TL"))
            join((i, j, "BR"), (i, j + 1, "TR"))
    last = [abs(p) - 1 for p in twists]
    for i in range(m - 1):
        join((i, 0, "TR"), (i + 1, 0, "TL"))
        join((i, last[i], "BR"), (i + 1, last[i + 1], "BL"))
    join((0, 0, "TL"), (m - 1, 0, "TR"))
    join((0, last[0], "BL"), (m - 1, last[m - 1], "BR"))

    through = {"TL": "BR", "BR": "TL", "TR": "BL", "BL": "TR"}
    total = 2 * sum(abs(p) for p in twists)
    entry_of = {}  # (twist, site, corner) -> the step at which the walk enters there
    port = (0, 0, "TL")
    for step in range(total):
        entry_of[port] = step
        i, j, corner = port
        port = joint[(i, j, through[corner])]

    # The slash strand runs SW from TR or NE from BL, the back strand SE from
    # TL or NW from BR.  SE is SW turned a quarter counterclockwise, and NW is
    # NE turned so, so with the slash strand over the sign is +1 exactly when
    # both strands enter at the top or both at the bottom.
    crossings = []
    for i, p in enumerate(twists):
        for j in range(abs(p)):
            slash_top, back_top = (i, j, "TR") in entry_of, (i, j, "TL") in entry_of
            s_in = entry_of[(i, j, "TR" if slash_top else "BL")]
            b_in = entry_of[(i, j, "TL" if back_top else "BR")]
            slash, back = (s_in, (s_in + 1) % total), (b_in, (b_in + 1) % total)
            over, under = (slash, back) if p > 0 else (back, slash)
            sign = (1 if slash_top == back_top else -1) * (1 if p > 0 else -1)
            crossings.append(Crossing(*under, *over, sign))
    # edge 0 enters twist 0 top-left through the wrap arc over the top,
    # so the unbounded region is on its right
    return Diagram(tuple(crossings), outer=(0, RIGHT))


# -- connected sums ---------------------------------------------------------------


def connected_sum(d1: Diagram, arc1: int, d2: Diagram, arc2: int) -> Diagram:
    """Splice d2 into d1 along the chosen arcs, orientation preserved.

    The two cut edges are cross-joined: each arc's first edge now arrives
    where the other's did.  No crossings are added, so the result has
    n1 + n2 crossings, d1's and then d2's with its edge ids shifted past
    d1's, and d1's outer marker.  Summing with the 0-crossing unknot
    returns the other diagram unchanged.
    """
    if d1.n == 0:
        if arc1 != 0:
            raise DiagramError("the unknot has a single arc 0")
        return d2
    if d2.n == 0:
        if arc2 != 0:
            raise DiagramError("the unknot has a single arc 0")
        return d1
    edges1 = d1.arc_edges(arc1)
    edges2 = d2.arc_edges(arc2)
    if not edges1 or not edges2:
        raise DiagramError("no such arc")
    e1, e2 = edges1[0], edges2[0]
    off = 2 * d1.n  # d2's edges follow d1's
    h1, role1 = d1.in_slots[e1]
    h2, role2 = d2.in_slots[e2]
    first = list(d1.crossings)
    first[h1] = first[h1]._replace(**{role1 + "_in": e2 + off})
    second = [
        Crossing(c.under_in + off, c.under_out + off, c.over_in + off, c.over_out + off, c.sign)
        for c in d2.crossings
    ]
    second[h2] = second[h2]._replace(**{role2 + "_in": e1})
    return Diagram((*first, *second), d1.outer)


def split_sum(d: Diagram) -> tuple[list[Diagram], list[tuple[int, int, int, int]], list[tuple[int, int]]]:
    """The visible summands of d, the ties that join them and the place
    (summand, arc) of each arc of d: connected_sum undone, as often as it
    applies, in one walk of d's edge cycle.

    Two distinct edges bordering the same two distinct faces mark a splice:
    a closed curve through those faces that crosses only these two edges
    cuts d into two 1-1 tangles, each with a crossing.  The walk keeps the
    edges not yet cut off, in order; when an edge's face pair is already
    kept, the kept edges after that one, and this edge, are a visibly prime
    summand (a kink is a 1-crossing summand) and leave the walk.  So each
    summand, the rest included, is a subsequence of d's edge cycle, and one
    rule builds it: its crossings are those its edges leave, in d's order;
    its edges are renumbered in increasing order; each in-slot takes the
    summand's edge just before the one leaving there, which undoes
    connected_sum's cross-join; it keeps d's outer marker if it holds that
    edge, and otherwise gets the right side of its last edge.

    A tie (i, arc_i, j, arc_j) joins the arcs through the cut's two edges,
    each in the summand it ends up in: a 1-1 tangle's two ends carry one
    color, so the colorings of d are the summands' colorings that agree at
    every tie, and d's Fox code is the summands' codes tied as sum_code ties
    two.  The m - 1 ties join the m summands in a tree, however deeply the
    sums that built d were nested; each summand is a leaf.  An arc of d is
    colored as the summand arc of any of its edges, and its place is that
    of one of them: an arc through a splice has edges in two summands, at
    the two tied arcs, so two arcs of d may share a place.  A diagram
    without a splice is its own one summand, with no ties and each arc in
    its own place, and nothing is built.
    """
    pair = [frozenset(faces) for faces in d.edge_faces()]
    # at: face pair -> the index in kept of the edge that borders it.  An
    # edge cut off borders a face inside the cut, which no later edge
    # borders, so its pair is never looked up again.
    kept, at, strands, cuts = [], {}, [], []
    for e in d.traversal:
        i = at.get(pair[e])
        if i is None:
            at[pair[e]] = len(kept)
            kept.append(e)
            continue
        strands.append(kept[i + 1 :] + [e])
        del kept[i + 1 :]
        cuts.append((e, kept[i]))
    if not strands:
        return [d], [], [(0, a) for a in range(d.arc_count)]
    strands.append(kept)
    # the crossing each under_out edge leaves; a crossing's out-edges lie in one summand
    leaves = {c.under_out: ci for ci, c in enumerate(d.crossings)}
    summands, place = [], {}  # place: edge of d -> (summand, its arc there)
    edge, side = d.outer
    for strand in strands:
        new = {x: k for k, x in enumerate(sorted(strand))}
        prev = {x: new[y] for x, y in zip(strand, strand[-1:] + strand[:-1])}
        crossings = tuple(
            Crossing(prev[c.under_out], new[c.under_out], prev[c.over_out], new[c.over_out], c.sign)
            for c in (d.crossings[ci] for ci in sorted(leaves[x] for x in strand if x in leaves))
        )
        s = Diagram(crossings, (new[edge], side) if edge in new else (new[strand[-1]], RIGHT))
        place.update((x, (len(summands), s.arcs[k])) for x, k in new.items())
        summands.append(s)
    return summands, [(*place[e], *place[f]) for e, f in cuts], [place[d.arc_edges(a)[0]] for a in range(d.n)]
