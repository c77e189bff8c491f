"""Combinatorial oriented knot diagrams.

A diagram is a list of crossings over edge identifiers.  Edges are the
segments of the curve between consecutive crossing passages, numbered
densely 0..2n-1; each edge id occurs exactly once as an incoming slot
(under_in / over_in) and once as an outgoing slot (under_out / over_out)
over all crossings, and following out-slots to in-slots traces the knot.

sign is +1 when the under direction is the over direction rotated a
quarter turn counterclockwise, -1 for clockwise.  The counterclockwise
cyclic order of the four edge-ends around a crossing is then

    sign +1:  under_in, over_out, under_out, over_in
    sign -1:  under_in, over_in,  under_out, over_out

which fixes the planar embedding; faces come from walking the rotation
system.  Which face is unbounded is extra data: the ``outer`` marker
names it by an (edge, side) token.  Sides are 'left'/'right' relative to
the edge's direction.

A 0-crossing unknot has no edges; its outer marker is None and its two
regions are synthesized.

A Diagram is valid by construction: the constructor raises DiagramError,
listing every violation, unless the slots are a matching of the edges
0..2n-1, the edges form one closed component (so there are n arcs), there
are n + 2 faces (the rotation system is planar), and the outer marker is
an edge side.  Every other function may take validity for granted.

Each piece of structure is derived once per diagram and cached: the edge
cycle and the face of each dart (which the constructor's check computes), the
arcs (runs of the edge cycle), one spanning walk of the region adjacency
from the unbounded region, and the Fox and Dehn coloring relations
(fox_rows, dehn_rows), so only this module assigns roles at a crossing.
Dart 2e runs along edge e with the face on its left, dart 2e + 1 against
it with the face on its right.  Regions are numbered on darts, in one list
that side_regions and dehn_rows read; regions, keyed by (edge, side)
token, is a view of that list built only for callers that ask for it.  A
row adds coefficients only where two roles share a column, as at a kink.
The region index adds +-1 at each step of that walk, and the
checkerboard is the parity of the index, even being white.  It is the
unique proper 2-coloring with the unbounded region white: the two regions
beside an edge differ in index by exactly one, and the adjacency is
connected.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property

from .laurent import ONE, T, as_int

LEFT = "left"
RIGHT = "right"


class DiagramError(ValueError):
    """An invalid diagram, or a diagram operation that does not apply."""


class Crossing(namedtuple("Crossing", "under_in under_out over_in over_out sign")):
    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


class Diagram:
    def __init__(self, crossings: tuple[Crossing, ...], outer: tuple[int, str] | None = None):
        self.crossings = crossings
        self.outer = outer
        problems = self._violations()
        if problems:
            raise DiagramError("invalid diagram: " + "; ".join(problems))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.crossings == other.crossings and self.outer == other.outer

    def __hash__(self):
        return hash((self.crossings, self.outer))

    def __repr__(self):
        return f"Diagram(crossings={self.crossings!r}, outer={self.outer!r})"

    def _violations(self) -> list[str]:
        """Why the crossings and the outer marker are not a knot diagram, in
        stages that each need the ones before to hold; [] when they are."""
        n = self.n
        if n == 0:
            return [] if self.outer is None else ["0-crossing unknot must have outer = None"]
        crossings = self.crossings
        problems = [f"crossing {ci}: sign must be +-1" for ci, c in enumerate(crossings) if c.sign not in (1, -1)]
        ids = range(2 * n)
        ins = [c.under_in for c in crossings] + [c.over_in for c in crossings]
        outs = [c.under_out for c in crossings] + [c.over_out for c in crossings]
        for kind, edges in (("incoming", ins), ("outgoing", outs)):
            if sorted(edges) == list(ids):
                continue  # each of the 2n edges fills one of the 2n slots
            seen = set()
            for i, e in enumerate(edges):
                if e not in ids:
                    problems.append(f"crossing {i % n}: edge {e} outside 0..{2*n-1}")
                elif e in seen:
                    problems.append(f"edge not a matching: {e} used twice as {kind}")
                else:
                    seen.add(e)
        if problems:
            return problems

        if len(self.traversal) != 2 * n:
            return ["edge cycle is not a single closed component"]
        # so there are n arcs: the n under-passages cut the one cycle into n runs
        region_count = max(self._dart_faces) + 1
        if region_count != n + 2:
            problems.append(f"{region_count} regions, expected {n + 2}: rotation system is not planar")
        if self.outer is None:
            problems.append("missing outer region marker")
        else:
            oe, os_ = self.outer
            if os_ not in (LEFT, RIGHT) or not (0 <= oe < 2 * n):
                problems.append(f"outer marker {self.outer} is not an edge side")
        return problems

    # -- raw structure ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    @cached_property
    def in_slots(self) -> dict:
        """edge -> (crossing index, 'under'|'over') where the edge arrives."""
        out = {}
        for ci, c in enumerate(self.crossings):
            out[c.under_in] = (ci, "under")
            out[c.over_in] = (ci, "over")
        return out

    @cached_property
    def traversal(self) -> tuple[int, ...]:
        """Edges in knot order from edge 0.  The walk returns to edge 0
        once the slots are a matching, since following an edge to the
        out-slot beside its in-slot is then a permutation; the diagram is
        one component when the walk has 2n edges."""
        if self.n == 0:
            return ()
        succ = [0] * (2 * self.n)
        for c in self.crossings:
            succ[c.under_in] = c.under_out
            succ[c.over_in] = c.over_out
        seq = [0]
        e = succ[0]
        while e != 0:
            seq.append(e)
            e = succ[e]
        return tuple(seq)

    # -- arcs ------------------------------------------------------------------

    @cached_property
    def _arc_members(self) -> list[list[int]]:
        """Each arc's edges in increasing order, arcs in order of their
        smallest edge.  An arc runs from an under_out edge along the knot
        until the next under-passage, so the arcs are the runs of the
        traversal cut before each under_out edge."""
        if self.n == 0:
            return [[]]
        starts = {c.under_out for c in self.crossings}
        seq = self.traversal
        first = next(k for k, e in enumerate(seq) if e in starts)
        runs = []
        for e in seq[first:] + seq[:first]:
            if e in starts:
                runs.append([])
            runs[-1].append(e)
        return sorted(sorted(run) for run in runs)

    @cached_property
    def arcs(self) -> dict:
        """edge -> ArcId; arcs are numbered by their smallest edge id."""
        arc_of = [0] * (2 * self.n)
        for arc, members in enumerate(self._arc_members):
            for e in members:
                arc_of[e] = arc
        return dict(enumerate(arc_of))

    @property
    def arc_count(self) -> int:
        """n, and 1 for the unknot's single arc without edges."""
        return max(self.n, 1)

    def arc_edges(self, arc: int) -> list[int]:
        """The arc's edges in increasing order; [] for an arc that does not exist."""
        members = self._arc_members
        return list(members[arc]) if 0 <= arc < len(members) else []

    # -- faces / regions --------------------------------------------------------

    @cached_property
    def _dart_faces(self) -> list[int]:
        """The face of each dart, faces numbered 0, 1, ... in order of their
        first dart.  Dart 2e runs along edge e with the face on its left,
        token (e, LEFT); dart 2e + 1 runs back against it with the face on
        its right, token (e, RIGHT).  A face is an orbit of after: turn back
        along the dart's edge, then take the dart before that one
        counterclockwise around the crossing there."""
        n4 = 4 * self.n
        after = [0] * n4
        for c in self.crossings:
            ui, uo, oi, oo = 2 * c.under_in + 1, 2 * c.under_out, 2 * c.over_in + 1, 2 * c.over_out
            w, x, y, z = (ui, oo, uo, oi) if c.sign == 1 else (ui, oi, uo, oo)  # counterclockwise
            after[w ^ 1], after[x ^ 1], after[y ^ 1], after[z ^ 1] = z, w, x, y
        face = [None] * n4
        count = 0
        for start in range(n4):
            if face[start] is None:
                d = start
                while face[d] is None:
                    face[d] = count
                    d = after[d]
                count += 1
        return face

    @cached_property
    def _dart_regions(self) -> list[int]:
        """The RegionId of each dart (2e is (e, LEFT), 2e + 1 is (e, RIGHT)),
        canonical: regions are numbered by first appearance in Dehn role
        order (i, j, k, l) per crossing in input order, then the unbounded
        region is moved to the last id."""
        if self.n == 0:
            return []
        faces = self._dart_faces
        order = dict.fromkeys([faces[d] for c in self.crossings for d in _dehn_role_darts(c)])
        oe, os_ = self.outer
        outer_face = faces[2 * oe + (os_ == RIGHT)]
        del order[outer_face]
        renum = [0] * (self.n + 2)
        for i, fi in enumerate([*order, outer_face]):
            renum[fi] = i
        return [renum[fi] for fi in faces]

    @cached_property
    def regions(self) -> dict:
        """(edge, side) -> RegionId: the dart regions keyed by token."""
        sides = (LEFT, RIGHT)
        return {(d >> 1, sides[d & 1]): r for d, r in enumerate(self._dart_regions)}

    @property
    def region_count(self) -> int:
        return self.n + 2

    @property
    def outer_region(self) -> int:
        return self.n + 1  # the last id; the unknot's second synthesized region

    def side_regions(self, edge: int) -> tuple[int, int]:
        """(left region, right region) of an edge; KeyError for an edge
        outside 0..2n-1."""
        if not 0 <= edge < 2 * self.n:
            raise KeyError(edge)
        regions = self._dart_regions
        return regions[2 * edge], regions[2 * edge + 1]

    def edge_faces(self) -> list[tuple[int, int]]:
        """(left face, right face) of each edge, in one numbering of the
        faces that is not the canonical RegionId of regions: the cheap way
        to ask which edges border the same two faces."""
        faces = self._dart_faces
        return list(zip(faces[0::2], faces[1::2]))

    @cached_property
    def _region_walk(self) -> tuple:
        """A spanning tree of the region adjacency grown from the unbounded
        region, as (edge, reached region, new region, index step) in the
        order regions are reached; the step is +1 when the new region is on
        the edge's left."""
        adjacent = {}
        regions = self._dart_regions
        for e, (l, r) in enumerate(zip(regions[0::2], regions[1::2])):
            adjacent.setdefault(l, []).append((e, r, -1))
            adjacent.setdefault(r, []).append((e, l, +1))
        queue = [self.outer_region]
        reached = set(queue)
        steps = []
        for r in queue:  # the queue grows while it is walked
            for e, s, step in adjacent[r]:
                if s not in reached:
                    reached.add(s)
                    queue.append(s)
                    steps.append((e, r, s, step))
        return tuple(steps)

    @cached_property
    def region_index(self) -> dict:
        """RegionId -> Alexander index: unbounded 0, crossing a strand from
        its left side to its right side drops the index by 1."""
        if self.n == 0:
            return {0: -1, 1: 0}
        index = {self.outer_region: 0}
        for _, r, s, step in self._region_walk:
            index[s] = index[r] + step
        regions = self._dart_regions
        for l, r in zip(regions[0::2], regions[1::2]):
            if index[l] - index[r] != 1:
                raise DiagramError("inconsistent region indices: orientation corrupted")
        return index

    @cached_property
    def checkerboard(self) -> dict:
        """RegionId -> 'white'|'black'; the parity of the region index, so a
        proper 2-coloring with the unbounded region white."""
        return {r: "black" if i % 2 else "white" for r, i in self.region_index.items()}

    # -- coloring relations ----------------------------------------------------------

    @cached_property
    def fox_rows(self) -> tuple:
        """The Fox coloring matrix over Z[T, T^-1], one sparse row
        ((arc, coefficient), ...) per crossing, arcs ascending: the
        overstrand gets 1-T, the understrand leaving on the over direction's
        left gets -1, the one on its right gets T; coincident roles are
        summed and zero sums dropped, so a twisted crossing can have a
        lighter row.  The 0-crossing unknot has no rows and one arc."""
        arcs = self.arcs
        rows = []
        for c in self.crossings:
            left, right = (c.under_out, c.under_in) if c.sign == 1 else (c.under_in, c.under_out)
            roles = [(arcs[c.over_in], _ONE_MINUS_T), (arcs[left], _MINUS_ONE), (arcs[right], T)]
            rows.append(_summed(roles))
        return tuple(rows)

    @cached_property
    def dehn_rows(self) -> tuple:
        """The Dehn coloring matrix over Z[T, T^-1], one sparse row
        ((region, coefficient), ...) per crossing: 1, -T, -1, T on the four
        quadrant regions in role order (i, j, k, l), summed like fox_rows."""
        regions = self._dart_regions
        return tuple(
            _summed([(regions[d], coeff) for d, coeff in zip(_dehn_role_darts(c), _DEHN_COEFFS)])
            for c in self.crossings
        )

    # -- io ------------------------------------------------------------------------

    def to_json(self) -> dict:
        obj = {"crossings": [c.to_json() for c in self.crossings]}
        obj["outer"] = None if self.outer is None else {"edge": self.outer[0], "side": self.outer[1]}
        return obj

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(obj) -> "Diagram":
        if not isinstance(obj, dict):
            raise TypeError(f"top level must be an object, not {type(obj).__name__}")
        fields = Crossing._fields
        crossings = tuple([Crossing._make([as_int(c[k]) for k in fields]) for c in obj.get("crossings", ())])
        outer = obj.get("outer")
        if outer is not None:
            outer = (as_int(outer["edge"]), str(outer["side"]))
        return Diagram(crossings, outer)

    @staticmethod
    def loads(text: str) -> "Diagram":
        return Diagram.from_json(json.loads(text))


_ONE_MINUS_T = ONE - T
_MINUS_ONE = -ONE
_DEHN_COEFFS = (ONE, -T, _MINUS_ONE, T)


def _summed(roles: list) -> tuple:
    """The sparse row of a crossing's (column, coefficient) roles, columns
    ascending.  Only roles that share a column are added, and zero sums
    dropped; every other role keeps its coefficient object."""
    cells = dict(roles)
    if len(cells) < len(roles):
        cells = {}
        for col, coeff in roles:
            cells[col] = cells[col] + coeff if col in cells else coeff
        cells = {col: e for col, e in cells.items() if e.coeffs}
    return tuple(sorted(cells.items()))  # distinct columns: no coefficient is compared


def _dehn_role_darts(c: Crossing) -> tuple:
    """The darts of the four quadrant regions at a crossing in Dehn
    coloring role order (i, j, k, l), dart 2e being (e, LEFT) and 2e + 1
    (e, RIGHT): the relation at the crossing is U_i - t U_j - U_k + t U_l = 0,
    the consistency of the overstrand color U_left - t U_right across the
    crossing."""
    j, k = 2 * c.over_in + 1, 2 * c.over_out  # (over_in, RIGHT), (over_out, LEFT)
    if c.sign == 1:
        return (2 * c.under_out, j, k, 2 * c.under_in + 1)
    return (2 * c.under_in + 1, j, k, 2 * c.under_out)
