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

Each piece of structure is derived once per diagram and cached: the
validation report, the edge cycle, the arc union-find, the face orbits
and one spanning walk of the region adjacency from the unbounded region.
The region index adds +-1 at each step of that walk, and the
checkerboard is the parity of the index, even being white.  It is the
unique proper 2-coloring with the unbounded region white: the two regions
beside an edge differ in index by exactly one, and the adjacency is
connected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

LEFT = "left"
RIGHT = "right"


class DiagramError(ValueError):
    """An invalid diagram (or an operation that needs a valid one)."""


@dataclass(frozen=True)
class Crossing:
    under_in: int
    under_out: int
    over_in: int
    over_out: int
    sign: int

    def rotation(self) -> tuple:
        """Emanating darts in counterclockwise order; a dart is (edge, dir)
        with dir +1 pointing away along the edge, -1 pointing back."""
        ui = (self.under_in, -1)
        uo = (self.under_out, +1)
        oi = (self.over_in, -1)
        oo = (self.over_out, +1)
        if self.sign == 1:
            return (ui, oo, uo, oi)
        return (ui, oi, uo, oo)

    def to_json(self) -> dict:
        return {
            "under_in": self.under_in,
            "under_out": self.under_out,
            "over_in": self.over_in,
            "over_out": self.over_out,
            "sign": self.sign,
        }


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    n: int
    arc_count: int | None
    region_count: int | None


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...]
    outer: tuple[int, str] | None = None

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

    def next_edge(self, edge: int) -> int:
        ci, role = self.in_slots[edge]
        c = self.crossings[ci]
        return c.under_out if role == "under" else c.over_out

    @cached_property
    def _cycle(self) -> tuple[int, ...]:
        """Edges in knot order from edge 0.  The walk returns to edge 0
        once the slots are a matching, since next_edge is then a
        permutation; the diagram is one component when it has 2n edges."""
        if self.n == 0:
            return ()
        seq = [0]
        e = self.next_edge(0)
        while e != 0:
            seq.append(e)
            e = self.next_edge(e)
        return tuple(seq)

    @property
    def traversal(self) -> tuple[int, ...]:
        """Edges in knot order starting from edge 0 (valid diagrams only)."""
        self._require_valid()
        return self._cycle

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The validation report, computed on first use."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        problems = []
        n = self.n
        if n == 0:
            if self.outer is not None:
                problems.append("0-crossing unknot must have outer = None")
            return ValidationReport(not problems, tuple(problems), 0, 1, 2)

        ids = range(2 * n)
        ins, outs = {}, {}
        for ci, c in enumerate(self.crossings):
            if c.sign not in (1, -1):
                problems.append(f"crossing {ci}: sign must be +-1")
            for e, table, kind in (
                (c.under_in, ins, "incoming"),
                (c.over_in, ins, "incoming"),
                (c.under_out, outs, "outgoing"),
                (c.over_out, outs, "outgoing"),
            ):
                if not (0 <= e < 2 * n):
                    problems.append(f"crossing {ci}: edge {e} outside 0..{2*n-1}")
                elif e in table:
                    problems.append(f"edge not a matching: {e} used twice as {kind}")
                else:
                    table[e] = ci
        if not problems:
            missing = [e for e in ids if e not in ins or e not in outs]
            if missing:
                problems.append(f"edge not a matching: {missing} lack a slot")
        if problems:
            return ValidationReport(False, tuple(problems), n, None, None)

        if len(self._cycle) != 2 * n:
            problems.append("edge cycle is not a single closed component")
            return ValidationReport(False, tuple(problems), n, None, None)

        arc_count = len(set(self._arc_of_edge.values()))
        if arc_count != n:
            problems.append(f"{arc_count} arcs, expected {n}")

        region_count = len(self._face_orbits)
        if region_count != n + 2:
            problems.append(
                f"{region_count} regions, expected {n + 2}: rotation system is not planar"
            )

        if self.outer is None:
            problems.append("missing outer region marker")
        else:
            oe, os_ = self.outer
            if os_ not in (LEFT, RIGHT) or not (0 <= oe < 2 * n):
                problems.append(f"outer marker {self.outer} is not an edge side")

        return ValidationReport(not problems, tuple(problems), n, arc_count, region_count)

    def _require_valid(self) -> ValidationReport:
        report = self._report
        if not report.ok:
            raise DiagramError("invalid diagram: " + "; ".join(report.violations))
        return report

    # -- arcs ------------------------------------------------------------------

    @cached_property
    def _arc_of_edge(self) -> dict:
        """Union-find over edges merging over_in ~ over_out at each crossing."""
        parent = list(range(2 * self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in self.crossings:
            a, b = find(c.over_in), find(c.over_out)
            if a != b:
                parent[max(a, b)] = min(a, b)
        return {e: find(e) for e in range(2 * self.n)}

    @cached_property
    def arcs(self) -> dict:
        """edge -> ArcId; arcs are numbered by their smallest edge id."""
        self._require_valid()
        # each root is its arc's smallest edge, so roots first appear in increasing order
        index = {}
        return {e: index.setdefault(r, len(index)) for e, r in self._arc_of_edge.items()}

    @property
    def arc_count(self) -> int:
        return self._require_valid().arc_count

    @cached_property
    def _arc_members(self) -> list[list[int]]:
        members = [[] for _ in range(self.arc_count)]
        for e, a in self.arcs.items():
            members[a].append(e)
        return members

    def arc_edges(self, arc: int) -> list[int]:
        """The arc's edges in increasing order; [] for an arc that does not exist."""
        members = self._arc_members
        return list(members[arc]) if 0 <= arc < len(members) else []

    # -- faces / regions --------------------------------------------------------

    @cached_property
    def _face_orbits(self) -> list[list]:
        """Faces as orbits of momentum darts; dart (e, +1) walks along the
        edge with the face on its left, (e, -1) walks against it."""
        sigma_inv = {}
        for c in self.crossings:
            rot = c.rotation()
            for i, d in enumerate(rot):
                sigma_inv[d] = rot[(i - 1) % 4]
        orbits = []
        seen = set()
        for e in range(2 * self.n):
            for direction in (+1, -1):
                d = (e, direction)
                if d in seen:
                    continue
                orbit = []
                while d not in seen:
                    seen.add(d)
                    orbit.append(d)
                    d = sigma_inv[(d[0], -d[1])]
                orbits.append(orbit)
        return orbits

    @staticmethod
    def _token(dart) -> tuple:
        return (dart[0], LEFT if dart[1] == 1 else RIGHT)

    @cached_property
    def regions(self) -> dict:
        """(edge, side) -> RegionId, canonical: regions are numbered by first
        appearance in Dehn role order (i, j, k, l) per crossing in input
        order, then the unbounded region is moved to the last id."""
        self._require_valid()
        if self.n == 0:
            return {}
        face_of = {}
        for fi, orbit in enumerate(self._face_orbits):
            for d in orbit:
                face_of[self._token(d)] = fi
        order = dict.fromkeys(face_of[tok] for c in self.crossings for tok in dehn_role_tokens(c))
        outer_face = face_of[self.outer]
        del order[outer_face]
        renum = {fi: i for i, fi in enumerate([*order, outer_face])}
        return {tok: renum[fi] for tok, fi in face_of.items()}

    @property
    def region_count(self) -> int:
        return self._require_valid().region_count

    @property
    def outer_region(self) -> int:
        if self.n == 0:
            return 1
        return self.regions[self.outer]

    def side_regions(self, edge: int) -> tuple[int, int]:
        """(left region, right region) of an edge."""
        return self.regions[(edge, LEFT)], self.regions[(edge, RIGHT)]

    @cached_property
    def _region_walk(self) -> tuple:
        """A spanning tree of the region adjacency grown from the unbounded
        region, as (edge, reached region, new region, index step) in the
        order regions are reached; the step is +1 when the new region is on
        the edge's left."""
        self._require_valid()
        adjacent = {}
        for e in range(2 * self.n):
            l, r = self.side_regions(e)
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
        self._require_valid()
        if self.n == 0:
            return {0: -1, 1: 0}
        index = {self.outer_region: 0}
        for _, r, s, step in self._region_walk:
            index[s] = index[r] + step
        for e in range(2 * self.n):
            l, r = self.side_regions(e)
            if index[l] - index[r] != 1:
                raise DiagramError("inconsistent region indices: orientation corrupted")
        return index

    @cached_property
    def checkerboard(self) -> dict:
        """RegionId -> 'white'|'black'; the parity of the region index, so a
        proper 2-coloring with the unbounded region white."""
        return {r: "black" if i % 2 else "white" for r, i in self.region_index.items()}

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
        crossings = tuple(
            Crossing(
                int(c["under_in"]),
                int(c["under_out"]),
                int(c["over_in"]),
                int(c["over_out"]),
                int(c["sign"]),
            )
            for c in obj.get("crossings", ())
        )
        outer = obj.get("outer")
        if outer is not None:
            outer = (int(outer["edge"]), str(outer["side"]))
        return Diagram(crossings, outer)

    @staticmethod
    def loads(text: str) -> "Diagram":
        return Diagram.from_json(json.loads(text))


def dehn_role_tokens(c: Crossing) -> tuple:
    """The (edge, side) tokens of the four quadrant regions at a crossing in
    Dehn coloring role order (i, j, k, l): the relation at the crossing is
    U_i - t U_j - U_k + t U_l = 0, the consistency of the overstrand color
    U_left - t U_right across the crossing."""
    j = (c.over_in, RIGHT)
    k = (c.over_out, LEFT)
    if c.sign == 1:
        i = (c.under_out, LEFT)
        l = (c.under_in, RIGHT)
    else:
        i = (c.under_in, RIGHT)
        l = (c.under_out, LEFT)
    return (i, j, k, l)
