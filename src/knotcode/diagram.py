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

ADD_LEFT_TWIST = "add_left_twist"
ADD_RIGHT_TWIST = "add_right_twist"


class DiagramError(ValueError):
    """An invalid diagram (or an operation that needs a valid one)."""


class MoveError(DiagramError):
    """A Reidemeister move that does not apply at the requested site."""


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

    # -- canonical form ----------------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple:
        """Relabeling-invariant key: minimum over start edges of the passage
        encoding, with the outer face pinned by its first traversal token.
        The walk from each start is a rotation of the edge cycle."""
        self._require_valid()
        if self.n == 0:
            return ("unknot",)
        cycle = self._cycle
        size = len(cycle)
        passes = [(ci, role, self.crossings[ci].sign) for ci, role in (self.in_slots[e] for e in cycle)]
        pos = {e: i for i, e in enumerate(cycle)}
        outer_face = self.outer_region
        outer_tokens = [(pos[e], side) for (e, side), r in self.regions.items() if r == outer_face]
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

    def same_up_to_relabeling(self, other: "Diagram") -> bool:
        return self.canonical_key == other.canonical_key


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


# -- Reidemeister moves ------------------------------------------------------------


class _Surgery:
    """Mutable slot/edge picture of one or more diagrams while a move or a
    splice is applied; each diagram's edges are numbered after those of
    the diagrams before it, and the first diagram's outer marker is kept."""

    def __init__(self, *diagrams: Diagram):
        self.crossings = []
        off = 0
        for d in diagrams:
            self.crossings += [
                {
                    "under_in": c.under_in + off,
                    "under_out": c.under_out + off,
                    "over_in": c.over_in + off,
                    "over_out": c.over_out + off,
                    "sign": c.sign,
                }
                for c in d.crossings
            ]
            off += 2 * d.n
        self.next_id = off
        self.outer = diagrams[0].outer

    def fresh(self) -> int:
        e = self.next_id
        self.next_id += 1
        return e

    def emit(self) -> Diagram:
        ids = sorted(
            {c[s] for c in self.crossings for s in ("under_in", "under_out", "over_in", "over_out")}
        )
        renum = {old: new for new, old in enumerate(ids)}
        crossings = tuple(
            Crossing(
                renum[c["under_in"]],
                renum[c["under_out"]],
                renum[c["over_in"]],
                renum[c["over_out"]],
                c["sign"],
            )
            for c in self.crossings
        )
        outer = None if self.outer is None else (renum[self.outer[0]], self.outer[1])
        return Diagram(crossings, outer)


def reidemeister_r1(d: Diagram, arc: int, direction: str = ADD_LEFT_TWIST) -> Diagram:
    """Add a twist on the given arc (left twist gives a +1 crossing)."""
    if direction not in (ADD_LEFT_TWIST, ADD_RIGHT_TWIST):
        raise MoveError(f"unknown twist direction {direction!r}")
    sign = 1 if direction == ADD_LEFT_TWIST else -1
    d._require_valid()
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
    d._require_valid()
    if not 0 <= crossing < d.n:
        raise MoveError(f"no crossing {crossing}")
    if not _is_twist(d.crossings[crossing]):
        raise MoveError(f"crossing {crossing} is not a removable twist")
    return _delete_crossings(d, {crossing})


def reidemeister_r2(d: Diagram, arc_a: int, arc_b: int, region: int) -> Diagram:
    """Poke arc_a over arc_b across the named region (two new crossings)."""
    d._require_valid()
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
    d._require_valid()
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


# -- move-site discovery (handy for randomized invariance tests) -------------------


def removable_twists(d: Diagram) -> list[int]:
    d._require_valid()
    return [ci for ci, c in enumerate(d.crossings) if _is_twist(c)]


def removable_pokes(d: Diagram) -> list[tuple[int, int]]:
    d._require_valid()
    out = []
    for ci, x in enumerate(d.crossings):
        cj = d.in_slots[x.over_out][0]  # where x's overstrand edge arrives
        if cj != ci and _poke_defect(d, x, d.crossings[cj]) is None:
            out.append((ci, cj))
    return out


def poke_sites(d: Diagram) -> list[tuple[int, int, int]]:
    """(arc_a, arc_b, region) triples where a poke applies; a strand may
    be poked over itself when two of its edges bound the region."""
    d._require_valid()
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
