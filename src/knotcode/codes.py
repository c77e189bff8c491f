"""Linear codes over F_q built from coloring matrices.

A code is held as its parity-check matrix exactly as evaluated from the
diagram (no rank reduction), in sparse ((column, value), ...) rows.  Its
dimension k is n minus the rank that one cached forward elimination of
those rows gives; the generator, a kernel basis of dense codewords, is
built from that same elimination only when a codeword walk needs it.
Weight enumerators come from exhaustive enumeration under a budget (exact
below it, unknown above); minimum distances are read off them.  The one
codeword walk (_span) visits a coset of a span in p-ary Gray-code order,
not lexicographic order: each step adds one packed basis row to a word
held in a single Python int.  Weight is unchanged by a unit scalar, so
weights walk one word per projective point (_points), (q^k - 1)/(q - 1)
words, and count each q - 1 times; the budget is still compared with
q^k.  One function tallies that walk (_joint_weights): a word's nonzero
flags give both its weight and, at given tie positions, its tie pattern.
Every code has one tie tree (LinearCode._parts): leaf codes, the ties
between them and the leaf position of each coordinate.  An untied code is
its own one leaf, a connected sum's Fox code has its summands' codes as
leaves, and a sum_code joins its two codes' trees by one tie, so a sum of
sums reaches the summands of every composite code in it, at any depth.
Past one block of the walk or the budget, a code's weights are folded from
one walk per distinct leaf code, each within the budget.  A word is a
sequence of encoded field ints (see fields); a t is read by
FqField.element, so an int t is n * 1.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict, namedtuple
from functools import cache, cached_property, partial
from itertools import chain

from .fields import FqField
from .diagram import Diagram
from .coloring import evaluate
from .generators import split_sum
from .exactlin import dot, echelon, echelon_kernel

INF = math.inf
DEFAULT_BUDGET = 10_000_000  # codewords enumerated when no budget is given


class BudgetExceeded(RuntimeError):
    """Enumeration would need more codewords, q^k, than the budget allows."""

    def __init__(self, q: int, k: int, budget: int):
        super().__init__(f"{q}^{k} codewords exceed budget {budget}")
        self.q, self.k, self.budget = q, k, budget


class LinearCode:
    # (the code) -> its tie tree: leaf codes, ties (i, pos_i, j, pos_j) between leaves, and the
    # (leaf, position) of each coordinate.  An untied code is its own one leaf; code_from_diagram
    # (Fox) and sum_code set the trees of theirs.
    _parts = staticmethod(lambda c: ([c], [], [(0, j) for j in range(c.n)]))

    def __init__(self, field: FqField, n: int, parity: tuple):
        self.field = field
        self.n = n
        self.parity = parity  # sparse rows of ((column, encoded field int), ...), kept as constructed
        cells = list(chain.from_iterable(parity))
        if not cells:
            return
        cols, vals = zip(*cells)
        if min(cols) < 0 or max(cols) >= n:
            raise ValueError(f"a parity column lies outside range({n})")
        if min(vals) < 1 or max(vals) >= field.q:
            raise ValueError(f"a parity value is not a nonzero element of {field}")
        if len(cells) != sum(map(len, map(dict, parity))):
            raise ValueError("a parity row repeats a column")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.n, self.parity) == (other.field, other.n, other.parity)

    def __hash__(self):
        return hash((self.field, self.n, self.parity))

    def __repr__(self):
        return f"LinearCode(field={self.field!r}, n={self.n!r}, parity={self.parity!r})"

    @cached_property
    def _echelon(self) -> dict:
        """The one forward elimination of the parity rows (exactlin.echelon);
        generator back-reduces its rows in place, which keeps its pivots."""
        return echelon(self.field, self.parity)

    @cached_property
    def generator(self) -> tuple:
        """Canonical kernel basis of the parity matrix (dense rows that span
        the code), built from the forward elimination k reads."""
        return tuple(tuple(r) for r in echelon_kernel(self.field, self._echelon, self.n))

    @property
    def k(self) -> int:
        """n minus the rank of the parity rows: one forward elimination, no
        kernel basis."""
        return self.n - len(self._echelon)

    @property
    def q(self) -> int:
        return self.field.q

    def codeword_count(self) -> int:
        return self.q**self.k

    def codewords(self, budget: int | None = None):
        """All codewords as tuples of encoded field ints, each once, in the
        walk's p-ary Gray-code order (not lexicographic); raises
        BudgetExceeded above the budget."""
        self._afford(budget)
        return map(_Packing(self.field, self.n).unpack, _span(self.field, self.generator, self.n))

    def _afford(self, budget: int | None) -> None:
        """The one budget check: raise BudgetExceeded if q^k exceeds it."""
        limit = DEFAULT_BUDGET if budget is None else budget
        if self.codeword_count() > limit:
            raise BudgetExceeded(self.q, self.k, limit)

    def contains(self, vec) -> bool:
        """Whether vec, a word of encoded field ints, is a codeword."""
        vec = self.field.word(vec)
        if len(vec) != self.n:
            raise ValueError(f"expected a word of length {self.n}, got {len(vec)}")
        return not any(dot(self.field, row, vec) for row in self.parity)

    def __str__(self):
        return f"[{self.n},{self.k}]_{self.q} code"


_BLOCK = 4096  # the walk precomputes its innermost steps up to this many


class _Packing:
    """Words of F_q^n, q = p^a, packed into one Python int.

    Base-p digit l of coordinate j sits in slot l*n + j (one plane of n
    slots per digit), b = bitlen(2p - 2) + 1 bits wide: the sum of two
    reduced slots stays below the slot's top bit, so packed words add
    without carries and the top bits serve as per-slot flags.
    """

    def __init__(self, field: FqField, n: int):
        p, a = field.p, field.a
        b = (2 * p - 2).bit_length() + 1
        self.p, self.a, self.n, self.b = p, a, n, b
        self.plane = n * b
        ones = ((1 << a * self.plane) - 1) // ((1 << b) - 1)  # bit 0 of every slot
        self.flag = b - 1
        self.top = ones << self.flag
        self.fix = ones * ((1 << self.flag) - p)  # slot + fix flags slot >= p
        self.nz = ones * ((1 << self.flag) - 1)  # slot + nz flags slot >= 1
        self.top0 = self.top & ((1 << self.plane) - 1)  # the flags of plane 0

    def pack(self, word) -> int:
        v = 0
        for j, x in enumerate(word):
            for l in range(self.a):
                x, d = divmod(x, self.p)
                v |= d << self.b * (l * self.n + j)
        return v

    @cached_property
    def runs(self) -> list:
        """(plane shifts, top first; p^len) of each run of digit planes that
        unpack adds in place, top run first: up to span planes, the most
        that keep a slot's partial value below p^span <= 2^b."""
        p, a, span = self.p, self.a, 1
        while span < a and p ** (span + 1) <= 1 << self.b:
            span += 1
        return [
            ([l * self.plane for l in reversed(range(max(hi - span, 0), hi))], p ** min(span, hi))
            for hi in range(a, 0, -span)
        ]

    def unpack(self, v: int) -> tuple:
        """The word of v, Horner-style over its digit planes: each run of
        planes is added in place, read with one list comprehension over the
        slots, and combined with the word of the runs above it."""
        p, slots, mask, low = self.p, range(0, self.plane, self.b), (1 << self.b) - 1, (1 << self.plane) - 1
        word = None
        for shifts, scale in self.runs:
            h = 0
            for shift in shifts:
                h = h * p + ((v >> shift) & low)
            digits = [(h >> s) & mask for s in slots]
            word = digits if word is None else [x * scale + d for x, d in zip(word, digits)]
        return tuple(word)


def _span(field: FqField, basis, n: int, start: int = 0):
    """Every word of start + the F_q-span of basis, packed (see _Packing),
    once each; start is a packed word.

    The k*a rows x^l * g_i (l < a) form an F_p-basis of the code; the walk
    runs the modular p-ary Gray code over their coefficients, so each step
    adds one packed row (step m adds the row indexed by the p-adic
    valuation of m) and then reduces every slot from [0, 2p - 2] back into
    [0, p) in a few whole-int operations.  start comes first.
    """
    pk = _Packing(field, n)
    p, fix, top, flag = pk.p, pk.fix, pk.top, pk.flag
    rows = [pk.pack([field.mul(p**l, x) for x in g]) for g in basis for l in range(pk.a)]
    low = 0  # the lowest `low` digits' steps repeat as one block
    while low < len(rows) and p ** (low + 1) <= _BLOCK:
        low += 1
    block = []
    for r in rows[:low]:
        block = (block + [r]) * (p - 1) + block
    v = start
    yield v
    head = []
    for m in range(1, p ** (len(rows) - low) + 1):
        for r in chain(head, block):
            s = v + r
            v = s - (((s + fix) & top) >> flag) * p
            yield v
        i, j = low, m
        while j % p == 0:
            j //= p
            i += 1
        head = rows[i : i + 1]  # empty after the last block


def _points(field: FqField, basis, n: int) -> list:
    """One packed word per projective point of the span of basis: for each
    row i the walk g_i + span(g_{i+1}, ...), the words whose first nonzero
    coefficient is 1.  Each nonzero word is a unit times one of them."""
    pack = _Packing(field, n).pack
    return [_span(field, basis[i + 1 :], n, pack(g)) for i, g in enumerate(basis)]


def code_from_diagram(d: Diagram, field: FqField, t, kind: str = "fox") -> LinearCode:
    """The knot code: kernel of the evaluated coloring matrix.

    Fox codes live on arcs (length n), Dehn codes on regions (length
    n + 2).  t must be invertible; t = 1 is allowed but gives the
    repetition code, which is flagged with a warning.  The Dehn kernel is
    the unrestricted region-coloring module.
    """
    value = field.at(t)
    if field.element(t) == 1:
        warnings.warn("t = 1: every coloring is constant, the code is the repetition code")
    if kind == "dehn":
        return LinearCode(field, d.region_count, evaluate(d.dehn_rows, value))
    if kind != "fox":
        raise ValueError("kind must be 'fox' or 'dehn'")
    c = LinearCode(field, d.arc_count, evaluate(d.fox_rows, value))
    c._parts = partial(_summand_codes, d, value)  # given c when called: holding c would make a reference cycle
    return c


def _summand_codes(d: Diagram, value, c: LinearCode):
    """c's tie tree from split_sum(d): the Fox codes of the summands at the
    evaluation value, the ties and the place of each arc.  c, d's code, is
    itself when d has no splice, else the codes are built without
    code_from_diagram, so t = 1 is not flagged again."""
    summands, ties, place = split_sum(d)
    codes = [c if s is d else LinearCode(c.field, s.arc_count, evaluate(s.fox_rows, value)) for s in summands]
    return codes, ties, place


def min_distance(c: LinearCode, budget: int | None = None):
    """Exact minimum distance, read off the weight enumerator; math.inf
    for the zero code, None when the budget is exceeded (unknown)."""
    try:
        return weight_enumerator(c, budget).min_weight()
    except BudgetExceeded:
        return None


class WeightEnumerator(namedtuple("WeightEnumerator", "counts")):
    """counts: a_0 .. a_n, the number of codewords of each weight."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts)

    def min_weight(self):
        for w, a in enumerate(self.counts):
            if w and a:
                return w
        return INF

    def to_json(self) -> list[int]:
        return list(self.counts)


def weight_enumerator(c: LinearCode, budget: int | None = None) -> WeightEnumerator:
    """Weight distribution a_0..a_n from one walk of the projective points
    (_joint_weights with no positions); raises BudgetExceeded when q^k is
    above the budget.  Past one block of the walk or the budget (q^k >
    min(_BLOCK, budget)), the code is instead folded from the leaves of its
    tie tree (LinearCode._parts, itself alone when untied), one walk per
    distinct leaf code, by tied_weight_enumerator, which checks the budget
    against each leaf."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if c.codeword_count() > min(_BLOCK, limit):
        return tied_weight_enumerator(*c._parts(c)[:2], budget)
    c._afford(budget)
    return WeightEnumerator(tuple(_joint_weights(c)[()]))


def _joint_weights(c: LinearCode, positions=()) -> dict:
    """The weight distributions of C's words by where among positions they
    are nonzero (a tuple of bools, one per position), from one walk of the
    projective points (_points); a pattern no word has is left out.  With
    no positions this is {(): W_C}; with one position pos it is
    {(False,): W_C', (True,): W_C - W_C'}, where C' = {x in C : x_pos = 0}.

    A word's nonzero flags, its digit planes OR-ed into plane 0, give both
    its weight (their count) and its pattern (those at positions); a unit
    scalar keeps both, so each point counts q - 1 words."""
    pk = _Packing(c.field, c.n)
    nz, top, top0, plane, folds = pk.nz, pk.top, pk.top0, pk.plane, range(pk.a - 1)
    bits = [1 << pk.b * j + pk.flag for j in positions]
    mask = sum(set(bits))
    out = defaultdict(lambda: [0] * (c.n + 1))
    out[0][0] = 1  # the zero word
    for walk in _points(c.field, c.generator, c.n):
        for v in walk:
            f = (v + nz) & top  # one flag per nonzero digit
            for _ in folds:  # OR the a digit planes into plane 0
                f |= f >> plane
            out[f & mask][(f & top0).bit_count()] += 1
    return {
        tuple(bool(key & bit) for bit in bits): [counts[0], *((c.q - 1) * x for x in counts[1:])]
        for key, counts in out.items()
    }


def dual(c: LinearCode) -> LinearCode:
    """Generator and parity swap roles; dim(dual) = n - k."""
    parity = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in c.generator)
    return LinearCode(c.field, c.n, parity)


def _check_tie(c1: LinearCode, pos1: int, c2: LinearCode, pos2: int) -> None:
    if c1.field != c2.field:
        raise ValueError("a connected sum needs codes over the same field")
    if not (0 <= pos1 < c1.n and 0 <= pos2 < c2.n):
        raise ValueError("tie positions outside code lengths")


def sum_code(c1: LinearCode, pos1: int, c2: LinearCode, pos2: int) -> LinearCode:
    """Connected-sum code: block parity plus one row tying coordinate pos1
    of the first code to coordinate pos2 of the second.  Its tie tree joins
    the two codes' trees by one tie at the leaf positions of pos1 and pos2."""
    _check_tie(c1, pos1, c2, pos2)
    field, shift = c1.field, c1.n
    shifted = tuple(tuple((shift + j, x) for j, x in row) for row in c2.parity)
    link = ((pos1, 1), (shift + pos2, field.neg(1)))
    total = LinearCode(field, shift + c2.n, c1.parity + shifted + (link,))
    total._parts = partial(_joined_trees, c1, pos1, c2, pos2)
    return total


def _joined_trees(c1, pos1, c2, pos2, _):
    """sum_code's tie tree: c2's leaves follow c1's, and one more tie joins
    the leaf positions of pos1 and pos2."""
    codes1, ties1, place1 = c1._parts(c1)
    codes2, ties2, place2 = c2._parts(c2)
    m = len(codes1)
    place2 = [(i + m, a) for i, a in place2]
    ties2 = [(i + m, a, j + m, b) for i, a, j, b in ties2]
    return codes1 + codes2, [*ties1, *ties2, (*place1[pos1], *place2[pos2])], place1 + place2


def tied_weight_enumerator(codes, ties, budget: int | None = None) -> WeightEnumerator:
    """Weight enumerator of codes tied along a tree, without walking the
    tied code: the words of their direct sum that agree at every tie (i,
    pos_i, j, pos_j), as sum_code ties two codes and split_sum the summands
    of a diagram; weight_enumerator calls it on the leaves and ties of a
    code's tie tree, which reach through sums of composite codes and sums
    of sums at any depth.

    Every code's q^k is checked against the budget first; then equal codes
    share one object (and so one elimination), and each distinct code and
    tie positions are walked once, its words counted by weight and by where
    among those positions they are nonzero (_joint_weights).  The tree is
    folded from the leaves into code 0.  Scaling by a unit keeps weight, so a subtree
    has as many words of each weight at every nonzero value of its tie to
    its parent: the words nonzero there, divided by q - 1.
    """
    same = {}
    codes = [same.setdefault(c, c) for c in codes]
    nbrs = [[] for _ in codes]
    for i, a, j, b in ties:
        if not (0 <= i < len(codes) and 0 <= j < len(codes)):
            raise ValueError(f"a tie names a code outside range({len(codes)})")
        _check_tie(codes[i], a, codes[j], b)
        nbrs[i].append((a, j, b))
        nbrs[j].append((b, i, a))
    up, kids, order = {0: None}, [[] for _ in codes], [0][: len(codes)]  # no root without codes
    for i in order:  # the order grows while it is walked
        for a, j, b in nbrs[i]:
            if j not in up:
                up[j] = b
                kids[i].append((a, j))
                order.append(j)
    if len(order) != len(codes) or len(ties) != len(codes) - 1:
        raise ValueError("the ties must join the codes in a tree")
    for c in codes:
        c._afford(budget)
    q, tied = codes[0].q, {}  # tied: code -> (its subtree's counts at parent tie value 0, at any one nonzero value)
    joint = cache(_joint_weights)  # one walk per distinct code and tie positions
    for i in reversed(order):
        c, parent = codes[i], up[i]
        positions = tuple(sorted({a for a, _ in kids[i]} | ({parent} - {None})))
        buckets = joint(c, positions)
        at = {pos: x for x, pos in enumerate(positions)}
        length = c.n + sum(len(tied[j][0]) - 1 for _, j in kids[i])
        out = [[0] * (length + 1), [0] * (length + 1)]
        for pattern, counts in buckets.items():
            for a, j in kids[i]:
                counts = _convolve(counts, tied[j][pattern[at[a]]])
            side = out[0] if parent is None else out[pattern[at[parent]]]
            for w, x in enumerate(counts):
                side[w] += x
        zero, nonzero = out
        if any(x % (q - 1) for x in nonzero):
            raise AssertionError("words nonzero at a tie not divisible by q - 1")
        tied[i] = zero, [x // (q - 1) for x in nonzero]
    return WeightEnumerator(tuple(tied[0][0]))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class LdpcProfile(namedtuple("LdpcProfile", "row_weights col_weights right_regular left_regular")):
    __slots__ = ()

    @property
    def doubly_regular(self):
        if self.right_regular is not None and self.left_regular is not None:
            return (self.right_regular, self.left_regular)
        return None


def ldpc_profile(c: LinearCode) -> LdpcProfile:
    """Row/column weight profile of the stored parity matrix; a code is
    right r-regular when every parity row has weight r."""
    rows = [len(row) for row in c.parity]
    cols = [0] * c.n
    for row in c.parity:
        for j, _ in row:
            cols[j] += 1
    right = rows[0] if rows and len(set(rows)) == 1 else None
    left = cols[0] if cols and len(set(cols)) == 1 else None
    return LdpcProfile(tuple(rows), tuple(cols), right, left)


FeasibilityCheck = namedtuple("FeasibilityCheck", "rule ok detail")


class DualFeasibility(namedtuple("DualFeasibility", "checks")):
    __slots__ = ()

    @property
    def ruled_out(self) -> bool:
        return any(not c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ruled_out": self.ruled_out,
            "checks": [c._asdict() for c in self.checks],
        }


def dual_knot_feasibility(c: LinearCode, component_count: int = 1) -> DualFeasibility:
    """Necessary conditions for the dual to be a knot code again: the
    field size must divide the length, the dimension cannot sit below
    (n-1)/2, and 4-fold (or more) connected sums never qualify."""
    q, n, k = c.q, c.n, c.k
    checks = (
        FeasibilityCheck(
            "field_size_divides_length",
            n % q == 0,
            f"q = {q} {'divides' if n % q == 0 else 'does not divide'} n = {n}",
        ),
        FeasibilityCheck(
            "dual_dimension_in_range",
            not 2 * k < n - 1,
            f"dim = {k} vs (n-1)/2 = {(n - 1) / 2}",
        ),
        FeasibilityCheck(
            "few_prime_summands",
            component_count < 4,
            f"{component_count} summands",
        ),
    )
    return DualFeasibility(checks)
