"""Linear codes over F_q built from coloring matrices.

A code is held as its parity-check matrix exactly as evaluated from the
diagram (no rank reduction), in sparse ((column, value), ...) rows; the
generator is a cached kernel basis of dense codewords.
Weight enumerators come from exhaustive message enumeration under a
budget (exact below it, unknown above); minimum distances are read off them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .fields import FqField
from .diagram import Diagram
from .coloring import dehn_matrix, fox_matrix
from .exactlin import dot, kernel_basis

INF = math.inf
DEFAULT_BUDGET = 10_000_000  # codewords enumerated when no budget is given


class BudgetExceeded(RuntimeError):
    """Enumeration would need more codewords than the budget allows."""


@dataclass(frozen=True)
class LinearCode:
    field: FqField
    n: int
    parity: tuple  # sparse rows of ((column, encoded field int), ...), kept as constructed

    def __post_init__(self):
        cells = list(chain.from_iterable(self.parity))
        if not cells:
            return
        cols, vals = zip(*cells)
        if min(cols) < 0 or max(cols) >= self.n:
            raise ValueError(f"a parity column lies outside range({self.n})")
        if min(vals) < 1 or max(vals) >= self.field.q:
            raise ValueError(f"a parity value is not a nonzero element of {self.field}")
        if len(cells) != sum(map(len, map(dict, self.parity))):
            raise ValueError("a parity row repeats a column")

    @cached_property
    def generator(self) -> tuple:
        """Kernel basis of the parity matrix (dense rows that span the code)."""
        return tuple(tuple(r) for r in kernel_basis(self.field, self.parity, self.n))

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def q(self) -> int:
        return self.field.q

    def codeword_count(self) -> int:
        return self.q**self.k

    def codewords(self, budget: int | None = None):
        """All codewords, message coefficients in lexicographic order."""
        limit = DEFAULT_BUDGET if budget is None else budget
        if self.codeword_count() > limit:
            raise BudgetExceeded(f"{self.q}^{self.k} codewords exceed budget {limit}")
        return _span(self.field, self.generator, self.n)

    def contains(self, vec) -> bool:
        vec = [self.field.element(x).val for x in vec]
        if len(vec) != self.n:
            raise ValueError(f"expected a word of length {self.n}, got {len(vec)}")
        return not any(dot(self.field, row, vec) for row in self.parity)

    def __str__(self):
        return f"[{self.n},{self.k}]_{self.q} code"


def _span(field: FqField, basis, n: int):
    q = field.q
    if not basis:
        yield (0,) * n
        return
    scaled = [[[field.mul(m, x) for x in row] for m in range(q)] for row in basis]

    def rec(i, acc):
        if i == len(basis):
            yield tuple(acc)
            return
        for m in range(q):
            nxt = [field.add(a, b) for a, b in zip(acc, scaled[i][m])] if m else acc
            yield from rec(i + 1, nxt)

    yield from rec(0, [0] * n)


def code_from_diagram(
    d: Diagram, field: FqField, t, kind: str = "fox", restrict_outer_zero: bool = False
) -> LinearCode:
    """The knot code: kernel of the evaluated coloring matrix.

    Fox codes live on arcs (length n), Dehn codes on regions (length
    n + 2).  t must be invertible; t = 1 is allowed but gives the
    repetition code, which is flagged with a warning.

    The Dehn kernel is the unrestricted region-coloring module; passing
    restrict_outer_zero adds the row pinning the unbounded region's color
    to 0, which cuts the dimension back to the strand-coloring one.
    """
    value = field.at(t)
    if field.element(t).is_one:
        warnings.warn("t = 1: every coloring is constant, the code is the repetition code")
    if kind == "fox":
        if restrict_outer_zero:
            raise ValueError("restrict_outer_zero only applies to Dehn codes")
        if d.n == 0:  # the bare loop: one arc, no relations
            d._require_valid()
            return LinearCode(field, 1, ())
        mat = fox_matrix(d)
    elif kind == "dehn":
        mat = dehn_matrix(d)
    else:
        raise ValueError("kind must be 'fox' or 'dehn'")
    rows = mat.evaluate(value, 0)
    if restrict_outer_zero:
        rows += (((d.outer_region, field.from_int(1)),),)
    return LinearCode(field, mat.ncols, rows)


def min_distance(c: LinearCode, budget: int | None = None):
    """Exact minimum distance, read off the weight enumerator; math.inf
    for the zero code, None when the budget is exceeded (unknown)."""
    try:
        return weight_enumerator(c, budget).min_weight()
    except BudgetExceeded:
        return None


@dataclass(frozen=True)
class WeightEnumerator:
    counts: tuple[int, ...]  # a_0 .. a_n

    @property
    def n(self) -> int:
        return len(self.counts) - 1

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
    """Weight distribution a_0..a_n from one pass over all q^k codewords;
    raises BudgetExceeded above the budget."""
    counts = [0] * (c.n + 1)
    for w in c.codewords(budget):
        counts[sum(1 for x in w if x)] += 1
    return WeightEnumerator(tuple(counts))


def dual(c: LinearCode) -> LinearCode:
    """Generator and parity swap roles; dim(dual) = n - k."""
    parity = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in c.generator)
    return LinearCode(c.field, c.n, parity)


def subcode_last_zero(c: LinearCode, position: int | None = None) -> LinearCode:
    """Intersection with the hyperplane x_position = 0 (default: last)."""
    pos = c.n - 1 if position is None else position
    if not 0 <= pos < c.n:
        raise ValueError("position outside code length")
    return LinearCode(c.field, c.n, c.parity + (((pos, c.field.from_int(1)),),))


def sum_code(c1: LinearCode, pos1: int, c2: LinearCode, pos2: int) -> LinearCode:
    """Connected-sum code: block parity plus one row tying coordinate pos1
    of the first code to coordinate pos2 of the second."""
    if c1.field != c2.field:
        raise ValueError("sum_code needs codes over the same field")
    if not (0 <= pos1 < c1.n and 0 <= pos2 < c2.n):
        raise ValueError("tie positions outside code lengths")
    field, shift = c1.field, c1.n
    one = field.from_int(1)
    shifted = tuple(tuple((shift + j, x) for j, x in row) for row in c2.parity)
    link = ((pos1, one), (shift + pos2, field.neg(one)))
    return LinearCode(field, shift + c2.n, c1.parity + shifted + (link,))


def sum_min_distance(c1, c1_sub, c2, c2_sub, budget: int | None = None):
    """Minimum distance of the connected-sum code, read off its weight
    enumerator: min of d(C'), d(D'), and the cheapest crossing pair."""
    return sum_weight_enumerator(c1, c1_sub, c2, c2_sub, budget).min_weight()


def sum_weight_enumerator(c1, c1_sub, c2, c2_sub, budget: int | None = None) -> WeightEnumerator:
    """Weight enumerator of the connected-sum code:
    W_C' W_D' + (W_C - W_C')(W_D - W_D') / (q - 1)."""
    q = c1.field.q
    wc = weight_enumerator(c1, budget).counts
    wcp = weight_enumerator(c1_sub, budget).counts
    wd = weight_enumerator(c2, budget).counts
    wdp = weight_enumerator(c2_sub, budget).counts
    first = _convolve(wcp, wdp)
    diff = _convolve(
        [a - b for a, b in zip(wc, wcp)],
        [a - b for a, b in zip(wd, wdp)],
    )
    counts = []
    for a, b in zip(first, diff):
        if b % (q - 1):
            raise AssertionError("crossing term not divisible by q - 1")
        counts.append(a + b // (q - 1))
    return WeightEnumerator(tuple(counts))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class LdpcProfile:
    row_weights: tuple[int, ...]
    col_weights: tuple[int, ...]
    right_regular: int | None
    left_regular: int | None

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


@dataclass(frozen=True)
class FeasibilityCheck:
    rule: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class DualFeasibility:
    checks: tuple[FeasibilityCheck, ...]

    @property
    def ruled_out(self) -> bool:
        return any(not c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ruled_out": self.ruled_out,
            "checks": [{"rule": c.rule, "ok": c.ok, "detail": c.detail} for c in self.checks],
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
