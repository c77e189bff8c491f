"""Exact linear algebra: Bareiss determinants over Z[T], Smith normal
form over the Euclidean domains Z and F_p[T], and one sparse elimination
over the quotient rings F_q, Z/m and F_p[T]/(f).

The determinant and Smith form routines take plain lists of lists, with
LaurentPoly entries for determinants, ints for Z and ascending
coefficient tuples for F_p[T].  The elimination takes sparse rows,
((column, value), ...) pairs of a row's nonzeros, which is how a coloring
matrix is evaluated (at most 4 nonzeros per row), so it costs little
beyond its nonzeros where Gauss-Jordan took cubic time.  It pivots only
on units: over F_q that is every nonzero, and it gives rank and a
canonical kernel basis; over Z/m and F_p[T]/(f) the few rows left without
a unit are what the coloring counts hand to the Smith form, whose entries
then stay reduced instead of growing.  dense() turns sparse rows into the
full grid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .laurent import ZERO, ONE, LaurentPoly
from . import fields as ff
from .fields import FqField


# -- determinants over Z[T, T^-1] ----------------------------------------------

def laurent_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square LaurentPoly matrix.

    T-powers are cleared row by row, then fraction-free (Bareiss)
    elimination runs over Z[T]; every division is exact by the Sylvester
    identity.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    shift = 0
    mat = []
    for row in rows:
        degs = [e.min_deg for e in row if not e.is_zero]
        if not degs:
            return ZERO
        s = min(degs)
        shift += s
        mat.append([e.shift(-s) for e in row])
    sign = 1
    prev = ONE
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if not mat[i][k].is_zero), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            mat[pivot_row], mat[k] = mat[k], mat[pivot_row]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * mat[i][j] - mat[i][k] * mat[k][j]
                mat[i][j] = num.exact_div(prev)
            mat[i][k] = ZERO
        prev = pivot
    det = mat[n - 1][n - 1].shift(shift)
    return -det if sign < 0 else det


def minor_dets(rows, order: int) -> list[LaurentPoly]:
    """Determinants of all order x order submatrices (row-major combination
    order); empty when the matrix has no submatrix of that size."""
    from itertools import combinations

    m, n = len(rows), len(rows[0]) if rows else 0
    if order <= 0 or order > m or order > n:
        return []
    out = []
    for ri in combinations(range(m), order):
        picked = [rows[i] for i in ri]
        for ci in combinations(range(n), order):
            out.append(laurent_det([[row[j] for j in ci] for row in picked]))
    return out


# -- Smith normal form ---------------------------------------------------------

class RingZ:
    """Euclidean-domain hooks for Z."""

    name = "Z"
    zero = 0
    one = 1

    def is_zero(self, x):
        return x == 0

    def norm(self, x):
        return abs(x)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def divmod(self, x, y):
        q, r = divmod(x, y)
        return q, r

    def unit_to_normal(self, x):
        """Unit u with u*x in normal form (positive / monic)."""
        return -1 if x < 0 else 1

    def divides(self, x, y):
        """x | y."""
        return y % x == 0 if x else y == 0


class RingFpT:
    """Euclidean-domain hooks for F_p[T] on coefficient tuples."""

    zero = ()
    one = (1,)

    def __init__(self, p: int):
        if not ff.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F_{p}[T]"

    def is_zero(self, x):
        return not x

    def norm(self, x):
        return len(x)

    def add(self, x, y):
        return ff.fp_add(x, y, self.p)

    def neg(self, x):
        return ff.fp_neg(x, self.p)

    def mul(self, x, y):
        return ff.fp_mul(x, y, self.p)

    def divmod(self, x, y):
        return ff.fp_divmod(x, y, self.p)

    def unit_to_normal(self, x):
        return (pow(x[-1], self.p - 2, self.p),) if x else (1,)

    def divides(self, x, y):
        if self.is_zero(x):
            return self.is_zero(y)
        return self.is_zero(ff.fp_mod(y, x, self.p))


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors in ideal-increasing order: (d_1) in (d_2) in ...,
    so zeros come first and d_{i+1} divides d_i.  U and V are the recorded
    row/column transforms with U*A*V = diag(reversed factors padded)."""

    invariant_factors: tuple
    rank: int
    U: tuple
    V: tuple
    ring_name: str


def snf(rows: list[list], ring) -> SnfResult:
    """Smith normal form by elementary operations over Z or F_p[T].

    Pivoting picks the smallest-norm nonzero entry (row-major tie break),
    reduces its row and column, and restarts whenever a division leaves a
    remainder; afterwards the divisibility chain is enforced pairwise.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    U = _identity(m, ring)
    V = _identity(n, ring)

    r = 0
    size = min(m, n)
    while r < size:
        pivot = _smallest_pivot(a, r, ring)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            a[pi], a[r] = a[r], a[pi]
            U[pi], U[r] = U[r], U[pi]
        if pj != r:
            _swap_cols(a, pj, r)
            _swap_cols(V, pj, r)
        while True:
            cleared = True
            for i in range(r + 1, m):
                if ring.is_zero(a[i][r]):
                    continue
                q, rem = ring.divmod(a[i][r], a[r][r])
                _row_sub(a, i, r, q, ring)
                _row_sub(U, i, r, q, ring)
                if not ring.is_zero(rem):
                    a[i], a[r] = a[r], a[i]
                    U[i], U[r] = U[r], U[i]
                    cleared = False
            for j in range(r + 1, n):
                if ring.is_zero(a[r][j]):
                    continue
                q, rem = ring.divmod(a[r][j], a[r][r])
                _col_sub(a, j, r, q, ring)
                _col_sub(V, j, r, q, ring)
                if not ring.is_zero(rem):
                    _swap_cols(a, j, r)
                    _swap_cols(V, j, r)
                    cleared = False
            if cleared:
                break
        # pivot must divide the rest of the submatrix
        offender = None
        for i in range(r + 1, m):
            for j in range(r + 1, n):
                if not ring.divides(a[r][r], a[i][j]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _row_add(a, r, offender, ring)
            _row_add(U, r, offender, ring)
            continue
        u = ring.unit_to_normal(a[r][r])
        if u != ring.one:
            a[r] = [ring.mul(u, x) for x in a[r]]
            U[r] = [ring.mul(u, x) for x in U[r]]
        r += 1

    chain = [a[i][i] for i in range(r)]
    factors = tuple([ring.zero] * (size - r)) + tuple(reversed(chain))
    return SnfResult(factors, r, _freeze(U), _freeze(V), ring.name)


def _identity(k, ring):
    return [[ring.one if i == j else ring.zero for j in range(k)] for i in range(k)]


def _freeze(mat):
    return tuple(tuple(row) for row in mat)


def _smallest_pivot(a, r, ring):
    best = None
    for i in range(r, len(a)):
        for j in range(r, len(a[0])):
            if not ring.is_zero(a[i][j]):
                if best is None or ring.norm(a[i][j]) < ring.norm(a[best[0]][best[1]]):
                    best = (i, j)
    return best


def _row_sub(mat, i, r, q, ring):
    if ring.is_zero(q):
        return
    mat[i] = [ring.add(x, ring.neg(ring.mul(q, y))) for x, y in zip(mat[i], mat[r])]


def _row_add(mat, i, r, ring):
    mat[i] = [ring.add(x, y) for x, y in zip(mat[i], mat[r])]


def _col_sub(mat, j, r, q, ring):
    if ring.is_zero(q):
        return
    for row in mat:
        row[j] = ring.add(row[j], ring.neg(ring.mul(q, row[r])))


def _swap_cols(mat, j, r):
    for row in mat:
        row[j], row[r] = row[r], row[j]


def snf_diagonal(res: SnfResult) -> list[list]:
    """The diagonal matrix U*A*V that snf() certifies (divisibility-increasing
    along the diagonal, zero rows last)."""
    m, n = len(res.U), len(res.V)
    zero = 0 if res.ring_name == "Z" else ()
    chain = [d for d in res.invariant_factors if not _is_zero_factor(d)]
    chain.reverse()
    out = [[zero] * n for _ in range(m)]
    for i, d in enumerate(chain):
        out[i][i] = d
    return out


def _is_zero_factor(d):
    return d == 0 or d == ()


# -- sparse elimination over quotient rings ---------------------------------------
#
# One sparse elimination serves rank and kernel_basis over F_q and the
# coloring counts over Z/m and F_p[T]/(f).  Each row is copied into a
# {column: value} dict of its nonzeros and reduced against the pivot rows
# found so far.  What is left becomes a new pivot row at its first unit
# entry in the elimination order, scaled to 1 there; a row with no unit
# entry is set aside as residual and reduced again once new pivots appear.
# Over a field every nonzero is a unit, so nothing is ever residual.  With
# back=True back-reduction then clears every other pivot column from each
# pivot row.
#
# A ring here is an object with zero, sub, mul and inv, where inv returns
# the inverse of a unit and None otherwise: FqField, RingZmod, RingFpTmod.


class RingZmod:
    """Z/m on ints in range(m); m is never factored."""

    zero = 0

    def __init__(self, m: int):
        self.m = m

    def sub(self, x, y):
        return (x - y) % self.m

    def mul(self, x, y):
        return x * y % self.m

    def inv(self, x):
        return pow(x, -1, self.m) if math.gcd(x, self.m) == 1 else None


class RingFpTmod:
    """F_p[T]/(f) on coefficient tuples reduced mod f; f is never factored."""

    zero = ()

    def __init__(self, p: int, f):
        self.p = p
        self.f = tuple(f)

    def sub(self, x, y):
        return ff.fp_sub(x, y, self.p)

    def mul(self, x, y):
        return ff.fp_mod(ff.fp_mul(x, y, self.p), self.f, self.p)

    def inv(self, x):
        g, s, _ = ff.fp_gcdext(x, self.f, self.p)
        return ff.fp_mod(s, self.f, self.p) if g == (1,) else None


def dense(rows, ncols: int, zero) -> list[list]:
    """The full grid of sparse rows: zero at every cell a row leaves out."""
    out = []
    for row in rows:
        full = [zero] * ncols
        for c, v in row:
            full[c] = v
        out.append(full)
    return out


def _by_weight(rows) -> list[int]:
    """Columns occurring in rows, lightest first, ties by index: dense
    columns are eliminated last, so they do not fill every row."""
    weight = Counter(c for row in rows for c, _ in row)
    return sorted(weight, key=lambda c: (weight[c], c))


def _axpy(ring, row: dict, f, prow: dict) -> None:
    """row -= f * prow in place, dropping the zeros."""
    sub, mul, zero = ring.sub, ring.mul, ring.zero
    for c, v in prow.items():
        x = sub(row.get(c, zero), mul(f, v))
        if x:
            row[c] = x
        elif c in row:  # a zero product leaves an absent cell absent
            del row[c]


def _reduce(ring, rows, order, back: bool = True) -> tuple[dict, list[dict]]:
    """Eliminate the sparse rows in the given column order.

    Returns ({pivot column: pivot row}, residual rows).  Every pivot row is
    1 at its pivot and zero at the pivot columns found before it; over a
    field its pivot is its first column in the order, and with back=True
    (fields only) it is also zero at every other pivot column.  Residual
    rows have no unit entry and are zero at every pivot column.
    """
    pos = {c: i for i, c in enumerate(order)}
    inv_of, mul = ring.inv, ring.mul
    pivots = {}
    age = {}  # pivot column -> its index in found
    found = []  # pivot columns, oldest first
    residual = []
    pending = ({c: v for c, v in row if v} for row in rows)
    while True:
        grown = len(found)
        for row in pending:
            heap = [age[c] for c in row if c in age]
            heapify(heap)
            while heap:  # oldest pivot first: pivot rows only fill younger ones
                c = found[heappop(heap)]
                f = row.get(c)
                if not f:  # already cleared (a column can be pushed twice)
                    continue
                prow = pivots[c]
                _axpy(ring, row, f, prow)
                for cc in prow:
                    if cc != c and cc in age:
                        heappush(heap, age[cc])
            if not row:
                continue
            lead = min(row, key=pos.__getitem__)
            inv = inv_of(row[lead])
            if inv is None:  # not a field: the first unit, if there is one
                lead = min((c for c in row if inv_of(row[c]) is not None), key=pos.__getitem__, default=None)
                if lead is None:
                    residual.append(row)
                    continue
                inv = inv_of(row[lead])
            pivots[lead] = {c: mul(inv, v) for c, v in row.items()}
            age[lead] = len(found)
            found.append(lead)
        if not residual or len(found) == grown:
            break
        pending, residual = residual, []
    if back:  # later pivot rows are already reduced when an earlier one is
        for c in sorted(pivots, key=pos.__getitem__, reverse=True):
            prow = pivots[c]
            for cc in [cc for cc in prow if cc != c and cc in pivots]:
                _axpy(ring, prow, prow[cc], pivots[cc])
    return pivots, residual


def unit_residual(ring, rows, ncols: int) -> tuple[int, list[list]]:
    """Eliminate sparse rows over a quotient ring on unit pivots only.

    Returns the number of free (non-pivot) columns and the dense residual
    rows on those columns, in column order.  Each pivot row has a unit on
    its own column and zeros on the pivot columns before it, so the pivot
    unknowns are fixed by the free ones: the solutions of rows . x = 0
    correspond one to one with those of the residual rows.
    """
    pivots, residual = _reduce(ring, rows, _by_weight(rows), back=False)
    free = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
    return len(free), dense([[(free[c], v) for c, v in row.items()] for row in residual], len(free), ring.zero)


def rank(field: FqField, rows) -> int:
    return len(_reduce(field, rows, _by_weight(rows), back=False)[0])


def kernel_basis(field: FqField, rows, ncols: int) -> list[list[int]]:
    """Dense row basis of {x : rows . x^T = 0} over F_q, for sparse rows
    of width ncols.

    The basis is canonical: one vector per free column f (a column that
    depends on the columns before it), 1 at f and 0 at the other free
    columns, in ascending order of f.  Elimination runs in column-weight
    order; the canonical basis is then the reduced echelon form of the
    kernel with its columns reversed.
    """
    red = _reduce(field, rows, _by_weight(rows))[0]
    one = field.from_int(1)
    basis = {f: {f: one} for f in range(ncols) if f not in red}
    for c, prow in red.items():
        for f, v in prow.items():
            if f != c:
                basis[f][c] = field.neg(v)
    canon = _reduce(field, [b.items() for b in basis.values()], range(ncols - 1, -1, -1))[0]
    return dense([canon[f].items() for f in sorted(canon)], ncols, 0)


def dot(field: FqField, row, vec) -> int:
    """Inner product over F_q of a sparse row and a dense vector."""
    acc = 0
    for c, a in row:
        b = vec[c]
        if b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(ring, A, B):
    """Ring matrix product (used to certify U*A*V against the SNF diagonal)."""
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            x = A[i][l]
            if ring.is_zero(x):
                continue
            for j in range(m):
                out[i][j] = ring.add(out[i][j], ring.mul(x, B[l][j]))
    return out
