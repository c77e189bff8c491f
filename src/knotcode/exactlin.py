"""Exact linear algebra: the determinant over Z[T, T^-1] of a few dense
rows by Kronecker substitution and one fraction-free elimination over Z,
Smith normal form over the Euclidean domains Z and F_p[T], and one
sparse elimination over the coloring rings F_q, Z/m and F_p[T]/(f) of
fields (FqField, IntMod, PolyMod) and over Z[T, T^-1] (RingLaurent);
this module defines no ring.

The Smith form takes a plain list of lists, with ints for Z and
ascending coefficient tuples for F_p[T], and returns the invariant
factors and the rank, not the transforms that produce them.
kronecker_det takes a square matrix as sparse LaurentPoly rows.  The
elimination takes sparse rows, ((column, value), ...) pairs of a row's
nonzeros, which is how a coloring matrix is evaluated (at most 4
nonzeros per row), so it costs little beyond its nonzeros where
Gauss-Jordan took cubic time;
over F_q and F_p[T]/(f) every value, in rows and in the vectors
returned, is an encoded int (see fields).  It pivots only on units: over
F_q that is every nonzero, and it gives rank and a canonical kernel
basis; over Z/m and F_p[T]/(f) the few rows left without a
unit are what the coloring counts lift into the cover and hand to the
Smith form, whose entries then stay reduced instead of growing; over
Z[T, T^-1], whose units are +-T^k, they are what the Alexander
polynomial takes its determinant of.  dense() turns sparse rows into the
full grid.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from heapq import heapify, heappop, heappush

from .laurent import ZERO, LaurentPoly
from .fields import FqField


# -- determinants over Z[T, T^-1] ----------------------------------------------
#
# Once each row is divided by its lowest power of T, a determinant is a
# polynomial whose coefficients _bound_squared bounds, and kronecker_det
# reads it off one integer image: its value at a power of 2 wide enough
# to hold every coefficient as a digit (von zur Gathen & Gerhard, Modern
# Computer Algebra, 8.4), by one fraction-free elimination over Z, which
# suits the few dense rows that unit pivots leave.


def kronecker_det(rows) -> LaurentPoly:
    """Exact determinant of a square matrix given as sparse LaurentPoly
    rows ((column, entry), ...) of its nonzeros, in columns
    0..len(rows)-1, from one integer: its value at T = X = 2^s.

    Every row is divided by its lowest power of T, which leaves a
    polynomial P(T) with coefficients bounded by B (_bound_squared), and s
    is the least with 2^(s-1) > B.  Every entry is evaluated at X, and
    fraction-free elimination over Z (Bareiss, Math. Comp. 22, 1968; a row
    swap on a zero pivot) gives P(X), every division exact.  Each
    coefficient of P lies in (-X/2, X/2), so the coefficients are the
    balanced base-X digits of P(X), lowest first.  No degree bound, prime
    or interpolation is needed, and the big-integer arithmetic runs in C.
    Step k leaves k x k minors of A(X), of about k s (d + 1) bits for
    entries of degree d, in every cell below and right of the pivot, so
    this suits a few dense rows and not a large sparse matrix.
    """
    if not all(rows):
        return ZERO
    s = (_bound_squared(rows).bit_length() + 1) // 2 + 1  # 4^(s-1) > B^2
    n, shift, a = len(rows), 0, []
    for row in rows:
        low = min(e.min_deg for _, e in row)
        shift += low
        full = [0] * n
        for c, e in row:
            v = 0
            for coeff in reversed(e.coeffs):
                v = (v << s) + coeff
            full[c] = v << s * (e.min_deg - low)
        a.append(full)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return ZERO
            a[k], a[i], sign = a[i], a[k], -sign
        pivot, top = a[k][k], a[k][k + 1 :]
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = pivot
    value = sign * a[-1][-1] if a else 1
    coeffs = []
    while value:
        digit = value & ((1 << s) - 1)
        if digit >> (s - 1):  # at least X/2: a negative coefficient
            digit -= 1 << s
        coeffs.append(digit)
        value = (value - digit) >> s
    return LaurentPoly.make(coeffs, shift)


def _bound_squared(rows) -> int:
    """B^2, where B bounds the coefficients of the determinant of sparse
    LaurentPoly rows.

    Divide every row by its lowest power of T, which leaves polynomial
    entries a_ij and a determinant P(T).  Every coefficient c_k of P obeys

        |c_k| <= B = prod_i sqrt(sum_j ||a_ij||_1^2),

    ||a||_1 the sum of the absolute coefficients of a: c_k is a Fourier
    coefficient of P on the unit circle, so |c_k| <= max_{|z|=1} |P(z)|;
    Hadamard's inequality bounds |P(z)| by the product of the Euclidean
    norms of the rows of A(z), and |a_ij(z)| <= ||a_ij||_1 when |z| = 1.
    """
    return math.prod(sum(sum(map(abs, e.coeffs)) ** 2 for _, e in row) for row in rows)


# -- Smith normal form ---------------------------------------------------------

class SnfResult(namedtuple("SnfResult", "invariant_factors rank")):
    """Invariant factors in ideal-increasing order: (d_1) in (d_2) in ...,
    so zeros come first and d_{i+1} divides d_i; rank counts the nonzero
    ones."""

    __slots__ = ()


def snf(rows: list[list], ring) -> SnfResult:
    """Invariant factors over Z or F_p[T] by elementary row and column
    operations, each factor an associate in normal form (positive over Z,
    monic over F_p[T]).

    A ring here has zero, norm, add, sub, mul, divmod and normal (the
    associate in normal form): RingZ and RingFpT.  Step r moves the
    smallest-norm nonzero entry of the submatrix that starts at (r, r) to
    (r, r), the first in row-major order on a tie, then clears column r
    and row r by Euclidean division; a division that leaves a remainder swaps that remainder in
    as the pivot, whose norm then drops, and the clearing repeats.  If the
    pivot fails to divide an entry of the submatrix below and right of it,
    that entry's row is added to row r and the step starts over, so each
    pivot divides every later one.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    size = min(m, n)
    a = [list(row) for row in rows]
    zero, sub, mul, divmod_ = ring.zero, ring.sub, ring.mul, ring.divmod
    r = 0
    while r < size:
        pivot = min(
            ((ring.norm(x), i, j) for i in range(r, m) for j, x in enumerate(a[i][r:], r) if x != zero),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        a[pi], a[r] = a[r], a[pi]
        _swap_cols(a, pj, r)
        cleared = False
        while not cleared:
            cleared = True
            for i in range(r + 1, m):
                if a[i][r] != zero:
                    q, rem = divmod_(a[i][r], a[r][r])
                    a[i] = [sub(x, mul(q, y)) for x, y in zip(a[i], a[r])]
                    if rem != zero:
                        a[i], a[r] = a[r], a[i]
                        cleared = False
            for j in range(r + 1, n):
                if a[r][j] != zero:
                    q, rem = divmod_(a[r][j], a[r][r])
                    for row in a:
                        row[j] = sub(row[j], mul(q, row[r]))
                    if rem != zero:
                        _swap_cols(a, j, r)
                        cleared = False
        offender = next(
            (i for i in range(r + 1, m) if any(divmod_(x, a[r][r])[1] != zero for x in a[i][r + 1 :])), None
        )
        if offender is None:
            r += 1
        else:
            a[r] = [ring.add(x, y) for x, y in zip(a[r], a[offender])]
    chain = [ring.normal(a[i][i]) for i in reversed(range(r))]
    return SnfResult(tuple([zero] * (size - r) + chain), r)


def _swap_cols(mat, j, r):
    for row in mat:
        row[j], row[r] = row[r], row[j]


# -- sparse elimination over quotient rings ---------------------------------------
#
# One sparse elimination serves the codes over F_q and the coloring counts
# over Z/m and F_p[T]/(f).  Over F_q the forward pass (echelon) alone
# gives the rank, so a code's dimension; the kernel basis back-reduces
# that same pass (echelon_kernel) only when a codeword walk needs it.  Each row is copied into a {column: value} dict of its
# nonzeros and reduced against the pivot rows found so far.  What is left
# becomes a new pivot row at its first unit entry in the elimination
# order, scaled to 1 there; a row with no unit entry is set aside as
# residual and reduced again once new pivots appear.  Over a field every
# nonzero is a unit, so nothing is ever residual.  Back-reduction
# (_back_reduce), a separate pass over a field's pivots, then clears every
# other pivot column from each pivot row.
#
# A ring here is one of the coloring rings of fields (FqField, IntMod,
# PolyMod) or RingLaurent, whose inv returns None on a non-unit.


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


def _reduce(ring, rows, order) -> tuple[dict, list[dict]]:
    """The forward pass: eliminate the sparse rows in the given column order.

    Returns ({pivot column: pivot row}, residual rows), pivots in the order
    they were found.  Every pivot row is 1 at its pivot and zero at the
    pivot columns found before it; over a field its pivot is its first
    column in the order, and _back_reduce then makes it zero at every
    other pivot column.  Residual rows have no unit entry and are
    zero at every pivot column.
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
    return pivots, residual


def _back_reduce(ring, pivots: dict) -> None:
    """Clear every other pivot column from each pivot row of a field's
    _reduce, in place.  A pivot row is zero at the pivot columns found
    before it, so rows are cleared newest first: each row subtracts only
    rows that are already reduced, which leave no other pivot column."""
    for c in reversed(pivots):
        prow = pivots[c]
        for cc in [cc for cc in prow if cc != c and cc in pivots]:
            _axpy(ring, prow, prow[cc], pivots[cc])


def unit_residual(ring, rows, ncols: int) -> tuple[int, list[list]]:
    """Eliminate sparse rows over a quotient ring on unit pivots only.

    Returns the number of free (non-pivot) columns and the dense residual
    rows on those columns, in column order.  Each pivot row has a unit on
    its own column and zeros on the pivot columns before it, so the pivot
    unknowns are fixed by the free ones: the solutions of rows . x = 0
    correspond one to one with those of the residual rows.
    """
    pivots, residual = _reduce(ring, rows, _by_weight(rows))
    free = {c: i for i, c in enumerate(c for c in range(ncols) if c not in pivots)}
    return len(free), dense([[(free[c], v) for c, v in row.items()] for row in residual], len(free), ring.zero)


def echelon(field: FqField, rows) -> dict:
    """The forward pass over F_q: {pivot column: pivot row} of sparse rows
    eliminated in column-weight order, without back-reduction.  Its length
    is the rank; echelon_kernel turns it into the kernel basis."""
    return _reduce(field, rows, _by_weight(rows))[0]


def echelon_kernel(field: FqField, pivots: dict, ncols: int) -> list[list[int]]:
    """The canonical kernel basis from a forward pass (echelon), whose
    pivot rows it back-reduces in place.

    The basis is canonical: one vector per free column f (a column that
    depends on the columns before it), 1 at f and 0 at the other free
    columns, in ascending order of f.  The reduced pivot rows give a
    kernel basis, identity on the non-pivot columns; the canonical basis
    is then the reduced echelon form of the kernel with its columns
    reversed.
    """
    _back_reduce(field, pivots)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for c, prow in pivots.items():
        for f, v in prow.items():
            if f != c:
                basis[f][c] = field.neg(v)
    canon = _reduce(field, [b.items() for b in basis.values()], range(ncols - 1, -1, -1))[0]
    _back_reduce(field, canon)
    return dense([canon[f].items() for f in sorted(canon)], ncols, 0)


def dot(field: FqField, row, vec) -> int:
    """Inner product over F_q of a sparse row and a dense vector."""
    acc = 0
    for c, a in row:
        b = vec[c]
        if b:
            acc = field.add(acc, field.mul(a, b))
    return acc

