"""Independent brute-force oracles the fast paths are checked against.

Everything here enumerates or expands definitions directly; none of it
shares code with the SNF / determinant / kernel routes it certifies.
The dense Gauss-Jordan elimination over F_q is the reference for the
sparse one, and determinantal divisors (gcds of all k x k minors) the
reference for the Smith form.  Two determinants over Z[T, T^-1] are the
references for the library's one, kronecker_det by Kronecker
substitution: fraction-free (Bareiss) elimination over Z[T], and
sparse_det, which evaluates at more points than the degree mod
word-size primes, each value by its own sparse elimination mod p, then
interpolates and Chinese-remainders.  All n^2 first minors of the Fox
matrix, by sparse_det (itself checked against Bareiss), are the
reference for the two identities coloring.first_minors_agree checks
instead; minor_dets takes them one sparse_det at a time.  The Z[T] gcd
helpers at the end serve tests that compare ideals generated by minors.
arcs_by_union_find is the reference for Diagram.arcs, which cuts the
edge cycle into runs, and regions_by_union_find, which merges edge sides
quadrant by quadrant, for Diagram.regions, which walks the rotation
system's darts; fox_rows_by_sums and dehn_rows_by_sums sum every role
from ZERO on those arcs and regions, the reference for the rows Diagram
builds by adding only roles that share a column.  The Reidemeister moves
and the canonical form, the other oracle machinery, are in moves.py.
"""

import math
from collections import Counter
from functools import cache
from itertools import combinations, product

from knotcode.codes import LinearCode, WeightEnumerator
from knotcode.coloring import alexander_polynomial
from knotcode.fields import FqField, IntMod, PolyMod, is_prime
from knotcode.diagram import LEFT, RIGHT
from knotcode.laurent import ONE, ZERO, LaurentPoly, T


def cofactor_det(rows) -> LaurentPoly:
    """Textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.make((1,))
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def bareiss_det(rows) -> LaurentPoly:
    """Determinant of a square LaurentPoly matrix: T-powers are cleared row
    by row, then fraction-free (Bareiss) elimination runs over Z[T]; every
    division is exact by the Sylvester identity."""
    n = len(rows)
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


def sparse_det(rows) -> LaurentPoly:
    """Exact determinant of a square matrix given as sparse LaurentPoly
    rows ((column, entry), ...) of its nonzeros, in columns 0..len(rows)-1,
    by evaluation, interpolation and Chinese remaindering (von zur Gathen
    & Gerhard, Modern Computer Algebra, ch. 5).

    Every row is divided by its lowest power of T, which leaves a
    polynomial P(T) of degree at most D, the sum over the rows of their
    degree spans, with coefficients bounded by B (Hadamard's bound on the
    unit circle, as in exactlin._bound_squared, recomputed here).  The
    matrix is evaluated at T = 0..D modulo word-size primes, each value
    one sparse elimination mod p (_det_mod).  Interpolation gives P mod p,
    and Chinese remaindering over the primes gives P once their product
    exceeds 2B, lifted to (-M/2, M/2].
    """
    if not all(rows):
        return ZERO
    n = len(rows)
    degree = sum(max(e.max_deg for _, e in row) - min(e.min_deg for _, e in row) for row in rows)
    bound2 = math.prod(sum(sum(map(abs, e.coeffs)) ** 2 for _, e in row) for row in rows)
    shifts, cells, index = [], [], {}  # index: distinct entry divided by its row's T power -> position
    for row in rows:
        s = min(e.min_deg for _, e in row)
        shifts.append(s)
        cells.append([(c, index.setdefault(e.shift(-s), len(index))) for c, e in row])
    weight = Counter(c for row in rows for c, _ in row)
    order = sorted(range(n), key=lambda c: (weight[c], c))
    coeffs, m, i = [0] * (degree + 1), 1, 0  # P's coefficients mod m
    while m * m <= 4 * bound2:  # until m > 2B
        p = _word_prime(i)
        i += 1
        values = []
        for x in range(degree + 1):
            at = [_horner(e, x, p) for e in index]
            values.append(_det_mod([{c: at[j] for c, j in row if at[j]} for row in cells], order, p))
        inv = pow(m, -1, p)
        coeffs = [r + m * ((v - r) * inv % p) for r, v in zip(coeffs, _interpolate(values, p))]
        m *= p
    return LaurentPoly.make([c - m if 2 * c > m else c for c in coeffs], sum(shifts))


def _horner(e: LaurentPoly, x: int, p: int) -> int:
    """A polynomial (min_deg >= 0) at x, mod p, by Horner's rule."""
    v = 0
    for a in reversed(e.coeffs):
        v = (v * x + a) % p
    return v * pow(x, e.min_deg, p) % p


@cache
def _word_prime(i: int) -> int:
    """The (i+1)-th largest prime below 2^62."""
    p = _word_prime(i - 1) if i else 1 << 62
    p -= 1
    while not is_prime(p):
        p -= 1
    return p


def _det_mod(rows, order, p: int) -> int:
    """Determinant mod p of square sparse rows {column: value}, reduced in
    place: for each column in order, the shortest row left with a nonzero
    there is its pivot and clears the column from the rest.  The
    determinant is the product of the pivots times the sign of the
    permutation that takes each pivot row to its column."""
    holders = {}  # column -> rows that had a nonzero there
    for r, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(r)
    det, column_of = 1, {}
    for c in order:
        live = [r for r in holders.get(c, ()) if r not in column_of and rows[r].get(c)]
        if not live:
            return 0
        r = min(live, key=lambda r: (len(rows[r]), r))
        column_of[r] = c
        prow = rows[r]
        det = det * prow[c] % p
        inv = pow(prow[c], -1, p)
        for o in live:
            if o == r:
                continue
            row, f = rows[o], rows[o][c] * inv % p
            for cc, v in prow.items():
                x = (row.get(cc, 0) - f * v) % p
                if x:
                    row[cc] = x
                    holders.setdefault(cc, set()).add(o)
                else:
                    row.pop(cc, None)
    seen = set()
    for start in column_of:  # an even-length cycle flips the sign
        r, length = start, 0
        while r not in seen:
            seen.add(r)
            r, length = column_of[r], length + 1
        if length and length % 2 == 0:
            det = -det
    return det % p


def _interpolate(values, p: int) -> list[int]:
    """Ascending coefficients mod p of the polynomial of degree below
    len(values) that takes values[x] at x = 0, 1, ...: Newton divided
    differences (the points are consecutive, so level j divides by j),
    then Horner's rule back to the monomial basis."""
    c = list(values)
    n = len(c)
    for j in range(1, n):
        inv = pow(j, -1, p)
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    out = [0] * n
    for k in range(n - 1, -1, -1):  # out <- out * (T - k) + c[k]
        for i in range(n - 1, 0, -1):
            out[i] = (out[i - 1] - k * out[i]) % p
        out[0] = (c[k] - k * out[0]) % p
    return out


def bareiss_minors(rows, order: int) -> list:
    """All order x order minors of a dense LaurentPoly matrix by bareiss_det,
    in row-major combination order."""
    return [
        bareiss_det([[rows[i][j] for j in ci] for i in ri])
        for ri in combinations(range(len(rows)), order)
        for ci in combinations(range(len(rows[0])), order)
    ]


def minor_dets(rows, ncols: int, order: int) -> list[LaurentPoly]:
    """Determinants of all order x order submatrices of sparse LaurentPoly
    rows of width ncols by sparse_det (row-major combination order); empty
    when the matrix has no submatrix of that size."""
    if order <= 0 or order > len(rows) or order > ncols:
        return []
    out = []
    for ri in combinations(range(len(rows)), order):
        for ci in combinations(range(ncols), order):
            pos = {c: i for i, c in enumerate(ci)}
            out.append(sparse_det([tuple((pos[c], e) for c, e in rows[i] if c in pos) for i in ri]))
    return out


def minor_family(d, kind: str, k: int) -> list[LaurentPoly]:
    """All minors of the Fox or Dehn matrix of order (columns - k),
    unnormalized."""
    if kind == "fox":
        rows, ncols = d.fox_rows, d.arc_count
    elif kind == "dehn":
        rows, ncols = d.dehn_rows, d.region_count
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if k < 0 or k > ncols:
        raise ValueError(f"minor order {k} outside matrix bounds")
    return minor_dets(rows, ncols, ncols - k)


def unit_ratio(a: LaurentPoly, b: LaurentPoly):
    """(sign, s) when a = sign * T^s * b, else None; (1, 0) when both are 0."""
    if a.is_zero or b.is_zero:
        return (1, 0) if a.is_zero and b.is_zero else None
    if a.coeffs == b.coeffs:
        return (1, a.min_deg - b.min_deg)
    if a.coeffs == tuple(-c for c in b.coeffs):
        return (-1, a.min_deg - b.min_deg)
    return None


def first_minors_agree_brute(d) -> bool:
    """Every first minor of the Fox matrix is zero or Delta up to a unit,
    by all n^2 of them."""
    delta = alexander_polynomial(d)
    return all(m.is_zero or unit_ratio(m, delta) is not None for m in minor_family(d, "fox", 1))


def arcs_by_union_find(d) -> dict:
    """edge -> arc by merging over_in with over_out at every crossing, arcs
    numbered by their smallest edge."""
    parent = list(range(2 * d.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in d.crossings:
        a, b = find(c.over_in), find(c.over_out)
        parent[max(a, b)] = min(a, b)
    index = {}
    return {e: index.setdefault(find(e), len(index)) for e in range(2 * d.n)}


def dehn_role_tokens(c) -> tuple:
    """The (edge, side) tokens of the four quadrant regions at a crossing in
    Dehn coloring role order (i, j, k, l): the relation at the crossing is
    U_i - t U_j - U_k + t U_l = 0."""
    j = (c.over_in, RIGHT)
    k = (c.over_out, LEFT)
    if c.sign == 1:
        return ((c.under_out, LEFT), j, k, (c.under_in, RIGHT))
    return ((c.under_in, RIGHT), j, k, (c.under_out, LEFT))


def regions_by_union_find(d) -> dict:
    """(edge, side) -> region by merging, at every crossing, the two edge
    sides that bound each quadrant.  Around a crossing the ends come
    counterclockwise in the order of the module docstring of
    knotcode.diagram; the quadrant after an end holds the left side of an
    outgoing edge and the right side of an incoming one, the quadrant
    before it the other side.  Regions are numbered by first appearance in
    Dehn role order per crossing, the unbounded one moved to the last id."""
    if d.n == 0:
        return {}
    tokens = [(e, side) for e in range(2 * d.n) for side in (LEFT, RIGHT)]
    parent = {tok: tok for tok in tokens}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in d.crossings:
        ends = [(c.under_in, False), (c.over_out, True), (c.under_out, True), (c.over_in, False)]
        if c.sign == -1:
            ends[1], ends[3] = ends[3], ends[1]  # under_in, over_in, under_out, over_out
        for (a, a_out), (b, b_out) in zip(ends, ends[1:] + ends[:1]):
            x, y = find((a, LEFT if a_out else RIGHT)), find((b, RIGHT if b_out else LEFT))
            parent[max(x, y)] = min(x, y)
    order = dict.fromkeys(find(tok) for c in d.crossings for tok in dehn_role_tokens(c))
    outer = find(d.outer)
    del order[outer]
    index = {root: i for i, root in enumerate([*order, outer])}
    return {tok: index[find(tok)] for tok in tokens}


def _zero_seeded_row(roles) -> tuple:
    """A sparse row: every role's coefficient added to its column's running
    sum from ZERO, columns ascending, zero sums dropped."""
    acc = {}
    for col, coeff in roles:
        acc[col] = acc.get(col, ZERO) + coeff
    return tuple((col, e) for col, e in sorted(acc.items()) if not e.is_zero)


def fox_rows_by_sums(d) -> tuple:
    """The Fox rows on the union-find arcs: 1 - T on the overstrand, -1 on
    the understrand on the over direction's left, T on the one on its right."""
    arcs = arcs_by_union_find(d)
    rows = []
    for c in d.crossings:
        left, right = (c.under_out, c.under_in) if c.sign == 1 else (c.under_in, c.under_out)
        rows.append(_zero_seeded_row([(arcs[c.over_in], ONE - T), (arcs[left], -ONE), (arcs[right], T)]))
    return tuple(rows)


def dehn_rows_by_sums(d) -> tuple:
    """The Dehn rows on the union-find regions: 1, -T, -1, T in role order."""
    regions = regions_by_union_find(d)
    coeffs = (ONE, -T, -ONE, T)
    return tuple(
        _zero_seeded_row([(regions[tok], e) for tok, e in zip(dehn_role_tokens(c), coeffs)]) for c in d.crossings
    )


def colorable_by_alexander(d, ring, t) -> bool:
    """Nontrivial Fox colorability by the Alexander polynomial: over Z/(m)
    the modulus and Delta(t) share a factor, over F_p[T]/(f) f and Delta(t)
    have a nonconstant gcd, over F_q Delta(t) = 0 (t an int for Z/(m), a
    coefficient tuple for F_p[T]/(f), as FqField.element reads it for F_q)."""
    delta = alexander_polynomial(d)
    if isinstance(ring, IntMod):
        return math.gcd(ring.m, delta.eval_int(t) % ring.m) != 1
    if isinstance(ring, FqField):  # first: an FqField is also a PolyMod
        return ring.eval_laurent(delta, ring.element(t)) == 0
    if isinstance(ring, PolyMod):
        R = ring.cover
        return R.gcd(ring.f, fp_compose(delta, R.trim(t), R)) != (1,)
    raise TypeError(f"unsupported ring {ring!r}")


def fp_compose(poly: LaurentPoly, t, ring):
    """Evaluate an integer polynomial at the element t of ring, a RingFpT
    (Horner), on coefficient tuples."""
    if poly.min_deg < 0:
        raise ValueError("needs a plain polynomial (min_deg >= 0)")
    acc = ()
    for c in reversed(poly.coeffs):
        acc = ring.add(ring.mul(acc, t), ring.trim([c]))
    for _ in range(poly.min_deg):
        acc = ring.mul(acc, t)
    return acc


def fox_relation_holds(d, colors, m: int, t: int) -> bool:
    """Check c = t*a + (1-t)*b at every crossing, colors indexed by arc."""
    arcs = d.arcs
    for c in d.crossings:
        b = colors[arcs[c.over_in]]
        if c.sign == 1:
            a, out = colors[arcs[c.under_in]], colors[arcs[c.under_out]]
        else:
            a, out = colors[arcs[c.under_out]], colors[arcs[c.under_in]]
        if (out - t * a - (1 - t) * b) % m:
            return False
    return True


def count_colorings_brute(d, m: int, t: int) -> int:
    """Enumerate all m^arcs strand colorings over Z/(m)."""
    k = max(d.arc_count, 1)
    return sum(1 for colors in product(range(m), repeat=k) if fox_relation_holds(d, colors, m, t))


def poly_mulmod(a, b, p: int, f) -> tuple:
    """a * b in F_p[T]/(f), residues as tuples of deg f coefficients."""
    deg, lead_inv = len(f) - 1, pow(f[-1], p - 2, p)
    prod = [0] * max(len(a) + len(b), deg)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k] * lead_inv % p
        for j, fj in enumerate(f):
            prod[k - deg + j] -= c * fj
    return tuple(x % p for x in prod[:deg])


def torus_alexander_coeffs(a: int, b: int) -> list[int]:
    """The ascending integer coefficients of the Alexander polynomial of
    the torus knot T(a, b), a and b coprime: the closed form
    (T^ab - 1)(T - 1) / ((T^a - 1)(T^b - 1)), by exact long division over Z
    by the monic denominator.  A mirror has the same polynomial."""
    a, b = abs(a), abs(b)
    num = [0] * (a * b + 2)
    num[0], num[1], num[a * b], num[a * b + 1] = 1, -1, -1, 1
    den = [0] * (a + b + 1)
    den[0] += 1
    den[a] -= 1
    den[b] -= 1
    den[a + b] += 1
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = num[k + len(den) - 1]
        for j, x in enumerate(den):
            num[k + j] -= c * x
    assert not any(num), "the closed form divides exactly"
    return quot


def fp_gcd_degree(x, y, p: int) -> int:
    """The degree of gcd(x, y) over F_p, x and y ascending integer
    coefficient lists not both zero mod p, by the Euclidean algorithm on
    plain lists."""

    def trimmed(c):
        c = [v % p for v in c]
        while c and not c[-1]:
            c.pop()
        return c

    x, y = trimmed(x), trimmed(y)
    while y:
        inv = pow(y[-1], p - 2, p)
        while len(x) >= len(y):
            c, shift = x[-1] * inv, len(x) - len(y)
            x = trimmed([v - c * y[j - shift] if j >= shift else v for j, v in enumerate(x)])
        x, y = y, x
    return len(x) - 1


def count_colorings_poly_brute(d, p: int, f, t) -> int:
    """Enumerate all (p^deg f)^arcs strand colorings over F_p[T]/(f), f and
    t given by ascending coefficients, checking c = t*a + (1-t)*b at every
    crossing by schoolbook arithmetic."""
    deg = len(f) - 1
    one = poly_mulmod((1,), (1,), p, f)
    tt = poly_mulmod(t, (1,), p, f)
    omt = tuple((x - y) % p for x, y in zip(one, tt))
    elements = list(product(range(p), repeat=deg))
    arcs = d.arcs
    count = 0
    for colors in product(elements, repeat=max(d.arc_count, 1)):
        for c in d.crossings:
            b = colors[arcs[c.over_in]]
            if c.sign == 1:
                a, out = colors[arcs[c.under_in]], colors[arcs[c.under_out]]
            else:
                a, out = colors[arcs[c.under_out]], colors[arcs[c.under_in]]
            rhs = zip(poly_mulmod(tt, a, p, f), poly_mulmod(omt, b, p, f))
            if any((o - x - y) % p for o, (x, y) in zip(out, rhs)):
                break
        else:
            count += 1
    return count


def det_mod_prime(rows, p: int) -> int:
    """Determinant of an integer matrix mod p by plain Gaussian elimination."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[pivot], a[k] = a[k], a[pivot]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def int_det_crt(rows) -> int:
    """Exact integer determinant via CRT over a Hadamard bound."""
    n = len(rows)
    if n == 0:
        return 1
    bound = 1
    for row in rows:
        s = sum(x * x for x in row)
        bound *= max(s, 1)
    bound = 2 * (int(bound**0.5) + 2)  # |det| <= sqrt(prod row norms)
    primes = []
    candidate = 1 << 14
    modulus = 1
    while modulus <= bound:
        candidate += 1
        if all(candidate % q for q in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
            modulus *= candidate
    residue = 0
    for p in primes:
        r = det_mod_prime(rows, p)
        m = modulus // p
        residue = (residue + r * m * pow(m, -1, p)) % modulus
    return residue if residue <= modulus // 2 else residue - modulus


def rref_dense(field, rows):
    """Dense Gauss-Jordan over F_q: (reduced rows, pivot column list)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat[:r], pivots


def rank_dense(field, rows) -> int:
    return len(rref_dense(field, rows)[0])


def kernel_basis_dense(field, rows, ncols):
    """One kernel vector per free column of rref_dense, in column order:
    1 at its free column, 0 at the others, minus the reduced column at the
    pivots."""
    red, pivots = rref_dense(field, rows) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = field.element(1)
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][fc])
        basis.append(vec)
    return basis


def sparse_rows(rows) -> tuple:
    """Dense rows as the ((column, value), ...) pairs of their nonzeros,
    the row format the library's sparse routines take."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)


def min_distance_brute(code) -> object:
    """Scan the whole ambient space F_q^n against the parity matrix."""
    field, n = code.field, code.n
    best = None
    for vec in product(range(field.q), repeat=n):
        if not any(vec):
            continue
        if code.contains(vec):
            w = sum(1 for x in vec if x)
            if best is None or w < best:
                best = w
    return float("inf") if best is None else best


def span_lex(field, basis, n: int):
    """Every codeword of the span of basis as a tuple, message coefficients
    in lexicographic order, by field calls on each coordinate."""
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


def weight_counts_brute(code):
    field, n = code.field, code.n
    counts = [0] * (n + 1)
    for vec in product(range(field.q), repeat=n):
        if code.contains(vec):
            counts[sum(1 for x in vec if x)] += 1
    return tuple(counts)


def walked_weights(code):
    """The weight enumerator tallied by hand, one count per word of the full
    Gray walk of codewords(): neither weight_enumerator's projective walk
    nor its fold of the summand codes."""
    counts = [0] * (code.n + 1)
    for word in code.codewords(budget=10**30):
        counts[code.n - word.count(0)] += 1
    return WeightEnumerator(tuple(counts))


def message_weights(field, basis, n: int) -> WeightEnumerator:
    """The weight enumerator of the span of basis over every message, by
    field calls and without unpacking words: for each choice u of all but
    the last row's coefficient, in lexicographic order, the word u + m*g is
    zero at a coordinate where g is nonzero for the one m = -u_j / g_j, and
    for every m where g_j = u_j = 0, so one pass over the coordinates counts
    all q of them."""
    counts = [0] * (n + 1)
    if not basis:
        counts[0] = 1
        return WeightEnumerator(tuple(counts))
    *head, g = basis
    for msg in product(range(field.q), repeat=len(head)):
        u = [0] * n
        for m, row in zip(msg, head):
            u = [field.add(a, field.mul(m, x)) for a, x in zip(u, row)]
        zeros = sum(1 for a, x in zip(u, g) if not a and not x)
        hits = Counter(field.mul(field.neg(a), field.inv(x)) for a, x in zip(u, g) if x)
        for m in range(field.q):
            counts[n - zeros - hits[m]] += 1
    return WeightEnumerator(tuple(counts))


def subcode_last_zero(code, pos=None) -> LinearCode:
    """C' = {x in C : x_pos = 0} (default: the last position), as its own
    code: the parity rows plus the row e_pos."""
    pos = code.n - 1 if pos is None else pos
    if not 0 <= pos < code.n:
        raise ValueError("position outside code length")
    return LinearCode(code.field, code.n, code.parity + (((pos, 1),),))


def _ring_det(ring, rows):
    """Cofactor expansion along the first row over RingZ or RingFpT."""
    if len(rows) == 1:
        return rows[0][0]
    total = ring.zero
    for j, x in enumerate(rows[0]):
        term = ring.mul(x, _ring_det(ring, [row[:j] + row[j + 1 :] for row in rows[1:]]))
        total = ring.sub(total, term) if j % 2 else ring.add(total, term)
    return total


def _normal(ring, x):
    """The associate of x in normal form: positive over Z, monic over F_p[T]."""
    if isinstance(x, int):
        return abs(x)
    return ring.mul(x, (pow(x[-1], -1, ring.p),)) if x else x


def _ring_gcd(ring, a, b):
    """Euclid's algorithm on ring.divmod, in normal form."""
    while b != ring.zero:
        a, b = b, ring.divmod(a, b)[1]
    return _normal(ring, a)


def snf_by_minors(ring, rows) -> tuple:
    """Invariant factors of rows over RingZ or RingFpT, in snf()'s order
    (zeros first, each factor dividing the one before), from determinantal
    divisors: d_k is the gcd of all k x k minors, and the k-th factor from
    the top of the chain is d_k / d_{k-1}, with d_0 = 1."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors = []
    prev = None  # d_{k-1}; None is d_0 = 1
    for k in range(1, min(m, n) + 1):
        d = ring.zero
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                d = _ring_gcd(ring, d, _ring_det(ring, [[rows[i][j] for j in ci] for i in ri]))
        if prev is None or d == ring.zero:
            factors.append(d)
        else:
            q, rem = ring.divmod(d, prev)
            assert rem == ring.zero, "d_{k-1} divides d_k"
            factors.append(q)
        prev = d
    return tuple(reversed(factors))


def content(p: LaurentPoly) -> int:
    return math.gcd(*p.coeffs) if p.coeffs else 0


def primitive_part(p: LaurentPoly) -> LaurentPoly:
    """p over its content, with a positive leading coefficient."""
    if p.is_zero:
        return p
    g = content(p)
    q = LaurentPoly(tuple(c // g for c in p.coeffs), p.min_deg)
    return q if q.coeffs[-1] > 0 else -q


def int_poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Schoolbook divmod in Z[T] of plain polynomials (min_deg >= 0);
    None when the leading coefficient of b fails to divide at some step."""
    if a.min_deg < 0 or b.min_deg < 0:
        raise ValueError("divmod needs plain polynomials (min_deg >= 0)")
    rem = [0] * a.min_deg + list(a.coeffs)
    cb = [0] * b.min_deg + list(b.coeffs)
    q = [0] * max(len(rem) - len(cb) + 1, 0)
    for k in reversed(range(len(q))):
        c, r = divmod(rem[k + len(cb) - 1], cb[-1])
        if r:
            return None
        q[k] = c
        for j, bj in enumerate(cb):
            rem[k + j] -= c * bj
    return LaurentPoly.make(q), LaurentPoly.make(rem[: len(cb) - 1])


def _pseudo_rem(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Pseudo-remainder of plain polynomials: rem(lead(b)^k * a, b), where
    the lead(b)^k scaling makes every division step exact."""
    if a.max_deg < b.max_deg:
        return a
    k = a.max_deg - b.max_deg + 1
    return int_poly_divmod(a * LaurentPoly.const(b.coeffs[-1] ** k), b)[1]


def int_poly_content_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in Z[T] up to sign: gcd of contents times primitive-part gcd, by a
    primitive pseudo-remainder sequence.  Laurent inputs are allowed; T-power
    units are dropped first."""
    if a.is_zero and b.is_zero:
        return ZERO
    if a.is_zero or b.is_zero:
        f = b if a.is_zero else a
        return LaurentPoly(primitive_part(f).coeffs, 0) * LaurentPoly.const(content(f))
    f = LaurentPoly(primitive_part(a).coeffs, 0)
    g = LaurentPoly(primitive_part(b).coeffs, 0)
    while not g.is_zero:
        f, g = g, primitive_part(_pseudo_rem(f, g))
    return f * LaurentPoly.const(math.gcd(content(a), content(b)))
