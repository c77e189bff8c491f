"""Independent brute-force oracles the fast paths are checked against.

Everything here enumerates or expands definitions directly; none of it
shares code with the SNF / modular determinant / kernel routes it
certifies.  The dense Gauss-Jordan elimination over F_q is the reference
for the sparse one, and fraction-free (Bareiss) elimination over Z[T] the
reference for the determinants by evaluation and Chinese remaindering.
"""

import math
from itertools import combinations, product

from knotcode import fields as ff
from knotcode.codes import LinearCode
from knotcode.coloring import alexander_polynomial
from knotcode.exactlin import IntMod, PolyMod
from knotcode.fields import FqField
from knotcode.laurent import ONE, ZERO, LaurentPoly


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


def bareiss_minors(rows, order: int) -> list:
    """All order x order minors of a dense LaurentPoly matrix by bareiss_det,
    in row-major combination order."""
    return [
        bareiss_det([[rows[i][j] for j in ci] for i in ri])
        for ri in combinations(range(len(rows)), order)
        for ci in combinations(range(len(rows[0])), order)
    ]


def colorable_by_alexander(d, ring, t) -> bool:
    """Nontrivial Fox colorability by the Alexander polynomial: over Z/(m)
    the modulus and Delta(t) share a factor, over F_p[T]/(f) f and Delta(t)
    have a nonconstant gcd, over F_q Delta(t) = 0 (t an int for Z/(m), a
    coefficient tuple for F_p[T]/(f), as FqField.element reads it for F_q)."""
    delta = alexander_polynomial(d)
    if isinstance(ring, IntMod):
        return math.gcd(ring.m, delta.eval_int(t) % ring.m) != 1
    if isinstance(ring, PolyMod):
        f = ff.fp_trim(ring.f, ring.p)
        return ff.poly_gcd(f, ff.fp_compose(delta, ff.fp_trim(t, ring.p), ring.p), ring.p) != (1,)
    if isinstance(ring, FqField):
        return ring.eval_laurent(delta, ring.element(t)) == 0
    raise TypeError(f"unsupported ring {ring!r}")


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
    """Dense F_q rows as the ((column, value), ...) pairs of their nonzeros,
    the row format the library's F_q routines take."""
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


def subcode_last_zero(code, pos=None) -> LinearCode:
    """C' = {x in C : x_pos = 0} (default: the last position), as its own
    code: the parity rows plus the row e_pos."""
    pos = code.n - 1 if pos is None else pos
    if not 0 <= pos < code.n:
        raise ValueError("position outside code length")
    return LinearCode(code.field, code.n, code.parity + (((pos, 1),),))


def mat_mul(ring, A, B):
    """Ring matrix product (certifies U*A*V against the SNF diagonal)."""
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


def snf_diagonal(res):
    """The diagonal matrix U*A*V that snf() certifies (divisibility-increasing
    along the diagonal, zero rows last)."""
    m, n = len(res.U), len(res.V)
    zero = 0 if res.ring_name == "Z" else ()
    chain = [d for d in res.invariant_factors if d != zero]
    chain.reverse()
    out = [[zero] * n for _ in range(m)]
    for i, d in enumerate(chain):
        out[i][i] = d
    return out
