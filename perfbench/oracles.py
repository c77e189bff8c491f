"""Reference mathematics for checking knotcode reports.

Nothing here imports knotcode: matrices are rebuilt from the diagram
files, and every answer comes from a closed form or from plain
elimination and brute-force enumeration on small inputs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# -- fields ---------------------------------------------------------------------


class Field:
    """F_p (modulus None) or F_{2^a} with ascending modulus coefficients.

    Elements are ints: residues for F_p, coefficient bit masks for F_{2^a}.
    """

    def __init__(self, p: int, modulus=None):
        self.p = p
        self.binary = modulus is not None
        if self.binary:
            if p != 2:
                raise ValueError("only binary extension fields are supported")
            self.degree = len(modulus) - 1
            self.mask = sum(1 << i for i, c in enumerate(modulus) if c % 2)
            self.q = 1 << self.degree
        else:
            self.degree = 1
            self.q = p

    def elem(self, value) -> int:
        """An int (reduced mod p, -1 meaning p - 1) or 'alpha' (the class of x)."""
        if value == "alpha":
            return 2 if self.binary else _no_alpha()
        if self.binary:
            return value % 2
        return value % self.p

    def add(self, x, y):
        return x ^ y if self.binary else (x + y) % self.p

    def neg(self, x):
        return x if self.binary else -x % self.p

    def mul(self, x, y):
        if not self.binary:
            return x * y % self.p
        out = 0
        while y:
            if y & 1:
                out ^= x
            y >>= 1
            x <<= 1
            if x >> self.degree & 1:
                x ^= self.mask
        return out

    def inv(self, x):
        if not self.binary:
            return pow(x, self.p - 2, self.p)
        return next(y for y in range(1, self.q) if self.mul(x, y) == 1)

    def eval_int_poly(self, coeffs, t):
        """Integer polynomial (ascending coefficients) evaluated at t."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, t), self.elem(c))
        return acc


def _no_alpha():
    raise ValueError("'alpha' needs an extension field")


def nullity(field: Field, rows, ncols: int) -> int:
    return len(kernel_basis(field, rows, ncols))


def kernel_basis(field: Field, rows, ncols: int) -> list[list[int]]:
    """Row basis of the right kernel by plain Gauss-Jordan elimination."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = field.neg(mat[i][c])
                mat[i] = [field.add(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(mat[i][free])
        basis.append(vec)
    return basis


def codewords(field: Field, basis):
    """Every codeword of the span of basis (q^k tuples, zero word first)."""
    n = len(basis[0]) if basis else 0
    elems = range(field.q)
    for msg in itertools.product(elems, repeat=len(basis)):
        word = [0] * n
        for m, row in zip(msg, basis):
            if m:
                word = [field.add(w, field.mul(m, x)) for w, x in zip(word, row)]
        yield word


def weight_distribution(field: Field, basis, n: int) -> list[int]:
    counts = [0] * (n + 1)
    for word in codewords(field, basis):
        counts[sum(1 for x in word if x)] += 1
    return counts


def min_weight(counts) -> int | None:
    return next((w for w, a in enumerate(counts) if w and a), None)


# -- diagrams ---------------------------------------------------------------------


def arc_labels(crossings) -> dict[int, int]:
    """Edge -> arc, arcs numbered by their smallest edge id.  An arc starts
    at an understrand exit and runs on over every crossing it passes above."""
    into = {}
    for i, c in enumerate(crossings):
        into[c["under_in"]] = (i, False)
        into[c["over_in"]] = (i, True)
    arcs = []
    for c in crossings:
        e, arc = c["under_out"], []
        while True:
            arc.append(e)
            i, passes_over = into[e]
            if not passes_over:
                break
            e = crossings[i]["over_out"]
        arcs.append(arc)
    arcs.sort(key=min)
    return {e: label for label, arc in enumerate(arcs) for e in arc}


def fox_roles(crossings):
    """Per crossing: the overstrand arc and the understrand arcs on the
    over direction's left and right."""
    arc = arc_labels(crossings)
    for c in crossings:
        if c["sign"] == 1:
            left, right = arc[c["under_out"]], arc[c["under_in"]]
        else:
            left, right = arc[c["under_in"]], arc[c["under_out"]]
        yield arc[c["over_in"]], left, right


def fox_rows(field: Field, crossings, t) -> list[list[int]]:
    """Fox matrix at t: 1 - t on the overstrand, -1 on the left
    understrand arc, t on the right one."""
    n = len(crossings)
    rows = []
    for over, left, right in fox_roles(crossings):
        row = [0] * n
        row[over] = field.add(row[over], field.add(1, field.neg(t)))
        row[left] = field.add(row[left], field.neg(1))
        row[right] = field.add(row[right], t)
        rows.append(row)
    return rows


def fox_int_rows_at(crossings, t: int) -> list[list[int]]:
    """Fox matrix over Z at the integer t."""
    n = len(crossings)
    rows = []
    for over, left, right in fox_roles(crossings):
        row = [0] * n
        row[over] += 1 - t
        row[left] -= 1
        row[right] += t
        rows.append(row)
    return rows


def fox_nullity(field: Field, crossings, t) -> int:
    rows = fox_rows(field, crossings, t)
    return nullity(field, rows, len(rows[0]))


# -- integer polynomials (ascending coefficient lists) -----------------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_exact_div(a, b):
    """a / b for a monic-led (leading +-1) divisor b; raises if inexact."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ValueError("inexact polynomial division")
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ValueError("inexact polynomial division")
    return q


def torus_alexander(a: int, b: int) -> list[int]:
    """(T^ab - 1)(T - 1) / ((T^a - 1)(T^b - 1)), ascending coefficients."""
    a, b = abs(a), abs(b)

    def t_pow_minus_one(k):
        return [-1] + [0] * (k - 1) + [1]

    num = poly_mul(t_pow_minus_one(a * b), t_pow_minus_one(1))
    den = poly_mul(t_pow_minus_one(a), t_pow_minus_one(b))
    return poly_exact_div(num, den)


def normalize_alexander(coeffs) -> list[int]:
    """Drop T-power units and make the constant term positive."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    lead = next(i for i, c in enumerate(coeffs) if c)
    coeffs = coeffs[lead:]
    return [-c for c in coeffs] if coeffs[0] < 0 else coeffs


def int_det(rows) -> int:
    """Determinant over Q by elimination on Fractions (small matrices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return int(det)


def alexander_from_diagram(crossings) -> list[int]:
    """Normalized Alexander polynomial: the (1,1) minor of the Fox matrix,
    evaluated at n + 1 integer points and interpolated (degree <= n - 1)."""
    n = len(crossings)
    if n == 0:
        return [1]
    points = list(range(n + 1))
    values = []
    for t in points:
        rows = fox_int_rows_at(crossings, t)
        values.append(int_det([row[1:] for row in rows[1:]]))
    return normalize_alexander(interpolate(points, values))


def interpolate(xs, ys) -> list[int]:
    """Integer coefficients of the Lagrange interpolant through (xs, ys)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = poly_mul(basis, [-xj, 1])
                denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("interpolant is not integral")
    return [int(c) for c in coeffs]


# -- F_p[T] ------------------------------------------------------------------------


def fp_trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_rem(a, b, p):
    a, b = fp_trim(a, p), fp_trim(b, p)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - c * y) % p
        a = fp_trim(a, p)
    return a


def fp_gcd_degree(a, b, p) -> int:
    a, b = fp_trim(a, p), fp_trim(b, p)
    while b:
        a, b = b, fp_rem(a, b, p)
    return len(a) - 1


# -- Smith form over Z --------------------------------------------------------------


def smith_invariants(rows) -> tuple[list[int], int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix from its
    determinantal divisors (gcd of all k x k minors), and the rank."""
    m, n = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, int_det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        divisors.append(g)
    rank = len(divisors) - 1
    return [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)], rank
