"""Primality, the Euclidean domains Z and F_p[T] (RingZ, RingFpT) the
Smith form runs in, Z[T, T^-1] (RingLaurent) for the unit-pivot
elimination of the Alexander polynomial, and the coloring rings: Z/m
(IntMod), F_p[x]/(f) (PolyMod) and the field F_{p^a} (FqField, the
PolyMod whose modulus is monic and irreducible).

Polynomials over F_p are ascending coefficient tuples of ints in
{0, ..., p-1}; the zero polynomial is the empty tuple.  RingFpT(p) is the
one implementation of their arithmetic, and PolyMod reduces, takes gcds
and extended gcds through it.  F_p[x]/(f) has one implementation,
PolyMod, on encoded ints in range(p^a), a = deg f: the element with
coefficient vector (c_0, ..., c_{a-1}) is c_0 + c_1 p + ... .  These ints
are the only element type of F_p[x]/(f) and of F_q (one is 1); a word
(codeword, coloring) is a sequence of them.  A t is read by element: an
int n is n * 1 (so -1 is p - 1), a sequence the ascending coefficients.
A product is a lookup in a lazy multiplication table up to q = 64
(_TABLE_LIMIT), which keeps the linear algebra and the codeword
enumeration on plain ints; past it, one int product by Kronecker
substitution, the coefficients in slots of one int.  Inverses are
memoized per ring: each element's is read off its table row, or past
the table taken by one extended gcd, on its first call.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import zip_longest

from .laurent import ZERO, LaurentPoly

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # the witnesses decide primality below this
_TABLE_LIMIT = 64  # build the q x q multiplication table only up to this q


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, ..., 37, after checking whether one of
    them divides n.  Those bases decide primality below _MR_BOUND (Sorenson
    & Webster 2015); at or above it, a base can still prove n composite,
    but an n that passes every base is a ValueError, since no base set is
    proven to certify it prime."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify that {n} is prime: Miller-Rabin is proven only below {_MR_BOUND}")
    return True


def _prime_factors(n: int):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- Smith-form hooks for the Euclidean domains Z and F_p[T] ----------------

class RingZ:
    """Euclidean-domain hooks for Z."""

    name = "Z"
    zero = 0

    def norm(self, x):
        return abs(x)

    def normal(self, x):
        """The associate in normal form: |x|."""
        return abs(x)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def divmod(self, x, y):
        return divmod(x, y)


class RingFpT:
    """F_p[T], p prime, on ascending coefficient tuples: the arithmetic
    PolyMod computes through, and the Euclidean-domain hooks the Smith
    form runs in.  Results are trimmed: reduced mod p, no zero leading
    coefficient."""

    zero = ()

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not a prime")
        self.p = p
        self.name = f"F_{p}[T]"

    def trim(self, c) -> tuple[int, ...]:
        p = self.p
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def norm(self, x):
        return len(x)

    def normal(self, x):
        """The associate in normal form: x made monic."""
        if not x:
            return x
        inv = pow(x[-1], self.p - 2, self.p)
        return self.trim([c * inv for c in x])

    def add(self, x, y):
        return self.trim([a + b for a, b in zip_longest(x, y, fillvalue=0)])

    def sub(self, x, y):
        return self.trim([a - b for a, b in zip_longest(x, y, fillvalue=0)])

    def mul(self, x, y):
        if not x or not y:
            return ()
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    out[i + j] += a * b
        return self.trim(out)

    def divmod(self, x, y):
        if not y:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        r = list(x)
        inv_lead = pow(y[-1], p - 2, p)
        q = [0] * max(len(r) - len(y) + 1, 0)
        for k in range(len(q) - 1, -1, -1):
            c = q[k] = r[k + len(y) - 1] * inv_lead % p
            if c:
                for j, b in enumerate(y):
                    r[k + j] = (r[k + j] - c * b) % p
        return self.trim(q), self.trim(r[: len(y) - 1])

    def gcd(self, x, y):
        """The monic gcd."""
        x, y = self.trim(x), self.trim(y)
        while y:
            x, y = y, self.divmod(x, y)[1]
        return self.normal(x)

    def gcdext(self, x, y):
        """(g, s): g the monic gcd of x and y, s x = g mod y."""
        r0, r1 = self.trim(x), self.trim(y)
        s0, s1 = (1,), ()
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
        if not r0:
            return (), s0
        return self.normal(r0), self.mul(s0, (pow(r0[-1], self.p - 2, self.p),))


# -- Z[T, T^-1], where the Alexander polynomial is eliminated ------------------

class RingLaurent:
    """Z[T, T^-1] on LaurentPoly: the hooks the sparse elimination in
    exactlin pivots with, whose units are exactly +-T^k."""

    zero = ZERO

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        """The inverse of +-T^k; None on anything else."""
        if len(x.coeffs) == 1 and x.coeffs[0] in (1, -1):
            return LaurentPoly(x.coeffs, -x.min_deg)
        return None


# -- the coloring rings Z/m, F_p[x]/(f) and F_q ----------------------------------
#
# A coloring ring has zero, sub, mul and inv, where inv returns the inverse
# of a unit and None otherwise (what the sparse elimination in exactlin
# pivots on); size; at(t), the ring map Z[T, T^-1] -> R sending T to t,
# which raises ValueError unless t is a unit (an int t is n * 1 in each
# ring, so -1 works everywhere); cover, the Euclidean ring R is a quotient
# of, where the Smith form of what the elimination leaves runs; lift(x),
# an element's representative in the cover; and annihilated_by(d), how
# many x in R have d * x = 0 for d in the cover.


class IntMod:
    """Z/(m), m >= 2, on ints in range(m); m is never factored."""

    zero = 0
    cover = RingZ()

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"IntMod(m={self.m!r})"

    @property
    def size(self) -> int:
        return self.m

    def annihilated_by(self, d: int) -> int:
        return math.gcd(self.m, d)

    def at(self, t: int):
        if math.gcd(self.m, t % self.m) != 1:
            raise ValueError(f"t = {t} is not invertible mod {self.m}")
        return partial(self.eval_laurent, t=t % self.m)

    def eval_laurent(self, poly: LaurentPoly, t: int) -> int:
        """Evaluate an integer Laurent polynomial at t in range(m), a unit
        if poly has negative exponents."""
        m = self.m
        acc = 0
        for c in reversed(poly.coeffs):
            acc = (acc * t + c) % m
        return acc * pow(t, poly.min_deg, m) % m

    def lift(self, x: int) -> int:
        return x

    def sub(self, x, y):
        return (x - y) % self.m

    def mul(self, x, y):
        return x * y % self.m

    def inv(self, x):
        return pow(x, -1, self.m) if math.gcd(x, self.m) == 1 else None


def _slots(coeffs, s: int) -> int:
    """The coefficients c_0, c_1, ... in the s-bit slots of one int:
    c_0 + c_1 2^s + ...."""
    return sum(c << i * s for i, c in enumerate(coeffs))


class PolyMod:
    """F_p[x]/(f), p prime and f of degree a >= 1 by ascending coefficients
    (kept reduced mod p); f is never factored.  Elements are the encoded
    ints of range(p^a), c_0 + c_1 x + ... as c_0 + c_1 p + ...; inv
    returns None on a non-unit."""

    zero = 0

    def __init__(self, p: int, f):
        self.cover = RingFpT(p)  # checks that p is prime
        self.f = self.cover.trim(f)
        if len(self.f) < 2 or len(self.f) != len(f):  # a leading 0 mod p would drop the degree
            raise ValueError(f"modulus {list(f)} must have degree >= 1 and a leading coefficient nonzero mod {p}")
        self.p = p
        self.a = len(self.f) - 1
        self.q = p**self.a
        self._mul_table = None
        self._inverses = {}  # element -> inverse or None, filled by inv

    def __eq__(self, other):
        return type(other) is type(self) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))

    def __repr__(self):
        return f"PolyMod(p={self.p}, f={self.f})"

    @property
    def size(self) -> int:
        return self.q

    def annihilated_by(self, d) -> int:
        return self.p ** (len(self.cover.gcd(self.f, d)) - 1)

    def at(self, t):
        tv = self.element(t)
        if not tv or self.inv(tv) is None:
            raise ValueError("t must be invertible (a unit of the ring)")
        return partial(self.eval_laurent, t=tv)

    def lift(self, x: int) -> tuple[int, ...]:
        return self.cover.trim(self.decode(x))

    def is_field(self) -> bool:
        """Distinct-degree test: f of degree a is irreducible over F_p iff
        x^(p^a) = x and gcd(x^(p^(a/l)) - x, f) = 1 for each prime l | a."""
        p, a = self.p, self.a
        x = self.element((0, 1))
        if self.pow(x, p**a) != x:
            return False
        gcds = (self.cover.gcd(self.lift(self.sub(self.pow(x, p ** (a // l)), x)), self.f) for l in _prime_factors(a))
        return all(g == (1,) for g in gcds)

    def encode(self, coeffs) -> int:
        coeffs = self.cover.trim(coeffs)
        if len(coeffs) > self.a:
            coeffs = self.cover.divmod(coeffs, self.f)[1]
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + c
        return val

    def decode(self, val: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.a):
            val, r = divmod(val, self.p)
            out.append(r)
        return tuple(out)

    def add(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.p
        return self._digitwise(x, y, 1)

    def sub(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x - y) % self.p
        return self._digitwise(x, y, -1)

    def neg(self, x: int) -> int:
        if self.a == 1:
            return -x % self.p
        return self._digitwise(0, x, -1)

    def _digitwise(self, x: int, y: int, sign: int) -> int:
        """x + sign * y, one base-p digit (coefficient) at a time."""
        p = self.p
        if p == 2:  # one bit per digit, and + and - mod 2 are both xor
            return x ^ y
        out, mult = 0, 1
        for _ in range(self.a):
            out += (x + sign * y) % p * mult
            x //= p
            y //= p
            mult *= p
        return out

    def mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        if self.q <= _TABLE_LIMIT:
            return self.mul_table[x * self.q + y]
        return self._mul_slow(x, y)

    def _mul_slow(self, x: int, y: int) -> int:
        """x * y by Kronecker substitution (von zur Gathen & Gerhard, Modern
        Computer Algebra, 8.4): each factor's coefficients sit in s-bit slots
        of one int, one int product gives the 2a - 1 slots of the product
        polynomial, and the a - 1 high slots are folded back in one pass,
        slot k times X^k mod f (k = a..2a-2, coefficients in 0..p-1) added
        to the a low slots, which are then read mod p back into base p.

        No slot ever carries into the next: each slot of the product is a
        sum of at most a terms x_i y_j <= (p-1)^2, so at most a (p-1)^2, and
        the fold adds a - 1 such slots, each times a coefficient <= p - 1.
        Every term is nonnegative, so a slot never exceeds
        a (p-1)^2 (1 + (a-1)(p-1)), and s is the least width with 2^s
        above that."""
        s, mask, top, low_mask, shifts, folds, packed = self._kronecker
        px = packed.get(x)
        if px is None:
            px = packed[x] = _slots(self.decode(x), s)
        py = packed.get(y)
        if py is None:
            py = packed[y] = _slots(self.decode(y), s)
        prod = px * py
        low, high = prod & low_mask, prod >> top
        for r in folds:
            low += (high & mask) * r
            high >>= s
        p, out = self.p, 0
        for shift in shifts:
            out = out * p + (low >> shift & mask) % p
        return out

    @cached_property
    def _kronecker(self):
        """The constants of _mul_slow, built on its first call: the slot width
        s, the least with a (p-1)^2 (1 + (a-1)(p-1)) < 2^s; a slot's mask; the
        a low slots' width a s and mask; their shifts, highest first; X^k mod
        f for k = a..2a-2, packed; and the memo of packed elements, which
        grows only with the elements multiplied."""
        p, a = self.p, self.a
        s = (a * (p - 1) ** 2 * (1 + (a - 1) * (p - 1))).bit_length()
        monomials = ((0,) * k + (1,) for k in range(a, 2 * a - 1))
        folds = tuple(_slots(self.cover.divmod(m, self.f)[1], s) for m in monomials)
        shifts = tuple(range((a - 1) * s, -1, -s))
        return s, (1 << s) - 1, a * s, (1 << a * s) - 1, shifts, folds, {}

    @property
    def mul_table(self):
        """The products x * y at x * q + y, for q up to _TABLE_LIMIT.  Only the
        rows of the monomials x^i (encoded p^i) are slow products; every
        other row x is row(x - m) + row(m), m the leading monomial of x."""
        if self._mul_table is None and self.q <= _TABLE_LIMIT:
            q, rows = self.q, [[0] * self.q]
            for x in range(1, q):
                m = self.p ** (len(self.lift(x)) - 1)
                row = [self._mul_slow(x, y) for y in range(q)] if x == m else [*map(self.add, rows[x - m], rows[m])]
                rows.append(row)
            self._mul_table = [v for row in rows for v in row]
        return self._mul_table

    def inv(self, x: int) -> int | None:
        """x's inverse, None on a non-unit.  Each element's answer is found
        once, on its first call, and memoized per ring: read off its
        mul_table row (where the row has 1) up to _TABLE_LIMIT, else from
        the extended gcd with f."""
        if self.a == 1:
            return pow(x, self.p - 2, self.p) if x else None
        try:
            return self._inverses[x]
        except KeyError:
            pass
        q, table = self.q, self.mul_table
        if table is not None:
            row = table[x * q : x * q + q]
            y = row.index(1) if 1 in row else None
        else:
            g, s = self.cover.gcdext(self.decode(x), self.f)
            y = self.encode(s) if g == (1,) else None
        self._inverses[x] = y
        return y

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.inv(x), -e
            if x is None:
                raise ZeroDivisionError("negative power of a non-unit")
        out, base = 1, x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def eval_laurent(self, poly: LaurentPoly, t: int) -> int:
        """Evaluate an integer Laurent polynomial at the element t, a unit
        if poly has negative exponents."""
        if poly.is_zero:
            return 0
        acc = 0
        for c in reversed(poly.coeffs):
            acc = self.add(self.mul(acc, t), c % self.p)
        return self.mul(acc, self.pow(t, poly.min_deg))

    def element(self, value) -> int:
        """The encoded int of t: an int n is n * 1, a sequence the ascending
        coefficients c_0, c_1, ... of c_0 + c_1 x + ...."""
        if isinstance(value, int):
            return value % self.p
        return self.encode(value)

    def word(self, values) -> list[int]:
        """A word (codeword, coloring) as a list of encoded ints; a value
        outside range(q) is a ValueError, not reduced."""
        vec = list(values)
        if not all(0 <= x < self.q for x in vec):
            raise ValueError(f"a word's values must be encoded elements of {self}, in range({self.q})")
        return vec


class FqField(PolyMod):
    """F_{p^a} = F_p[x]/(modulus), modulus monic and irreducible (default
    x, the prime field); elements are ints in range(p^a).  Elimination
    over a field leaves nothing for a Smith form in the cover F_p[x]."""

    def __init__(self, p: int, modulus=None):
        super().__init__(p, (0, 1) if modulus is None else modulus)
        if self.f[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if self.a > 1 and not self.is_field():  # degree 1 is irreducible
            raise ValueError("modulus is reducible")

    def __repr__(self):
        if self.a == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(p={self.p}, modulus={list(self.f)})"

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return PolyMod.inv(self, x)

    def order(self, x: int) -> int:
        """Multiplicative order; divides q - 1."""
        if x == 0:
            raise ValueError("zero has no multiplicative order")
        n = self.q - 1
        order = n
        for l in _prime_factors(n):
            while order % l == 0 and self.pow(x, order // l) == 1:
                order //= l
        return order
