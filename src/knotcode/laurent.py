"""Exact Laurent polynomial arithmetic over the integers.

A Laurent polynomial c_k T^k + ... + c_m T^m is stored as the coefficient
tuple (c_k, ..., c_m) together with the lowest exponent k.  The stored
coefficients never have zero at either end; the zero polynomial is the
empty tuple with min_deg 0.  All arithmetic is exact (Python ints).

Plain integer polynomials are the special case min_deg >= 0; eval_int
needs one unless t = +-1.
"""

from __future__ import annotations


def as_int(x) -> int:
    """int(x) for an integer read from option or file text; a bool or a
    float with a fraction raises TypeError, since int() would coerce or
    truncate it.  Text must be an optional sign and ASCII digits: the
    blanks, underscores and other digits int() accepts raise ValueError."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise TypeError(f"{x!r} is not an integer")
    if isinstance(x, str):
        digits = x[1:] if x[:1] in ("+", "-") else x
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"invalid literal for int() with base 10: {x!r}")
    return int(x)


class LaurentPoly:
    __slots__ = ("coeffs", "min_deg")

    def __init__(self, coeffs: tuple[int, ...], min_deg: int = 0):
        self.coeffs = coeffs
        self.min_deg = min_deg

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs and self.min_deg == other.min_deg

    def __hash__(self):
        return hash((self.coeffs, self.min_deg))

    def __repr__(self):
        return f"LaurentPoly(coeffs={self.coeffs!r}, min_deg={self.min_deg!r})"

    @staticmethod
    def make(coeffs, min_deg: int = 0) -> "LaurentPoly":
        """Build a normalized Laurent polynomial from any coefficient sequence."""
        c = list(coeffs)
        lo = 0
        while c and c[-1] == 0:
            c.pop()
        while c and c[lo] == 0:
            lo += 1
        if lo:
            c = c[lo:]
        if not c:
            return LaurentPoly((), 0)
        return LaurentPoly(tuple(c), min_deg + lo)

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        return LaurentPoly.make((n,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_deg(self) -> int:
        if self.is_zero:
            return 0
        return self.min_deg + len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple(-c for c in self.coeffs), self.min_deg)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, sign = +-1."""
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other if sign == 1 else -other
        lo = min(self.min_deg, other.min_deg)
        out = [0] * (max(self.max_deg, other.max_deg) - lo + 1)
        i = self.min_deg - lo
        out[i : i + len(self.coeffs)] = self.coeffs
        for k, c in enumerate(other.coeffs, other.min_deg - lo):
            out[k] += sign * c
        return LaurentPoly.make(out, lo)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # a monomial: no sum can cancel
            c = a[0]
            return LaurentPoly(b if c == 1 else tuple(c * x for x in b), self.min_deg + other.min_deg)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return LaurentPoly.make(out, self.min_deg + other.min_deg)

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by T^s."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.min_deg + s)

    def subst_power(self, b: int) -> "LaurentPoly":
        """Substitute T -> T^b (b >= 1)."""
        if b < 1:
            raise ValueError("power substitution needs b >= 1")
        if self.is_zero or b == 1:
            return self
        out = [0] * ((len(self.coeffs) - 1) * b + 1)
        for i, c in enumerate(self.coeffs):
            out[i * b] = c
        return LaurentPoly.make(out, self.min_deg * b)

    def eval_int(self, t: int) -> int:
        """Exact value at an integer t; 0 and negative exponents need t = +-1."""
        if self.is_zero:
            return 0
        if self.min_deg < 0:
            if t in (1, -1):
                return sum(c * t ** ((self.min_deg + i) % 2) for i, c in enumerate(self.coeffs))
            raise ValueError("negative exponents: evaluation only at t = +-1")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc * t ** self.min_deg

    # -- division -----------------------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in Z[T, T^-1] by schoolbook division;
        raises if not divisible."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return ZERO
        a, b = list(self.coeffs), other.coeffs
        q = [0] * max(len(a) - len(b) + 1, 0)
        for k in reversed(range(len(q))):
            c, r = divmod(a[k + len(b) - 1], b[-1])
            if r:
                raise ValueError("polynomial division is not exact")
            q[k] = c
            if c:
                for j, bj in enumerate(b):
                    a[k + j] -= c * bj
        if any(a[: len(b) - 1]):
            raise ValueError("polynomial division is not exact")
        return LaurentPoly.make(q, self.min_deg - other.min_deg)

    # -- normalizations ------------------------------------------------------

    def alexander_normalized(self) -> "LaurentPoly":
        """Scale by +-T^s so min_deg is 0 and the constant term is positive."""
        if self.is_zero:
            return self
        p = LaurentPoly(self.coeffs, 0)
        if p.coeffs[0] < 0:
            p = -p
        return p

    # -- io -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"min_deg": self.min_deg, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj) -> "LaurentPoly":
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):  # text would be read digit by digit
            raise TypeError(f"coeffs must be a list, got {coeffs!r}")
        return LaurentPoly.make([as_int(c) for c in coeffs], as_int(obj["min_deg"]))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.min_deg + i
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}T" if k == 1 else f"{mag}T^{k}"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


ZERO = LaurentPoly((), 0)
ONE = LaurentPoly((1,), 0)
T = LaurentPoly((1,), 1)

