"""Arithmetic in GF(2^m) with alpha = x as the generator of the nonzero elements.

Field elements are ints in [0, 2^m) whose type is exactly int, not bool
or another subclass; Field.check_elements is the one check.  Bit i of an
element is the coefficient of x^i in its binary-polynomial form, so
0b110 = x^2 + x.
A Field instance owns the log/antilog tables for one (m, prim_poly) pair,
is immutable after construction, and may be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable

# One primitive polynomial per supported degree, bit i = coefficient of x^i.
# Construction verifies primitivity, so a bad entry here cannot go unnoticed.
DEFAULT_PRIMITIVE_POLYS: dict[int, int] = {
    3: 0xB,       # x^3 + x + 1
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x43,      # x^6 + x + 1
    7: 0x89,      # x^7 + x^3 + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,     # x^9 + x^4 + 1
    10: 0x409,    # x^10 + x^3 + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x1053,   # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,   # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,   # x^15 + x + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}

MIN_M = 3
MAX_M = 16


class Field:
    """GF(2^m) with precomputed discrete-log tables.

    alpha = x (value 2) must generate the whole multiplicative group,
    i.e. prim_poly must be primitive of degree exactly m; anything else
    is rejected at construction time.
    """

    __slots__ = ("m", "prim_poly", "order", "n", "_exp", "_log", "_hash")

    def __init__(self, m: int, prim_poly: int | None = None):
        if type(m) is not int or not MIN_M <= m <= MAX_M:  # bool fails too
            raise ValueError(f"m must be an int in [{MIN_M}, {MAX_M}], "
                             f"got {m!r}")
        if prim_poly is None:
            prim_poly = DEFAULT_PRIMITIVE_POLYS[m]
        if type(prim_poly) is not int or prim_poly < 0:
            raise ValueError(
                f"prim_poly must be a nonnegative int, got {prim_poly!r}")
        if prim_poly.bit_length() != m + 1:
            raise ValueError(
                f"prim_poly 0x{prim_poly:X} does not have degree {m}")
        if prim_poly & 1 == 0:
            # zero constant term makes x a zero divisor in the quotient ring
            raise ValueError(f"prim_poly 0x{prim_poly:X} is divisible by x")

        self.m = m
        self.prim_poly = prim_poly
        self.order = 1 << m
        self.n = self.order - 1

        exp = [0] * (2 * self.n)
        log = [0] * self.order
        x = 1
        for i in range(self.n):
            if log[x] != 0 or (x == 1 and i > 0):
                raise ValueError(
                    f"prim_poly 0x{prim_poly:X} is not primitive: "
                    f"alpha has order {i}")
            exp[i] = x
            exp[i + self.n] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= prim_poly
        if x != 1:
            raise ValueError(f"prim_poly 0x{prim_poly:X} is not primitive")
        self._exp = tuple(exp)
        self._log = tuple(log)
        # every per-field cache lookup hashes the field, so hash it once
        self._hash = hash((m, prim_poly))

    def mul(self, a: int, b: int) -> int:
        """Product of two elements, unchecked: it is the inner step of
        scalar loops such as tests/reference.py's, which call it n^2
        times per transform."""
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        if self.check_element(a) == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._exp[self.n - self._log[a]]

    def alpha_pow(self, j: int) -> int:
        """alpha**j, for any integer j (reduced mod 2^m - 1)."""
        return self._exp[j % self.n]

    def log(self, a: int) -> int:
        """Discrete log base alpha of a nonzero element, in [0, 2^m - 1)."""
        if self.check_element(a) == 0:
            raise ValueError("zero has no discrete log")
        return self._log[a]

    def check_elements(self, values: Iterable[int]) -> list[int]:
        """The values as a new list, each checked to be an element: an
        exact int in [0, 2^m)."""
        checked, order = list(values), self.order
        for a in checked:
            if type(a) is not int or not 0 <= a < order:
                raise ValueError(
                    f"field element {a!r} is outside GF(2^{self.m})")
        return checked

    def check_element(self, a: int) -> int:
        """a, checked to be an element as by check_elements."""
        return self.check_elements((a,))[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self.m == other.m and self.prim_poly == other.prim_poly

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Field(m={self.m}, prim_poly=0x{self.prim_poly:X})"
