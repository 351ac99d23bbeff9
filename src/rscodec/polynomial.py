"""Dense univariate polynomials over GF(2^m).

coeffs[i] is the coefficient of x^i.  Every Poly is normalized: the last
stored coefficient is nonzero, and the zero polynomial stores nothing at
all.  Its degree is the MINUS_INF sentinel rather than any integer, so a
degree comparison can never confuse the zero polynomial with a constant.

Every product and division goes through one of two row kernels,
multiply_rows and divide_rows, which the key-equation solver shares and
Poly's product, division and scaling call once each; a row is one
operand scaled by one term of the other.  Each kernel alone chooses its
arithmetic from the field's m.  Up to BYTE_MAX_M = 8 every element fits
in a byte, so a row is a bytes object with one coefficient per byte:
scaling is one bytes.translate through a 256-byte table of byte_tables,
and adding rows is one XOR of the rows read as ints, and numpy is never
imported.  From m = 9 on each kernel takes its path from one operand's
length, the longer factor of a product or the divisor of a division.
Below ROW_KERNEL_MIN_LEN coefficients it loops inline over the
log/antilog tables and skips zero terms; from it each row is a single
numpy gather-and-XOR, numpy imported on the first such row.  The
erasure-locator product root_product keeps one packed int up to
BYTE_MAX_M and multiplies one factor at a time through multiply_rows
above it.  Evaluation is Horner's rule over the tables.  All paths give
bit-identical results, as plain ints.

The workbench's CountingField runs the same arithmetic and adds to its
counter what the schoolbook algorithm spends on operands of that shape:
len(a) * len(b) multiplications for a product; q * (dd + [lead != 1])
multiplications and [lead != 1] inversions for a division with q
quotient terms by a divisor of degree dd; len(coeffs) for an evaluation;
and l (l + 1) for a product of l roots, one multiply_rows by
(x - alpha^e) per root.  tests/reference.py holds those schoolbook loops,
counting their own products.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .galois import Field

if TYPE_CHECKING:
    import numpy as np

    # a coefficient row: plain elements, bytes, or a row kernel's intp array
    Row = Sequence[int] | np.ndarray

MINUS_INF = float("-inf")

# Largest m whose elements fit in a byte.  Up to it a row is a bytes object,
# one coefficient per byte, and the kernels are bytes.translate calls.
BYTE_MAX_M = 8

# Shortest operand, in coefficients, whose rows run as numpy gathers: the
# divisor of a division, the longer factor of a product.  Below it a row is
# cheaper as an inline loop over the nonzero terms than as a numpy call
# with its fixed cost of a few us.
ROW_KERNEL_MIN_LEN = 32


class ByteTables(NamedTuple):
    """The byte kernels' tables of a field with m <= BYTE_MAX_M.

    shift[s] maps a log L < n to alpha^(L + s) and every byte from n on to
    0.  mul[c] maps a to c * a, so row.translate(mul[c]) is the row scaled
    by c; it is log.translate(shift[log c]) for a byte table log that maps
    0 to 255, which no log of an element reaches.
    """

    shift: tuple[bytes, ...]
    mul: tuple[bytes, ...]


@cache
def byte_tables(field: Field) -> ByteTables:
    """A field's byte tables, for m <= BYTE_MAX_M.

    Field hashes by (m, prim_poly), so each field's tables are built once
    per process; at m = 8 they hold 511 strings of 256 bytes.
    """
    n, exp = field.n, field._exp
    log = bytearray(b"\xff" * 256)
    log[1:field.order] = field._log[1:]
    log = bytes(log)
    shift = tuple(bytes(exp[s:s + n]) + bytes(256 - n) for s in range(n))
    mul = (bytes(256), *(log.translate(shift[lc]) for lc in field._log[1:]))
    return ByteTables(shift, mul)


@cache
def row_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Antilog and log tables of a field as read-only intp arrays.

    exp[e] = alpha^e for 0 <= e < 3n and is zero from 3n to 5n, and log
    maps 0 to 3n.  So exp[e:][log a] = exp[log a + e] is a * alpha^e for
    every element a, zero included, whenever 0 <= e < 2n, and a row is one
    gather through the view exp[e:].  Each field's tables are built once
    per process.
    """
    import numpy as np

    n = field.n
    exp = np.zeros(5 * n, dtype=np.intp)
    exp[:3 * n] = field._exp + field._exp[:n]
    log = np.array(field._log, dtype=np.intp)
    log[0] = 3 * n
    exp.flags.writeable = False
    log.flags.writeable = False
    return exp, log


def multiply_rows(field: Field, a: Row, b: Row, add: Row = ()) -> Row:
    """a * b + add.

    a and b are coefficient rows, lists, tuples, bytes or intp arrays of
    elements, and add is no longer than the product.  Each term of the
    shorter factor adds one row, the longer factor scaled by that term.
    Only the nonzero terms do.  Up to BYTE_MAX_M a row is one translate
    and one int XOR, and the result is bytes.  From m = 9 on,
    below ROW_KERNEL_MIN_LEN coefficients in the longer factor the product
    is an inline loop over both factors' nonzero terms and the result a
    list; from it a row is one numpy gather and the result an intp array.
    """
    if len(a) < len(b):
        a, b = b, a
    size = len(a) + len(b) - 1
    if type(field) is not Field:  # the schoolbook count, zero terms included
        field.counter.add(len(a) * len(b))
    if field.m <= BYTE_MAX_M:
        mul, a = byte_tables(field).mul, bytes(a)
        acc = int.from_bytes(bytes(add), "little")
        for j, c in enumerate(b):
            if c:
                acc ^= int.from_bytes(a.translate(mul[c]), "little") << 8 * j
        return acc.to_bytes(size, "little")
    log = field._log
    if len(a) < ROW_KERNEL_MIN_LEN:
        exp = field._exp
        out = [*add] + [0] * (size - len(add))
        b_logs = [(j, log[c]) for j, c in enumerate(b) if c]
        for i, c in enumerate(a):
            if c:
                lc = log[c]
                for j, lc_b in b_logs:
                    out[i + j] ^= exp[lc + lc_b]
        return out
    import numpy as np

    exp_rows, log_rows = row_tables(field)
    out = np.zeros(size, dtype=np.intp)
    out[:len(add)] = add
    a_logs = log_rows[np.asarray(a, dtype=np.intp)]
    for j, c in enumerate(b):
        if c:
            out[j:j + len(a)] ^= exp_rows[log[c]:][a_logs]
    return out


def divide_rows(field: Field, num: Row, den: Row) -> tuple[Row, Row]:
    """Quotient and remainder of num by den.

    num and den are coefficient rows as in multiply_rows, num at least as
    long as den and den with a nonzero lead.  Returns the quotient and the
    remainder without trailing zeros.  Up to BYTE_MAX_M both are bytes: the
    remainder is one int, num with its lead in the low byte, and each step
    clears that byte with one translate of the divisor, one XOR and one
    shift.  From m = 9 on the quotient is a list; below ROW_KERNEL_MIN_LEN
    coefficients in the divisor each row is an inline loop over its
    nonzero terms and the remainder a list, and from it each row is one
    numpy gather-and-XOR and the remainder an intp array, a view of num
    when num is one, since num is then reduced in place.
    """
    dd = len(den) - 1
    if type(field) is not Field:
        # the schoolbook count: one inversion of a lead other than 1, and
        # per quotient term one product by it and one per lower term
        inverts = 0 if den[dd] == 1 else 1
        field.counter.add((len(num) - dd) * (dd + inverts), inverts)
    if field.m <= BYTE_MAX_M:
        mul = byte_tables(field).mul
        inv_lead = field._exp[field.n - field._log[den[dd]]]
        # the divisor below its lead, monic and reversed to match rem
        tail = bytes(den)[-2::-1].translate(mul[inv_lead])
        rem = int.from_bytes(bytes(num), "big")
        tops = bytearray()
        for _ in range(len(num) - dd):
            top = rem & 255
            rem >>= 8
            tops.append(top)
            if top:
                rem ^= int.from_bytes(tail.translate(mul[top]), "little")
        return (bytes(tops)[::-1].translate(mul[inv_lead]),
                rem.to_bytes(dd, "big").rstrip(b"\0"))
    exp, log, n = field._exp, field._log, field.n
    # log of 1/lead, so log(cur / lead) = log(cur) + inv_lead_log
    inv_lead_log = n - log[den[dd]]
    quot = [0] * (len(num) - dd)
    rows = len(den) >= ROW_KERNEL_MIN_LEN
    if rows:
        import numpy as np

        exp_rows, log_rows = row_tables(field)
        rem = np.asarray(num, dtype=np.intp)
        den_logs = log_rows[np.asarray(den, dtype=np.intp)]
    else:  # an array num is a Euclid remainder from before the rows ended
        rem = list(num) if isinstance(num, (list, tuple)) else num.tolist()
        den_logs = [(j, log[c]) for j, c in enumerate(den[:dd]) if c]
    for shift in range(len(quot) - 1, -1, -1):
        cur = rem[shift + dd]
        if cur:
            lf = log[cur] + inv_lead_log
            if lf >= n:
                lf -= n
            quot[shift] = exp[lf]
            if rows:  # the divisor's lead clears rem[shift + dd] too
                rem[shift:shift + dd + 1] ^= exp_rows[lf:][den_logs]
            else:
                for j, ld in den_logs:
                    rem[shift + j] ^= exp[lf + ld]
    while dd and not rem[dd - 1]:
        dd -= 1
    return quot, rem[:dd]


class Poly:
    """Immutable polynomial bound to one field context."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        cs = field.check_elements(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: Field, coeffs: Row) -> Poly:
        # internal fast path: coefficients already known to be valid
        # elements, as a list or tuple or as a row kernel's bytes or intp
        # array
        if type(coeffs) is bytes:
            coeffs = coeffs.rstrip(b"\0")
        else:
            if type(coeffs) is tuple:
                coeffs = list(coeffs)
            elif type(coeffs) is not list:
                coeffs = coeffs.tolist()
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls, field: Field) -> Poly:
        return cls._make(field, [])

    @classmethod
    def one(cls, field: Field) -> Poly:
        return cls._make(field, [1])

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; MINUS_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def _compat(self, other: Poly) -> None:
        a, b = self.field, other.field
        if a.m != b.m or a.prim_poly != b.prim_poly:
            raise ValueError(f"mixed field contexts: {a!r} vs {b!r}")

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Poly._make(self.field, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._make(self.field, [])
        return Poly._make(self.field, multiply_rows(self.field, a, b))

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder; degree(remainder) < degree(other)."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        if other.is_zero:
            raise ValueError("polynomial division by zero")
        f, num, den = self.field, self.coeffs, other.coeffs
        if len(num) < len(den):  # self is zero or of lower degree
            return Poly._make(f, []), self
        quot, rem = divide_rows(f, num, den)
        return Poly._make(f, quot), Poly._make(f, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def scale(self, c: int) -> Poly:
        """Product with the scalar c, an element of the field."""
        f = self.field
        return Poly._make(f, multiply_rows(f, self.coeffs,
                                           (f.check_element(c),)))

    def evaluate(self, at: int) -> int:
        """Value of the polynomial at the element at, by Horner's rule."""
        f = self.field
        f.check_element(at)
        if type(f) is not Field:  # Horner's count, one product per term
            f.counter.add(len(self.coeffs))
        if not at:
            return self.coeffs[0] if self.coeffs else 0
        exp, log = f._exp, f._log
        la = log[at]
        acc = 0
        for c in reversed(self.coeffs):
            acc = exp[log[acc] + la] ^ c if acc else c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.coeffs == other.coeffs
                and self.field.m == other.field.m
                and self.field.prim_poly == other.field.prim_poly)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        # textual form: coefficients low-to-high, space separated
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"

    def __repr__(self) -> str:
        return f"Poly(GF(2^{self.field.m}), {list(self.coeffs)})"


def xn_minus_one(field: Field, n: int) -> Poly:
    """x^n - 1, which in characteristic 2 is x^n + 1; n a positive int."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    return Poly._make(field, [1] + [0] * (n - 1) + [1])


def root_product(field: Field, exponents: Iterable[int]) -> Poly:
    """Monic product of (x - alpha^e) over the exponents, e in [0, n).

    Up to BYTE_MAX_M the product is one int, a byte per coefficient, and
    (x - a) p = x p + a p is one shift, one translate and one XOR.  From
    m = 9 on the product's row is multiplied by one factor at a time
    through multiply_rows, so the row kernels choose the arithmetic.
    Either way a CountingField counts l (l + 1) products for l roots.
    """
    if field.m <= BYTE_MAX_M:
        exp, mul = field._exp, byte_tables(field).mul
        product, size = 1, 1
        for e in exponents:
            product = (product << 8) ^ int.from_bytes(product.to_bytes(
                size, "little").translate(mul[exp[e]]), "little")
            size += 1
        if type(field) is not Field:  # multiply_rows' count, root by root
            field.counter.add(size * (size - 1))
        return Poly._make(field, product.to_bytes(size, "little"))
    row = (1,)
    for e in exponents:
        row = multiply_rows(field, row, (field.alpha_pow(e), 1))
    return Poly._make(field, row)
