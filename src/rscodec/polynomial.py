"""Dense univariate polynomials over GF(2^m), their row kernels, and the
key-equation solve that every decoder runs.

coeffs[i] is the coefficient of x^i.  Every Poly is normalized: the last
stored coefficient is nonzero, and the zero polynomial stores nothing at
all.  Its degree is the MINUS_INF sentinel rather than any integer, so a
degree comparison can never confuse the zero polynomial with a constant.

Every product and division goes through one of two row kernels,
multiply_rows and divide_rows, which Poly's product and division call
once each; a row is one operand scaled by one term of the other.  Each
kernel alone chooses its arithmetic from the field's m.  Up to
BYTE_MAX_M = 8 every element fits in a byte, so a row is a bytes object
with one coefficient per byte: scaling is one bytes.translate through a
256-byte table of byte_tables, and adding rows is one XOR of the rows
read as ints, and numpy is never imported.  From m = 9 on each kernel
takes its path from one operand's length, the longer factor of a
product or the divisor of a division.
Below ROW_KERNEL_MIN_LEN coefficients it loops inline over the
log/antilog tables and skips zero terms; from it each row is a single
numpy gather-and-XOR, numpy imported on the first such row.  The
erasure-locator product root_product keeps one packed int up to
BYTE_MAX_M and multiplies one factor at a time through multiply_rows
above it.  Evaluation is Horner's rule over the tables.  All paths give
bit-identical results, as plain ints.

Every decoder reduces to one key equation: given a modulus and a known
polynomial below it, find the monic locator W of lowest degree and the
combination P with W * known = P (mod modulus) and deg P below a stop
degree.  solve runs the extended Euclidean algorithm on (modulus, known)
and stops at the first remainder below the stop degree: that remainder
is P and its cofactor against known is W, both scaled by one factor so
that W is monic.  Only the remainders and the known-side cofactors are
tracked, which is all the congruence needs.  Up to BYTE_MAX_M the whole
solve, the scaling included, is one euclid_bytes pass over packed ints.
From m = 9 on solve runs the recurrence itself: one divide_rows and one
multiply_rows call per division, and, only when the last cofactor is not
already monic, one inversion and two multiply_rows calls to scale the
pair.

The workbench's CountingField runs the same arithmetic and adds to its
counter what the schoolbook algorithm spends on operands of that shape:
len(a) * len(b) multiplications for a product; q * (dd + [lead != 1])
multiplications and [lead != 1] inversions for a division with q
quotient terms by a divisor of degree dd, which euclid_bytes adds per
division with q len(v) for its cofactor v, and len(r) + len(v)
multiplications and one inversion when it scales its last pair (r, v),
the inversion that solve counts itself from m = 9 on; len(coeffs) for an
evaluation; and l (l + 1) for a product of l roots, one multiply_rows by
(x - alpha^e) per root.  tests/reference.py holds those schoolbook
loops, counting their own products.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
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
    shift, and writes it in place into the quotient row from the top
    index down.  From m = 9 on the quotient is a list; below
    ROW_KERNEL_MIN_LEN coefficients in the divisor each row is an inline
    loop over its nonzero terms and the remainder a list, and from it
    each row is one numpy gather-and-XOR and the remainder an intp array,
    a view of num when num is one, since num is then reduced in place.
    """
    dd = len(den) - 1
    if type(field) is not Field:
        # the schoolbook count: one inversion of a lead other than 1, and
        # per quotient term one product by it and one per lower term
        inverts = 0 if den[dd] == 1 else 1
        field.counter.add((len(num) - dd) * (dd + inverts), inverts)
    if field.m <= BYTE_MAX_M:
        mul, from_bytes = byte_tables(field).mul, int.from_bytes
        over_lead = mul[field._exp[field.n - field._log[den[dd]]]]
        # the divisor below its lead, monic and reversed to match rem
        translate = bytes(den)[-2::-1].translate(over_lead).translate
        rem = from_bytes(bytes(num), "big")
        tops = bytearray(len(num) - dd)
        for s in range(len(tops) - 1, -1, -1):
            top = rem & 255
            rem >>= 8
            if top:
                tops[s] = top
                rem ^= from_bytes(translate(mul[top]), "little")
        return (bytes(tops).translate(over_lead),
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


def euclid_bytes(field: Field, modulus: Row, known: Row,
                 stop: int) -> tuple[bytes, bytes, int]:
    """The key equation's remainder sequence up to BYTE_MAX_M, in one pass.

    modulus and known are rows without trailing zeros, known the shorter.
    Divides each remainder by the next, from (modulus, known), until one
    has at most stop coefficients, and carries each remainder's cofactor
    against known: v_next = v_prev + quotient * v_cur.  Returns that
    remainder and its cofactor as bytes rows, both scaled by one factor so
    that the cofactor is monic, and the number of divisions.  A known
    with at most stop coefficients, zero included, comes back as it is
    with the cofactor 1, in no divisions and at no count.

    The sibling of divide_rows, kept packed from the first division to the
    last cofactor: a remainder is one int with its lead in the low byte,
    as divide_rows holds it, and a cofactor one little-endian int.  Each
    quotient term q clears a remainder's low byte with one translate of
    the divisor's tail by mul[q], and adds the same translate of the
    current cofactor at its degree; no quotient row is built.  A last
    cofactor whose lead is not 1 and its remainder are scaled by one
    translate each through mul[1 / lead].  A CountingField counts what
    divide_rows and multiply_rows count on those operands: per division
    q * (dd + [lead != 1]) multiplications and [lead != 1] inversions,
    with q quotient terms by a divisor of degree dd, and q * len(v_cur)
    for the cofactor; for the scaling one inversion and one product per
    term of the pair.
    """
    exp, log, n = field._exp, field._log, field.n
    mul, from_bytes = byte_tables(field).mul, int.from_bytes
    counted = type(field) is not Field
    r_prev, la = from_bytes(bytes(modulus), "big"), len(modulus)
    r_cur, lb = from_bytes(bytes(known), "big"), len(known)
    v_prev, v_cur, lv = 0, 1, 1
    mults = invs = iterations = 0
    while lb > stop:
        lead = r_cur & 255
        over_lead = mul[exp[n - log[lead]]]  # c to c / lead
        tail = (r_cur >> 8).to_bytes(lb - 1, "little")
        row = v_cur.to_bytes(lv, "little")
        rem, v_next = r_prev, v_prev
        for s in range(la - lb, -1, -1):
            top = rem & 255
            rem >>= 8
            if top:
                q = mul[over_lead[top]]
                rem ^= from_bytes(tail.translate(q), "little")
                v_next ^= from_bytes(row.translate(q), "little") << 8 * s
        terms = la - lb + 1
        if counted:  # divide_rows' count, then multiply_rows'
            inverts = lead != 1
            mults += terms * (lb - 1 + inverts) + terms * lv
            invs += inverts
        lr = lb - 1  # the degree may drop by more than one
        while lr and not rem & 255:
            rem >>= 8
            lr -= 1
        r_prev, r_cur, la, lb = r_cur, rem, lb, lr
        v_prev, v_cur, lv = v_cur, v_next, lv + terms - 1
        iterations += 1
    r_row, v_row = r_cur.to_bytes(lb, "big"), v_cur.to_bytes(lv, "little")
    if v_row[-1] != 1:  # scale the pair so that the cofactor is monic
        over_lead = mul[exp[n - log[v_row[-1]]]]
        r_row, v_row = r_row.translate(over_lead), v_row.translate(over_lead)
        if counted:  # the inversion, then multiply_rows' count per row
            mults += lb + lv
            invs += 1
    if counted:
        field.counter.add(mults, invs)
    return r_row, v_row, iterations


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


def xn_minus_one(field: Field) -> Poly:
    """x^n - 1 for the field's n = 2^m - 1; in characteristic 2 it is
    x^n + 1."""
    return Poly._make(field, [1] + [0] * (field.n - 1) + [1])


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


@dataclass(frozen=True)
class KeyEquationProblem:
    """One instance of the key equation to solve.

    stop_degree is exclusive: iteration ends at the first remainder with
    degree(remainder) < stop_degree.
    """

    modulus: Poly
    known: Poly
    stop_degree: int

    def __post_init__(self) -> None:
        self.known._compat(self.modulus)
        if self.known.degree >= self.modulus.degree:
            raise ValueError(
                f"known degree {self.known.degree} must be below "
                f"modulus degree {self.modulus.degree}")
        if (type(self.stop_degree) is not int
                or not 0 < self.stop_degree <= self.modulus.degree):
            raise ValueError(
                f"stop_degree must be an int in (0, {self.modulus.degree}], "
                f"got {self.stop_degree!r}")


@dataclass(frozen=True)
class KeyEquationSolution:
    """Monic locator, matching combination, and the iteration count."""

    locator: Poly
    combination: Poly
    iterations: int


def solve(problem: KeyEquationProblem) -> KeyEquationSolution:
    """Run the partial extended Euclidean algorithm on one problem.

    Returns the pair scaled so the locator is monic.  A zero known
    polynomial yields (1, 0) in zero iterations.  The result satisfies
    locator * known = combination (mod modulus) with
    degree(combination) < stop_degree.  See the module docstring for how
    each m runs and counts it.
    """
    field = problem.modulus.field
    r_prev, r_cur = problem.modulus.coeffs, problem.known.coeffs
    stop = problem.stop_degree

    if field.m <= BYTE_MAX_M:  # the pass returns the pair already monic
        r_cur, v_cur, iterations = euclid_bytes(field, r_prev, r_cur, stop)
    else:
        v_prev, v_cur = [], [1]
        iterations = 0
        while len(r_cur) > stop:  # degree(r_cur) >= stop
            quot, r_next = divide_rows(field, r_prev, r_cur)
            r_prev, r_cur = r_cur, r_next
            # v_prev + quot * v_cur; the product has the higher degree
            v_prev, v_cur = v_cur, multiply_rows(field, quot, v_cur, v_prev)
            iterations += 1
        if v_cur[-1] != 1:  # scale so the locator is monic
            # the lead may be a numpy scalar, which inv refuses
            factor = (field.inv(int(v_cur[-1])),)
            if type(field) is not Field:  # the kernels count the products
                field.counter.add(0, 1)
            v_cur = multiply_rows(field, factor, v_cur)
            r_cur = multiply_rows(field, factor, r_cur)
    return KeyEquationSolution(locator=Poly._make(field, v_cur),
                               combination=Poly._make(field, r_cur),
                               iterations=iterations)
