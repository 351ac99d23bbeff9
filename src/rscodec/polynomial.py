"""Dense univariate polynomials over GF(2^m).

coeffs[i] is the coefficient of x^i.  Every Poly is normalized: the last
stored coefficient is nonzero, and the zero polynomial stores nothing at
all.  Its degree is the MINUS_INF sentinel rather than any integer, so a
degree comparison can never confuse the zero polynomial with a constant.

Multiplication, division, evaluation, scaling and root_product have two
paths.  On a plain Field they index its log/antilog tables inline and
skip zero operands; a division by a divisor of at least ROW_KERNEL_MIN_LEN
coefficients goes further and subtracts each quotient row as one numpy
gather-and-XOR (divide_rows), which the key-equation solver shares.
numpy is imported on that path's first call, so a process whose
polynomials stay shorter than ROW_KERNEL_MIN_LEN never loads it.  A Field
subclass, such as the workbench's CountingField, takes the reference
loops, which route every product through field.mul and every inversion
through field.inv so that the subclass sees them all.  Both paths give
bit-identical results, as plain ints.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from typing import TYPE_CHECKING

from .galois import Field

if TYPE_CHECKING:
    import numpy as np

MINUS_INF = float("-inf")

# Shortest divisor, in coefficients, whose division rows run as numpy
# gathers.  Below it a row is cheaper as an inline loop over the divisor's
# nonzero terms than as a numpy call with its fixed cost of a few us.
ROW_KERNEL_MIN_LEN = 32


@cache
def row_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Antilog and log tables of a plain Field as read-only intp arrays.

    exp[e] = alpha^e for 0 <= e < 3n and is zero from 3n to 5n, and log
    maps 0 to 3n.  So exp[log a + e] is a * alpha^e for every element a,
    zero included, whenever 0 <= e < 2n.  Field hashes by (m, prim_poly),
    so each field's tables are built once per process.
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


def divide_rows(field: Field, rem: np.ndarray, den_logs: np.ndarray) -> list[int]:
    """Divide rem in place by the divisor whose coefficient logs are den_logs.

    rem is an intp coefficient array at least as long as the divisor,
    whose leading coefficient must be nonzero; den_logs comes from
    row_tables' log, so zero coefficients map to 3n.  Returns the
    quotient as a list of ints; afterwards rem[:len(den_logs) - 1] holds
    the remainder and every higher entry is zero.
    """
    exp_rows = row_tables(field)[0]
    exp, log, n = field._exp, field._log, field.n
    dd = len(den_logs) - 1
    # log of 1/lead, so log(cur / lead) = log(cur) + inv_lead_log
    inv_lead_log = n - int(den_logs[dd])
    quot = [0] * (len(rem) - dd)
    for shift in range(len(rem) - dd - 1, -1, -1):
        cur = rem.item(shift + dd)
        if not cur:
            continue
        lf = log[cur] + inv_lead_log
        if lf >= n:
            lf -= n
        quot[shift] = exp[lf]
        # the divisor's lead clears rem[shift + dd] in the same row
        rem[shift:shift + dd + 1] ^= exp_rows[den_logs + lf]
    return quot


class Poly:
    """Immutable polynomial bound to one field context."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        order = field.order
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < order:
                raise ValueError(f"coefficient {c!r} is outside GF(2^{field.m})")
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: Field, coeffs: list[int]) -> Poly:
        # internal fast path: coefficients already known to be valid elements
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
        f = self.field
        out = [0] * (len(a) + len(b) - 1)
        if type(f) is Field:
            exp, log = f._exp, f._log
            b_logs = [(j, log[bj]) for j, bj in enumerate(b) if bj]
            for i, ai in enumerate(a):
                if ai:
                    la = log[ai]
                    for j, lb in b_logs:
                        out[i + j] ^= exp[la + lb]
            return Poly._make(f, out)
        fmul = f.mul
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] ^= fmul(ai, bj)
        return Poly._make(f, out)

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder; degree(remainder) < degree(other)."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        if other.is_zero:
            raise ValueError("polynomial division by zero")
        dn = len(self.coeffs) - 1
        dd = len(other.coeffs) - 1
        if self.is_zero or dn < dd:
            return Poly._make(self.field, []), self
        f = self.field
        den = other.coeffs
        if type(f) is Field and len(den) >= ROW_KERNEL_MIN_LEN:
            import numpy as np

            rem = np.array(self.coeffs, dtype=np.intp)
            quot = divide_rows(f, rem, row_tables(f)[1][list(den)])
            return Poly._make(f, quot), Poly._make(f, rem[:dd].tolist())
        rem = list(self.coeffs)
        quot = [0] * (dn - dd + 1)
        if type(f) is Field:
            exp, log, n = f._exp, f._log, f.n
            den_logs = [(j, log[c]) for j, c in enumerate(den[:dd]) if c]
            # log of 1/lead, so log(cur / lead) = log(cur) + inv_lead_log
            inv_lead_log = n - log[den[-1]]
            for shift in range(dn - dd, -1, -1):
                cur = rem[shift + dd]
                if not cur:
                    continue
                lf = log[cur] + inv_lead_log
                if lf >= n:
                    lf -= n
                quot[shift] = exp[lf]
                for j, ld in den_logs:
                    rem[shift + j] ^= exp[lf + ld]
            return Poly._make(f, quot), Poly._make(f, rem[:dd])
        fmul = f.mul
        inv_lead = None if den[-1] == 1 else f.inv(den[-1])
        for shift in range(dn - dd, -1, -1):
            cur = rem[shift + dd]
            factor = cur if inv_lead is None else fmul(cur, inv_lead)
            quot[shift] = factor
            for j in range(dd):
                rem[shift + j] ^= fmul(factor, den[j])
            rem[shift + dd] = 0
        return Poly._make(f, quot), Poly._make(f, rem[:dd])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def scale(self, c: int) -> Poly:
        """Product with the scalar c."""
        f = self.field
        if type(f) is Field:
            if not c:
                return Poly._make(f, [])
            exp, log = f._exp, f._log
            lc = log[c]
            return Poly._make(f, [exp[lc + log[a]] if a else 0
                                  for a in self.coeffs])
        fmul = f.mul
        return Poly._make(f, [fmul(c, a) for a in self.coeffs])

    def evaluate(self, at: int) -> int:
        """Value of the polynomial at a point, by Horner's rule."""
        f = self.field
        acc = 0
        if type(f) is Field:
            if not at:
                return self.coeffs[0] if self.coeffs else 0
            exp, log = f._exp, f._log
            la = log[at]
            for c in reversed(self.coeffs):
                acc = exp[log[acc] + la] ^ c if acc else c
            return acc
        fmul = f.mul
        for c in reversed(self.coeffs):
            acc = fmul(acc, at) ^ c
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
    """x^n - 1, which in characteristic 2 is x^n + 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Poly._make(field, [1] + [0] * (n - 1) + [1])


def root_product(field: Field, exponents: Iterable[int]) -> Poly:
    """Monic product of (x - alpha^e) over the exponents, e in [0, n).

    On a plain Field each factor multiplies in place through the log
    tables, where log(alpha^e) is e itself.  Any other field context
    multiplies one Poly factor at a time, so every product goes through
    field.mul.
    """
    if type(field) is not Field:
        product = Poly.one(field)
        for e in exponents:
            product = product * Poly._make(field, [field.alpha_pow(e), 1])
        return product
    exp, log = field._exp, field._log
    coeffs = [1]
    for e in exponents:
        coeffs.append(coeffs[-1])
        for i in range(len(coeffs) - 2, 0, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = coeffs[i - 1] ^ exp[log[c] + e]
            else:
                coeffs[i] = coeffs[i - 1]
        # the constant term is a product of nonzero roots
        coeffs[0] = exp[log[coeffs[0]] + e]
    return Poly._make(field, coeffs)
