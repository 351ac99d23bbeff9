"""The schoolbook algorithms behind the fast paths, counting their products.

Reference(field) runs the algorithms that the package's kernels and
transforms stand in for, one field operation at a time: a row product
term by term, long division, Horner's rule, each transform as n Horner
evaluations, the erasure locator as one row product per root,
(x^n - 1) / locator by long division, gao's Lagrange interpolation, and
the key-equation solve on these.  Every product goes through
Reference.mul and every inversion through Reference.inv, which tally
mults and invs.  So the reference is both the bit-exactness check of the
fast paths and, operation by operation, the count a CountingField must
report for the same operands.

Polynomials are tuples of plain ints without trailing zeros, as
Poly.coeffs holds them; the polynomial methods strip their arguments the
way Poly's constructor does.  multiply_rows and divide_rows take rows as
the kernels do, trailing zeros included.  A transform costs n^2
products, so the reference is meant for fields up to m = 10 or so.
"""

from __future__ import annotations

from rscodec import Field


def strip(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class Reference:
    """Schoolbook arithmetic over one plain Field, counting as it goes."""

    def __init__(self, field: Field):
        self.field = field
        self.mults = 0
        self.invs = 0

    def mul(self, a: int, b: int) -> int:
        self.mults += 1
        return self.field.mul(a, b)

    def inv(self, a: int) -> int:
        self.invs += 1
        return self.field.inv(a)

    # ------------------------------------------------------------- rows

    def multiply_rows(self, a, b, add=()) -> list[int]:
        """a * b + add, one product per pair of terms, zeros included."""
        if len(a) < len(b):
            a, b = b, a
        out = [*add] + [0] * (len(a) + len(b) - 1 - len(add))
        for j, c in enumerate(b):
            for i, d in enumerate(a, j):
                out[i] ^= self.mul(c, d)
        return out

    def divide_rows(self, num, den) -> tuple[list[int], list[int]]:
        """Quotient and remainder, the remainder without trailing zeros.

        The lead is inverted once unless it is 1; each quotient term is
        one product by that inverse, if any, and one per lower divisor
        term, zeros included.
        """
        dd = len(den) - 1
        inv_lead = None if den[dd] == 1 else self.inv(den[dd])
        rem, quot = list(num), [0] * (len(num) - dd)
        for shift in range(len(quot) - 1, -1, -1):
            cur = rem[shift + dd]
            factor = cur if inv_lead is None else self.mul(cur, inv_lead)
            quot[shift] = factor
            for j in range(dd):
                rem[shift + j] ^= self.mul(factor, den[j])
        return quot, list(strip(rem[:dd]))

    # ------------------------------------------------------- polynomials

    def product(self, a, b) -> tuple[int, ...]:
        a, b = strip(a), strip(b)
        if not a or not b:
            return ()
        return strip(self.multiply_rows(a, b))

    def divmod(self, num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
        num, den = strip(num), strip(den)
        if len(num) < len(den):
            return (), num
        quot, rem = self.divide_rows(num, den)
        return strip(quot), strip(rem)

    def scale(self, a, c: int) -> tuple[int, ...]:
        return strip(self.multiply_rows(strip(a), (c,)))

    def evaluate(self, coeffs, at: int) -> int:
        """Horner's rule: one product per coefficient."""
        acc = 0
        for c in reversed(strip(coeffs)):
            acc = self.mul(acc, at) ^ c
        return acc

    def root_product(self, exponents) -> tuple[int, ...]:
        """Product of (x - alpha^e), one row product per root."""
        row = (1,)
        for e in exponents:
            row = self.multiply_rows(row, (self.field.alpha_pow(e), 1))
        return tuple(row)

    # --------------------------------------------------------- transforms

    def evaluate_all(self, coeffs) -> tuple[int, ...]:
        """n Horner evaluations, at alpha^0 ... alpha^(n-1)."""
        field = self.field
        return tuple(self.evaluate(coeffs, field.alpha_pow(i))
                     for i in range(field.n))

    def interpolate_all(self, values) -> tuple[int, ...]:
        """Coefficient j is V(alpha^-j) for the polynomial V of the values."""
        spectrum = self.evaluate_all(values)
        return strip([spectrum[0], *spectrum[:0:-1]])

    def interpolate_subset(self, values, erasures) -> tuple[int, ...]:
        """Lagrange interpolation through the positions not in erasures.

        The survivors' product, then per survivor, in ascending order, its
        basis polynomial by one division by (x - alpha^pos), one evaluation
        of the basis there, one inversion and one product for the weight,
        and one scaling.
        """
        field = self.field
        erased = set(erasures)
        survivors = [pos for pos in range(field.n) if pos not in erased]
        master = self.root_product(survivors)
        acc = [0] * len(survivors)
        for pos in survivors:
            x = field.alpha_pow(pos)
            basis, _ = self.divmod(master, (x, 1))
            weight = self.mul(values[pos], self.inv(self.evaluate(basis, x)))
            for i, c in enumerate(self.scale(basis, weight)):
                acc[i] ^= c
        return strip(acc)

    def cyclotomic_quotient(self, locator) -> tuple[int, ...]:
        """(x^n - 1) / locator by long division; ValueError unless exact."""
        n = self.field.n
        x_n_minus_1 = (1,) + (0,) * (n - 1) + (1,)
        if strip(locator) == (1,):
            return x_n_minus_1
        quot, rem = self.divmod(x_n_minus_1, locator)
        if rem:
            raise ValueError("locator does not divide x^n - 1")
        return quot

    # ------------------------------------------------------ key equation

    def solve(self, modulus, known, stop_degree: int
              ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(locator, combination, iterations) of the partial Euclidean
        solve, scaled so that the locator is monic."""
        r_prev, r_cur = strip(modulus), strip(known)
        v_prev, v_cur = [], [1]
        iterations = 0
        while len(r_cur) > stop_degree:
            quot, r_next = self.divide_rows(r_prev, r_cur)
            r_prev, r_cur = r_cur, r_next
            v_prev, v_cur = v_cur, self.multiply_rows(quot, v_cur, v_prev)
            iterations += 1
        if v_cur[-1] != 1:
            factor = (self.inv(v_cur[-1]),)
            v_cur = self.multiply_rows(factor, v_cur)
            r_cur = self.multiply_rows(factor, r_cur)
        return strip(v_cur), strip(r_cur), iterations
