"""Finite-field transforms between coefficient and evaluation form.

The evaluation points are the n = 2^m - 1 powers of alpha, so a length-n
value vector is the spectrum of a polynomial of degree < n.  n is odd,
which makes n * x = x in characteristic 2; the inverse transform therefore
needs no 1/n scaling.  Both directions are the same length-n DFT over the
powers of alpha; interpolation reads it at alpha^-j.

Each direction has two paths, chosen by the field context:

  dense kernel  a plain Field with m <= DENSE_MAX_M.  One numpy kernel in
                the log domain, out[i] = XOR_j exp[log c_j + (i*j mod n)]
                over the nonzero c_j, with the (i*j mod n) table built on
                first use and cached per (m, prim_poly).
  Horner loop   everything else: n Horner evaluations through Poly.evaluate,
                O(n^2) field multiplications.  CountingField always takes
                it, so the workbench's operation counts are those of the
                schoolbook transform.  A plain Field above DENSE_MAX_M
                takes it too, on Poly's table-driven arithmetic, because
                the n x n table would grow past a few megabytes.

The two paths are bit-exact, and both return plain ints.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from .galois import Field
from .polynomial import Poly, xn_minus_one

# Largest m with a dense table: n x n uint16 entries, 2 MB at m = 10.
DENSE_MAX_M = 10


@cache
def _dft_tables(field: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, antilog and log tables for the dense kernel, all uint16.

    index[j, i] = i*j mod n; the table is symmetric, so row j serves
    coefficient j.  log maps 0 to 2n and exp is zero from 2n on, so a zero
    coefficient contributes exp[2n + (i*j mod n)] = 0 with no mask, and
    every index stays below 3n.  Field hashes by (m, prim_poly), so the
    tables for each field are built once per process.  They are shared
    and therefore read-only.
    """
    n = field.n
    powers = np.arange(n, dtype=np.uint32)
    index = np.empty((n, n), dtype=np.uint16)
    for j in range(n):  # row by row: no n x n temporary wider than uint16
        index[j] = powers * j % n
    exp = np.zeros(3 * n, dtype=np.uint16)
    exp[:2 * n] = field._exp
    log = np.array(field._log, dtype=np.uint16)
    log[0] = 2 * n
    for table in (index, exp, log):
        table.flags.writeable = False
    return index, exp, log


def _uses_dense_kernel(field) -> bool:
    return type(field) is Field and field.m <= DENSE_MAX_M


def _dense_dft(field: Field, coeffs: Sequence[int]) -> np.ndarray:
    """out[i] = sum_j coeffs[j] * alpha^(i*j) for i in [0, n), as uint16.

    Requires len(coeffs) <= n.  Term (j, i) is exp[log c_j + (i*j mod n)].
    """
    index, exp, log = _dft_tables(field)
    c = np.array(coeffs, dtype=np.uint16)
    exps = index[:len(c)] + log[c][:, None]
    return np.bitwise_xor.reduce(exp[exps], axis=0)


def evaluate_all(p: Poly, n: int) -> tuple[int, ...]:
    """Evaluate p at every power of alpha: out[i] = p(alpha^i).

    Requires degree(p) < n and n = 2^m - 1 for the polynomial's field.
    """
    field = p.field
    if n != field.n:
        raise ValueError(f"n must be {field.n} for GF(2^{field.m}), got {n}")
    if len(p.coeffs) > n:
        raise ValueError(f"degree {p.degree} is not below n = {n}")
    if _uses_dense_kernel(field):
        return tuple(_dense_dft(field, p.coeffs).tolist())
    return tuple(p.evaluate(field.alpha_pow(i)) for i in range(n))


def interpolate_all(field: Field, values: Sequence[int]) -> Poly:
    """The unique polynomial of degree < n with p(alpha^i) = values[i].

    Inverse of evaluate_all.  Coefficient j comes out as V(alpha^-j) where
    V is the polynomial whose coefficients are the values themselves.
    """
    n = field.n
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    vpoly = Poly(field, values)
    if _uses_dense_kernel(field):
        spectrum = _dense_dft(field, vpoly.coeffs).tolist()
        # coefficient j sits at row (-j) mod n: rows 0, n-1, n-2, ..., 1
        return Poly._make(field, spectrum[:1] + spectrum[:0:-1])
    return Poly._make(
        field, [vpoly.evaluate(field.alpha_pow(-j)) for j in range(n)])


def interpolate_subset(field: Field, points: Sequence[tuple[int, int]]) -> Poly:
    """Lagrange interpolation through (alpha^pos, value) pairs.

    points holds (position, value) pairs with distinct positions in
    [0, n).  The result is the unique polynomial of degree < len(points)
    through them.
    """
    n = field.n
    if not points:
        raise ValueError("at least one interpolation point is required")
    seen = set()
    for pos, _ in points:
        if not 0 <= pos < n:
            raise ValueError(f"position {pos} is outside [0, {n})")
        if pos in seen:
            raise ValueError(f"duplicate position {pos}")
        seen.add(pos)

    xs = [field.alpha_pow(pos) for pos, _ in points]
    master = Poly.one(field)
    for x in xs:
        master = master * Poly._make(field, [x, 1])

    acc = Poly.zero(field)
    fmul = field.mul
    for x, (_, y) in zip(xs, points):
        basis, _ = divmod(master, Poly._make(field, [x, 1]))
        denom = basis.evaluate(x)
        acc = acc + basis.scale(fmul(y, field.inv(denom)))
    return acc


def cyclotomic_quotient(erasure_locator: Poly, n: int) -> Poly:
    """Exact quotient (x^n - 1) / locator.

    Every root of the locator must be an n-th root of unity; a nonzero
    remainder means it was not built from distinct alpha powers.
    """
    field = erasure_locator.field
    if n != field.n:
        raise ValueError(f"n must be {field.n} for GF(2^{field.m}), got {n}")
    quot, rem = divmod(xn_minus_one(field, n), erasure_locator)
    if not rem.is_zero:
        raise ValueError("locator does not divide x^n - 1")
    return quot
