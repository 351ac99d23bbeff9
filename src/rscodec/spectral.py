"""Finite-field transforms between coefficient and evaluation form.

The evaluation points are the n = 2^m - 1 powers of alpha, so a length-n
value vector is the spectrum of a polynomial of degree < n.  n is odd,
which makes n * x = x in characteristic 2; the inverse transform therefore
needs no 1/n scaling.  Both directions are the same length-n DFT over the
powers of alpha: interpolate_all is evaluate_all of the value vector read
at alpha^-j, so only evaluate_all chooses a path, by the field context:

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

cyclotomic_quotient, Q = (x^n - 1) / locator, has two paths as well.  The
dense kernel's field takes a closed form when n > ROW_KERNEL_MIN_LEN and
1 <= deg(locator) < n.  Differentiating x^n - 1 = locator * Q gives
x^(n-1) = locator' * Q at each root a = alpha^e of the locator, since
locator(a) = 0 and n is odd, so

    Q(alpha^e) = alpha^-e / locator'(alpha^e) = 1 / locator_odd(alpha^e)

where locator_odd, the odd-degree terms, equals x * locator'.  Q vanishes
at every other alpha^i, and deg Q < n, so Q is one inverse transform read
over only the l root rows of the index table.  Everything else,
CountingField included, takes the long division of x^n - 1.

interpolate_subset, through the n - l surviving positions, has two paths:

  dense kernel  P mod M, where P interpolates the zero-filled length-n
                vector and M = (x^n - 1) / locator is the product of
                (x - alpha^i) over the survivors, locator the product over
                the l missing positions.  P mod M has degree < n - l and
                equals P, hence the value, at every survivor, so it is the
                unique interpolant.  M is built from its values: the
                positions are known, so no root search is needed, and
                M(alpha^e) = 1 / locator_odd(alpha^e) at each missing e is
                one Horner evaluation of the odd part, followed by the same
                sparse inverse transform as the closed form.
  Lagrange loop everything else, CountingField included: root_product of
                the survivors, then one basis division and evaluation
                per survivor, so the workbench counts the paper's gao
                interpolation.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from .galois import Field
from .polynomial import (ROW_KERNEL_MIN_LEN, Poly, root_product, row_tables,
                         xn_minus_one)

# Largest m with a dense table: n x n uint16 entries, 2 MB at m = 10.
DENSE_MAX_M = 10


@cache
def _dft_tables(field: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index, antilog and log tables for the dense kernel, all uint16.

    index[j, i] = i*j mod n; the table is symmetric, so row j serves
    coefficient j.  exp and log are row_tables' narrowed to uint16: log
    maps 0 to 2n and exp is zero from 2n on, so a zero coefficient
    contributes exp[2n + (i*j mod n)] = 0 with no mask, and every index
    stays below 3n.  Field hashes by (m, prim_poly), so the tables for
    each field are built once per process.  They are shared and therefore
    read-only.
    """
    n = field.n
    powers = np.arange(n, dtype=np.uint32)
    index = np.empty((n, n), dtype=np.uint16)
    for j in range(n):  # row by row: no n x n temporary wider than uint16
        index[j] = powers * j % n
    exp, log = (table.astype(np.uint16) for table in row_tables(field))
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

    Inverse of evaluate_all.  Coefficient j is V(alpha^-j), where V is the
    polynomial whose coefficients are the values themselves: evaluate_all
    of V read at rows 0, n-1, n-2, ..., 1.
    """
    n = field.n
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    spectrum = evaluate_all(Poly(field, values), n)
    return Poly._make(field, [spectrum[0], *spectrum[:0:-1]])


def check_positions(positions, n: int) -> tuple[int, ...]:
    """Positions of points alpha^pos as a tuple of distinct ints in [0, n).

    Anything else, bool and repeated positions included, raises ValueError.
    """
    checked = tuple(positions)
    for pos in checked:
        if type(pos) is not int:  # bool is a subclass of int
            raise ValueError(f"position must be an int, got {pos!r}")
        if not 0 <= pos < n:
            raise ValueError(f"position {pos} is outside [0, {n})")
    if len(set(checked)) != len(checked):
        raise ValueError(f"duplicate positions in {checked}")
    return checked


def interpolate_subset(field: Field, points: Sequence[tuple[int, int]]) -> Poly:
    """Lagrange interpolation through (alpha^pos, value) pairs.

    points holds (position, value) pairs with distinct positions in
    [0, n).  The result is the unique polynomial of degree < len(points)
    through them.
    """
    n = field.n
    if not points:
        raise ValueError("at least one interpolation point is required")
    seen = set(check_positions([pos for pos, _ in points], n))

    if _uses_dense_kernel(field):
        # P mod M, see the module docstring
        values = [0] * n
        for pos, value in points:
            values[pos] = value
        full = interpolate_all(field, values)
        missing = [pos for pos in range(n) if pos not in seen]
        if not missing:
            return full
        # M(alpha^e) = 1 / locator_odd(alpha^e) at each missing e, where
        # locator_odd(alpha^e) = alpha^e * odd(alpha^2e) for the polynomial
        # odd holding the locator's odd-degree coefficients
        locator = root_product(field, missing)
        odd = Poly._make(field, list(locator.coeffs[1::2]))
        value_logs = [
            -(e + field.log(odd.evaluate(field.alpha_pow(2 * e)))) % n
            for e in missing]
        return full % _from_root_values(field, missing, value_logs)

    for _, value in points:
        field.check_element(value)
    master = root_product(field, [pos for pos, _ in points])
    xs = [field.alpha_pow(pos) for pos, _ in points]

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
    if erasure_locator.coeffs == (1,):
        return xn_minus_one(field, n)
    # the closed form's fixed numpy cost pays off from n = 63 (m = 6) on
    if (_uses_dense_kernel(field) and n > ROW_KERNEL_MIN_LEN
            and 1 <= erasure_locator.degree < n):
        return _closed_form_quotient(erasure_locator)
    quot, rem = divmod(xn_minus_one(field, n), erasure_locator)
    if not rem.is_zero:
        raise ValueError("locator does not divide x^n - 1")
    return quot


def _closed_form_quotient(locator: Poly) -> Poly:
    """(x^n - 1) / locator through its values, for 1 <= degree < n.

    Q = (x^n - 1) / locator vanishes at every alpha^i that is not a root
    of the locator, and at a root a it is 1 / locator_odd(a), where
    locator_odd holds the odd-degree terms (see the module docstring).
    deg Q < n, so one sparse inverse transform over the root rows gives Q.
    """
    field = locator.field
    n = field.n
    index, exp, log = _dft_tables(field)
    c = np.array(locator.coeffs, dtype=np.uint16)
    terms = exp[index[:len(c)] + log[c][:, None]]  # terms[j, i] = c_j alpha^(ij)
    even = np.bitwise_xor.reduce(terms[0::2], axis=0)
    odd = np.bitwise_xor.reduce(terms[1::2], axis=0)
    roots = np.flatnonzero(even == odd)
    if len(roots) != len(c) - 1:
        # fewer distinct roots than its degree: not a product of (x - alpha^e)
        raise ValueError("locator does not divide x^n - 1")
    # log Q(alpha^e) = -log odd(alpha^e)
    return _from_root_values(field, roots, (n - log[odd[roots]]) % n)


def _from_root_values(field: Field, roots, value_logs) -> Poly:
    """The polynomial of degree < n with value alpha^value_logs[i] at each
    alpha^roots[i] and zero at every other power of alpha.

    Its coefficient j is sum_e Q(alpha^e) alpha^(-ej) over the roots e:
    one sparse inverse transform over their index rows (-e) mod n alone.
    """
    index, exp, _ = _dft_tables(field)
    n = field.n
    rows = (index[(n - np.asarray(roots)) % n]
            + np.asarray(value_logs, dtype=np.uint16)[:, None])
    return Poly._make(field, np.bitwise_xor.reduce(exp[rows], axis=0).tolist())
