"""Finite-field transforms between coefficient and evaluation form.

The evaluation points are the n = 2^m - 1 powers of alpha, so a length-n
value vector is the spectrum of a polynomial of degree < n.  n is odd,
which makes n * x = x in characteristic 2; the inverse transform therefore
needs no 1/n scaling.  Both directions are the same length-n DFT over the
powers of alpha: interpolate_all is evaluate_all of the value vector read
at alpha^-j, so only evaluate_all chooses a path, by n:

  packed table  n < PRIME_FACTOR_MIN_N = 255 (m <= 7), in pure Python.
  byte plan     n = 255 (m = 8), a packed prime-factor transform in pure
                Python.
  prime-factor kernel  a composite n > 255, in numpy.  All arithmetic is
                in the log domain: log maps 0 to 3n and exp is zero from
                3n on, so a zero coefficient adds exp[3n + e] = 0 with no
                mask.
  computed rows  the prime n = 8191 (m = 13), which has no factors to
                split: every row of the DFT, computed in numpy in the same
                log domain.

The paths are bit-exact, and all return plain ints.

A CountingField runs the same paths and counts what the schoolbook
algorithms the decoders are stated in would spend: a transform is n Horner
evaluations, n * len(coeffs) multiplications; cyclotomic_quotient is the
long division of x^n - 1 by the locator, counted as divide_rows counts it;
interpolate_subset is the Lagrange loop below.  tests/reference.py holds
those algorithms, counting their own products.

The packed table has one row per coefficient index j and, in each row,
one int per element c: rows[j][c] holds the n products c * alpha^(i*j),
one byte per output position i, since every element of GF(2^m) with
m <= 8 fits in a byte.  A transform of k coefficients is k lookups and k
big-int XORs, and one to_bytes(n, "little") unpacks the n values.  The
table is built on first use and cached per field; at m = 7 it holds
127 * 128 ints of 127 bytes, under 3 MB.  At n = 255 it would hold about
17 MB, so m = 8 takes the byte plan instead: the prime-factor split
below, 255 = 3 * 5 * 17, with the length-17 DFT as packed rows of 17
bytes, one lookup and one XOR per coefficient, and the length-3 and
length-5 DFTs on whole slabs of bytes: slab j scaled by alpha^(n/N * ij)
is one bytes.translate through polynomial's byte tables, so a stage of
length N is N^2 translates.  Its tables hold about 0.5 MB.

numpy is imported on first use, never at import, and only from m = 9 on:
by the prime-factor kernel, by the computed rows below and by the numpy
rows of polynomial's kernels.  Up to m = 8 every kernel works on bytes,
so a process that only uses m <= 8 never imports numpy.  Every table in
this module is built on first use and cached per field.

The numpy prime-factor kernel follows a plan built on first use and
cached per field.  n splits into pairwise coprime prime powers n_1 ... n_K
(255 = 3 * 5 * 17, 4095 = 9 * 5 * 7 * 13), and the Good-Thomas maps turn
the DFT into one small DFT per factor with no twiddles.  Coefficient
j = sum_k j_k (n / n_k) mod n goes to cell (j_1, ..., j_K) of an
n_1 x ... x n_K array, and out[i] is read from the cell
(i mod n_1, ..., i mod n_K).  Then i*j = sum_k (n / n_k)(i_k j_k mod n_k)
mod n, so alpha^(ij) is a product over the factors, and stage k is the
DFT along axis k:

    x[.., i_k, ..] = XOR over j_k of exp[E_k[j_k, i_k] + log x[.., j_k, ..]]
    with E_k[j, i] = (n / n_k)(i*j mod n_k),

an n_k x n_k table.  The work is n * (n_1 + ... + n_K) lookups instead of
n^2.  Each stage reduces over the array's first axis, which holds j_k,
and moves the resulting i_k axis to the back, so the next factor's axis
comes first.  Every stage runs in chunks of output rows so that no
temporary holds more than CHUNK_ENTRIES entries.

One reader, _row_sum(field, js, values), sums chosen rows of the DFT:
out[i] = sum over r of values[r] * alpha^(i * js[r]).  It reads packed
rows below 255.  At 255 row j holds alpha^(i*j) in byte i, and one
bytes.translate through the byte table of a product with values[r]
weights it.  From m = 9 on it computes the rows in numpy chunks: for
x = i*j < n^2, x mod n is congruent to (x & n) + (x >> m), which is
below 2n, and exp is periodic up to 3n.  The two sparse reads below, of
the l rows at the roots of an erasure locator, go through it as well.

cyclotomic_quotient, Q = (x^n - 1) / locator, takes a closed form when
1 <= deg(locator) < n.
Differentiating x^n - 1 = locator * Q gives
x^(n-1) = locator' * Q at each root a = alpha^e of the locator, since
locator(a) = 0 and n is odd, so

    Q(alpha^e) = alpha^-e / locator'(alpha^e) = 1 / locator_odd(alpha^e)

where locator_odd, the odd-degree terms, equals x * locator'.  Q vanishes
at every other alpha^i, and deg Q < n, so Q is _row_sum over only the
l root rows (-e) mod n.  The roots are where the even and odd terms,
each _row_sum over their own rows, agree.  A locator of degree 0 or n
takes the long division of x^n - 1.

interpolate_subset(field, values, erasures) interpolates the n - l
positions that are not erased.  The values at the erased positions must
be field elements but do not change the result.  It computes P mod M,
where P interpolates all n values and M = (x^n - 1) / locator is the
product of (x - alpha^i) over the survivors, locator the product over the
l missing positions.  P mod M has degree < n - l and equals P, hence the
value, at every survivor, whatever P is at the missing positions, so it
is the unique interpolant.  M is built from its values: the positions are
known, so no root search is needed, and
M(alpha^e) = 1 / locator_odd(alpha^e) at each missing e is one Horner
evaluation of the odd part, followed by the same _row_sum over the l root
rows as the closed form.
The locator and the Horner evaluations cost O(l^2), so with fewer
survivors than missing positions M is root_product of the survivors.

The paper's gao interpolation is instead the Lagrange loop over the
s = n - l survivors: their product, s (s + 1) multiplications, then per
survivor one division of it by (x - alpha^pos), one evaluation of the
quotient, one inversion, one product and one scaling, 3s + 1
multiplications.  A CountingField counts those 4s^2 + 2s multiplications
and s inversions and computes P mod M on its base field, so that the
transform, locator and division inside are not counted again.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache, reduce
from itertools import compress
from operator import eq, getitem, itemgetter, xor
from typing import TYPE_CHECKING, NamedTuple

from .galois import Field
from .polynomial import (BYTE_MAX_M, Poly, byte_tables, root_product,
                         row_tables, xn_minus_one)

if TYPE_CHECKING:
    import numpy as np

# Shortest n that a prime-factor transform serves: the byte plan at
# n = 255 (m = 8), numpy's kernel from m = 9 on.  Below it the packed
# table is faster.
PRIME_FACTOR_MIN_N = 255
# Most entries a kernel temporary may hold; larger stages run in chunks.
CHUNK_ENTRIES = 1 << 20


def _packed_rows(field: Field, size: int, step: int
                 ) -> tuple[tuple[int, ...], ...]:
    """Packed rows of a length-size DFT over alpha^step, m <= 8.

    rows[j][c] holds c * alpha^(step * (i*j mod size)) in byte i, for i in
    [0, size); see the module docstring.  Row j is the byte string of
    those logs, each mapped to alpha^(log + log c) by one bytes.translate
    per element c.
    """
    exp, shift = field._exp, byte_tables(field).shift
    rows = []
    for j in range(size):
        logs = bytes(step * (i * j % size) for i in range(size))
        row = [0] * field.order
        for s, to_element in enumerate(shift):
            row[exp[s]] = int.from_bytes(logs.translate(to_element), "little")
        rows.append(tuple(row))
    return tuple(rows)


@cache
def _packed(field: Field) -> tuple[tuple[int, ...], ...]:
    """The packed table of a field with n < 255, read-only.

    Field hashes by (m, prim_poly), so each field's table is built once
    per process.
    """
    return _packed_rows(field, field.n, 1)


class _BytePlan(NamedTuple):
    """The packed prime-factor transform's tables at n = 255, read-only.

    n = A * B * C for the factors (A, B, C) = (3, 5, 17).  columns[B a + b]
    gathers the C coefficients (n/A a + n/B b + n/C c) mod n, and rows are
    the _packed_rows of the length-C DFT over alpha^(n/C), so the lookups
    leave C-byte blocks in [a][b] order.  scales[k][j][i] is the byte
    table of a product with alpha^(n/N (i*j mod N)), for N = A and then B.
    The length-A stage leaves the blocks in [i_A][b] order; blocks are
    their starts in [b][i_A] order, for the length-B stage, which leaves
    them in [i_B][i_A] order, so out reads out[i] from the byte
    C (A (i mod B) + (i mod A)) + (i mod C).  power_rows[j] holds
    alpha^(i*j) in byte i, for _row_sum.
    """

    columns: tuple[itemgetter, ...]
    rows: tuple[tuple[int, ...], ...]
    scales: tuple[tuple[tuple[bytes, ...], ...], ...]
    blocks: tuple[int, ...]
    out: itemgetter
    power_rows: tuple[bytes, ...]


@cache
def _byte_plan(field: Field) -> _BytePlan:
    """The tables of a field with n = 255 (m = 8); see _BytePlan.

    Field hashes by (m, prim_poly), so each field's tables are built once
    per process.  With polynomial's byte tables they hold about 0.5 MB; a
    one-stage packed table at n = 255 would hold about 17 MB.
    """
    n, exp = field.n, field._exp
    shift, mul = byte_tables(field)
    a_len, b_len, c_len = _coprime_factors(n)
    columns = tuple(itemgetter(*[
        (n // a_len * a + n // b_len * b + n // c_len * c) % n
        for c in range(c_len)]) for a in range(a_len) for b in range(b_len))
    scales = tuple(tuple(tuple(mul[exp[n // size * (i * j % size)]]
                               for i in range(size)) for j in range(size))
                   for size in (a_len, b_len))
    blocks = tuple(c_len * (b_len * a + b)
                   for b in range(b_len) for a in range(a_len))
    out = itemgetter(*[c_len * (a_len * (i % b_len) + i % a_len) + i % c_len
                       for i in range(n)])
    # the logs i*j mod n mapped to alpha^(i*j)
    power_rows = tuple(bytes([i * j % n for i in range(n)]).translate(shift[0])
                       for j in range(n))
    return _BytePlan(columns, _packed_rows(field, c_len, n // c_len), scales,
                     blocks, out, power_rows)


class _Plan(NamedTuple):
    """The prime-factor kernel's cached tables for one field, read-only.

    factors are the stage lengths n_k and tables their exponent tables
    E_k.  in_map[c] is the coefficient index at cell c of the array and
    out_map[i] the cell that holds out[i].  A prime n has the one factor
    n and no tables or maps.  exp is row_tables' narrowed to uint16 and
    log is row_tables' own.
    """

    factors: tuple[int, ...]
    tables: tuple[np.ndarray, ...] | None
    in_map: np.ndarray | None
    out_map: np.ndarray | None
    exp: np.ndarray
    log: np.ndarray


def _coprime_factors(n: int) -> tuple[int, ...]:
    """n as a product of prime powers, one per prime, in ascending order."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            power = 1
            while n % p == 0:
                n //= p
                power *= p
            factors.append(power)
        p += 1
    if n > 1:
        factors.append(n)
    return tuple(factors)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@cache
def _plan(field: Field) -> _Plan:
    """The kernel's plan for a field with n >= 255; see the module
    docstring.

    Field hashes by (m, prim_poly), so each field's plan is built once
    per process.
    """
    import numpy as np

    n = field.n
    exp, log = row_tables(field)
    exp = _read_only(exp.astype(np.uint16))
    factors = _coprime_factors(n)
    if len(factors) == 1:  # a prime n, computed row by row
        return _Plan(factors, None, None, None, exp, log)
    tables = tuple(_read_only(n // size * (np.multiply.outer(
        np.arange(size), np.arange(size)) % size)) for size in factors)
    cells = np.indices(factors).reshape(len(factors), -1)
    in_map = sum(j * (n // size) for j, size in zip(cells, factors)) % n
    # after the last stage the axes are in the order K, 1, ..., K - 1
    order = factors[-1:] + factors[:-1]
    i = np.arange(n)
    out_map = np.ravel_multi_index([i % size for size in order], order)
    return _Plan(factors, tables, _read_only(in_map), _read_only(out_map),
                 exp, log)


def _stage(exp: np.ndarray, table: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """One stage: out[i, a] = XOR over j of exp[table[j, i] + logs[j, a]].

    logs has one row per input index j, at most as many as table has;
    the output has one row per column of table, as uint16.
    """
    import numpy as np

    rows, columns = logs.shape
    step = max(1, CHUNK_ENTRIES // max(1, rows * columns))
    chunks = [np.bitwise_xor.reduce(
        exp[table[:rows, start:start + step, None] + logs[:, None, :]], axis=0)
        for start in range(0, table.shape[1], step)]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _row_sum(field: Field, js: Sequence[int],
             values: Sequence[int]) -> Sequence[int]:
    """out[i] = sum over r of values[r] * alpha^(i * js[r]) for i in [0, n).

    values are field elements.  Below n = 255 the packed rows give n
    bytes, at 255 the translated power rows give n bytes, and from m = 9 on
    the computed rows (see the module docstring) give a list.  Every way
    the entries are plain ints.
    """
    n = field.n
    if n < PRIME_FACTOR_MIN_N:
        rows = _packed(field)
        acc = 0
        for j, value in zip(js, values):
            acc ^= rows[j][value]
        return acc.to_bytes(n, "little")
    if field.m <= BYTE_MAX_M:
        rows, mul = _byte_plan(field).power_rows, byte_tables(field).mul
        acc = 0
        for j, value in zip(js, values):
            acc ^= int.from_bytes(rows[j].translate(mul[value]), "little")
        return acc.to_bytes(n, "little")
    import numpy as np

    plan = _plan(field)
    multipliers = np.asarray(js, dtype=np.intp)[:, None]
    logs = plan.log[np.asarray(values, dtype=np.intp)][:, None]
    step = max(1, CHUNK_ENTRIES // max(1, len(logs)))
    out = np.empty(n, dtype=np.uint16)
    for start in range(0, n, step):
        x = multipliers * np.arange(start, min(start + step, n))
        high = x >> field.m
        x &= n
        x += high
        x += logs
        out[start:start + step] = np.bitwise_xor.reduce(plan.exp[x], axis=0)
    return out.tolist()


def _scale_stage(data: bytes, scales: tuple[tuple[bytes, ...], ...]
                 ) -> bytes:
    """One translate stage: data is N slabs x_j, and slab i of the result is
    the sum over j of omega^(ij) x_j, with scales[j][i] the table of that
    product."""
    width = len(data) // len(scales)
    acc = 0
    for j, tables in enumerate(scales):
        slab = data[j * width:(j + 1) * width]
        acc ^= int.from_bytes(b"".join([slab.translate(table)
                                        for table in tables]), "little")
    return acc.to_bytes(len(data), "little")


def _byte_dft(field: Field, coeffs: Sequence[int]) -> tuple[int, ...]:
    """out[i] = sum_j coeffs[j] * alpha^(i*j) for i in [0, n), at n = 255.

    Requires len(coeffs) <= n.  The packed prime-factor transform of the
    module docstring: the length-17 stage by lookups, then the length-3
    and length-5 stages by translates.
    """
    plan = _byte_plan(field)
    width = len(plan.rows)
    padded = tuple(coeffs) + (0,) * (field.n - len(coeffs))
    data = b"".join([reduce(xor, map(getitem, plan.rows, column(padded)))
                     .to_bytes(width, "little") for column in plan.columns])
    data = _scale_stage(data, plan.scales[0])
    data = b"".join([data[start:start + width] for start in plan.blocks])
    return plan.out(_scale_stage(data, plan.scales[1]))


def _dft(field: Field, coeffs: Sequence[int]) -> np.ndarray:
    """out[i] = sum_j coeffs[j] * alpha^(i*j) for i in [0, n), as uint16.

    Requires a composite n > 255 and len(coeffs) <= n.  The prime-factor
    kernel of the module docstring.
    """
    import numpy as np

    plan = _plan(field)
    n = field.n
    logs = plan.log[np.array(coeffs, dtype=np.intp)]
    padded = np.full(n, 3 * n, dtype=np.intp)
    padded[:len(logs)] = logs
    logs = padded[plan.in_map]
    for k, (size, table) in enumerate(zip(plan.factors, plan.tables)):
        if k:
            logs = plan.log[values.T]  # the next factor's axis comes first
        values = _stage(plan.exp, table, logs.reshape(size, -1))
    return values.reshape(-1)[plan.out_map]


def evaluate_all(p: Poly, n: int) -> tuple[int, ...]:
    """Evaluate p at every power of alpha: out[i] = p(alpha^i).

    Requires degree(p) < n and n = 2^m - 1 for the polynomial's field.
    n stays although the field fixes it: perfbench times evaluate_all(p, n).
    """
    field = p.field
    if n != field.n:
        raise ValueError(f"n must be {field.n} for GF(2^{field.m}), got {n}")
    if len(p.coeffs) > n:
        raise ValueError(f"degree {p.degree} is not below n = {n}")
    if type(field) is not Field:  # n Horner evaluations
        field.counter.add(n * len(p.coeffs))
    if n == PRIME_FACTOR_MIN_N:
        return _byte_dft(field, p.coeffs)
    if n > PRIME_FACTOR_MIN_N and _plan(field).tables is not None:
        return tuple(_dft(field, p.coeffs).tolist())
    # the packed table, or a prime n's computed rows
    return tuple(_row_sum(field, range(len(p.coeffs)), p.coeffs))


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


def interpolate_subset(field: Field, values: Sequence[int],
                       erasures) -> Poly:
    """The unique polynomial of degree < n - l that agrees with values at
    every position not in erasures.

    values holds n field elements, one per position; those at the l
    erased positions are ignored.  erasures are distinct positions in
    [0, n), fewer than n of them.
    """
    n = field.n
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    missing = check_positions(erasures, n)
    if len(missing) == n:
        raise ValueError("every position is erased")

    if type(field) is not Field:  # the Lagrange loop, see the module docstring
        survivors = n - len(missing)
        field.counter.add(4 * survivors * survivors + 2 * survivors, survivors)
        return Poly._make(field, interpolate_subset(
            field.base, values, missing).coeffs)

    # P mod M, see the module docstring
    full = interpolate_all(field, values)
    if not missing:
        return full
    if n <= 2 * len(missing):
        # fewer survivors than missing positions: M is their product
        erased = set(missing)
        return full % root_product(
            field, [pos for pos in range(n) if pos not in erased])
    # M(alpha^e) = 1 / locator_odd(alpha^e) at each missing e, where
    # locator_odd(alpha^e) = alpha^e * odd(alpha^2e) for the polynomial
    # odd holding the locator's odd-degree coefficients.  Horner's rule
    # at l points costs l^2 / 2 products, _row_sum l n / 2, and it keeps
    # Poly.evaluate, whose span perfbench reads, on the decode path.
    locator = root_product(field, missing)
    odd = Poly._make(field, list(locator.coeffs[1::2]))
    inverses = [field.alpha_pow(
        -e - field._log[odd.evaluate(field.alpha_pow(2 * e))])
        for e in missing]
    # M's coefficient j is sum_e M(alpha^e) alpha^(-ej): rows (-e) mod n
    return full % Poly._make(field, list(_row_sum(
        field, [-e % n for e in missing], inverses)))


def cyclotomic_quotient(erasure_locator: Poly) -> Poly:
    """Exact quotient (x^n - 1) / locator, n = 2^m - 1 for its field.

    Every root of the locator must be an n-th root of unity; a nonzero
    remainder means it was not built from distinct alpha powers.
    """
    field = erasure_locator.field
    n = field.n
    if erasure_locator.coeffs == (1,):
        return xn_minus_one(field)
    l = erasure_locator.degree
    if 1 <= l < n:
        if type(field) is not Field:  # the long division it replaces
            inverts = 0 if erasure_locator.lead == 1 else 1
            field.counter.add((n + 1 - l) * (l + inverts), inverts)
        return _closed_form_quotient(erasure_locator)
    quot, rem = divmod(xn_minus_one(field), erasure_locator)
    if not rem.is_zero:
        raise ValueError("locator does not divide x^n - 1")
    return quot


def _closed_form_quotient(locator: Poly) -> Poly:
    """(x^n - 1) / locator through its values, for 1 <= degree < n.

    Q = (x^n - 1) / locator vanishes at every alpha^i that is not a root
    of the locator, and at a root a it is 1 / locator_odd(a), where
    locator_odd holds the odd-degree terms (see the module docstring).
    deg Q < n, so Q's coefficient j is sum_e Q(alpha^e) alpha^(-ej) over
    the roots e: _row_sum over the rows (-e) mod n.
    """
    field = locator.field
    n = field.n
    coeffs = locator.coeffs
    even = _row_sum(field, range(0, len(coeffs), 2), coeffs[0::2])
    odd = _row_sum(field, range(1, len(coeffs), 2), coeffs[1::2])
    roots = list(compress(range(n), map(eq, even, odd)))
    if len(roots) != len(coeffs) - 1:
        # fewer distinct roots than its degree: not a product of (x - alpha^e)
        raise ValueError("locator does not divide x^n - 1")
    return Poly._make(field, list(_row_sum(field, [-e % n for e in roots], [
        field._exp[n - field._log[odd[e]]] for e in roots])))
