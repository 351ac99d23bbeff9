"""The byte-packed kernels of fields with m <= 8 against the schoolbook
reference.

Up to BYTE_MAX_M a field's rows are bytes objects: products, divisions,
scaling and the erasure-locator product run through bytes.translate and
int XOR, the key-equation solve as one packed pass of the same, and at
n = 255 the transform and the sparse DFT rows run through the packed
prime-factor tables.  tests/reference.py runs the scalar loops that
route every product through Field.mul.  Every result must be
bit-identical and made of plain ints.  The locator product is also
checked at m = 9 and 10, where it runs through the row kernels.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import Reference
from rscodec import (Field, Poly, evaluate_all, interpolate_all,
                     solve_key_equation)
from rscodec import spectral
from rscodec.galois import MIN_M
from rscodec.polynomial import BYTE_MAX_M, root_product

BYTE_M = range(MIN_M, BYTE_MAX_M + 1)
FIELDS = {m: Field(m) for m in BYTE_M}
GF256 = FIELDS[8]
DIFF = settings(max_examples=120, deadline=None, derandomize=True)


def plain_ints(*polys):
    return all(type(c) is int for p in polys for c in p.coeffs)


@st.composite
def rows(draw, m, min_len=0, max_len=70):
    # small values make zero coefficients common
    element = st.one_of(st.just(0), st.integers(1, 2),
                        st.integers(0, (1 << m) - 1))
    return draw(st.lists(element, min_size=min_len, max_size=max_len))


@st.composite
def row_pairs(draw):
    """(m, a, b): b is as long as a, or any length up to 70."""
    m = draw(st.sampled_from(BYTE_M))
    a = draw(rows(m))
    b = draw(st.one_of(rows(m), rows(m, len(a), len(a))))
    return m, a, b


@DIFF
@given(row_pairs())
@example((8, [0, 0, 7, 0], [0, 3, 0, 0, 1]))   # zeros inside both factors
@example((3, [1, 2, 3], [4, 5, 6]))            # equal lengths
@example((8, [255] * 64, [255] * 64))
def test_products_match_counted(case):
    m, a, b = case
    fa, fb = Poly(FIELDS[m], a), Poly(FIELDS[m], b)
    expected = Reference(FIELDS[m]).product(a, b)
    for fast in (fa * fb, fb * fa):
        assert fast.coeffs == expected
        assert plain_ints(fast)


@DIFF
@given(row_pairs(), st.integers(1, 255))
@example((8, [0] * 40, [0, 0, 0]), 1)          # zero dividend, monic
@example((8, [9, 0, 0, 0, 5], [0, 0, 0]), 200)  # zero tail under the lead
@example((5, [1, 2, 3], [4, 5]), 31)           # equal lengths with the lead
@example((4, [3], []), 7)                      # constant divisor
@example((8, [0] * 17 + [1], [1] * 16), 2)      # step 3's shape
def test_divisions_match_counted(case, lead):
    m, a, b = case
    b = b + [lead % ((1 << m) - 1) + 1]  # a nonzero lead, not only 1
    for num in (a, b + a, b):            # shorter, longer and equal dividends
        fd = Poly(FIELDS[m], b)
        fq, fr = divmod(Poly(FIELDS[m], num), fd)
        assert (fq.coeffs, fr.coeffs) == Reference(FIELDS[m]).divmod(num, b)
        assert fr.degree < fd.degree
        assert plain_ints(fq, fr)


@DIFF
@given(row_pairs(), st.integers(0, 255))
@example((8, [], []), 0)
@example((8, [0, 5, 0, 255], []), 0)
@example((3, [7, 0, 1], []), 1)
def test_scaling_matches_counted(case, c):
    m, a, _ = case
    c %= 1 << m
    fa = Poly(FIELDS[m], a)
    fast = fa * Poly(FIELDS[m], [c])
    assert fast.coeffs == Reference(FIELDS[m]).scale(a, c)
    assert plain_ints(fast)
    assert fast.is_zero == (c == 0 or fa.is_zero)


# root_product leaves the byte loop above BYTE_MAX_M for multiply_rows, so
# its sets reach two fields past it
ROOT_FIELDS = {**FIELDS, **{m: Field(m) for m in (9, 10)}}


@st.composite
def root_sets(draw):
    m = draw(st.sampled_from(sorted(ROOT_FIELDS)))
    n = (1 << m) - 1
    count = draw(st.one_of(st.integers(0, n), st.sampled_from([0, 1, n])))
    return m, draw(st.permutations(range(n)))[:count]


@DIFF
@given(root_sets())
@example((8, list(range(255))))    # every root: x^255 - 1
@example((8, [0]))
@example((3, []))
@example((9, []))
@example((9, list(range(40))))     # past the row kernels' numpy length
def test_root_product_matches_counted(case):
    m, exponents = case
    field = ROOT_FIELDS[m]
    fast = root_product(field, exponents)
    assert fast.coeffs == Reference(field).root_product(exponents)
    assert plain_ints(fast)
    assert len(fast.coeffs) == len(exponents) + 1 and fast.lead == 1


@st.composite
def solve_cases(draw):
    """(m, modulus, known, stop) with non-monic moduli and zero terms."""
    m = draw(st.sampled_from(BYTE_M))
    size = draw(st.integers(2, 130))
    modulus = draw(rows(m, max_len=size - 1))
    modulus += [0] * (size - 1 - len(modulus))
    modulus.append(draw(st.integers(1, (1 << m) - 1)))
    known = draw(rows(m, max_len=size - 1))
    stop = draw(st.integers(1, size - 1))
    return m, modulus, known, stop


@DIFF
@given(solve_cases())
@example((8, [1] + [0] * 254 + [1], list(range(1, 256)), 128))  # rs255-lo
@example((8, [1] + [0] * 254 + [1], [], 16))                     # zero known
@example((3, [1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 5], 1))
def test_solve_matches_counted(case):
    m, modulus, known, stop = case
    locator, combination, iterations = solve_key_equation(
        Poly(FIELDS[m], modulus), Poly(FIELDS[m], known), stop)
    assert ((locator.coeffs, combination.coeffs, iterations)
            == Reference(FIELDS[m]).solve(modulus, known, stop))
    assert plain_ints(locator, combination)


@pytest.mark.parametrize("length", [0, 1, 127, 223, 255])
def test_n255_transforms_match_counted(length):
    rng = random.Random(length)
    coeffs = [rng.choice([0, 1, rng.randrange(256)]) for _ in range(length)]
    if coeffs:
        coeffs[-1] = rng.randrange(1, 256)
    values = evaluate_all(Poly(GF256, coeffs), 255)
    assert values == Reference(GF256).evaluate_all(coeffs)
    assert len(values) == 255 and all(type(v) is int for v in values)
    # interpolate_all is the same transform read backwards; coefficient
    # vectors of every length are value vectors once zero-filled
    vector = coeffs + [0] * (255 - length)
    fast = interpolate_all(GF256, vector)
    assert fast.coeffs == Reference(GF256).interpolate_all(vector)
    assert plain_ints(fast)
    assert interpolate_all(GF256, values).coeffs == tuple(coeffs)


@pytest.mark.parametrize("count", [1, 16, 64, 128])
def test_n255_row_sum_matches_counted(count):
    # out[i] = sum over r of values[r] * alpha^(i * js[r]), counted per term
    rng = random.Random(count)
    js = rng.sample(range(255), count)
    values = [rng.choice([0, 1, rng.randrange(256)]) for _ in js]
    fast = spectral._row_sum(GF256, js, values)
    reference = Reference(GF256)
    ref = [0] * 255
    for j, value in zip(js, values):
        for i in range(255):
            ref[i] ^= reference.mul(value, GF256.alpha_pow(i * j))
    assert list(fast) == ref
    assert all(type(v) is int for v in fast)


def test_n255_power_rows():
    # _row_sum's table: byte i of row j is alpha^(i*j), so row 0 is all ones
    rows = spectral._byte_plan(GF256).power_rows
    assert len(rows) == 255
    for j, row in enumerate(rows):
        assert row == bytes(GF256.alpha_pow(i * j % 255) for i in range(255))
