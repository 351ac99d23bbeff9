"""The table-driven fast paths against the scalar reference.

A plain Field takes Poly's inline log/antilog arithmetic, the numpy row
kernel for long divisors and in the key-equation solve, the inline
erasure-locator product and, up to DENSE_MAX_M, the dense numpy transform,
the closed-form cyclotomic quotient and the subset interpolation as a
transform plus a reduction; a CountingField over the same
field takes the scalar loops that route every product through field.mul.
Both must give bit-identical results, as plain ints.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscodec import (CodeParams, Field, KeyEquationProblem, Poly,
                     cyclotomic_quotient, erasure_locator, evaluate_all,
                     encode, interpolate_all, interpolate_subset,
                     solve_key_equation)
from rscodec import polynomial, spectral
from rscodec.polynomial import ROW_KERNEL_MIN_LEN
from rscodec.spectral import DENSE_MAX_M
from rscodec.workbench import CountingField, OpCounter

FIELDS = {m: Field(m) for m in range(3, DENSE_MAX_M + 1)}
DIFF = settings(max_examples=150, deadline=None, derandomize=True)


def scalar(field):
    return CountingField(field, OpCounter())


@st.composite
def coeff_lists(draw, m, max_len=40):
    order = 1 << m
    # small values make zero coefficients common
    element = st.one_of(st.integers(0, 1), st.integers(0, order - 1))
    return draw(st.lists(element, max_size=max_len))


@st.composite
def poly_pairs(draw):
    m = draw(st.integers(3, DENSE_MAX_M))
    return m, draw(coeff_lists(m)), draw(coeff_lists(m))


def both(m, coeffs):
    field = FIELDS[m]
    return Poly(field, coeffs), Poly(scalar(field), coeffs)


@DIFF
@given(poly_pairs())
@example((3, [], [1, 2]))
@example((8, [0, 0, 5], []))
def test_mul_matches_scalar(case):
    m, a, b = case
    fa, sa = both(m, a)
    fb, sb = both(m, b)
    assert (fa * fb).coeffs == (sa * sb).coeffs


@DIFF
@given(poly_pairs(), st.integers(1, 1023))
@example((3, [], [1]), 1)              # zero dividend
@example((4, [1, 2, 3], [0, 0, 0, 7]), 7)  # dividend below the divisor
@example((8, [5] * 30, [3, 0, 1]), 1)  # monic divisor with a zero coefficient
@example((10, [0] * 9 + [1], [9]), 9)  # constant, non-monic divisor
# divisors one short of the row kernel's length and at it, non-monic
@example((3, [1, 2, 3, 4, 5, 6, 7] * 9, [0, 5] * 15), 3)
@example((8, [1, 2, 3, 4, 5, 6, 7] * 9, [0, 5] * 15 + [7]), 3)
@example((9, [300] * 70, [1] + [0] * (ROW_KERNEL_MIN_LEN - 2)), 100)
def test_divmod_matches_scalar(case, lead):
    m, a, b = case
    b = b + [lead % ((1 << m) - 1) + 1]  # a nonzero leading coefficient
    fa, sa = both(m, a)
    fb, sb = both(m, b)
    fq, fr = divmod(fa, fb)
    sq, sr = divmod(sa, sb)
    assert (fq.coeffs, fr.coeffs) == (sq.coeffs, sr.coeffs)
    assert fr.degree < fb.degree


@DIFF
@given(poly_pairs(), st.integers(0, 1023))
@example((5, [], []), 0)
@example((5, [7, 0, 1], []), 0)        # evaluate(0) and scale(0)
@example((6, [0, 0, 1], []), 1)
def test_evaluate_and_scale_match_scalar(case, value):
    m, coeffs, _ = case
    value %= 1 << m
    fp, sp = both(m, coeffs)
    assert fp.evaluate(value) == sp.evaluate(value)
    assert fp.scale(value).coeffs == sp.scale(value).coeffs


@st.composite
def spectra(draw, max_m=8):
    m = draw(st.integers(3, max_m))
    n = (1 << m) - 1
    return m, draw(coeff_lists(m, max_len=n))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spectra())
@example((3, []))
@example((4, [0] * 14 + [1]))
def test_transforms_match_scalar(case):
    m, coeffs = case
    field = FIELDS[m]
    n = field.n
    fp, sp = both(m, coeffs)
    assert evaluate_all(fp, n) == evaluate_all(sp, n)
    values = coeffs + [0] * (n - len(coeffs))
    assert (interpolate_all(field, values).coeffs
            == interpolate_all(scalar(field), values).coeffs)


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_full_length_transforms_match_scalar(m):
    field = FIELDS[m]
    n = field.n
    rng = random.Random(m)
    coeffs = [rng.randrange(field.order) for _ in range(n - 1)] + [1]
    assert evaluate_all(Poly(field, coeffs), n) == evaluate_all(
        Poly(scalar(field), coeffs), n)
    assert (interpolate_all(field, coeffs).coeffs
            == interpolate_all(scalar(field), coeffs).coeffs)


@pytest.mark.parametrize("m", [4, 8])
def test_results_are_plain_ints(m):
    field = FIELDS[m]
    params = CodeParams(field, 5)
    codeword = encode(params, (1, 0, 3, 2, 1))
    assert all(type(s) is int for s in codeword)
    rng = random.Random(m)
    values = [rng.randrange(field.order) for _ in range(field.n)]
    assert all(type(c) is int for c in interpolate_all(field, values).coeffs)
    for l in (0, 8, field.n - 1):  # every survivor, some, and a single one
        points = [(pos, values[pos] or 1) for pos in range(l, field.n)]
        coeffs = interpolate_subset(field, points).coeffs
        assert coeffs and all(type(c) is int for c in coeffs)


def test_fields_above_the_cap_build_no_table(monkeypatch):
    def no_table(field):
        raise AssertionError(f"dense table requested for {field!r}")

    monkeypatch.setattr(spectral, "_dft_tables", no_table)
    field = Field(12)
    params = CodeParams(field, 8)
    message = (9, 0, 4095, 1, 2, 0, 77, 5)

    codeword = encode(params, message)
    assert len(codeword) == field.n
    assert all(type(s) is int for s in codeword)
    # any k symbols of the codeword pin down the message polynomial
    points = [(pos, codeword[pos]) for pos in range(0, field.n, 500)][:8]
    assert interpolate_subset(field, points).coeffs == message

    values = [3, 0, 1, 4000] + [0] * (field.n - 4)
    assert (interpolate_all(field, values).coeffs
            == interpolate_all(scalar(field), values).coeffs)


@st.composite
def key_equation_problems(draw):
    """(m, modulus, known, stop_degree) with the modulus on either side of
    the row kernel's length."""
    m = draw(st.integers(3, DENSE_MAX_M))
    size = draw(st.one_of(
        st.integers(2, 2 * ROW_KERNEL_MIN_LEN),
        st.sampled_from([ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN])))
    lead = draw(st.integers(1, (1 << m) - 1))  # non-monic moduli too
    modulus = draw(coeff_lists(m, max_len=size - 1))
    modulus = modulus + [0] * (size - 1 - len(modulus)) + [lead]
    known = draw(coeff_lists(m, max_len=size - 1))
    stop = draw(st.one_of(st.just(1), st.just(size - 1),
                          st.integers(1, size - 1)))
    return m, modulus, known, stop


@DIFF
@given(key_equation_problems())
@example((3, [1] + [0] * 30 + [1], [], 16))                 # zero known
@example((8, [1] + [0] * 254 + [1], list(range(1, 200)), 1))  # stop at 1
@example((8, [1] + [0] * 254 + [1], list(range(1, 200)), 255))  # at deg
@example((4, [3] * (ROW_KERNEL_MIN_LEN - 1), [1, 2, 3] * 9, 4))
@example((4, [3] * ROW_KERNEL_MIN_LEN, [1, 2, 3] * 9, 4))
def test_solve_matches_scalar(case):
    m, modulus, known, stop = case
    solutions = []
    for field in (FIELDS[m], scalar(FIELDS[m])):
        solutions.append(solve_key_equation(KeyEquationProblem(
            modulus=Poly(field, modulus), known=Poly(field, known),
            stop_degree=stop)))
    fast, ref = solutions
    assert fast.locator.coeffs == ref.locator.coeffs
    assert fast.combination.coeffs == ref.combination.coeffs
    assert fast.iterations == ref.iterations


@st.composite
def erasure_sets(draw):
    m = draw(st.integers(3, DENSE_MAX_M))
    n = (1 << m) - 1
    count = draw(st.one_of(st.integers(1, n - 1), st.sampled_from([1, n - 1])))
    return m, draw(st.permutations(range(n)))[:count]


@DIFF
@given(erasure_sets(), st.integers(1, 1023))
@example((3, [4]), 1)                        # l = 1
@example((3, [6, 5, 4, 3, 2, 1]), 1)         # l = n - 1 = d - 1 at k = 1
@example((6, [62]), 5)                       # closed form from n = 63 on
@example((6, list(range(62))), 1)
@example((8, list(range(254, 0, -1))), 1)    # l = n - 1 at m = 8
@example((8, [0, 9, 100]), 77)               # non-monic locator
def test_erasure_locator_and_quotient_match_scalar(case, scale):
    m, positions = case
    field = FIELDS[m]
    fast = erasure_locator(CodeParams(field, 1), positions)
    ref = erasure_locator(CodeParams(scalar(field), 1), positions)
    assert fast.coeffs == ref.coeffs
    scale = scale % field.n + 1
    assert (cyclotomic_quotient(fast.scale(scale), field.n).coeffs
            == cyclotomic_quotient(ref.scale(scale), field.n).coeffs)


@pytest.mark.parametrize("m", [3, 6, 10])
def test_quotient_rejects_a_non_dividing_locator(m):
    field = FIELDS[m]
    a = field.alpha_pow(2)
    repeated_root = Poly(field, [1, 0, 1])  # (x + 1)^2
    with_zero_root = Poly(field, [0, a, 1])  # x (x + alpha^2)
    for locator in (repeated_root, with_zero_root):
        for ctx in (field, scalar(field)):
            with pytest.raises(ValueError, match="does not divide"):
                cyclotomic_quotient(Poly(ctx, locator.coeffs), field.n)


def test_row_kernel_dispatch_follows_divisor_length(monkeypatch):
    calls = []
    divide_rows = polynomial.divide_rows

    def spy(field, rem, den_logs):
        calls.append(len(den_logs))
        return divide_rows(field, rem, den_logs)

    monkeypatch.setattr(polynomial, "divide_rows", spy)
    for field in (FIELDS[8], scalar(FIELDS[8])):
        for length in (ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN):
            divmod(Poly(field, [7] * 80), Poly(field, [3] * length))
    assert calls == [ROW_KERNEL_MIN_LEN]


def test_key_equation_stage_results_are_plain_ints():
    field = FIELDS[8]
    rng = random.Random(8)
    modulus = Poly(field, [1] + [0] * 254 + [1])
    known = Poly(field, [rng.randrange(256) for _ in range(200)])
    solution = solve_key_equation(KeyEquationProblem(
        modulus=modulus, known=known, stop_degree=150))
    quot, rem = divmod(known, Poly(field, [5] * 64))
    locator = erasure_locator(CodeParams(field, 1), range(0, 255, 4))
    for poly in (solution.locator, solution.combination, quot, rem, locator,
                 cyclotomic_quotient(locator, field.n)):
        assert poly.coeffs and all(type(c) is int for c in poly.coeffs)


@st.composite
def survivor_sets(draw):
    """(m, points): distinct positions in random order with their values.

    The scalar Lagrange side is O(count^2), so above m = 8 the survivors
    are capped; l = n - count then stays close to n there.
    """
    m = draw(st.integers(3, DENSE_MAX_M))
    n = (1 << m) - 1
    cap = n if m <= 8 else 40
    count = draw(st.one_of(st.integers(1, cap), st.sampled_from([1, cap])))
    positions = draw(st.permutations(range(n)))[:count]
    values = draw(coeff_lists(m, max_len=count))
    values = values + [0] * (count - len(values))
    return m, list(zip(positions, values))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(survivor_sets())
@example((3, [(6, 1)]))                                     # l = n - 1
@example((4, [(i, i) for i in range(15)]))                  # l = 0, zero value
@example((4, [(i, 7) for i in range(14, -1, -2)]))          # descending
@example((5, [(i, 1) for i in range(31)]))                  # l = 0 at n = 31
@example((5, [(i, i % 3) for i in range(30, 0, -3)]))       # n = 31, l = 21
@example((6, [(i, 0) for i in range(0, 63, 5)]))            # all values zero
@example((6, [(i, i) for i in range(62, 2, -1)]))           # n = 63, l = 3
@example((8, [(i, (7 * i) % 256) for i in range(254, -1, -1)]))  # l = 0
@example((8, [(200, 9)]))                                   # l = n - 1
@example((10, [(1000, 3)]))
def test_subset_interpolation_matches_scalar(case):
    m, points = case
    field = FIELDS[m]
    fast = interpolate_subset(field, points)
    ref = interpolate_subset(scalar(field), points)
    assert fast.coeffs == ref.coeffs
    assert fast.degree < len(points)


def test_subset_interpolation_dispatch(monkeypatch):
    # the reduction route makes one division, P mod M; the Lagrange loop
    # divides the survivors' master polynomial once per survivor
    calls = []
    divmod_ = Poly.__divmod__

    def spy(self, other):
        calls.append(type(self.field) is Field)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "__divmod__", spy)
    points = [(pos, pos % 5) for pos in range(1, 7)]
    for field in (FIELDS[3], FIELDS[DENSE_MAX_M]):
        interpolate_subset(field, points)
    assert calls == [True, True]
    calls.clear()
    interpolate_subset(scalar(FIELDS[4]), points)
    interpolate_subset(Field(11), points)
    assert calls == [False] * len(points) + [True] * len(points)
