"""The table-driven fast paths against the schoolbook reference.

Every product and division, Poly's scaling and each step of the one
key-equation solve go through the two row kernels, multiply_rows and
divide_rows, which choose their arithmetic from the field's m: up to
BYTE_MAX_M = 8 the rows are bytes (tests/test_byte_kernels.py covers
those kernels in depth), and from m = 9 on they are inline loops below
ROW_KERNEL_MIN_LEN coefficients and numpy rows from it.  The package
also has table-driven evaluation, the erasure-locator product, the
prime-factor transform, the closed-form cyclotomic quotient and the
subset interpolation as a transform plus a reduction.  A CountingField
runs all of these as a plain Field does.  tests/reference.py holds the
schoolbook algorithms they replace: scalar loops through Field.mul, the
Horner transform, long division and the Lagrange loop.  Both must give
bit-identical results, as plain ints.

Every m from 3 to 16 is covered.  Up to COUNTED_MAX_M the fast results
are compared with the reference's.  Above it a reference transform
costs n^2 products, 16 M at m = 12, so the transforms are checked by
Poly.evaluate at sampled points and by round trips, the quotient by the
plain long division, and the subset interpolation by recovering a known
polynomial.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import Reference
from rscodec import (DECODERS, CodeParams, Field, Poly, ReceivedWord,
                     cyclotomic_quotient, erasure_locator, evaluate_all,
                     encode, interpolate_all, interpolate_subset,
                     solve_key_equation)
from rscodec import polynomial, spectral
from rscodec.galois import MAX_M, MIN_M
from rscodec.polynomial import BYTE_MAX_M, ROW_KERNEL_MIN_LEN, xn_minus_one
from rscodec.spectral import CHUNK_ENTRIES, PRIME_FACTOR_MIN_N
from rscodec.workbench import CountingField, OpCounter

FIELDS = {m: Field(m) for m in range(MIN_M, MAX_M + 1)}
# a second primitive polynomial for every m; Field rejects one that is not
OTHER_PRIM_POLYS = {3: 0xD, 4: 0x19, 5: 0x29, 6: 0x61, 7: 0xC1, 8: 0x1C3,
                    9: 0x221, 10: 0x481, 11: 0xA01, 12: 0x1C11, 13: 0x3901,
                    14: 0x7005, 15: 0xC001, 16: 0x1A011}
# largest m whose transforms are compared with the reference's
COUNTED_MAX_M = 10
LARGE_M = range(COUNTED_MAX_M + 1, MAX_M + 1)
DIFF = settings(max_examples=150, deadline=None, derandomize=True)


def counted(field):
    return CountingField(field, OpCounter())


@st.composite
def coeff_lists(draw, m, max_len=40):
    order = 1 << m
    # small values make zero coefficients common
    element = st.one_of(st.integers(0, 1), st.integers(0, order - 1))
    return draw(st.lists(element, max_size=max_len))


@st.composite
def poly_pairs(draw):
    m = draw(st.integers(MIN_M, MAX_M))
    return m, draw(coeff_lists(m)), draw(coeff_lists(m))


def ref(m):
    return Reference(FIELDS[m])


@DIFF
@given(poly_pairs())
@example((3, [], [1, 2]))
@example((8, [0, 0, 5], []))
def test_mul_matches_scalar(case):
    m, a, b = case
    field = FIELDS[m]
    assert (Poly(field, a) * Poly(field, b)).coeffs == ref(m).product(a, b)


@DIFF
@given(poly_pairs(), st.integers(1, 1023))
@example((3, [], [1]), 1)              # zero dividend
@example((4, [1, 2, 3], [0, 0, 0, 7]), 7)  # dividend below the divisor
@example((8, [5] * 30, [3, 0, 1]), 1)  # monic divisor with a zero coefficient
@example((10, [0] * 9 + [1], [9]), 9)  # constant, non-monic divisor
@example((16, [65535] * 40, [1] * 31), 65534)  # row kernel at m = 16
# divisors one short of the row kernel's length and at it, non-monic
@example((3, [1, 2, 3, 4, 5, 6, 7] * 9, [0, 5] * 15), 3)
@example((8, [1, 2, 3, 4, 5, 6, 7] * 9, [0, 5] * 15 + [7]), 3)
@example((9, [300] * 70, [1] + [0] * (ROW_KERNEL_MIN_LEN - 2)), 100)
def test_divmod_matches_scalar(case, lead):
    m, a, b = case
    b = b + [lead % ((1 << m) - 1) + 1]  # a nonzero leading coefficient
    fb = Poly(FIELDS[m], b)
    fq, fr = divmod(Poly(FIELDS[m], a), fb)
    assert (fq.coeffs, fr.coeffs) == ref(m).divmod(a, b)
    assert fr.degree < fb.degree


@st.composite
def row_length_pairs(draw):
    """(m, long, short): long has ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN
    or ROW_KERNEL_MIN_LEN + 1 coefficients and a nonzero lead, short at
    most as many; zero coefficients are common."""
    m = draw(st.integers(MIN_M, COUNTED_MAX_M))
    size = draw(st.sampled_from([ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN,
                                 ROW_KERNEL_MIN_LEN + 1]))
    lead = draw(st.integers(1, (1 << m) - 1))
    long = draw(coeff_lists(m, max_len=size - 1))
    long = long + [0] * (size - 1 - len(long)) + [lead]
    short = draw(coeff_lists(m, max_len=size))
    return m, long, short


def plain_ints(*polys):
    return all(type(c) is int for p in polys for c in p.coeffs)


@DIFF
@given(row_length_pairs())
@example((3, [0] * 30 + [5], [1]))
@example((10, [0, 1023] * 16, [0, 0, 0, 7]))
def test_kernels_at_the_row_length_match_scalar(case):
    m, long, short = case
    field = FIELDS[m]
    fl, fs = Poly(field, long), Poly(field, short)
    expected = ref(m).product(long, short)
    for fast in (fl * fs, fs * fl):
        assert fast.coeffs == expected
        assert plain_ints(fast)
    # long as the divisor, of a dividend at least as long and of a shorter one
    for num in (short + long, short):
        fq, fr = divmod(Poly(field, num), fl)
        assert (fq.coeffs, fr.coeffs) == ref(m).divmod(num, long)
        assert plain_ints(fq, fr)


@pytest.mark.parametrize("m, lengths", [(8, (255, 65)), (12, (4095, 17))])
def test_long_products_match_scalar(m, lengths):
    # truong's R * L at full length: the longer factor takes one row per
    # term of the shorter, bytes at m = 8 and numpy at m = 12, in either
    # operand order
    rng = random.Random(m)
    coeffs = [[rng.randrange(1 << m) if rng.random() < 0.8 else 0
               for _ in range(size - 1)] + [rng.randrange(1, 1 << m)]
              for size in lengths]
    fa, fb = (Poly(FIELDS[m], c) for c in coeffs)
    expected = ref(m).product(*coeffs)
    for fast in (fa * fb, fb * fa):
        assert fast.coeffs == expected
        assert plain_ints(fast)
    quot, rem = divmod(fa * fb + fb, fa)
    assert quot.coeffs == rem.coeffs == fb.coeffs
    assert plain_ints(quot, rem)


@DIFF
@given(poly_pairs(), st.integers(0, 1023))
@example((5, [], []), 0)
@example((5, [7, 0, 1], []), 0)        # evaluate(0) and scale(0)
@example((6, [0, 0, 1], []), 1)
def test_evaluate_and_scale_match_scalar(case, value):
    m, coeffs, _ = case
    value %= 1 << m
    fp = Poly(FIELDS[m], coeffs)
    assert fp.evaluate(value) == ref(m).evaluate(coeffs, value)
    assert (fp * Poly(FIELDS[m], [value])).coeffs == ref(m).scale(coeffs,
                                                                   value)


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
    assert evaluate_all(Poly(field, coeffs), n) == ref(m).evaluate_all(coeffs)
    values = coeffs + [0] * (n - len(coeffs))
    assert (interpolate_all(field, values).coeffs
            == ref(m).interpolate_all(values))


def check_transforms(field, coeffs, counted):
    """evaluate_all against the reference's Horner transform or, when
    counted is false, against Horner at sampled points; then
    interpolate_all back."""
    n = field.n
    p = Poly(field, coeffs)
    values = evaluate_all(p, n)
    if counted:
        assert values == Reference(field).evaluate_all(coeffs)
    else:
        rng = random.Random(n)
        for i in [0, 1, n - 1, *rng.sample(range(n), 16)]:
            assert values[i] == p.evaluate(field.alpha_pow(i))
    assert all(type(v) is int for v in values)
    assert interpolate_all(field, values) == p


@pytest.mark.parametrize("m", sorted(FIELDS))
def test_full_length_transforms_match_scalar(m):
    # full length on the default field, k < n on a second primitive
    # polynomial; every plan shape: one dense stage below n = 255, two to
    # four prime-factor stages, and m = 13's rows computed per chunk
    field = FIELDS[m]
    n = field.n
    rng = random.Random(m)
    coeffs = [rng.randrange(field.order) for _ in range(n - 1)] + [1]
    check_transforms(field, coeffs, counted=m <= COUNTED_MAX_M)
    if m <= COUNTED_MAX_M:
        assert (interpolate_all(field, coeffs).coeffs
                == ref(m).interpolate_all(coeffs))
    other = Field(m, OTHER_PRIM_POLYS[m])
    short = [rng.randrange(other.order) for _ in range(n // 2)]
    check_transforms(other, short, counted=m <= 8)


@pytest.mark.parametrize("m", [4, 8])
def test_results_are_plain_ints(m):
    field = FIELDS[m]
    params = CodeParams(field, 5)
    codeword = encode(params, (1, 0, 3, 2, 1))
    assert all(type(s) is int for s in codeword)
    rng = random.Random(m)
    values = [rng.randrange(field.order) for _ in range(field.n)]
    assert all(type(c) is int for c in interpolate_all(field, values).coeffs)
    survivors = [value or 1 for value in values]
    for l in (0, 8, field.n - 1):  # every survivor, some, and a single one
        coeffs = interpolate_subset(field, survivors, range(l)).coeffs
        assert coeffs and all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("m", [m for m in sorted(FIELDS)
                               if FIELDS[m].n >= PRIME_FACTOR_MIN_N])
def test_no_kernel_array_reaches_n_squared(m):
    # Every kernel array holds indices or elements of at least two bytes,
    # so an array of n^2 entries would take 2 n^2 bytes.  The ufunc
    # buffers are shrunk so that the traced peak counts arrays only; the
    # plan is built inside the traced span.  Both transforms and both
    # sparse reads run.  Chunking also caps the peak at a few intp
    # temporaries of CHUNK_ENTRIES entries.
    field = Field(m, OTHER_PRIM_POLYS[m])
    n = field.n
    params = CodeParams(field, 16)
    locator = erasure_locator(params, range(3, n, n // 16))
    spectral._plan.cache_clear()
    polynomial.row_tables.cache_clear()
    old_size = np.setbufsize(16)
    tracemalloc.start()
    try:
        interpolate_all(field, encode(params, range(1, 17)))
        cyclotomic_quotient(locator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(old_size)
    assert peak < 2 * n * n
    assert peak < 48 * CHUNK_ENTRIES


def test_packed_table_size():
    # m = 7 is the largest field below PRIME_FACTOR_MIN_N: 127 x 128 ints
    # of 127 bytes each
    rows = spectral._packed(Field(7, OTHER_PRIM_POLYS[7]))
    size = sys.getsizeof(rows) + sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)
    assert size < 4_000_000


def test_no_plan_below_the_prime_factor_length(monkeypatch):
    # up to m = 8 every transform, quotient and subset interpolation reads
    # the packed tables, one-stage below n = 255 and the byte plan at 255;
    # numpy's prime-factor plan serves m >= 9 only
    built = []
    plan = spectral._plan

    def spy(field):
        built.append(field.n)
        return plan(field)

    monkeypatch.setattr(spectral, "_plan", spy)
    for m in range(MIN_M, 9):
        field = Field(m, OTHER_PRIM_POLYS[m])
        n = field.n
        params = CodeParams(field, n // 2)
        message = list(range(1, params.k + 1))
        codeword = encode(params, message)
        received = ReceivedWord(codeword, range(0, n - params.k - 1, 2))
        for decoder in DECODERS.values():
            assert decoder(params, received).message == tuple(message)
        locator = erasure_locator(params, range(1, n, 3))
        cyclotomic_quotient(locator)
        interpolate_all(field, codeword)
    assert built == []


def test_byte_plan_size():
    # every table an n = 255 field's kernels and transforms read: the byte
    # tables and the packed prime-factor plan; a one-stage packed table at
    # n = 255 would hold about 17 MB
    field = Field(8, OTHER_PRIM_POLYS[8])
    tables, plan = polynomial.byte_tables(field), spectral._byte_plan(field)
    seen = set()

    def size(obj):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        total = sys.getsizeof(obj)
        if isinstance(obj, tuple):
            total += sum(map(size, obj))
        return total

    assert size(tables) + size(plan) < 1_000_000


NUMPY_FREE = r"""
import random
import sys
from pathlib import Path

import rscodec, rscodec.workbench, rscodec.workbench.cli
from rscodec import (DECODERS, CodeParams, Field, ReceivedWord,
                     decode_errors_only, encode, spectral)
from rscodec.workbench.cli import main

rng = random.Random(8)
for m, k in ((3, 3), (4, 7), (8, 223), (8, 127)):
    params = CodeParams(Field(m), k)
    t = (params.d - 1) // 4  # errors, and twice as many erasures
    message = tuple(rng.randrange(params.field.order) for _ in range(k))
    codeword = encode(params, message)
    symbols = list(codeword)
    positions = rng.sample(range(params.n), 3 * t)
    for pos in positions[:t]:
        symbols[pos] ^= rng.randrange(1, params.field.order)
    received = ReceivedWord(symbols, positions[t:])
    for decoder in DECODERS.values():
        assert decoder(params, received).message == message
    errors = list(codeword)
    for pos in positions[:(params.d - 1) // 2]:
        errors[pos] ^= 1
    assert decode_errors_only(params, errors).message == message


def cli(*args):
    assert main([str(arg) for arg in args]) == 0


work = Path(sys.argv[1])
messages, blocks, noisy, out = (work / name for name in (
    "messages.txt", "blocks.txt", "noisy.txt", "out.txt"))
for m, k, t, l in ((4, 7, 2, 4), (8, 223, 8, 16), (8, 127, 32, 64)):
    messages.write_text("".join(
        " ".join(str(rng.randrange(1 << m)) for _ in range(k)) + "\n"
        for _ in range(2)))
    cli("encode", "--m", m, "--k", k, "--in", messages, "--out", blocks)
    cli("corrupt", "--t", t, "--l", l, "--seed", 1, "--in", blocks,
        "--out", noisy)
    for algorithm in (*DECODERS, "errors-only"):
        source = blocks if algorithm == "errors-only" else noisy
        cli("decode", "--algorithm", algorithm, "--in", source, "--out", out)
        assert out.read_text() == messages.read_text()
assert "numpy" not in sys.modules, "a field with m <= 8 imported numpy"
assert spectral._plan.cache_info().currsize == 0
params = CodeParams(Field(9), 479)
assert "numpy" not in sys.modules, "CodeParams at m = 9 imported numpy"
encode(params, range(479))
assert "numpy" in sys.modules, "the first encode at m = 9 left numpy out"
assert spectral._plan.cache_info().currsize == 1
"""


def test_small_fields_never_import_numpy(tmp_path):
    # a fresh interpreter, since this one has numpy loaded; at m = 9 the
    # import and the plan belong to the first encode, not to CodeParams
    source = Path(spectral.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


@st.composite
def key_equation_problems(draw):
    """(m, modulus, known, stop_degree) with the modulus on either side of
    the row kernel's length."""
    m = draw(st.integers(MIN_M, MAX_M))
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
# one iteration leaves the cofactor 2 x^31, a numpy row whose lead 2 is a
# numpy scalar, so the final scaling inverts it
@example((9, [0] * ROW_KERNEL_MIN_LEN + [2], [0, 1], 1))
def test_solve_matches_scalar(case):
    m, modulus, known, stop = case
    field = FIELDS[m]
    locator, combination, iterations = solve_key_equation(
        Poly(field, modulus), Poly(field, known), stop)
    assert ((locator.coeffs, combination.coeffs, iterations)
            == ref(m).solve(modulus, known, stop))


@st.composite
def erasure_sets(draw):
    m = draw(st.integers(MIN_M, COUNTED_MAX_M))
    n = (1 << m) - 1
    count = draw(st.one_of(st.integers(1, n - 1), st.sampled_from([1, n - 1])))
    return m, draw(st.permutations(range(n)))[:count]


@DIFF
@given(erasure_sets(), st.integers(1, 1023))
@example((3, [4]), 1)                        # l = 1
@example((3, [6, 5, 4, 3, 2, 1]), 1)         # l = n - 1 = d - 1 at k = 1
@example((6, [62]), 5)                       # l = 1 at n = 63
@example((6, list(range(62))), 1)
@example((8, list(range(254, 0, -1))), 1)    # l = n - 1 at m = 8
@example((8, [0, 9, 100]), 77)               # non-monic locator
# at l = 31 the row reaches ROW_KERNEL_MIN_LEN coefficients, all built
# inline; l = 32 multiplies it once in numpy, l = 33 twice
@example((9, list(range(0, 310, 10))), 3)
@example((9, list(range(510, 478, -1))), 1)
@example((9, list(range(1, 100, 3))), 200)
def test_erasure_locator_and_quotient_match_scalar(case, scale):
    m, positions = case
    field = FIELDS[m]
    fast = erasure_locator(CodeParams(field, 1), positions)
    assert fast.coeffs == ref(m).root_product(positions)
    scale = scale % field.n + 1
    assert (cyclotomic_quotient(fast * Poly(field, [scale])).coeffs
            == ref(m).cyclotomic_quotient(ref(m).scale(fast.coeffs, scale)))


@pytest.mark.parametrize("m", LARGE_M)
def test_large_field_quotient_matches_long_division(m):
    # the reference's long division of x^n - 1 costs about n * l products,
    # so above COUNTED_MAX_M the plain field's own long division is the
    # reference; locators below and above the row kernel's length
    rng = random.Random(m)
    for field in (FIELDS[m], Field(m, OTHER_PRIM_POLYS[m])):
        n = field.n
        for l in (1, 5, ROW_KERNEL_MIN_LEN + 8):
            locator = erasure_locator(CodeParams(field, 1),
                                      rng.sample(range(n), l))
            locator = locator * Poly(field,
                                     [field.alpha_pow(rng.randrange(n))])
            quot, rem = divmod(xn_minus_one(field), locator)
            assert rem.is_zero
            assert cyclotomic_quotient(locator) == quot


def test_long_locator_vanishes_at_its_roots_only():
    # l = 2,000 at m = 12 builds most of the locator in numpy rows; the
    # schoolbook reference would take 2 M products, so the check is by roots
    field = FIELDS[12]
    positions = random.Random(12).sample(range(field.n), 2000)
    locator = erasure_locator(CodeParams(field, 1), positions)
    assert locator.degree == 2000 and locator.lead == 1
    values = evaluate_all(locator, field.n)
    assert {pos for pos, v in enumerate(values) if not v} == set(positions)
    quot, rem = divmod(xn_minus_one(field), locator)
    assert rem.is_zero
    assert cyclotomic_quotient(locator) == quot


@pytest.mark.parametrize("m", [3, 6, 10])
def test_quotient_rejects_a_non_dividing_locator(m):
    field = FIELDS[m]
    a = field.alpha_pow(2)
    repeated_root = Poly(field, [1, 0, 1])  # (x + 1)^2
    with_zero_root = Poly(field, [0, a, 1])  # x (x + alpha^2)
    for locator in (repeated_root, with_zero_root):
        for ctx in (field, counted(field)):
            with pytest.raises(ValueError, match="does not divide"):
                cyclotomic_quotient(Poly(ctx, locator.coeffs))
        with pytest.raises(ValueError, match="does not divide"):
            Reference(field).cyclotomic_quotient(locator.coeffs)


def test_quotient_dispatch(monkeypatch):
    # every field, a CountingField too, takes the closed form for
    # 1 <= deg < n; only a constant locator and x^n - 1 itself divide
    calls = []
    divmod_ = Poly.__divmod__

    def spy(self, other):
        calls.append(type(self.field) is Field)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "__divmod__", spy)
    for m in range(MIN_M, 9):
        field = FIELDS[m]
        n = field.n
        params = CodeParams(field, 1)
        for positions in ([0], [n - 1, 2], range(1, n, 2), range(1, n)):
            cyclotomic_quotient(erasure_locator(params, positions))
    assert calls == []
    field = FIELDS[4]
    locator = erasure_locator(CodeParams(counted(field), 1), [3])
    cyclotomic_quotient(locator)
    assert calls == []
    cyclotomic_quotient(Poly(field, [5]))
    cyclotomic_quotient(xn_minus_one(field))
    assert calls == [True, True]


def test_row_kernel_dispatch_follows_divisor_length(monkeypatch):
    # only a numpy row fetches the row tables: from m = 9 on, a division's
    # from a divisor of ROW_KERNEL_MIN_LEN coefficients, a product's from a
    # longer factor of that length, in either operand order, a
    # CountingField's as a plain field's; up to m = 8, where rows are
    # bytes, never
    fetched = []
    row_tables = polynomial.row_tables

    def spy(field):
        fetched.append(field)
        return row_tables(field)

    monkeypatch.setattr(polynomial, "row_tables", spy)
    rows = []
    for field in (FIELDS[9], counted(FIELDS[9]), *(FIELDS[m] for m in range(
            MIN_M, BYTE_MAX_M + 1))):
        short = Poly(field, [5, 0, 6])
        for length in (ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN):
            long = Poly(field, [3] * length)
            for name, run in (
                    ("divmod", lambda: divmod(Poly(field, [7] * 80), long)),
                    ("long * short", lambda: long * short),
                    ("short * long", lambda: short * long)):
                fetched.clear()
                run()
                if fetched:
                    rows.append((name, length))
    assert rows == [("divmod", ROW_KERNEL_MIN_LEN),
                    ("long * short", ROW_KERNEL_MIN_LEN),
                    ("short * long", ROW_KERNEL_MIN_LEN)] * 2


def test_equal_fields_share_one_cache_entry():
    # Field's hash is computed once; an equal field and a CountingField over
    # it hash alike, so every per-field cache serves them from one entry
    caches = {6: (polynomial.row_tables, polynomial.byte_tables,
                  spectral._packed),
              8: (polynomial.byte_tables, spectral._byte_plan)}
    for m, cached in caches.items():
        field = Field(m, OTHER_PRIM_POLYS[m])
        twin = Field(m, OTHER_PRIM_POLYS[m])
        counting = counted(twin)
        assert hash(field) == hash(twin) == hash(counting)
        assert hash(field) != hash(FIELDS[m])
        tables = [table(field) for table in cached]
        before = [table.cache_info().currsize for table in cached]
        for other in (twin, counting):
            assert all(table(other) is built
                       for table, built in zip(cached, tables))
        assert [table.cache_info().currsize for table in cached] == before


def test_key_equation_stage_results_are_plain_ints():
    field = FIELDS[8]
    rng = random.Random(8)
    modulus = Poly(field, [1] + [0] * 254 + [1])
    known = Poly(field, [rng.randrange(256) for _ in range(200)])
    error_locator, combination, _ = solve_key_equation(modulus, known, 150)
    quot, rem = divmod(known, Poly(field, [5] * 64))
    locator = erasure_locator(CodeParams(field, 1), range(0, 255, 4))
    for poly in (error_locator, combination, quot, rem, locator,
                 cyclotomic_quotient(locator)):
        assert poly.coeffs and all(type(c) is int for c in poly.coeffs)


@st.composite
def erasure_sets(draw):
    """(m, values, erasures): n values and distinct erased positions in
    random order.

    The reference's Lagrange loop is O(count^2) in the survivors, so above
    m = 8 they are capped; l = n - count then stays close to n there.
    """
    m = draw(st.integers(MIN_M, COUNTED_MAX_M))
    n = (1 << m) - 1
    cap = n if m <= 8 else 40
    count = draw(st.one_of(st.integers(1, cap), st.sampled_from([1, cap])))
    erasures = draw(st.permutations(range(n)))[count:]
    values = draw(coeff_lists(m, max_len=n))
    return m, values + [0] * (n - len(values)), erasures


def spread(n, survivors):
    """n values, survivors' (position, value) pairs and 5 elsewhere, and the
    positions that are not survivors in descending order."""
    values = [5] * n
    for pos, value in survivors:
        values[pos] = value
    kept = {pos for pos, _ in survivors}
    return values, [pos for pos in range(n - 1, -1, -1) if pos not in kept]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(erasure_sets())
@example((3, *spread(7, [(6, 1)])))                              # l = n - 1
@example((4, *spread(15, [(i, i) for i in range(15)])))          # l = 0, zero
@example((4, *spread(15, [(i, 7) for i in range(14, -1, -2)])))   # l = 7
@example((5, *spread(31, [(i, 1) for i in range(31)])))          # l = 0, n = 31
@example((5, *spread(31, [(i, i % 3) for i in range(30, 0, -3)])))  # l = 21
@example((6, *spread(63, [(i, 0) for i in range(0, 63, 5)])))    # zero survivors
@example((6, *spread(63, [(i, i) for i in range(62, 2, -1)])))   # n = 63, l = 3
@example((8, *spread(255, [(i, (7 * i) % 256) for i in range(255)])))  # l = 0
@example((8, *spread(255, [(200, 9)])))                          # l = n - 1
@example((10, *spread(1023, [(1000, 3)])))
def test_subset_interpolation_matches_scalar(case):
    m, values, erasures = case
    field = FIELDS[m]
    fast = interpolate_subset(field, values, erasures)
    assert fast.coeffs == ref(m).interpolate_subset(values, erasures)
    assert fast.degree < field.n - len(erasures)


@pytest.mark.parametrize("m", LARGE_M)
def test_large_field_subset_interpolation(m):
    # through the survivors of a codeword, the unique interpolant of
    # degree < n - l is the message polynomial itself; random values are
    # checked at sampled survivors
    rng = random.Random(m)
    for field, l in ((FIELDS[m], 1), (Field(m, OTHER_PRIM_POLYS[m]), 16)):
        n = field.n
        order = rng.sample(range(n), n)
        message = [rng.randrange(field.order) for _ in range(24)]
        codeword = encode(CodeParams(field, 24), message)
        p = interpolate_subset(field, codeword, order[:l])
        assert p.coeffs == tuple(message)
        # any 24 symbols pin it down too; M is then the survivors' product
        p = interpolate_subset(field, codeword, order[24:])
        assert p.coeffs == tuple(message)
    values = [rng.randrange(field.order) for _ in range(n)]
    p = interpolate_subset(field, values, order[:l])
    assert p.degree < n - l
    for pos in rng.sample(order[l:], 8):
        assert p.evaluate(field.alpha_pow(pos)) == values[pos]


def test_subset_interpolation_dispatch(monkeypatch):
    # every field takes the reduction route, one division P mod M; a
    # CountingField makes it on its plain base field
    calls = []
    divmod_ = Poly.__divmod__

    def spy(self, other):
        calls.append(type(self.field) is Field)
        return divmod_(self, other)

    monkeypatch.setattr(Poly, "__divmod__", spy)
    # six survivors, positions 1 to 6
    for field in (FIELDS[3], FIELDS[COUNTED_MAX_M]):
        values = [pos % 5 for pos in range(field.n)]
        interpolate_subset(field, values, [0, *range(7, field.n)])
    # all but one position at m = 11, which the Lagrange loop served before
    interpolate_subset(FIELDS[11], [pos % 5 for pos in range(FIELDS[11].n)],
                       [0])
    assert calls == [True, True, True]
    calls.clear()
    values = [pos % 5 for pos in range(15)]
    interpolate_subset(counted(FIELDS[4]), values, [0, *range(7, 15)])
    assert calls == [True]
