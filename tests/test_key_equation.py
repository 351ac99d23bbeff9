"""Partial extended Euclidean key equation solver."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import tracked_euclid, trim
from reference import Reference, euclid_chain
from rscodec import (
    CodeParams,
    Field,
    Poly,
    erasure_locator,
    evaluate_all,
    interpolate_all,
    solve_key_equation,
    xn_minus_one,
)
from rscodec import codec, polynomial
from rscodec.polynomial import BYTE_MAX_M, ROW_KERNEL_MIN_LEN


def rand_problem(rng, field, max_modulus_degree):
    deg = rng.randrange(2, max_modulus_degree + 1)
    modulus = Poly(field, [rng.randrange(field.order) for _ in range(deg)] + [1])
    known = Poly(field, [rng.randrange(field.order) for _ in range(deg)])
    stop = rng.randrange(1, deg + 1)
    return modulus, known, stop


GF8, GF16 = Field(3), Field(4)
X7_PLUS_1, GOOD = xn_minus_one(GF8), Poly(GF8, [1, 2, 3])
STOP_RANGE = "stop_degree must be an int in (0, 7], got "


@pytest.mark.parametrize("known, stop, message", [
    (Poly(GF16, [1, 2]), 4,
     "mixed field contexts: Field(m=4, prim_poly=0x13) vs "
     "Field(m=3, prim_poly=0xB)"),
    (X7_PLUS_1, 4, "known degree 7 must be below modulus degree 7"),
    (GOOD, 0, STOP_RANGE + "0"),
    (GOOD, 8, STOP_RANGE + "8"),  # deg modulus + 1
    (GOOD, True, STOP_RANGE + "True"),
    (GOOD, 2.0, STOP_RANGE + "2.0"),
    (GOOD, 2.5, STOP_RANGE + "2.5"),
    # the refusals come in this order: fields, then degree, then stop
    (Poly(GF16, [1] * 9), 0,
     "mixed field contexts: Field(m=4, prim_poly=0x13) vs "
     "Field(m=3, prim_poly=0xB)"),
    (X7_PLUS_1, 0, "known degree 7 must be below modulus degree 7"),
], ids=["mixed-fields", "known-not-below", "stop-0", "stop-deg+1",
        "stop-True", "stop-2.0", "stop-2.5", "mixed-before-degree",
        "degree-before-stop"])
def test_solve_key_equation_refusals(known, stop, message):
    with pytest.raises(ValueError) as refused:
        solve_key_equation(X7_PLUS_1, known, stop)
    assert str(refused.value) == message


def test_zero_known_is_trivial(gf8):
    assert solve_key_equation(xn_minus_one(gf8), Poly(gf8), 3) == (
        Poly(gf8, [1]), Poly(gf8), 0)


def test_low_degree_known_needs_no_iterations(gf8):
    known = Poly(gf8, [5, 1])
    assert solve_key_equation(xn_minus_one(gf8), known, 5) == (
        Poly(gf8, [1]), known, 0)


def test_worked_single_error(gf8):
    # codeword of the message polynomial x, with position 2 knocked to zero
    symbols = list(evaluate_all(Poly(gf8, [0, 1]), 7))
    assert symbols == [1, 2, 4, 3, 6, 7, 5]
    symbols[2] = 0
    known = interpolate_all(gf8, symbols)
    locator, combination, iterations = solve_key_equation(
        xn_minus_one(gf8), known, 5)
    # locator x + 4 has the single root alpha^2
    assert locator == Poly(gf8, [4, 1])
    assert iterations == 1
    assert combination == locator * Poly(gf8, [0, 1])


def test_congruence_postcondition(gf16):
    rng = random.Random(5)
    for _ in range(200):
        modulus, known, stop = rand_problem(rng, gf16, 12)
        locator, combination, _ = solve_key_equation(modulus, known, stop)
        assert not (locator * known + combination) % modulus
        assert combination.degree < stop
        assert locator.coeffs[-1] == 1


def test_matches_tracked_reference(gf8, gf16):
    rng = random.Random(11)
    for field in (gf8, gf16):
        for _ in range(150):
            modulus, known, stop = rand_problem(rng, field, 10)
            if not known:
                continue
            locator, combination, iterations = solve_key_equation(
                modulus, known, stop)
            ref_locator, ref_combination, ref_iterations = tracked_euclid(
                field.m, field.prim_poly,
                list(modulus.coeffs), list(known.coeffs), stop)
            assert list(locator.coeffs) == trim(ref_locator)
            assert list(combination.coeffs) == trim(ref_combination)
            assert iterations == ref_iterations


def test_locator_degree_bound(gf16):
    # each Euclidean step trades remainder degree for cofactor degree, so
    # degree(locator) <= degree(modulus) - stop_degree always holds
    rng = random.Random(13)
    for _ in range(200):
        modulus, known, stop = rand_problem(rng, gf16, 12)
        locator, _, _ = solve_key_equation(modulus, known, stop)
        assert locator.degree <= modulus.degree - stop


GF256 = Field(8)
SYMBOLS = st.integers(0, GF256.order - 1)
XN_MINUS_ONE = [1] + [0] * (GF256.n - 1) + [1]


@st.composite
def long_problems(draw):
    """(modulus, known, stop_degree) coefficient lists, the modulus monic
    with 2 to 81 coefficients, on both sides of ROW_KERNEL_MIN_LEN, where
    the rows of a field with m >= 9 change form.  At m = 8 the solve is
    one packed pass at every length, and tests/reference.py's solve runs
    on scalar loops."""
    degree = draw(st.one_of(st.integers(1, ROW_KERNEL_MIN_LEN - 1),
                            st.integers(ROW_KERNEL_MIN_LEN - 1, 80)))
    modulus = draw(st.lists(SYMBOLS, min_size=degree, max_size=degree)) + [1]
    known = draw(st.lists(SYMBOLS, max_size=degree))
    return modulus, known, draw(st.integers(1, degree))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(long_problems())
@example(([1] * 40, [], 39))
@example(([1] * 40, [], 1))
@example(([1] * 40, [7] * 39, 39))
@example((XN_MINUS_ONE, list(range(1, 255)), 239))
@example((XN_MINUS_ONE, [3] * 200, 128))
@example(([5, 1], [], 1))                    # the shortest modulus
@example(([9, 0, 1], [4], 1))                # a constant known, one step
@example(([2] * 31 + [1], [7] * 31, 1))      # 32 coefficients, down to 1
@example(([1, 0, 0, 0, 0, 1], [3, 0, 2], 3))  # known of degree stop - 1
# remainder sequences by their quotients (tests/reference.py's euclid_chain):
# a remainder dropping three degrees, under a quotient with a zero term
@example((*euclid_chain(GF256, [[3, 1], [1, 2, 0, 1], [4, 1]], [5, 3], [6]),
          1))
# a quotient with two zero middle terms
@example((*euclid_chain(GF256, [[2, 1], [3, 0, 0, 1], [1, 1]], [2, 1], [7]),
          1))
# a non-monic modulus, and a non-monic last cofactor
@example((*euclid_chain(GF256, [[2, 5], [1, 3]], [4, 6], [3]), 1))
@example((*euclid_chain(GF256, [[1, 3], [2, 6], [5, 7]], [4, 2], [1]), 1))
def test_locator_degree_bound_on_both_solve_paths(case):
    # the decoders rely on this bound in place of a radius check: with
    # stop_degree = ceil((deg M + k + deg factor) / 2) it caps deg W at
    # (d - 1 - l) / 2
    modulus, known, stop = case
    locator, combination, iterations = solve_key_equation(
        Poly(GF256, modulus), Poly(GF256, known), stop)
    assert locator.degree <= len(modulus) - 1 - stop
    assert ((locator.coeffs, combination.coeffs, iterations)
            == Reference(GF256).solve(modulus, known, stop))


@pytest.mark.parametrize("m", [3, 4, 8, 9])
def test_only_m_from_9_scales_through_multiply_rows_and_inv(m, monkeypatch):
    # up to BYTE_MAX_M euclid_bytes returns the pair already monic, so solve
    # neither inverts the cofactor's lead nor scales with multiply_rows
    field = Field(m)
    quotients = [[1, 3], [2, 6], [5, 7]]
    # the last cofactor's lead is the product of the quotients' leads
    assert functools.reduce(field.mul, (q[-1] for q in quotients)) != 1
    modulus, known = euclid_chain(field, quotients, [4, 2], [1])
    expected = Reference(field).solve(modulus, known, 1)
    calls = []

    def forbid_below_9(name, kernel):
        def wrapped(*args):
            if m <= BYTE_MAX_M:
                raise AssertionError(f"solve called {name} at m = {m}")
            calls.append(name)
            return kernel(*args)
        return wrapped

    monkeypatch.setattr(polynomial, "multiply_rows", forbid_below_9(
        "multiply_rows", polynomial.multiply_rows))
    monkeypatch.setattr(Field, "inv", forbid_below_9("inv", Field.inv))
    locator, combination, iterations = solve_key_equation(
        Poly(field, modulus), Poly(field, known), 1)
    assert (locator.coeffs, combination.coeffs, iterations) == expected
    # from m = 9 on: one cofactor product per division, then the scaling
    assert calls == ([] if m <= BYTE_MAX_M else
                     ["multiply_rows"] * 3 + ["inv"] + ["multiply_rows"] * 2)


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_truong_solves_suggesteds_problem_times_the_locator(m):
    # x^n - 1 = L Q gives R L mod (x^n - 1) = L (R mod Q), and truong's
    # stop degree is suggested's plus l: floor((n + k + l + 1) / 2) - l =
    # floor((n - l + k + 1) / 2).  L is monic, so the two Euclid runs make
    # the same quotients: equal locators and iterations, and each of
    # truong's remainders, the combination included, is L times suggested's
    field = Field(m)
    n = field.n
    rng = random.Random(f"truong-suggested/{m}")
    for _ in range(200):
        params = CodeParams(field, rng.randrange(1, n))
        k, l = params.k, rng.randrange(params.d)
        locator = erasure_locator(params, rng.sample(range(n), l))
        received = Poly(field, [rng.randrange(field.order) for _ in range(n)])
        known, modulus, _ = codec._locator_product(received, locator)
        t_locator, t_combination, t_iterations = solve_key_equation(
            modulus, known, (n + k + l + 1) // 2)
        known, modulus, _ = codec._reduced_modulus(received, locator)
        s_locator, s_combination, s_iterations = solve_key_equation(
            modulus, known, (n - l + k + 1) // 2)
        assert t_iterations == s_iterations
        assert t_locator == s_locator
        assert t_combination == locator * s_combination
