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
    KeyEquationProblem,
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
    return KeyEquationProblem(modulus=modulus, known=known, stop_degree=stop)


def test_problem_validation(gf8, gf16):
    modulus = xn_minus_one(gf8)
    good = Poly(gf8, [1, 2, 3])
    KeyEquationProblem(modulus=modulus, known=good, stop_degree=4)
    with pytest.raises(ValueError, match="must be below"):
        KeyEquationProblem(modulus=modulus, known=modulus, stop_degree=4)
    with pytest.raises(ValueError, match="stop_degree"):
        KeyEquationProblem(modulus=modulus, known=good, stop_degree=0)
    with pytest.raises(ValueError, match="stop_degree"):
        KeyEquationProblem(modulus=modulus, known=good, stop_degree=8)
    with pytest.raises(ValueError, match="mixed field"):
        KeyEquationProblem(modulus=modulus, known=Poly(gf16, [1, 2]),
                           stop_degree=4)


@pytest.mark.parametrize("stop", [1.0, True, 2.5])
def test_problem_refuses_non_int_stop_degree(gf8, stop):
    with pytest.raises(ValueError, match="stop_degree must be an int"):
        KeyEquationProblem(modulus=xn_minus_one(gf8),
                           known=Poly(gf8, [1, 2, 3]), stop_degree=stop)


def test_zero_known_is_trivial(gf8):
    solution = solve_key_equation(KeyEquationProblem(
        modulus=xn_minus_one(gf8), known=Poly(gf8), stop_degree=3))
    assert solution.locator == Poly(gf8, [1])
    assert solution.combination.is_zero
    assert solution.iterations == 0


def test_low_degree_known_needs_no_iterations(gf8):
    known = Poly(gf8, [5, 1])
    solution = solve_key_equation(KeyEquationProblem(
        modulus=xn_minus_one(gf8), known=known, stop_degree=5))
    assert solution.iterations == 0
    assert solution.locator == Poly(gf8, [1])
    assert solution.combination == known


def test_worked_single_error(gf8):
    # codeword of the message polynomial x, with position 2 knocked to zero
    symbols = list(evaluate_all(Poly(gf8, [0, 1]), 7))
    assert symbols == [1, 2, 4, 3, 6, 7, 5]
    symbols[2] = 0
    known = interpolate_all(gf8, symbols)
    solution = solve_key_equation(KeyEquationProblem(
        modulus=xn_minus_one(gf8), known=known, stop_degree=5))
    # locator x + 4 has the single root alpha^2
    assert solution.locator == Poly(gf8, [4, 1])
    assert solution.iterations == 1
    assert solution.combination == solution.locator * Poly(gf8, [0, 1])


def test_congruence_postcondition(gf16):
    rng = random.Random(5)
    for _ in range(200):
        problem = rand_problem(rng, gf16, 12)
        solution = solve_key_equation(problem)
        residue = (solution.locator * problem.known
                   + solution.combination) % problem.modulus
        assert residue.is_zero
        assert solution.combination.degree < problem.stop_degree
        assert solution.locator.lead == 1


def test_matches_tracked_reference(gf8, gf16):
    rng = random.Random(11)
    for field in (gf8, gf16):
        for _ in range(150):
            problem = rand_problem(rng, field, 10)
            if problem.known.is_zero:
                continue
            solution = solve_key_equation(problem)
            locator, combination, iterations = tracked_euclid(
                field.m, field.prim_poly,
                list(problem.modulus.coeffs), list(problem.known.coeffs),
                problem.stop_degree)
            assert list(solution.locator.coeffs) == trim(locator)
            assert list(solution.combination.coeffs) == trim(combination)
            assert solution.iterations == iterations


def test_locator_degree_bound(gf16):
    # each Euclidean step trades remainder degree for cofactor degree, so
    # degree(locator) <= degree(modulus) - stop_degree always holds
    rng = random.Random(13)
    for _ in range(200):
        problem = rand_problem(rng, gf16, 12)
        solution = solve_key_equation(problem)
        assert solution.locator.degree <= (problem.modulus.degree
                                           - problem.stop_degree)


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
    solution = solve_key_equation(KeyEquationProblem(
        modulus=Poly(GF256, modulus), known=Poly(GF256, known),
        stop_degree=stop))
    assert solution.locator.degree <= len(modulus) - 1 - stop
    assert ((solution.locator.coeffs, solution.combination.coeffs,
             solution.iterations)
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
    solution = solve_key_equation(KeyEquationProblem(
        Poly(field, modulus), Poly(field, known), 1))
    assert ((solution.locator.coeffs, solution.combination.coeffs,
             solution.iterations) == expected)
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
        truong = solve_key_equation(KeyEquationProblem(
            modulus, known, (n + k + l + 1) // 2))
        known, modulus, _ = codec._reduced_modulus(received, locator)
        suggested = solve_key_equation(KeyEquationProblem(
            modulus, known, (n - l + k + 1) // 2))
        assert truong.iterations == suggested.iterations
        assert truong.locator == suggested.locator
        assert truong.combination == locator * suggested.combination
