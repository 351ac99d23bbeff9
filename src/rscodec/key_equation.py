"""Partial extended Euclidean solver for decoder key equations.

Every decoding pipeline in this package reduces to the same problem: given
a modulus and a known polynomial, find the lowest-degree monic locator W
and combination P with

    W(x) * known(x) = P(x)  (mod modulus(x))

The classical trick is to run the extended Euclidean algorithm on
(modulus, known) and stop at the first remainder whose degree drops below
a threshold chosen by the caller; that remainder is P and its cofactor
against known is W.  Only the remainders and the known-side cofactors are
tracked, which is all the congruence needs.

solve has two paths with the same steps and bit-identical results.  On a
plain Field it runs the recurrence on coefficient rows in the kernels'
working form (bytes up to m = 8; from m = 9 on lists below
ROW_KERNEL_MIN_LEN coefficients and intp arrays from it), and leaves all
arithmetic to polynomial's row kernels: each division is one divide_rows
call, and each cofactor update and the final monic scaling one
multiply_rows call.  Any other field context, such as the workbench's
CountingField, takes the reference loop over Poly divmod and
multiplication, so every product goes through field.mul and is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import Field
from .polynomial import Poly, as_row, divide_rows, multiply_rows


@dataclass(frozen=True)
class KeyEquationProblem:
    """One instance of the congruence to solve.

    stop_degree is exclusive: iteration ends at the first remainder with
    degree(remainder) < stop_degree.
    """

    modulus: Poly
    known: Poly
    stop_degree: int

    def __post_init__(self) -> None:
        self.known._compat(self.modulus)
        if self.known.degree >= self.modulus.degree:
            raise ValueError(
                f"known degree {self.known.degree} must be below "
                f"modulus degree {self.modulus.degree}")
        if not 0 < self.stop_degree <= self.modulus.degree:
            raise ValueError(
                f"stop_degree {self.stop_degree} is outside "
                f"(0, {self.modulus.degree}]")


@dataclass(frozen=True)
class KeyEquationSolution:
    """Monic locator, matching combination, and the iteration count."""

    locator: Poly
    combination: Poly
    iterations: int


def solve(problem: KeyEquationProblem) -> KeyEquationSolution:
    """Run the partial extended Euclidean algorithm on one problem.

    Returns the pair scaled so the locator is monic.  A zero known
    polynomial yields (1, 0) in zero iterations.  The result satisfies
    locator * known = combination (mod modulus) with
    degree(combination) < stop_degree.
    """
    field = problem.modulus.field
    if type(field) is Field:
        return _solve_rows(problem)
    r_prev, r_cur = problem.modulus, problem.known
    v_prev, v_cur = Poly.zero(field), Poly.one(field)
    stop = problem.stop_degree

    iterations = 0
    while r_cur.degree >= stop:
        quot, r_next = divmod(r_prev, r_cur)
        r_prev, r_cur = r_cur, r_next
        v_prev, v_cur = v_cur, v_prev + quot * v_cur
        iterations += 1

    lead = v_cur.lead
    if lead != 1:
        factor = field.inv(lead)
        v_cur = v_cur.scale(factor)
        r_cur = r_cur.scale(factor)
    return KeyEquationSolution(locator=v_cur, combination=r_cur,
                               iterations=iterations)


def _solve_rows(problem: KeyEquationProblem) -> KeyEquationSolution:
    """solve on a plain Field, on coefficient rows through the row kernels.

    Same steps, same results and same iteration count as the reference
    loop.
    """
    field = problem.modulus.field
    r_prev = as_row(field, problem.modulus.coeffs)
    r_cur = as_row(field, problem.known.coeffs)
    v_prev, v_cur = [], [1]
    stop = problem.stop_degree

    iterations = 0
    while len(r_cur) > stop:  # degree(r_cur) >= stop
        quot, r_next = divide_rows(field, r_prev, r_cur)
        r_prev, r_cur = r_cur, r_next
        # v_prev + quot * v_cur; the product has the higher degree
        v_prev, v_cur = v_cur, multiply_rows(field, quot, v_cur, v_prev)
        iterations += 1

    # scale so the locator is monic
    factor = [field.inv(v_cur[-1])]
    return KeyEquationSolution(
        locator=Poly._make(field, multiply_rows(field, factor, v_cur)),
        combination=Poly._make(field, multiply_rows(field, factor, r_cur)),
        iterations=iterations)
