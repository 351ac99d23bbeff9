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

solve runs the recurrence on coefficient rows and leaves all arithmetic to
polynomial's row kernels: each division is one divide_rows call, and
each cofactor update one multiply_rows call, as is each half of the
final scaling, made only when the last cofactor is not already monic.
On a CountingField the kernels count their own schoolbook products, and
the solve counts the one inversion of that scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import Field
from .polynomial import Poly, divide_rows, multiply_rows


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
        if (type(self.stop_degree) is not int
                or not 0 < self.stop_degree <= self.modulus.degree):
            raise ValueError(
                f"stop_degree must be an int in (0, {self.modulus.degree}], "
                f"got {self.stop_degree!r}")


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
    r_prev, r_cur = problem.modulus.coeffs, problem.known.coeffs
    v_prev, v_cur = [], [1]
    stop = problem.stop_degree

    iterations = 0
    while len(r_cur) > stop:  # degree(r_cur) >= stop
        quot, r_next = divide_rows(field, r_prev, r_cur)
        r_prev, r_cur = r_cur, r_next
        # v_prev + quot * v_cur; the product has the higher degree
        v_prev, v_cur = v_cur, multiply_rows(field, quot, v_cur, v_prev)
        iterations += 1

    if v_cur[-1] != 1:  # scale so the locator is monic
        # from m = 9 on the lead may be a numpy scalar, which inv refuses
        factor = (field.inv(int(v_cur[-1])),)
        if type(field) is not Field:  # the kernels count the products
            field.counter.add(0, 1)
        v_cur = multiply_rows(field, factor, v_cur)
        r_cur = multiply_rows(field, factor, r_cur)
    return KeyEquationSolution(locator=Poly._make(field, v_cur),
                               combination=Poly._make(field, r_cur),
                               iterations=iterations)
