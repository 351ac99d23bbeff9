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
plain Field with a modulus of at least ROW_KERNEL_MIN_LEN coefficients,
the remainders are numpy intp arrays and each division row is one
gather-and-XOR in the log domain (polynomial.divide_rows), with the
divisor's logs taken once per iteration; short cofactors stay lists and
long ones become arrays.  numpy is imported on that path's first call.
Any other field context, such as the workbench's CountingField, takes the
reference loop over Poly divmod and multiplication, so every product goes
through field.mul and is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import Field
from .polynomial import ROW_KERNEL_MIN_LEN, Poly, divide_rows, row_tables


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
    if (type(field) is Field
            and len(problem.modulus.coeffs) >= ROW_KERNEL_MIN_LEN):
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
    """solve on a plain Field, with the remainders as numpy intp arrays.

    Each division row is one gather-and-XOR through divide_rows; the
    divisor's logs are taken once per iteration.  Same steps, same
    results and same iteration count as the reference loop.
    """
    import numpy as np

    field = problem.modulus.field
    exp_rows, log_rows = row_tables(field)
    exp, log = field._exp, field._log
    r_prev = np.array(problem.modulus.coeffs, dtype=np.intp)
    r_cur = np.array(problem.known.coeffs, dtype=np.intp)
    v_prev, v_cur = [], [1]
    stop = problem.stop_degree

    iterations = 0
    while len(r_cur) > stop:  # degree(r_cur) >= stop
        dd = len(r_cur) - 1
        quot = divide_rows(field, r_prev, log_rows[r_cur])
        while dd and not r_prev.item(dd - 1):
            dd -= 1
        r_prev, r_cur = r_cur, r_prev[:dd]
        # v_prev + quot * v_cur; the product always has the higher degree.
        # The cofactors grow from one term to about stop_degree terms: short
        # ones stay lists, long ones become arrays, with rows as in divmod.
        size = len(quot) + len(v_cur) - 1
        if len(v_cur) < ROW_KERNEL_MIN_LEN:
            v_next = v_prev + [0] * (size - len(v_prev))
            q_logs = [(s, log[q]) for s, q in enumerate(quot) if q]
            for i, c in enumerate(v_cur):
                if c:
                    lc = log[c]
                    for s, lq in q_logs:
                        v_next[i + s] ^= exp[lc + lq]
        else:
            v_next = np.zeros(size, dtype=np.intp)
            v_next[:len(v_prev)] = v_prev
            v_logs = log_rows[v_cur]
            for s, q in enumerate(quot):
                if q:
                    v_next[s:s + len(v_cur)] ^= exp_rows[v_logs + log[q]]
        v_prev, v_cur = v_cur, v_next
        iterations += 1

    # scale so the locator is monic; a factor of 1 leaves both unchanged
    shift = (field.n - log[int(v_cur[-1])]) % field.n
    locator = exp_rows[log_rows[v_cur] + shift].tolist()
    combination = exp_rows[log_rows[r_cur] + shift].tolist()
    return KeyEquationSolution(locator=Poly._make(field, locator),
                               combination=Poly._make(field, combination),
                               iterations=iterations)
