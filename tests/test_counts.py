"""CountingField's counts against the schoolbook algorithms' own counts.

A CountingField computes by the fast kernels and transforms, and each
site adds what the schoolbook algorithm spends on operands of that shape:
the row kernels, Poly's product (by a constant too), division and
evaluation, the
transforms, the erasure-locator product, the cyclotomic quotient, the
subset interpolation and the key-equation solve.  tests/reference.py runs
those algorithms one counted operation at a time.  Each case here runs
one site on both, on the same operands, and asserts equal results and
equal multiplication and inversion counts.

The cases cover m = 3, 4, 8, 9 and 10, rows on both sides of
ROW_KERNEL_MIN_LEN, zero and trailing-zero operands, monic and non-monic
divisors, constant divisors, quotients with zero terms at the low end
and just below the lead, products by 0, evaluation at 0, locators of
0, 1 and n - 1 roots, subset interpolation with more and with fewer
survivors than erasures, and solves with no division, with remainders
that drop several degrees at once or reach zero, with zero quotient
terms, with non-monic moduli, and whose last cofactor is monic and whose
is not.  At m = 3, 4 and 8 the packed Euclid pass, euclid_bytes, also
runs alone on each solve's problem: it returns the reference solve's
pair, scaled so that the cofactor is monic, and counts what it counts.
"""

import random

import pytest

from reference import Reference, euclid_chain, strip
from rscodec import (Field, KeyEquationProblem, Poly, cyclotomic_quotient,
                     evaluate_all, interpolate_all, interpolate_subset,
                     solve_key_equation)
from rscodec.polynomial import (BYTE_MAX_M, ROW_KERNEL_MIN_LEN,
                                divide_rows, euclid_bytes, multiply_rows,
                                root_product)
from rscodec.workbench import CountingField, OpCounter

COUNT_M = (3, 4, 8, 9, 10)
# on both sides of the row kernels' numpy length
LENGTHS = (1, 5, ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN, 40)


def as_list(row):
    return row.tolist() if hasattr(row, "tolist") else list(row)


def row(rng, field, length, lead=None, zeros=0.3):
    """length elements, zero with probability zeros, then lead on top if
    given; small and zero values are common."""
    out = [0 if rng.random() < zeros else rng.choice(
        [1, 2, rng.randrange(1, field.order)]) for _ in range(length)]
    return out if lead is None else out + [lead]


def solution_of(solution):
    return (solution.locator.coeffs, solution.combination.coeffs,
            solution.iterations)


def kernel_cases(m):
    """(id, fast, ref) for the row kernels and Poly's operations."""
    field = Field(m)
    rng = random.Random(m)
    other = rng.randrange(2, field.order)  # a lead other than 1
    for length in LENGTHS:
        a = row(rng, field, length) + [0, 0]  # trailing zeros
        b = row(rng, field, 5, lead=other)
        add = row(rng, field, length + 3)
        yield (f"multiply_rows-{length}", lambda f, a=a, b=b, add=add:
               as_list(multiply_rows(f, a, b, add)),
               lambda r, a=a, b=b, add=add: r.multiply_rows(a, b, add))
        long = row(rng, field, length - 1, lead=other)
        yield (f"multiply_rows-{length}-short-first",
               lambda f, a=b, b=long: as_list(multiply_rows(f, a, b)),
               lambda r, a=b, b=long: r.multiply_rows(a, b))
        for lead in (1, other):
            den = row(rng, field, length - 1, lead=lead)
            num = row(rng, field, length + 6) + [0]  # a zero lead
            yield (f"divide_rows-{length}-lead{lead}",
                   lambda f, num=num, den=den: tuple(
                       map(as_list, divide_rows(f, num, den))),
                   lambda r, num=num, den=den: r.divide_rows(num, den))
            yield (f"divmod-{length}-lead{lead}",
                   lambda f, num=num, den=den: tuple(
                       p.coeffs for p in divmod(Poly(f, num), Poly(f, den))),
                   lambda r, num=num, den=den: r.divmod(num, den))
            # a dividend shorter than the divisor costs nothing
            yield (f"divmod-{length}-lead{lead}-short",
                   lambda f, num=den[:-1], den=den: tuple(
                       p.coeffs for p in divmod(Poly(f, num), Poly(f, den))),
                   lambda r, num=den[:-1], den=den: r.divmod(num, den))
        yield (f"product-{length}", lambda f, a=a, b=b:
               (Poly(f, a) * Poly(f, b)).coeffs,
               lambda r, a=a, b=b: r.product(a, b))
        for c in (0, 1, other):
            yield (f"scale-{length}-by{c}", lambda f, a=a, c=c:
                   (Poly(f, a) * Poly(f, [c])).coeffs,
                   lambda r, a=a, c=c: r.product(a, [c]))
        for at in (0, 1, field.alpha_pow(5)):
            yield (f"evaluate-{length}-at{at}", lambda f, a=a, at=at:
                   Poly(f, a).evaluate(at),
                   lambda r, a=a, at=at: r.evaluate(a, at))
    # num = den * quot + a remainder shorter than den, so the quotient is
    # quot, with zero terms at its low end, just below its lead, or both
    quotients = {"xj": [0, 0, 0, 1], "low-zeros": [0, 0, other, 0, 1],
                 "below-lead-zeros": [other, 0, 0, 1],
                 "not-monic-xj": [0, 0, 0, 0, 0, other]}
    for lead in (1, other):
        den = row(rng, field, 4, lead=lead)
        for name, quot in quotients.items():
            num = Reference(field).multiply_rows(quot, den,
                                                 row(rng, field, 3))
            yield (f"divide_rows-quotient-{name}-lead{lead}",
                   lambda f, num=num, den=den: tuple(
                       map(as_list, divide_rows(f, num, den))),
                   lambda r, num=num, den=den: r.divide_rows(num, den))
            yield (f"divmod-quotient-{name}-lead{lead}",
                   lambda f, num=num, den=den: tuple(
                       p.coeffs for p in divmod(Poly(f, num), Poly(f, den))),
                   lambda r, num=num, den=den: r.divmod(num, den))
    yield ("product-zero", lambda f: (Poly(f, []) * Poly(f, [3, 1])).coeffs,
           lambda r: r.product([], [3, 1]))
    yield ("scale-zero", lambda f: (Poly(f, [0, 0]) * Poly(f, [5])).coeffs,
           lambda r: r.product([0, 0], [5]))
    yield ("evaluate-zero", lambda f: Poly(f, []).evaluate(3),
           lambda r: r.evaluate([], 3))


def constant_divisor_cases(m):
    """(id, fast, ref) for division by a constant: one quotient term per
    dividend coefficient, by a divisor with no tail, and no remainder."""
    other = random.Random(400 + m).randrange(2, 1 << m)
    dividends = {"zero": [0, 0, 0], "zero-lead": [0, 5, 0, 0],
                 "zero-inside": [3, 0, 7, 0, 1], "constant": [6]}
    for lead in (1, other):
        for name, num in dividends.items():
            den = [lead]
            yield (f"divide_rows-constant-lead{lead}-{name}",
                   lambda f, num=num, den=den: tuple(
                       map(as_list, divide_rows(f, num, den))),
                   lambda r, num=num, den=den: r.divide_rows(num, den))
            yield (f"divmod-constant-lead{lead}-{name}",
                   lambda f, num=num, den=den: tuple(
                       p.coeffs for p in divmod(Poly(f, num), Poly(f, den))),
                   lambda r, num=num, den=den: r.divmod(num, den))


def transform_cases(m):
    """(id, fast, ref) for the transforms, the locator and the quotient."""
    field = Field(m)
    n = field.n
    rng = random.Random(100 + m)
    for size in (0, 1, 6):
        coeffs = row(rng, field, size) + [0]
        yield (f"evaluate_all-{size}", lambda f, c=coeffs:
               evaluate_all(Poly(f, c), n),
               lambda r, c=coeffs: r.evaluate_all(c))
        # n values whose polynomial has size coefficients once normalized
        values = row(rng, field, size) + [0] * (n - size)
        yield (f"interpolate_all-{size}", lambda f, v=values:
               interpolate_all(f, v).coeffs,
               lambda r, v=values: r.interpolate_all(v))
    counts = {0, 1, 5, ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN,
              ROW_KERNEL_MIN_LEN + 1}
    if m <= 8:
        counts |= {n // 2, n - 1, n}
    for l in sorted(c for c in counts if c <= n):
        roots = rng.sample(range(n), l)
        yield (f"root_product-{l}", lambda f, e=roots:
               root_product(f, e).coeffs,
               lambda r, e=roots: r.root_product(e))
        locator = Reference(field).root_product(roots)
        yield (f"cyclotomic_quotient-{l}", lambda f, c=locator:
               cyclotomic_quotient(Poly(f, c)).coeffs,
               lambda r, c=locator: r.cyclotomic_quotient(c))
        if l:
            scaled = Reference(field).scale(locator, field.alpha_pow(l))
            yield (f"cyclotomic_quotient-{l}-not-monic", lambda f, c=scaled:
                   cyclotomic_quotient(Poly(f, c)).coeffs,
                   lambda r, c=scaled: r.cyclotomic_quotient(c))
    yield ("cyclotomic_quotient-constant", lambda f:
           cyclotomic_quotient(Poly(f, [5])).coeffs,
           lambda r: r.cyclotomic_quotient([5]))


def subset_cases(m):
    """(id, fast, ref) for gao's interpolation; the Lagrange reference
    costs about 4 s^2 products for s survivors, so from m = 9 on only a
    few survive."""
    field = Field(m)
    n = field.n
    rng = random.Random(200 + m)
    counts = ({0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1} if m <= 8
              else {n - 6, n - 1})
    for l in sorted(counts):
        values = row(rng, field, n)
        erasures = rng.sample(range(n), l)
        yield (f"interpolate_subset-{l}", lambda f, v=values, e=erasures:
               interpolate_subset(f, v, e).coeffs,
               lambda r, v=values, e=erasures: r.interpolate_subset(v, e))


def euclid_solution(field, modulus, known, stop):
    """euclid_bytes' rows in the form of solution_of's."""
    r_row, v_row, iterations = euclid_bytes(field, modulus, known, stop)
    return tuple(v_row), tuple(r_row), iterations


def solve_cases(m):
    """(id, fast, ref) for the key-equation solve."""
    field = Field(m)
    rng = random.Random(300 + m)
    problems = [
        # x^2 = (x + 3)(x + 3) + 5: the last cofactor is monic
        ("monic", [0, 0, 1], [3, 1], 1),
        # with known = 2x + 3 it is not, so the solve inverts its lead
        ("not-monic", [0, 0, 1], [3, 2], 1),
        ("zero-known", [1, 0, 0, 0, 1], [], 2),
        # known of degree stop - 1: no division at all
        ("known-at-stop", [1, 0, 0, 0, 0, 1], [3, 0, 2], 3),
    ]
    # remainder sequences by their quotients, each ending at stop = 1; the
    # packed pass at m <= 8 must strip a remainder's zero leads, skip a
    # zero quotient term, and carry each cofactor term at its own degree
    chains = [
        # x^3 + 2x + 1 drops the remainder from degree 5 to 2 before it,
        # and its x^2 term is zero
        ("degree-drops-three", [[3, 1], [1, 2, 0, 1], [4, 1]], [5, 3], [6]),
        # x^3 + 3: two zero terms inside the quotient
        ("zero-middle-terms", [[2, 1], [3, 0, 0, 1], [1, 1]], [2, 1], [7]),
        # the last remainder is zero: the strip runs down to nothing
        ("zero-remainder", [[3, 1], [1, 0, 1]], [2, 1], []),
        # quotient leads other than 1 make the modulus and the last
        # cofactor non-monic
        ("not-monic-modulus", [[2, 5], [1, 3]], [4, 6], [3]),
        ("not-monic-cofactor", [[1, 3], [2, 6], [5, 7]], [4, 2], [1]),
    ]
    for name, quotients, last, after in chains:
        problems.append((name, *euclid_chain(field, quotients, last, after),
                         1))
    for size in (ROW_KERNEL_MIN_LEN - 1, ROW_KERNEL_MIN_LEN, 41):
        modulus = row(rng, field, size - 1, lead=rng.randrange(1, field.order))
        known = row(rng, field, size - 3)
        stop = rng.randrange(1, size - 1)
        problems.append((f"{size}", modulus, known, stop))
    for i in range(6):  # short ones, with moduli of random leads
        size = rng.randrange(3, 24)
        modulus = row(rng, field, size - 1, lead=rng.randrange(1, field.order))
        problems.append((f"random{i}", modulus, row(rng, field, size - 1),
                         rng.randrange(1, size - 1)))
    for name, modulus, known, stop in problems:
        yield (f"solve-{name}", lambda f, a=modulus, b=known, s=stop:
               solution_of(solve_key_equation(KeyEquationProblem(
                   Poly(f, a), Poly(f, b), s))),
               lambda r, a=modulus, b=known, s=stop: r.solve(a, b, s))
        if m <= BYTE_MAX_M:
            # the packed pass alone returns solve's monic pair and count
            yield (f"euclid_bytes-{name}",
                   lambda f, a=strip(modulus), b=strip(known), s=stop:
                   euclid_solution(f, a, b, s),
                   lambda r, a=modulus, b=known, s=stop: r.solve(a, b, s))


CASES = [pytest.param(m, fast, ref, id=f"m{m}-{name}")
         for m in COUNT_M
         for source in (kernel_cases, constant_divisor_cases,
                        transform_cases, subset_cases, solve_cases)
         for name, fast, ref in source(m)]


@pytest.mark.parametrize("m, fast, ref", CASES)
def test_counting_field_counts_equal_the_reference(m, fast, ref):
    field = Field(m)
    counter = OpCounter()
    result = fast(CountingField(field, counter))
    reference = Reference(field)
    expected = ref(reference)
    assert result == expected
    assert ((counter.total_mults, counter.total_invs)
            == (reference.mults, reference.invs))
