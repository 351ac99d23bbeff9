"""The table-driven fast paths against the scalar reference.

A plain Field takes Poly's inline log/antilog arithmetic and, up to
DENSE_MAX_M, the dense numpy transform; a CountingField over the same
field takes the scalar loops that route every product through field.mul.
Both must give bit-identical results, as plain ints.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rscodec import (CodeParams, Field, Poly, evaluate_all, encode,
                     interpolate_all, interpolate_subset)
from rscodec import spectral
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
