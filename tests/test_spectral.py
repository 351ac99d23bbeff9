"""Transforms between coefficient and evaluation form."""

import random

import pytest

from bruteforce import slow_lagrange, trim
from rscodec import (
    Field,
    Poly,
    cyclotomic_quotient,
    evaluate_all,
    interpolate_all,
    interpolate_subset,
)
from rscodec.workbench import CountingField, OpCounter


def locator_for(field, positions):
    out = Poly.one(field)
    for pos in positions:
        out = out * Poly(field, [field.alpha_pow(pos), 1])
    return out


def test_worked_spectrum_of_x(gf8):
    # the identity polynomial evaluates to the alpha powers themselves
    assert evaluate_all(Poly(gf8, [0, 1]), 7) == (1, 2, 4, 3, 6, 7, 5)


def test_constant_spectrum(gf8):
    assert evaluate_all(Poly(gf8, [5]), 7) == (5,) * 7
    assert evaluate_all(Poly.zero(gf8), 7) == (0,) * 7


@pytest.mark.parametrize("m", [3, 4])
def test_round_trip_both_directions(m):
    field = Field(m)
    n = field.n
    rng = random.Random(m)
    for _ in range(100):
        coeffs = [rng.randrange(field.order) for _ in range(n)]
        p = Poly(field, coeffs)
        assert interpolate_all(field, evaluate_all(p, n)) == p

        values = [rng.randrange(field.order) for _ in range(n)]
        q = interpolate_all(field, values)
        assert q.degree < n
        assert evaluate_all(q, n) == tuple(values)


def test_evaluate_all_validation(gf8, gf16):
    with pytest.raises(ValueError, match="n must be 7"):
        evaluate_all(Poly(gf8, [1]), 15)
    with pytest.raises(ValueError, match="not below"):
        evaluate_all(Poly(gf8, [0] * 7 + [1]), 7)
    with pytest.raises(ValueError, match="n must be 15"):
        evaluate_all(Poly(gf16, [1]), 7)


def test_interpolate_all_validation(gf8):
    with pytest.raises(ValueError, match="expected 7 values"):
        interpolate_all(gf8, [1, 2, 3])
    with pytest.raises(ValueError):
        interpolate_all(gf8, [9] * 7)


def test_subset_worked_example(gf8):
    # five samples of x^2 pin down the parabola exactly
    target = Poly(gf8, [0, 0, 1])
    values = [target.evaluate(gf8.alpha_pow(i)) for i in range(5)] + [0, 0]
    assert interpolate_subset(gf8, values, (5, 6)) == target


def test_subset_matches_reference(gf16):
    rng = random.Random(21)
    for _ in range(150):
        count = rng.randrange(1, 16)
        order = rng.sample(range(15), 15)
        positions, erasures = order[:count], order[count:]
        values = [rng.randrange(16) for _ in range(15)]
        got = interpolate_subset(gf16, values, erasures)
        assert got.degree < count
        for pos in positions:
            assert got.evaluate(gf16.alpha_pow(pos)) == values[pos]
        pairs = [(gf16.alpha_pow(p), values[p]) for p in positions]
        expect = slow_lagrange(4, gf16.prim_poly, pairs)
        assert list(got.coeffs) == trim(expect)


def test_subset_interpolation_validation(gf8):
    values = [1] * 7
    for field in (gf8, CountingField(gf8, OpCounter())):
        with pytest.raises(ValueError, match="every position is erased"):
            interpolate_subset(field, values, range(7))
        with pytest.raises(ValueError, match="duplicate position"):
            interpolate_subset(field, values, (2, 2))
        with pytest.raises(ValueError, match="outside"):
            interpolate_subset(field, values, (7,))
        with pytest.raises(ValueError, match="outside"):
            interpolate_subset(field, values, (-1,))
        for length in (6, 8):
            with pytest.raises(ValueError, match="expected 7 values"):
                interpolate_subset(field, [1] * length, (2,))


def test_subset_interpolation_rejects_bool_positions(gf8):
    # True would otherwise stand for position 1
    with pytest.raises(ValueError, match="must be an int"):
        interpolate_subset(gf8, [1] * 7, (True, 2))


@pytest.mark.parametrize("field", [Field(3), Field(4), Field(8),
                                   CountingField(Field(4), OpCounter())],
                         ids=["m3", "m4", "m8", "m4-counted"])
def test_subset_interpolation_ignores_erased_values(field):
    # fewer and more erasures than survivors, so both reduction branches
    n = field.n
    rng = random.Random(field.m)
    for l in (1, n // 3, n // 2 + 1, n - 1):
        erasures = rng.sample(range(n), l)
        values = [rng.randrange(field.order) for _ in range(n)]
        zero_filled = list(values)
        for pos in erasures:
            values[pos] = rng.randrange(1, field.order)
            zero_filled[pos] = 0
        assert (interpolate_subset(field, values, erasures)
                == interpolate_subset(field, zero_filled, erasures))


def test_cyclotomic_quotient_worked_example(gf8):
    # locator for positions {0, 1} is (x + 1)(x + 2) = x^2 + 3x + 2
    locator = locator_for(gf8, [0, 1])
    assert locator == Poly(gf8, [2, 3, 1])
    quot = cyclotomic_quotient(locator, 7)
    assert quot.degree == 5
    assert quot * locator == Poly(gf8, [1] + [0] * 6 + [1])


def test_cyclotomic_quotient_geometric_series(gf8):
    # (x^7 + 1) / (x + 1) = x^6 + x^5 + ... + 1
    quot = cyclotomic_quotient(Poly(gf8, [1, 1]), 7)
    assert quot == Poly(gf8, [1] * 7)


def test_cyclotomic_quotient_full_and_empty(gf8):
    full = locator_for(gf8, range(7))
    assert cyclotomic_quotient(full, 7) == Poly.one(gf8)
    assert cyclotomic_quotient(Poly.one(gf8), 7).degree == 7


def test_cyclotomic_quotient_rejects_non_divisors(gf8):
    with pytest.raises(ValueError, match="does not divide"):
        cyclotomic_quotient(Poly(gf8, [0, 1]), 7)  # x has root 0
    with pytest.raises(ValueError, match="does not divide"):
        cyclotomic_quotient(Poly(gf8, [1, 0, 1]), 7)  # (x + 1)^2 repeats a root
    with pytest.raises(ValueError, match="n must be 7"):
        cyclotomic_quotient(Poly(gf8, [1, 1]), 15)


@pytest.mark.parametrize("m", [3, 4])
def test_reduction_matches_subset_interpolation(m):
    # reducing a full interpolation mod the cyclotomic quotient gives the
    # same polynomial as interpolating only the surviving positions
    field = Field(m)
    n = field.n
    rng = random.Random(m + 7)
    for _ in range(100):
        values = [rng.randrange(field.order) for _ in range(n)]
        count = rng.randrange(1, n)
        erased = sorted(rng.sample(range(n), count))

        modulus = cyclotomic_quotient(locator_for(field, erased), n)
        reduced = interpolate_all(field, values) % modulus
        direct = interpolate_subset(field, values, erased)
        assert reduced == direct
        # the plain field's route computes this same reduction; the scalar
        # Lagrange loop is the independent side
        lagrange = interpolate_subset(CountingField(field, OpCounter()),
                                      values, erased)
        assert reduced == lagrange


@pytest.mark.parametrize("field", [Field(3), CountingField(Field(3), OpCounter()),
                                   Field(11)], ids=["m3", "m3-counted", "m11"])
@pytest.mark.parametrize("bad", ["order", -1, True])
def test_subset_interpolation_rejects_non_elements(field, bad):
    # the reduction route, at m = 3 and at m = 11, and the counted
    # Lagrange loop all refuse a value outside the field, at a survivor
    # and at an erased position alike
    values = [0] * field.n
    values[1] = field.order if bad == "order" else bad
    for erasures in ((), (1,), (0, 2), range(2, field.n)):
        with pytest.raises(ValueError, match="GF|field element"):
            interpolate_subset(field, values, erasures)
