"""Polynomial ring operations and normalization."""

import random

import pytest

from bruteforce import slow_divmod, slow_eval, slow_poly_mul, trim
from rscodec import MINUS_INF, Field, Poly, xn_minus_one
from rscodec.workbench import CountingField, OpCounter


def rand_poly(rng, field, max_len):
    return Poly(field, [rng.randrange(field.order)
                        for _ in range(rng.randrange(max_len + 1))])


def test_normalization(gf8):
    assert Poly(gf8, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly(gf8, [0, 0, 0]).coeffs == ()
    assert Poly(gf8, []).coeffs == ()
    assert Poly(gf8, [5]).coeffs == (5,)


def test_zero_degree_is_sentinel(gf8):
    zero = Poly(gf8)
    assert zero.degree == MINUS_INF
    assert zero.degree < 0
    assert zero.coeffs == ()
    assert not zero
    assert Poly(gf8, [3]).degree == 0
    assert Poly(gf8, [0, 0, 1]).degree == 2


def test_coefficient_validation(gf8):
    with pytest.raises(ValueError):
        Poly(gf8, [8])
    with pytest.raises(ValueError):
        Poly(gf8, [-1])
    with pytest.raises(ValueError):
        Poly(gf8, [1, None])
    with pytest.raises(ValueError):
        Poly(gf8, [True])


def test_mixed_fields_rejected(gf8, gf16):
    with pytest.raises(ValueError, match="mixed field"):
        Poly(gf8, [1]) + Poly(gf16, [1])
    with pytest.raises(ValueError, match="mixed field"):
        Poly(gf8, [1]) * Poly(gf16, [1])
    with pytest.raises(ValueError, match="mixed field"):
        divmod(Poly(gf8, [1]), Poly(gf16, [1]))


def test_worked_product_gf8(gf8):
    # (x + 2)(x + 4) = x^2 + 6x + 3
    assert Poly(gf8, [2, 1]) * Poly(gf8, [4, 1]) == Poly(gf8, [3, 6, 1])


def test_worked_divmod_gf8(gf8):
    # (x^3 + x + 1) / (x^2 + 2): quotient x, remainder 3x + 1
    quot, rem = divmod(Poly(gf8, [1, 1, 0, 1]), Poly(gf8, [2, 0, 1]))
    assert quot == Poly(gf8, [0, 1])
    assert rem == Poly(gf8, [1, 3])


def test_add_is_self_inverse(gf8):
    rng = random.Random(1)
    for _ in range(200):
        a = rand_poly(rng, gf8, 8)
        b = rand_poly(rng, gf8, 8)
        assert a + b == b + a
        assert (a + b) + b == a
        assert (a - b) == (a + b)
    assert Poly(gf8, [1, 2]) + Poly(gf8, [1, 2]) == Poly(gf8)


@pytest.mark.parametrize("m", [3, 4, 8])
def test_mul_against_reference(m):
    field = Field(m)
    rng = random.Random(m)
    for _ in range(300):
        a = rand_poly(rng, field, 6)
        b = rand_poly(rng, field, 6)
        expect = trim(slow_poly_mul(m, field.prim_poly,
                                    list(a.coeffs), list(b.coeffs)))
        assert list((a * b).coeffs) == expect


@pytest.mark.parametrize("m", [3, 4, 8])
def test_divmod_reconstruction(m):
    field = Field(m)
    rng = random.Random(m + 50)
    for _ in range(400):
        num = rand_poly(rng, field, 10)
        den = rand_poly(rng, field, 5)
        if not den:
            continue
        quot, rem = divmod(num, den)
        assert quot * den + rem == num
        assert rem.degree < den.degree
        assert divmod(num - rem, den) == (quot, Poly(field))
        assert num % den == rem


def test_divmod_against_reference(gf16):
    rng = random.Random(9)
    for _ in range(300):
        num = rand_poly(rng, gf16, 9)
        den = rand_poly(rng, gf16, 4)
        if not den:
            continue
        quot, rem = slow_divmod(4, gf16.prim_poly,
                                list(num.coeffs), list(den.coeffs))
        got_q, got_r = divmod(num, den)
        assert list(got_q.coeffs) == trim(quot)
        assert list(got_r.coeffs) == trim(rem)


def test_division_by_zero_raises(gf8):
    with pytest.raises(ValueError, match="division by zero"):
        divmod(Poly(gf8, [1, 1]), Poly(gf8))


def test_ring_axioms_sampled(gf16):
    rng = random.Random(77)
    for _ in range(300):
        a = rand_poly(rng, gf16, 6)
        b = rand_poly(rng, gf16, 6)
        c = rand_poly(rng, gf16, 6)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * Poly(gf16, [1]) == a
        assert a * Poly(gf16) == Poly(gf16)


def test_evaluate_matches_reference_and_is_homomorphic(gf8):
    rng = random.Random(3)
    for _ in range(200):
        a = rand_poly(rng, gf8, 7)
        b = rand_poly(rng, gf8, 7)
        at = rng.randrange(8)
        assert a.evaluate(at) == slow_eval(3, gf8.prim_poly,
                                           list(a.coeffs), at)
        assert (a * b).evaluate(at) == gf8.mul(a.evaluate(at), b.evaluate(at))
        assert (a + b).evaluate(at) == a.evaluate(at) ^ b.evaluate(at)
    assert Poly(gf8).evaluate(5) == 0
    assert Poly(gf8, [0, 1]).evaluate(6) == 6


def test_scale(gf8):
    p = Poly(gf8, [1, 2, 3])
    assert p * Poly(gf8, [1]) == p
    assert not p * Poly(gf8, [0])
    doubled = p * Poly(gf8, [2])
    assert doubled == Poly(gf8, [gf8.mul(2, c) for c in p.coeffs])


@pytest.mark.parametrize("field", [
    Field(3), Field(9), CountingField(Field(3), OpCounter())],
    ids=["m3", "m9", "counted-m3"])
@pytest.mark.parametrize("bad", [-1, "order", True, "3"])
def test_scale_and_evaluate_check_their_argument(field, bad):
    # -1 would index the tables from the end and True pass as 1
    value = field.order if bad == "order" else bad
    p = Poly(field, [1, 2, 3])
    with pytest.raises(ValueError):
        p * Poly(field, [value])
    with pytest.raises(ValueError):
        p.evaluate(value)


def test_xn_minus_one(gf8):
    p = xn_minus_one(gf8)
    assert p.degree == 7
    assert p.coeffs[0] == 1 and p.coeffs[7] == 1
    assert all(c == 0 for c in p.coeffs[1:7])
    for i in range(7):
        assert p.evaluate(gf8.alpha_pow(i)) == 0


def test_equality_across_equal_contexts():
    assert Poly(Field(3), [1, 2]) == Poly(Field(3), [1, 2])
    assert Poly(Field(3), [1, 2]) != Poly(Field(3), [2, 1])
    assert Poly(Field(3), [1]) != 1


def test_text_forms(gf8):
    assert str(Poly(gf8, [1, 0, 3])) == "1 0 3"
    assert str(Poly(gf8)) == "0"
    assert "Poly" in repr(Poly(gf8, [1]))
