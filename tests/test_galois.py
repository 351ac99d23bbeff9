"""GF(2^m) context: tables, operations, and field axioms."""

import random
from enum import IntEnum

import pytest

from bruteforce import slow_inv, slow_mul
from rscodec import DEFAULT_PRIMITIVE_POLYS, Field
from rscodec.workbench import CountingField, OpCounter


class Code(IntEnum):
    """Int subclass members: equal to elements, but not exact ints."""

    THREE = 3
    POLY8 = 0x11D


@pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLYS))
def test_default_poly_constructs(m):
    field = Field(m)
    assert field.n == (1 << m) - 1
    assert field.order == 1 << m
    assert field.alpha_pow(1) == 2


@pytest.mark.parametrize("m", range(3, 9))
def test_tables_match_shift_and_reduce(m):
    field = Field(m)
    prim = field.prim_poly
    x = 1
    for i in range(field.n):
        assert field.alpha_pow(i) == x
        assert field.log(x) == i
        x = slow_mul(m, prim, x, 2)
    assert x == 1  # alpha has full order


def test_worked_products_gf8(gf8):
    assert gf8.mul(3, 3) == 5
    assert gf8.mul(7, 5) == 6
    assert gf8.inv(2) == 5
    assert gf8.alpha_pow(3) == 3
    assert tuple(map(gf8.alpha_pow, range(7))) == (1, 2, 4, 3, 6, 7, 5)


def test_mul_exhaustive_gf8(gf8):
    for a in range(8):
        for b in range(8):
            assert gf8.mul(a, b) == slow_mul(3, gf8.prim_poly, a, b)


@pytest.mark.parametrize("m", [4, 8])
def test_mul_sampled(m):
    field = Field(m)
    rng = random.Random(m)
    for _ in range(2000):
        a = rng.randrange(field.order)
        b = rng.randrange(field.order)
        assert field.mul(a, b) == slow_mul(m, field.prim_poly, a, b)


def test_inv_exhaustive_gf8(gf8):
    for a in range(1, 8):
        assert gf8.inv(a) == slow_inv(3, gf8.prim_poly, a)
        assert gf8.mul(a, gf8.inv(a)) == 1


@pytest.mark.parametrize("m", [4, 8])
def test_inv_sampled(m):
    field = Field(m)
    rng = random.Random(m + 100)
    for _ in range(1000):
        a = rng.randrange(1, field.order)
        assert field.mul(a, field.inv(a)) == 1


def test_inv_of_zero_raises(gf8):
    with pytest.raises(ValueError):
        gf8.inv(0)


def test_log_of_zero_raises(gf8):
    with pytest.raises(ValueError):
        gf8.log(0)


@pytest.mark.parametrize("field", [Field(8), Field(9),
                                   CountingField(Field(8), OpCounter())],
                         ids=["m8", "m9", "counted"])
def test_log_and_inv_check_their_argument(field):
    # -1 read the table from its end and answered for 2^m - 1, 2^m ran
    # off it, and True answered for 1
    for bad in (-1, field.order, True, Code.THREE):
        with pytest.raises(ValueError, match="field element"):
            field.log(bad)
        with pytest.raises(ValueError, match="field element"):
            field.inv(bad)
    assert field.log(1) == 0 and field.inv(1) == 1


def test_log_antilog_round_trip(gf16):
    for e in range(1, gf16.order):
        assert gf16.alpha_pow(gf16.log(e)) == e
    for j in range(gf16.n):
        assert gf16.log(gf16.alpha_pow(j)) == j


def test_alpha_pow_any_exponent(gf8):
    assert gf8.alpha_pow(0) == 1
    assert gf8.alpha_pow(7) == 1
    assert gf8.alpha_pow(-1) == gf8.alpha_pow(6)
    assert gf8.alpha_pow(100) == gf8.alpha_pow(100 % 7)


def test_add_is_self_inverse(gf8):
    # addition is XOR, so a + a = 0 and the cross term of (a + b)^2 vanishes
    for a in range(8):
        for b in range(8):
            assert gf8.mul(a ^ b, a ^ b) == gf8.mul(a, a) ^ gf8.mul(b, b)


def test_axioms_exhaustive_gf8(gf8):
    elements = range(8)
    for a in elements:
        for b in elements:
            assert gf8.mul(a, b) == gf8.mul(b, a)
            for c in elements:
                assert gf8.mul(gf8.mul(a, b), c) == gf8.mul(a, gf8.mul(b, c))
                assert gf8.mul(a, b ^ c) == gf8.mul(a, b) ^ gf8.mul(a, c)


@pytest.mark.parametrize("m", [4, 8])
def test_axioms_sampled(m):
    field = Field(m)
    rng = random.Random(m + 200)
    for _ in range(2000):
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0


def test_rejects_reducible_poly():
    # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1)
    with pytest.raises(ValueError, match="not primitive"):
        Field(3, 0xF)


def test_rejects_irreducible_non_primitive_poly():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but its root has order 5
    with pytest.raises(ValueError, match="not primitive"):
        Field(4, 0x1F)


def test_rejects_wrong_degree():
    with pytest.raises(ValueError, match="degree"):
        Field(4, 0xB)


def test_rejects_poly_divisible_by_x():
    with pytest.raises(ValueError, match="divisible by x"):
        Field(4, 0x1A)


@pytest.mark.parametrize("prim_poly",
                         [-0x11D, -0x1E3, 285.0, True, "11d", Code.POLY8])
def test_rejects_negative_or_non_int_poly(prim_poly):
    # -0x11D has bit length 9 and an odd low bit, so only the sign check
    # stops it before the table build indexes with a negative element
    with pytest.raises(ValueError, match="nonnegative int"):
        Field(8, prim_poly)


@pytest.mark.parametrize("m", [0, 1, 2, 17, 32])
def test_rejects_m_out_of_range(m):
    with pytest.raises(ValueError):
        Field(m)


@pytest.mark.parametrize("m", [8.0, True, "8"])
def test_rejects_non_int_m(m):
    # 8.0 passed the range check and then failed in 1 << m
    with pytest.raises(ValueError, match="m must be an int"):
        Field(m)


def test_check_element(gf8):
    assert gf8.check_element(7) == 7
    assert gf8.check_element(0) == 0
    with pytest.raises(ValueError):
        gf8.check_element(8)
    with pytest.raises(ValueError):
        gf8.check_element(-1)
    with pytest.raises(ValueError):
        gf8.check_element("3")
    with pytest.raises(ValueError):
        gf8.check_element(True)
    with pytest.raises(ValueError, match="field element"):
        gf8.check_element(Code.THREE)
    assert gf8.check_elements((7, 0, 3)) == [7, 0, 3]
    with pytest.raises(ValueError, match="outside GF"):
        gf8.check_elements([1, Code.THREE])


def test_equality_and_hash():
    assert Field(3) == Field(3)
    assert Field(3) != Field(4)
    assert hash(Field(3)) == hash(Field(3))
    assert Field(3) != "GF(8)"
