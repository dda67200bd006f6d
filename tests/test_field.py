from cisupport.field import ExtField, PrimeField, digits, is_prime

import pytest


def test_prime_detection():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        PrimeField(6)


def test_prime_field_ops_reduce_into_range():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.from_int(-1) == 4


def test_every_nonzero_element_has_inverse():
    for p in (2, 3, 5, 101):
        f = PrimeField(p)
        for a in f.elements():
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_ext_field_inverses_and_embedding():
    for p, e in ((2, 2), (2, 3), (3, 2), (5, 2)):
        f = ExtField(p, e)
        assert f.size == p**e
        count = 0
        for a in f.elements():
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one
                count += 1
        assert count == p**e - 1
        # embedding respects products
        for x in range(p):
            for y in range(p):
                assert f.mul(f.from_int(x), f.from_int(y)) == f.from_int((x * y) % p)


def test_ext_field_has_new_elements():
    f = ExtField(3, 2)
    base = {f.from_int(x) for x in range(3)}
    assert sum(1 for a in f.elements() if a not in base) == 6


def test_digits_are_least_significant_first():
    assert digits(2 + 3 * 5 + 4 * 25, 5, 3) == [2, 3, 4]
    assert digits(2 + 3 * 5 + 4 * 25, 5, 2) == [2, 3]  # higher digits dropped
    assert digits(1, 7, 4) == [1, 0, 0, 0]
    assert digits(0, 2, 0) == []
    assert list(ExtField(2, 2).elements()) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert ExtField(2, 2).modulus == (1, 1, 1)  # first irreducible tail in code order
    assert ExtField(3, 2).modulus == (1, 0, 1)


def test_prime_field_inverse_matches_the_extended_gcd():
    for p in (2, 3, 101, 32003, 2**31 - 1):
        f = PrimeField(p)
        for a in (1, 2, p - 1, p + 3, -5, 12345):
            if a % p:
                assert f.inv(a) * (a % p) % p == 1 and 0 <= f.inv(a) < p
        with pytest.raises(ZeroDivisionError):
            f.inv(p)
