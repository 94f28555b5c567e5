import numpy as np
import pytest

from circlewalk.bounds import bound_report
from circlewalk.circles import square_table
from circlewalk.modular import (
    NotPrime,
    PrimeModulus,
    WrongResidueClass,
    make_modulus,
    primes_3_mod_4,
)


def test_squares_mod_7():
    table = square_table(make_modulus(7).p)
    squares = {a for a in range(7) if table[a]}
    assert squares == {1, 2, 4}


@pytest.mark.parametrize("n", [5, 13, 17, 29])
def test_rejects_wrong_residue_class(n):
    with pytest.raises(WrongResidueClass):
        make_modulus(n)


@pytest.mark.parametrize("n", [1, 2, 4, 9, 15, 3999])
def test_rejects_non_primes_and_small(n):
    # primality is checked before the residue class, so composites of
    # either class raise NotPrime (3999 = 3 * 31 * 43)
    with pytest.raises(NotPrime):
        make_modulus(n)


def test_a_numpy_integer_is_read_as_an_int():
    m = make_modulus(np.int64(7))
    assert type(m.p) is int and m.p == 7
    assert bound_report(m) == bound_report(make_modulus(7))


@pytest.mark.parametrize("n", [7.0, "7"])
def test_rejects_a_non_integer(n):
    # before any comparison: 7.0 would otherwise pass both gates and fail
    # later, inside the tensor's modular powers
    with pytest.raises(TypeError):
        make_modulus(n)


def test_true_is_the_integer_1():
    with pytest.raises(NotPrime, match="^1 is not an odd prime$"):
        make_modulus(True)


def test_accepts_4003():
    m = make_modulus(4003)
    assert m.p == 4003
    assert int(square_table(m.p).sum()) == (4003 - 1) // 2


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_field_properties_exhaustive(p):
    # the closed form reads the square table, so pin it to squaring
    table = square_table(make_modulus(p).p)
    squares = {a * a % p for a in range(1, p)}
    assert table.tolist() == [a in squares for a in range(p)]
    assert int(table.sum()) == (p - 1) // 2
    assert not table[p - 1]  # -1 is a non-square
    with pytest.raises(ValueError):  # and the table is read-only
        table[1] = False


def test_modulus_is_immutable():
    m = make_modulus(7)
    with pytest.raises(AttributeError, match="^PrimeModulus is immutable$"):
        m.p = 11
    with pytest.raises(AttributeError, match="^PrimeModulus is immutable$"):
        m.residue_table = None  # the modulus holds p and nothing else
    assert m.p == 7 and PrimeModulus.__slots__ == ("p",)


def test_primes_3_mod_4_range():
    assert primes_3_mod_4(7, 23) == [7, 11, 19, 23]
    assert primes_3_mod_4(3, 7) == [3, 7]
    assert primes_3_mod_4(24, 30) == []
