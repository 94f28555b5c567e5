import pytest

from circlewalk.modular import (
    NotPrime,
    WrongResidueClass,
    make_modulus,
    primes_3_mod_4,
)


def test_squares_mod_7():
    m = make_modulus(7)
    squares = {a for a in range(7) if m.residue_table[a]}
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


def test_accepts_4003():
    m = make_modulus(4003)
    assert m.p == 4003
    assert int(m.residue_table.sum()) == (4003 - 1) // 2


@pytest.mark.parametrize("p", [7, 11, 19, 23])
def test_field_properties_exhaustive(p):
    # the closed form reads the square table, so pin it to squaring
    m = make_modulus(p)
    squares = {a * a % p for a in range(1, p)}
    assert m.residue_table.tolist() == [a in squares for a in range(p)]
    assert int(m.residue_table.sum()) == (p - 1) // 2
    assert not m.residue_table[p - 1]  # -1 is a non-square


def test_modulus_is_immutable():
    m = make_modulus(7)
    with pytest.raises(AttributeError, match="^PrimeModulus is immutable$"):
        m.p = 11
    with pytest.raises(AttributeError, match="^PrimeModulus is immutable$"):
        m.residue_table = make_modulus(11).residue_table
    with pytest.raises(ValueError):  # and the table itself is read-only
        m.residue_table[1] = False
    assert m.p == 7 and m.residue_table[1]


def test_primes_3_mod_4_range():
    assert primes_3_mod_4(7, 23) == [7, 11, 19, 23]
    assert primes_3_mod_4(3, 7) == [3, 7]
    assert primes_3_mod_4(24, 30) == []
