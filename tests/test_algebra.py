"""Element arithmetic in both algebras, against hand-computed tables."""

import pytest

from boolmetric import (MAX_NATURAL, StructureError, UnsupportedOperationError,
                        atomic_algebra, atoms, fincof_algebra, inf_family, sup_family)


def test_atomic_literals_round_trip():
    alg = atomic_algebra(3)
    # leftmost character is atom 0
    e = alg.parse("101")
    assert e.bits == 0b101
    assert e.literal == "101"
    assert alg.parse("100").bits == 1
    assert alg.parse("001").bits == 4
    for bits in range(8):
        assert alg.parse(alg.element(bits).literal).bits == bits


def test_atomic_parse_rejects_garbage():
    alg = atomic_algebra(3)
    for bad in ("10", "1010", "10a", "", "fin{1}"):
        with pytest.raises(StructureError):
            alg.parse(bad)


def test_atomic_boolean_table():
    alg = atomic_algebra(3)
    a, b = alg.parse("101"), alg.parse("011")
    assert (a | b).literal == "111"
    assert (a & b).literal == "001"
    assert (a ^ b).literal == "110"
    assert (a - b).literal == "100"
    assert (~a).literal == "010"
    assert alg.parse("001") <= a
    assert not a <= b
    assert alg.zero <= a <= alg.one


def test_atoms_enumeration():
    alg = atomic_algebra(4)
    assert [x.literal for x in atoms(alg)] == ["1000", "0100", "0010", "0001"]
    assert len(list(alg.elements())) == 16
    assert sup_family(atoms(alg)) == alg.one
    assert inf_family([], alg) == alg.one
    assert sup_family([], alg) == alg.zero


def test_fincof_literals():
    alg = fincof_algebra()
    assert alg.parse("fin{1,3}").literal == "fin{1,3}"
    assert alg.parse("cof{}").literal == "cof{}"
    assert alg.fin({3, 1}).literal == "fin{1,3}"
    assert alg.zero.literal == "fin{}"
    assert alg.one.literal == "cof{}"
    for bad in ("fin{3,1}", "fin{1,1}", "fin{1, 3}", "cof", "fin{a}"):
        with pytest.raises(StructureError):
            alg.parse(bad)


def test_fincof_naturals_stay_below_the_bound():
    alg = fincof_algebra()
    assert MAX_NATURAL == 2 ** 16
    top = MAX_NATURAL - 1
    assert alg.fin({top}).contains(top) and not alg.cof({top}).contains(top)
    assert alg.parse(f"cof{{0,{top}}}") == alg.cof({0, top})
    assert alg.fin({top}).literal == f"fin{{{top}}}"
    for make in (alg.fin, alg.cof):
        with pytest.raises(StructureError):
            make({1, MAX_NATURAL})
    for bad in (f"fin{{{MAX_NATURAL}}}", f"cof{{1,{MAX_NATURAL}}}"):
        with pytest.raises(StructureError):
            alg.parse(bad)


def test_fincof_operation_table():
    alg = fincof_algebra()
    fin, cof, parse = alg.fin, alg.cof, alg.parse
    # meets
    assert fin({1, 3}) & fin({3, 5}) == fin({3})
    assert fin({1, 3}) & cof({1, 2}) == fin({3})
    assert cof({1}) & cof({2}) == cof({1, 2})
    # joins
    assert fin({1}) | fin({2}) == fin({1, 2})
    assert parse("fin{1,3}") | parse("cof{1,2}") == parse("cof{2}")
    assert cof({1, 2}) | cof({2, 3}) == cof({2})
    # symmetric differences flip the tag exactly when the tags differ
    assert fin({1, 3}) ^ cof({2}) == cof({1, 2, 3})
    assert cof({1}) ^ cof({2}) == fin({1, 2})
    assert fin({1}) ^ fin({1}) == alg.zero
    # complements and differences
    assert ~fin({1, 2}) == cof({1, 2})
    assert ~cof({}) == fin({})
    assert cof({1}) - fin({2}) == cof({1, 2})
    # order
    assert fin({1}) <= cof({2})
    assert not fin({2}) <= cof({2})
    assert fin({1}) <= fin({1, 2})


def test_fincof_membership():
    alg = fincof_algebra()
    x = alg.fin({1, 4})
    assert x.contains(1) and x.contains(4) and not x.contains(2)
    y = alg.cof({1, 4})
    assert not y.contains(1) and y.contains(2)


def test_fincof_has_no_enumeration():
    alg = fincof_algebra()
    with pytest.raises(UnsupportedOperationError):
        list(alg.elements())
    with pytest.raises(UnsupportedOperationError):
        atoms(alg)


def test_mixed_algebras_refused():
    a = atomic_algebra(2).parse("10")
    x = fincof_algebra().fin({1})
    with pytest.raises(StructureError):
        a | x  # noqa: B018
    b = atomic_algebra(3).parse("100")
    with pytest.raises(StructureError):
        a & b  # noqa: B018


def test_elements_are_partially_ordered_only():
    # Only <= is defined; sorting elements directly is a bug and raises.
    alg = atomic_algebra(2)
    a, b = alg.parse("10"), alg.parse("01")
    assert not a <= b and not b <= a
    with pytest.raises(TypeError):
        sorted([a, b])
    assert sorted([a, b], key=lambda e: e.sort_key()) == [b, a]


def test_sup_family_needs_algebra_when_empty():
    with pytest.raises(StructureError):
        sup_family([])


def test_algebra_constructor_validation():
    with pytest.raises(StructureError):
        atomic_algebra(0)
    with pytest.raises(StructureError):
        atomic_algebra(-3)
