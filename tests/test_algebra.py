"""Element arithmetic in both algebras, against hand-computed tables."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from boolmetric import (MAX_NATURAL, StructureError, UnsupportedOperationError,
                        atomic_algebra, atoms, fincof_algebra, inf_family, sup_family)
from boolmetric.algebra import _support_text, fc_literal


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


@pytest.mark.parametrize("literal", ["1_", "+1", " 1", "\u06610"])
def test_atomic_parse_refuses_what_int_accepts(literal):
    # int(..., 2) takes underscores, signs, spaces and non-ASCII digits
    with pytest.raises(StructureError, match="bad element literal"):
        atomic_algebra(2).parse(literal)


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


def naive_support_text(mask):
    """The support text read off the binary digits, lowest first."""
    return ",".join(str(n) for n, digit in enumerate(reversed(f"{mask:b}")) if digit == "1")


def test_support_text_matches_a_naive_renderer():
    rng = random.Random(65535)
    # every byte boundary of the tabled naturals (below 64) and a few above,
    # then log-uniform widths up to MAX_NATURAL
    widths = ({w for p in range(1, 18) for w in (8 * p - 1, 8 * p, 8 * p + 1)}
              | {1, 2, 255, 256, 257, MAX_NATURAL - 1, MAX_NATURAL}
              | {int(2 ** rng.uniform(0, 16)) for _ in range(40)})
    masks = [0, 1 << MAX_NATURAL - 1, (1 << MAX_NATURAL - 1) | 1, (1 << 64) - 1 << 64]
    for width in sorted(widths):
        top = 1 << width - 1
        masks += [top, rng.getrandbits(width) | top,
                  sum(1 << rng.randrange(width) for _ in range(4)) | top]
    for mask in masks:
        text = naive_support_text(mask)
        assert _support_text(mask) == text, mask
        assert (fc_literal((False, mask)), fc_literal((True, mask))) == \
            ("fin{" + text + "}", "cof{" + text + "}")
        assert fincof_algebra().parse(fc_literal((False, mask))).mask == mask


WIDE_RENDER = """
import time
from boolmetric import MAX_NATURAL, fincof_algebra
for naturals in (range(MAX_NATURAL), range(0, MAX_NATURAL, 2)):
    element = fincof_algebra().fin(naturals)
    start = time.perf_counter()
    text = element.literal
    print(time.perf_counter() - start, text == "fin{" + ",".join(map(str, naturals)) + "}")
"""


def test_wide_supports_render_without_per_byte_cost():
    # a fresh process, so that no table built for another test is reused
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", WIDE_RENDER], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    for line in run.stdout.splitlines():
        seconds, correct = line.split()
        assert float(seconds) < 0.5 and correct == "True", run.stdout
    assert len(run.stdout.splitlines()) == 2


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
