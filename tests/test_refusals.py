"""Bad input refused across the library: one call per refusal, each with
its error class and, where it is fixed, its message."""

import pytest

from boolmetric import (IdealDescriptor, LineExtension, ParseError, PartialMap, Point,
                        StructureError, UnsupportedOperationError, WittInstance,
                        alpha_profile, atomic_algebra, conv_extend, conv_hull,
                        cube_generators, fincof_algebra, flatten_pair,
                        homogeneity_isometry, in_ideal, is_disjoint_pair, is_line_point,
                        line_extension, orthogonal_complement, read_input, space,
                        split_line_point, uniqueness_certify, unflatten_line_point,
                        witt_residual)

A2 = atomic_algebra(2)
FC = fincof_algebra()
EVENS = IdealDescriptor.evens()


def pt(*literals, alg=A2):
    return Point.from_literals(alg, *literals)


def fc_pt(*literals):
    return pt(*literals, alg=FC)


def trivial_system(length):
    flat = alpha_profile([pt("00")])
    return WittInstance(flat, flat, length=length)


@pytest.mark.parametrize("call,error,message", [
    (lambda: A2.element(4), StructureError, "bit mask 4 out of range for 2 atoms"),
    (lambda: A2.atom(2), StructureError, "atom index 2 out of range"),
    (lambda: FC.element(1), UnsupportedOperationError,
     "bit masks only describe finite atomic elements"),
    (lambda: FC.atom(0), UnsupportedOperationError,
     "the finite-cofinite algebra is atomless at the top"),
    (lambda: A2.fin([1]), UnsupportedOperationError,
     "fin/cof elements live in the finite-cofinite algebra"),
    (lambda: A2.cof([1]), UnsupportedOperationError,
     "fin/cof elements live in the finite-cofinite algebra"),
    (lambda: FC.fin([-1]), StructureError, "supports contain naturals only, got -1"),
    (lambda: FC.fin(["1"]), StructureError, "supports contain naturals only, got '1'"),
    # more digits than int() converts
    (lambda: FC.parse("fin{" + "9" * 5000 + "}"), StructureError,
     "naturals must lie below 65536: 'fin{999"),
    (lambda: IdealDescriptor.parse("mod:a,b"), StructureError,
     "bad predicate 'mod:a,b'; expected mod:r,m"),
    (lambda: in_ideal(EVENS, A2.one), StructureError,
     "this construction lives in the finite-cofinite algebra"),
    (lambda: split_line_point(EVENS, FC.parse("cof{}")), StructureError,
     "cof{} is not a sum of an I and a J element"),
    (lambda: is_disjoint_pair(fc_pt("fin{}")), StructureError,
     "the plane construction uses two coordinates"),
    (lambda: is_line_point(EVENS, fc_pt("fin{}")), StructureError,
     "the plane construction uses two coordinates"),
    (lambda: flatten_pair(fc_pt("fin{}")), StructureError,
     "the plane construction uses two coordinates"),
    (lambda: unflatten_line_point(EVENS, fc_pt("fin{}", "cof{}")), StructureError,
     "the point is not on the embedded line"),
    (lambda: LineExtension(FC.one)(fc_pt("fin{}", "fin{}")), StructureError,
     "line translations act on one-coordinate points"),
    (lambda: line_extension(PartialMap(())), StructureError,
     "an empty map does not determine a translation"),
    (lambda: line_extension(PartialMap(((pt("00", "01"), pt("00", "01")),))), StructureError,
     "line extension applies to one-coordinate points"),
    (lambda: cube_generators(A2, 0), StructureError, "the cube needs length at least 1"),
    (lambda: trivial_system(-1), StructureError, "the system length must be a natural"),
    (lambda: witt_residual(trivial_system(1))(pt("00", "00")), StructureError,
     "the residual expects tuples of the system length"),
    (lambda: uniqueness_certify([pt("00")], lambda p: A2.one), StructureError,
     "uniqueness certification needs at least two generators"),
    (lambda: conv_extend(PartialMap(())), StructureError,
     "cannot extend an empty map over an empty hull"),
    (lambda: alpha_profile([pt("00")]).alpha(-1), StructureError,
     "alpha index must be a natural"),
    (lambda: space([pt("00")], basepoint=pt("01")), StructureError,
     "the basepoint must be one of the points"),
    (lambda: space([pt("00")]).index(pt("01")), StructureError,
     "point 01 is not in the space"),
    (lambda: orthogonal_complement(space([pt("01"), pt("11")], basepoint=pt("01")),
                                   space([pt("01"), pt("10")], basepoint=pt("01"))),
     StructureError, "the inner space must be a subset of the ambient space"),
    (lambda: homogeneity_isometry(conv_hull([pt("00"), pt("01")]), pt("00"), pt("11")),
     StructureError, None),
    (lambda: read_input("no-such-dir/no-such-file.txt"), ParseError,
     "cannot read no-such-dir/no-such-file.txt"),
])
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    if message is not None:
        assert str(err.value).startswith(message)
