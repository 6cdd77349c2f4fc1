"""Points, distances, hulls, decompositions, complements, partial maps."""

import pytest

from boolmetric import (CapExceededError, ConvexCoefficients, FiniteSpace, NotInHullError,
                        PartialMap, Point, StructureError,
                        UnsupportedOperationError, atomic_algebra, check_map,
                        conv_hull, convex_combine, decompose, distance,
                        fincof_algebra, identity_map, is_orthogonal, norm,
                        orthogonal_complement, space)
from boolmetric.suites import exhaustive_hull_membership

A2 = atomic_algebra(2)


def pt(*literals, alg=A2):
    return Point.from_literals(alg, *literals)


def test_distance_is_join_of_coordinate_differences():
    x = pt("10", "01")
    y = pt("01", "01")
    assert distance(x, y).literal == "11"
    assert distance(x, x).is_zero
    assert distance(x, y) == distance(y, x)


def test_distance_fincof():
    alg = fincof_algebra()
    x = Point((alg.fin({1}), alg.cof({2})))
    y = Point((alg.fin({3}), alg.cof({2, 4})))
    assert distance(x, y) == alg.fin({1, 3, 4})


def test_triangle_inequality_exhaustive_small():
    alg = atomic_algebra(2)
    pts = [Point((a, b)) for a in alg.elements() for b in alg.elements()]
    for x in pts:
        for y in pts:
            for z in pts:
                assert distance(x, z) <= distance(x, y) | distance(y, z)


def test_dimension_and_algebra_mismatches():
    with pytest.raises(StructureError):
        distance(pt("10", "01"), Point((A2.parse("10"),)))
    with pytest.raises(StructureError):
        distance(pt("10", "01"),
                 Point.from_literals(atomic_algebra(3), "100", "010"))
    with pytest.raises(StructureError):
        Point(())


def test_point_coordinates_share_one_algebra():
    twin = atomic_algebra(2)  # an equal handle, not the same object
    assert twin is not A2
    assert Point((A2.parse("10"), twin.parse("01"))) == pt("10", "01")
    for other in (atomic_algebra(3).parse("010"), fincof_algebra().zero):
        with pytest.raises(StructureError, match="share one algebra"):
            Point((A2.parse("10"), other))


def test_norm_is_the_distance_to_the_basepoint():
    x, bp = pt("10", "01"), pt("00", "00")
    assert norm(x, bp).literal == "11" and norm(x, bp) == distance(x, bp)
    assert norm(bp, bp).is_zero


def test_orthogonality_via_norms():
    bp = pt("00", "00")
    x = pt("10", "10")
    y = pt("01", "00")
    assert is_orthogonal(x, y, bp)          # d = 11 = |x| | |y|
    z = pt("11", "10")
    assert not is_orthogonal(x, z, bp)      # d = 01 but |x| | |z| = 11


def test_convex_combine_copies_patterns():
    x = pt("10", "01")
    y = pt("01", "11")
    coeffs = ConvexCoefficients((0, 1))
    c = convex_combine(coeffs, [x, y])
    # atom 0 copied from x, atom 1 from y
    assert c == pt("11", "01")
    # defining property: a_i & d(c, x_i) = 0
    parts = coeffs.partition(A2, 2)
    assert (parts[0] & distance(c, x)).is_zero
    assert (parts[1] & distance(c, y)).is_zero


def test_hull_of_three_generators_has_nine_points():
    gens = [pt("00", "00"), pt("11", "11"), pt("01", "10")]
    hull = conv_hull(gens)
    assert len(hull) == 9      # 3 patterns on each of the 2 atoms
    assert hull.convex
    for g in gens:
        assert g in hull
    again = conv_hull(hull)
    assert set(again.points) == set(hull.points)


def test_hull_membership_matches_enumeration():
    gens = [pt("00", "00"), pt("11", "11"), pt("01", "10")]
    hull = conv_hull(gens)
    universe = [Point((a, b)) for a in A2.elements() for b in A2.elements()]
    for x in universe:
        assert exhaustive_hull_membership(x, gens) == (x in hull)


def test_hull_cap():
    alg = atomic_algebra(3)
    gens = [Point.from_literals(alg, lit) for lit in
            ("000", "100", "010", "001", "110", "101", "011", "111")]
    assert len(conv_hull(gens)) == 8  # one bit per atom: 2 patterns each
    with pytest.raises(CapExceededError):
        conv_hull(gens, max_points=4)


def test_hulls_unsupported_over_fincof():
    alg = fincof_algebra()
    pts = [Point((alg.fin({1}),)), Point((alg.fin({2}),))]
    with pytest.raises(UnsupportedOperationError):
        conv_hull(pts)
    with pytest.raises(UnsupportedOperationError):
        decompose(pts[0], pts)


def test_decompose_round_trips_and_respects_order():
    gens = [pt("00", "00"), pt("11", "11"), pt("01", "10")]
    hull = conv_hull(gens)
    for x in hull:
        assert convex_combine(decompose(x, gens), gens) == x
    # indices refer to the list as passed, even when it is unsorted
    shuffled = [gens[2], gens[0], gens[1]]
    x = pt("01", "10")
    coeffs = decompose(x, shuffled)
    assert convex_combine(coeffs, shuffled) == x
    assert coeffs.assignment == (0, 0)


def test_decompose_outside_hull_names_an_atom():
    gens = [pt("00", "00"), pt("01", "01")]
    with pytest.raises(NotInHullError) as err:
        decompose(pt("10", "00"), gens)
    assert err.value.atom_index == 0


def test_space_canonical_order_and_basepoint():
    pts = [pt("11", "10"), pt("00", "00"), pt("11", "10")]
    sp = space(pts)
    assert len(sp) == 2
    assert [p.literal for p in sp] == ["00 00", "11 10"]
    assert sp.basepoint is None
    with pytest.raises(StructureError):
        sp.require_basepoint()
    with pytest.raises(StructureError):
        sp.with_basepoint(pt("01", "01"))
    pointed = sp.with_basepoint(pt("11", "10"))
    assert norm(pt("00", "00"), pointed.basepoint).literal == "11"


def test_orthogonal_complement_frozen_examples():
    bp = pt("00", "00")
    gens = [bp, pt("11", "10"), pt("01", "01")]
    ambient = conv_hull(gens, basepoint=bp)
    assert len(ambient) == 6
    # Atom-wise: the complement keeps, on each atom, the basepoint pattern
    # plus the ambient patterns the inner space does not use.
    inner = conv_hull([bp, pt("01", "01")], basepoint=bp)
    comp = orthogonal_complement(inner, ambient)
    assert [p.literal for p in comp] == ["00 00", "01 00", "10 10", "11 10"]
    wide = conv_hull([bp, pt("01", "00"), pt("01", "01")], basepoint=bp)
    comp2 = orthogonal_complement(wide, ambient)
    assert [p.literal for p in comp2] == ["00 00", "10 10"]
    for cc, uu in ((comp, inner), (comp2, wide)):
        assert cc.convex and cc.basepoint == ambient.basepoint
        for u in uu:
            for v in cc:
                assert is_orthogonal(u, v, ambient.basepoint)


def test_orthogonal_complement_requires_shared_basepoint():
    gens = [pt("00", "00"), pt("01", "01")]
    ambient = conv_hull(gens, basepoint=pt("00", "00"))
    inner = conv_hull([pt("01", "01")], basepoint=pt("01", "01"))
    with pytest.raises(StructureError):
        orthogonal_complement(inner, ambient)


def test_partial_map_canonicalization():
    x, y, z = pt("00", "00"), pt("01", "01"), pt("11", "11")
    pm = PartialMap(((y, z), (x, y)))
    assert [s.literal for s in pm.sources] == ["00 00", "01 01"]
    assert pm(x) == y and pm(y) == z
    assert pm.defined_at(x) and not pm.defined_at(z)
    with pytest.raises(StructureError):
        pm(z)
    # a repeated consistent pair collapses, a conflicting one is an error
    assert len(PartialMap(((x, y), (x, y)))) == 1
    with pytest.raises(StructureError):
        PartialMap(((x, y), (x, z)))


def test_check_map_verdicts():
    x, y = pt("00", "00"), pt("11", "01")
    sp = conv_hull([x, y])
    assert check_map(identity_map(sp)).kind == "isometric"
    collapse = PartialMap(((x, x), (y, x)))
    assert check_map(collapse).kind == "contractive"
    stretch = PartialMap(((x, x), (pt("01", "00"), pt("11", "01"))))
    verdict = check_map(stretch)
    assert verdict.kind == "violation" and not verdict.ok
    assert verdict.witness is not None
    (s1, s2) = verdict.witness
    assert distance(s1, s2) != distance(stretch(s1), stretch(s2))


def test_check_map_refuses_mixed_algebras_at_any_size():
    fc = fincof_algebra()
    x, y = pt("00"), pt("11")
    u, v = Point((fc.fin([1]),)), Point((fc.cof([]),))
    # one pair is refused like two: the verdict needs a common algebra
    for pairs in (((x, u),), ((x, u), (y, v)), ((u, x),)):
        with pytest.raises(StructureError, match="different algebras"):
            check_map(PartialMap(pairs))
    assert check_map(PartialMap(())).kind == "isometric"
    assert check_map(PartialMap(((u, v),))).kind == "isometric"


def test_partial_maps_compare_by_pairs():
    x, y = pt("00", "00"), pt("11", "01")
    assert PartialMap(((y, x), (x, y))) == PartialMap(((x, y), (y, x)))
    assert PartialMap(((x, y),)) != PartialMap(((x, x),))
    assert identity_map(space([x, y])) == PartialMap(((x, x), (y, y)))


def test_mixed_algebra_families_are_refused_before_sorting():
    from boolmetric import alpha_profile, uniqueness_certify
    atomic, cofinite = Point((A2.parse("10"),)), Point((fincof_algebra().fin([1]),))
    mixed = [atomic, cofinite]
    for build in (space, conv_hull, alpha_profile,
                  lambda g: FiniteSpace(g),
                  lambda g: PartialMap(zip(g, [atomic, atomic])),
                  lambda g: PartialMap(zip([atomic, pt("01")], g)),
                  lambda g: uniqueness_certify(g, lambda p: p.coords[0])):
        with pytest.raises(StructureError, match="different algebras"):
            build(mixed)
