"""Alpha profiles, bases, the isometry criterion, and the search oracle."""

import pytest

from boolmetric import (AlphaProfile, CapExceededError, FiniteSpace,
                        InfeasibleError, PartialMap, Point, StructureError,
                        alpha_profile, alpha_profile_of_points, atomic_algebra,
                        brute_force_isometry, build_base, check_map,
                        construct_isometry, conv_hull, decide_isometric,
                        distance, extend_contraction, extend_isometry,
                        fincof_algebra, homogeneity_isometry, is_orthogonal,
                        space)
from boolmetric.suites import enumerated_alpha_profile

A2 = atomic_algebra(2)


def pt(*literals, alg=A2):
    return Point.from_literals(alg, *literals)


def hexagon():
    """Six points: 2 patterns on atom 0, 3 on atom 1."""
    return conv_hull([pt("00", "00"), pt("11", "10"), pt("01", "01")])


def test_profile_frozen_example():
    prof = alpha_profile(hexagon())
    assert [v.literal for v in prof.values] == ["11", "01"]
    assert prof.rank == 2
    assert prof.alpha(0) == A2.one
    assert prof.alpha(3) == A2.zero
    assert prof.lines() == ["alpha[1] = 11", "alpha[2] = 01"]


def test_profile_by_definition_matches_atom_counts():
    # alpha_k contains an atom exactly when the points show more than k
    # distinct patterns there.
    pts = [pt("00", "00"), pt("11", "10"), pt("01", "01"), pt("10", "11")]
    prof = alpha_profile_of_points(pts)
    for k in range(1, 4):
        for t in range(2):
            patterns = {tuple(c.bits >> t & 1 for c in p.coords) for p in pts}
            assert bool(prof.alpha(k).bits >> t & 1) == (len(patterns) > k)


def test_profile_small_cases():
    single = [pt("10", "01")]
    assert alpha_profile_of_points(single).rank == 0
    two = [pt("00", "00"), pt("10", "01")]
    prof = alpha_profile_of_points(two)
    assert prof.rank == 1 and prof.alpha(1) == distance(two[0], two[1])


def test_profile_is_generator_invariant():
    gens = [pt("00", "00"), pt("11", "10"), pt("01", "01")]
    assert alpha_profile_of_points(gens) == alpha_profile_of_points(conv_hull(gens).points)
    assert alpha_profile(gens) == alpha_profile(conv_hull(gens))


def test_profile_works_over_fincof():
    alg = fincof_algebra()
    pts = [Point((alg.fin(()),)), Point((alg.fin({1, 3}),)), Point((alg.cof({2}),))]
    prof = alpha_profile_of_points(pts)
    assert prof.rank == 1
    assert prof.alpha(1) == alg.cof({2})


def test_profile_validation():
    with pytest.raises(StructureError):
        AlphaProfile(A2, (A2.zero,))
    with pytest.raises(StructureError):
        AlphaProfile(A2, (A2.parse("10"), A2.parse("11")))  # not decreasing
    with pytest.raises(StructureError):
        alpha_profile_of_points([])


def test_profile_enumeration_oracle_cap():
    alg = atomic_algebra(3)
    gens = [Point.from_literals(alg, "000", "000"),
            Point.from_literals(alg, "111", "000"),
            Point.from_literals(alg, "000", "111"),
            Point.from_literals(alg, "111", "111")]
    hull = conv_hull(gens)  # 4 patterns per atom, 64 points
    assert len(hull) == 64
    with pytest.raises(CapExceededError):
        enumerated_alpha_profile(hull.points)
    # rebuilding from the raw points forgets the small generator set; the
    # closed form over all 64 points must agree with the definitional
    # route on the generators
    assert alpha_profile(conv_hull(hull.points)) == enumerated_alpha_profile(gens)
    assert alpha_profile_of_points(hull.points) == enumerated_alpha_profile(gens)


def test_base_frozen_example():
    sp = hexagon().with_basepoint(pt("00", "00"))
    base = build_base(sp)
    assert [p.literal for p in base.points] == ["11 10", "01 01"]
    assert base.rank == 2
    prof = alpha_profile(sp)
    for i, x in enumerate(base.points, start=1):
        assert distance(x, sp.basepoint) == prof.alpha(i)
    assert is_orthogonal(base.points[0], base.points[1], sp.basepoint)
    regen = conv_hull([sp.basepoint, *base.points])
    assert set(regen.points) == set(sp.points)


def test_base_depends_on_basepoint_but_keeps_norms():
    sp = hexagon()
    prof = alpha_profile(sp)
    for bp in sp:
        base = build_base(sp.with_basepoint(bp))
        for i, x in enumerate(base.points, start=1):
            assert distance(x, bp) == prof.alpha(i)


def test_base_of_single_point_space():
    sp = conv_hull([pt("10", "01")]).with_basepoint(pt("10", "01"))
    base = build_base(sp)
    assert base.rank == 0 and base.points == ()


def test_base_needs_pointed_convex_space():
    sp = hexagon()
    with pytest.raises(StructureError):
        build_base(sp)  # no basepoint


def test_decide_isometric_requires_convexity_and_common_algebra():
    sp = hexagon()
    dented = space(sp.points[1:])  # 5 of the 6 points its pattern sets span
    assert not dented.convex
    with pytest.raises(StructureError):
        decide_isometric(sp, dented)
    other = conv_hull([Point.from_literals(atomic_algebra(3), "000", "000")])
    with pytest.raises(StructureError):
        decide_isometric(sp, other)


def test_convexity_is_read_off_the_points():
    hull = hexagon()
    plain = space(hull.points)
    assert plain.convex
    assert decide_isometric(plain, hull)
    for bp in hull:
        assert build_base(plain.with_basepoint(bp)) == build_base(hull.with_basepoint(bp))
    for option in ({"convex": True}, {"generators": hull.points[:1]}):
        with pytest.raises(TypeError):
            FiniteSpace(hull.points, **option)


def test_non_convex_space_is_refused_everywhere():
    # {00, 11} spans two patterns on each of two atoms: its hull has 4 points
    x, y = pt("00"), pt("11")
    pair = space([x, y], basepoint=x)
    assert not pair.convex
    move = PartialMap(((x, y), (y, x)))
    for call in (lambda: decide_isometric(pair, conv_hull([x, y])),
                 lambda: build_base(pair),
                 lambda: homogeneity_isometry(pair, x, y),
                 lambda: extend_isometry(move, pair),
                 lambda: extend_contraction(move, pair)):
        with pytest.raises(StructureError):
            call()


def test_isometric_decision_frozen_pairs():
    sp = hexagon()
    # translate by complementing the first coordinate: an isometric image
    moved = conv_hull([Point((~p.coords[0], p.coords[1])) for p in sp])
    assert decide_isometric(sp, moved)
    # a 4-point square has a different profile
    square = conv_hull([pt("00", "00"), pt("11", "01")])
    assert not decide_isometric(sp, square)
    assert decide_isometric(sp, sp)


def test_construct_isometry_transports_distances():
    sp = hexagon()
    moved = conv_hull([Point((~p.coords[0], p.coords[1])) for p in sp])
    iso = construct_isometry(sp, moved)
    assert check_map(iso).kind == "isometric"
    assert set(iso.sources) == set(sp.points)
    assert set(iso.targets) == set(moved.points)
    with pytest.raises(InfeasibleError):
        construct_isometry(sp, conv_hull([pt("00", "00"), pt("11", "01")]))


def test_homogeneity_swap_frozen():
    line = conv_hull([pt("00", "00"), pt("11", "11")])  # 4 points
    a, b = pt("00", "00"), pt("11", "11")
    swap = homogeneity_isometry(line, a, b)
    assert swap(a) == b and swap(b) == a
    # the other two points lie between a and b and are swapped as well
    assert swap(pt("10", "10")) == pt("01", "01")
    assert all(swap(swap(z)) == z for z in line)
    assert check_map(swap).kind == "isometric"


def test_homogeneity_fixes_points_orthogonal_to_both():
    sp = hexagon()
    swap = homogeneity_isometry(sp, pt("01", "00"), pt("01", "01"))
    # 10 10 differs from both swapped points on every atom they use
    assert swap(pt("10", "10")) == pt("10", "10")


def test_brute_force_isometry_agrees_on_frozen_pairs():
    sp = hexagon()
    moved = conv_hull([Point((~p.coords[0], p.coords[1])) for p in sp])
    found = brute_force_isometry(sp, moved)
    assert found is not None and check_map(found).kind == "isometric"
    square = conv_hull([pt("00", "00"), pt("11", "01")])
    assert brute_force_isometry(sp, square) is None
    # size mismatch is an immediate no
    assert brute_force_isometry(sp, conv_hull([pt("00", "00")])) is None


def test_brute_force_cap():
    alg = atomic_algebra(2)
    pts = [Point((a, b)) for a in alg.elements() for b in alg.elements()]
    big = conv_hull(pts)
    with pytest.raises(CapExceededError):
        brute_force_isometry(big, big)
    assert brute_force_isometry(big, big, cap=16) is not None
