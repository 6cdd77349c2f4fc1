"""Alpha profiles, bases, the isometry criterion, and the search oracle."""

import random
from collections import Counter
from itertools import combinations, permutations
from math import prod

import pytest

from boolmetric import (AlphaProfile, BoolmetricError, CapExceededError, FiniteSpace,
                        InfeasibleError, PartialMap, Point, StructureError,
                        UnsupportedOperationError, VerificationError,
                        alpha_profile, alpha_profile_of_points, atomic_algebra,
                        brute_force_isometry, build_base, check_map,
                        construct_isometry, conv_hull, decide_isometric,
                        distance, extend_contraction, extend_isometry,
                        fincof_algebra, homogeneity_isometry, is_orthogonal,
                        space)
from boolmetric.spaces import _checked_map, _transport
from boolmetric.suites import enumerated_alpha_profile, pairwise_map_verdict

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


def base_transport_isometry(left, right):
    """construct_isometry chained from point-level bases: each space's base
    over its basepoint, matched index by index, checked and transported."""
    if not decide_isometric(left, right):
        raise InfeasibleError("spaces have different profiles, no isometry exists")
    bp_l = left.basepoint if left.basepoint is not None else left._first()
    bp_r = right.basepoint if right.basepoint is not None else right._first()
    base_l = build_base(left.with_basepoint(bp_l))
    base_r = build_base(right.with_basepoint(bp_r))
    if base_l.rank != base_r.rank:
        raise VerificationError("equal profiles but mismatched base ranks")
    sources, targets = [bp_l, *base_l.points], [bp_r, *base_r.points]
    matching = PartialMap(tuple(zip(sources, targets)))
    if check_map(matching).kind != "isometric":
        raise VerificationError("equal profiles but the bases are not isometric")
    return _checked_map(left, _transport(left, sources, targets), right.dim,
                        inputs=(matching,), isometric=True, within=right)


def pattern_hull(rng, alg, dim, counts):
    """A hull in dimension ``dim`` showing ``counts[t]`` random patterns on
    atom t, pointed at one of its points half of the time."""
    per_atom = [rng.sample(range(1 << dim), c) for c in counts]
    gens = [Point(alg._make(sum((pats[i % len(pats)] >> j & 1) << t
                                for t, pats in enumerate(per_atom)))
                  for j in range(dim))
            for i in range(max(counts))]
    hull = conv_hull(gens)
    assert [len(pats) for pats in hull._patterns[1]] == counts
    return hull.with_basepoint(rng.choice(hull.points)) if rng.random() < 0.5 else hull


def isometry_outcome(construct, left, right):
    try:
        return construct(left, right).pairs
    except BoolmetricError as exc:
        return type(exc)


def test_construct_isometry_matches_base_transport():
    rng = random.Random(2718)
    outcomes = Counter()
    for _ in range(300):
        alg = atomic_algebra(rng.randint(1, 4))
        dims = rng.randint(1, 3), rng.randint(1, 3)
        while True:
            counts = [rng.randint(1, 1 << min(dims)) for _ in range(alg.atom_count)]
            if prod(counts) <= 120:
                break
        mode = rng.choice(["equal"] * 3 + ["unequal"] + ["not convex"] * 2)
        right_counts = list(counts)
        if mode == "unequal":
            t = rng.randrange(len(counts))
            right_counts[t] = rng.choice([c for c in range(1, (1 << dims[1]) + 1)
                                          if c != counts[t]])
        left = pattern_hull(rng, alg, dims[0], counts)
        right = pattern_hull(rng, alg, dims[1], right_counts)
        if mode == "not convex" and len(left) >= 3:
            left = space(left.points[1:])
        got = isometry_outcome(construct_isometry, left, right)
        assert got == isometry_outcome(base_transport_isometry, left, right), (mode, counts)
        if isinstance(got, type):
            outcomes[got] += 1
        else:
            outcomes[mode, left.basepoint is None, left.dim == right.dim] += 1
    # built with the basepoint set and unset, in one dimension and across two
    for unset in (True, False):
        for same_dim in (True, False):
            assert outcomes["equal", unset, same_dim] >= 15, outcomes
    assert outcomes[InfeasibleError] >= 30 and outcomes[StructureError] >= 30, outcomes


def test_construct_isometry_across_dimensions_and_algebras():
    line = conv_hull([pt("00"), pt("11")])
    plane = conv_hull([pt("00", "00"), pt("11", "10")])
    iso = construct_isometry(line, plane)
    assert iso.pairs == base_transport_isometry(line, plane).pairs
    assert check_map(iso).kind == "isometric" and set(iso.targets) == set(plane.points)
    fc = fincof_algebra()
    fc_line = FiniteSpace([Point((fc.fin(s),)) for s in ([], [1], [2], [1, 2])])
    fc_plane = FiniteSpace([Point((fc.fin(s), fc.fin(t)))
                            for s, t in (([], []), ([1], [1]), ([2], []), ([1, 2], [1]))])
    assert fc_line.convex and fc_plane.convex and decide_isometric(fc_line, fc_plane)
    for construct in (construct_isometry, base_transport_isometry):
        with pytest.raises(UnsupportedOperationError, match="base construction"):
            construct(fc_line, fc_plane)


def isometric_by_permutations(left, right):
    xs, ys = left.points, right.points
    return len(xs) == len(ys) and any(
        all(distance(a, b) == distance(image[i], image[j])
            for (i, a), (j, b) in combinations(enumerate(xs), 2))
        for image in permutations(ys))


def test_brute_force_isometry_backtracks_and_refuses_equal_rows():
    def spread(*literals):
        return space([pt(*lit.split()) for lit in literals])

    # isometric, but the first candidate with a matching distance row fails
    backtracked = (spread("00 01 01", "10 00 11", "10 01 11", "11 01 00", "11 01 01"),
                   spread("00 10 11", "01 11 10", "10 01 10", "10 11 00", "11 10 00"))
    # equal multisets of distance rows, yet no isometry
    equal_rows = (spread("00 01 00", "00 11 10", "01 10 10", "01 11 00", "10 00 10",
                         "11 01 10"),
                  spread("01 00 01", "10 10 00", "10 10 10", "11 00 01", "11 10 10",
                         "11 11 00"))
    for left, right in (backtracked, equal_rows):
        assert not left.convex and not right.convex
        found = brute_force_isometry(left, right)
        assert (found is not None) == isometric_by_permutations(left, right)
        if found is not None:
            assert pairwise_map_verdict(found).kind == "isometric"
            assert set(found.targets) == set(right.points)
    assert brute_force_isometry(*backtracked) is not None
    assert brute_force_isometry(*equal_rows) is None
