"""The monotone cube, the profile system solver, and the extension
pipeline, on small hand-checked instances."""

import pytest

from boolmetric import (AlphaProfile, FiniteSpace, InfeasibleError, NotInHullError,
                        PartialMap, Point, StructureError, UnsupportedOperationError,
                        atomic_algebra, check_map,
                        construct_isometry, conv_extend, conv_hull,
                        convex_combine, corner_images, cube_generators,
                        distance, extend_contraction, extend_isometry,
                        fincof_algebra, identity_map, is_monotone,
                        monotone_decompose, orthogonal_join, space,
                        uniqueness_certify,
                        witt_cube_solutions, witt_first_failure, witt_residual,
                        witt_solve, WittInstance)

A1 = atomic_algebra(1)
A2 = atomic_algebra(2)


def pt(*literals, alg=A2):
    return Point.from_literals(alg, *literals)


def profile(alg, *literals):
    return AlphaProfile(alg, tuple(alg.parse(s) for s in literals))


# ---------------------------------------------------------------------------
# Monotone cube.
# ---------------------------------------------------------------------------


def test_cube_generators_frozen():
    gens = cube_generators(A1, 2)
    assert [g.literal for g in gens] == ["0 0", "1 0", "1 1"]
    for a in gens:
        for b in gens:
            if a != b:
                assert distance(a, b) == A1.one


def test_monotone_cube_is_all_decreasing_tuples():
    cube = conv_hull(cube_generators(A2, 3))
    assert len(cube) == 16  # (3 + 1) ** 2
    assert all(is_monotone(p) for p in cube)
    assert not is_monotone(pt("01", "10"))
    universe = [Point((a, b, c)) for a in A2.elements()
                for b in A2.elements() for c in A2.elements()]
    assert sum(1 for p in universe if is_monotone(p)) == 16


def test_monotone_decompose_frozen():
    c = pt("11", "01", "00")
    coeffs = monotone_decompose(c)
    assert coeffs.assignment == (1, 2)
    assert convex_combine(coeffs, cube_generators(A2, 3)) == c
    for p in conv_hull(cube_generators(A2, 3)):
        assert convex_combine(monotone_decompose(p), cube_generators(A2, 3)) == p
    with pytest.raises(StructureError):
        monotone_decompose(pt("01", "10"))


# ---------------------------------------------------------------------------
# The profile system.
# ---------------------------------------------------------------------------


def q3p1():
    # one atom, inner rank 1, outer rank 3
    return WittInstance(profile(A1, "1"), profile(A1, "1", "1", "1"), length=3)


def test_witt_solve_frozen_gap():
    inst = q3p1()
    inst.validate()
    solved = witt_solve(inst)
    assert [v.literal for v in solved.values] == ["1", "1"]
    assert witt_first_failure(inst, (A1.one, A1.one, A1.zero)) is None


def test_witt_cube_search_agrees_and_is_unique():
    inst = q3p1()
    assert witt_cube_solutions(inst) == [(A1.one, A1.one, A1.zero)]


def test_witt_two_atoms():
    inst = WittInstance(profile(A2, "11", "01"),
                        profile(A2, "11", "11", "01"), length=3)
    solved = witt_solve(inst)
    # gaps: atom 0 has q=2, p=1; atom 1 has q=3, p=2
    assert [v.literal for v in solved.values] == ["11"]
    assert witt_cube_solutions(inst) == [(A2.one, A2.zero, A2.zero)]


def test_witt_infeasible_instance():
    inst = WittInstance(profile(A1, "1"), AlphaProfile(A1, ()), length=1)
    with pytest.raises(StructureError):
        inst.validate()
    with pytest.raises(InfeasibleError) as err:
        witt_solve(inst)
    assert err.value.witness == 1


def test_witt_instance_validation():
    with pytest.raises(StructureError):
        WittInstance(profile(A1, "1"), profile(A1, "1", "1"), length=1)
    with pytest.raises(StructureError):
        WittInstance(profile(A1, "1"), profile(A2, "11"), length=1)


def test_residual_corner_values():
    inst = q3p1()
    images = corner_images(inst)
    # the unique solution has two full levels, so y_2 is the only zero
    assert [v.literal for v in images] == ["1", "1", "0", "1"]
    # last corner in closed form: not(outer_d) | inner_1
    assert images[3] == ~inst.outer.alpha(3) | inst.inner.alpha(1)


def test_residual_corners_beyond_outer_rank_are_one():
    # outer profile cut at level 2, gap 1: the zero sits at y_1 and every
    # corner above the outer rank evaluates to 1
    inst = WittInstance(profile(A1, "1"), profile(A1, "1", "1"), length=4)
    images = corner_images(inst)
    assert [v.literal for v in images] == ["1", "0", "1", "1", "1"]
    assert all(images[j] == A1.one for j in range(3, 5))


def test_uniqueness_certificate():
    inst = q3p1()
    report = uniqueness_certify(cube_generators(A1, 3), witt_residual(inst))
    assert report.hypotheses_ok and report.certified
    assert [p.literal for p in report.zeros] == ["1 1 0"]
    # a scalar whose generator images do not join to 1 is reported
    bad = uniqueness_certify(cube_generators(A1, 1), lambda p: A1.zero)
    assert not bad.hypotheses_ok and not bad.certified
    assert any("join to 1" in f for f in bad.failures)
    assert len(bad.zeros) == 2
    # generators that are not at distance 1 are reported
    far = uniqueness_certify([pt("00"), pt("01")], lambda p: A2.one)
    assert far.failures == ("generators 00 and 01 are not at distance 1",)

    # a scalar that is not contractive on the hull: the first offending
    # pair in canonical order is reported
    def twisted(p):  # the first coordinate xor the second with its atoms swapped
        b = p.coords[1].bits
        return p.coords[0] ^ A2._make((b & 1) << 1 | b >> 1)

    bad = uniqueness_certify(cube_generators(A2, 2), twisted)
    assert bad.failures == ("images of 00 00 and 11 11 do not join to 1",
                            "the map is not contractive on 00 00, 01 01")


# ---------------------------------------------------------------------------
# Extension to the hull.
# ---------------------------------------------------------------------------


def line2(lit):
    return Point((A2.parse(lit),))


def test_conv_extend_complement_frozen():
    pm = PartialMap(((line2("00"), line2("11")), (line2("11"), line2("00"))))
    out = conv_extend(pm)
    assert len(out) == 4
    assert out(line2("01")) == line2("10")
    assert out(line2("10")) == line2("01")
    assert check_map(out).kind == "isometric"


def test_conv_extend_identity_and_constant():
    x, y = pt("00", "00"), pt("11", "10")
    ident = conv_extend(PartialMap(((x, x), (y, y))))
    assert all(s == t for s, t in ident.pairs)
    const = conv_extend(PartialMap(((x, y), (y, y))))
    assert all(t == y for _, t in const.pairs)
    assert check_map(const).kind == "contractive"


def test_conv_extend_rejects_expansion():
    x, y = pt("00", "00"), pt("01", "00")
    with pytest.raises(InfeasibleError) as err:
        conv_extend(PartialMap(((x, x), (y, pt("11", "10")))))
    assert err.value.witness == (x, y)


def test_orthogonal_join_frozen():
    ambient = conv_hull([line2("00"), line2("11")], basepoint=line2("00"))
    f = PartialMap(((line2("00"), line2("00")), (line2("01"), line2("01"))))
    g = PartialMap(((line2("00"), line2("00")), (line2("10"), line2("00"))))
    out = orthogonal_join(f, g, ambient)
    assert out(line2("11")) == line2("01")
    assert out(line2("10")) == line2("00")
    assert out(line2("01")) == line2("01")
    assert check_map(out).kind == "contractive"
    # joining two identities gives the identity
    g2 = PartialMap(((line2("00"), line2("00")), (line2("10"), line2("10"))))
    out2 = orthogonal_join(f, g2, ambient)
    assert all(s == t for s, t in out2.pairs)
    assert check_map(out2).kind == "isometric"
    # f and g3 are each contractive but send the pattern that 01 and 11
    # share on one atom to different images: whichever domain point the
    # transport picks there, one input is not extended
    g3 = PartialMap(((line2("00"), line2("00")), (line2("11"), line2("00"))))
    with pytest.raises(InfeasibleError) as err:
        orthogonal_join(f, g3, ambient)
    assert err.value.witness == (line2("01"), line2("11"))


def test_orthogonal_join_needs_generating_domains():
    ambient = conv_hull([line2("00"), line2("11")], basepoint=line2("00"))
    f = PartialMap(((line2("00"), line2("00")), (line2("01"), line2("01"))))
    g = PartialMap(((line2("00"), line2("00")),))
    # 10 and 11 are not generated (no domain point has atom 0); 10 comes first
    with pytest.raises(StructureError, match=r"\(point 10 is not decomposable\)") as err:
        orthogonal_join(f, g, ambient)
    assert isinstance(err.value.__cause__, NotInHullError)
    assert err.value.__cause__.atom_index == 0


def test_orthogonal_join_preconditions():
    ambient = conv_hull([line2("00"), line2("11")], basepoint=line2("00"))
    f = PartialMap(((line2("00"), line2("00")), (line2("01"), line2("01"))))
    lopsided = PartialMap(((line2("00"), line2("01")), (line2("10"), line2("10"))))
    with pytest.raises(StructureError):
        orthogonal_join(f, lopsided, ambient)  # disagree at the basepoint
    missing = PartialMap(((line2("10"), line2("10")),))
    with pytest.raises(StructureError):
        orthogonal_join(f, missing, ambient)  # not defined at the basepoint


def test_orthogonal_join_refuses_strays_and_expansions():
    ambient = conv_hull([line2("00"), line2("01")], basepoint=line2("00"))
    f = PartialMap(((line2("00"), line2("00")), (line2("01"), line2("01"))))
    stray = PartialMap(((line2("00"), line2("00")), (line2("10"), line2("00"))))
    with pytest.raises(StructureError, match="points of the space"):
        orthogonal_join(f, stray, ambient)
    # 00 -> 00 and 01 -> 11 stretch d = 01 to 11
    stretch = PartialMap(((line2("00"), line2("00")), (line2("01"), line2("11"))))
    point = PartialMap(((line2("00"), line2("00")),))
    for g, h, which in ((stretch, point, "subspace"), (point, stretch, "complement")):
        with pytest.raises(InfeasibleError, match=f"the {which} map is not contractive") as err:
            orthogonal_join(g, h, ambient)
        assert err.value.witness == (line2("00"), line2("01"))


def test_extend_isometry_single_pair_gives_translation():
    ambient = conv_hull([line2("00"), line2("11")])
    pm = PartialMap(((line2("00"), line2("11")),))
    out = extend_isometry(pm, ambient)
    for s, t in out.pairs:
        assert t.coords[0] == ~s.coords[0]
    assert check_map(out).kind == "isometric"


def test_extend_isometry_frozen_flip():
    gens = [pt("00", "00"), pt("11", "10"), pt("01", "01")]
    ambient = conv_hull(gens)
    top = pt("11", "11")
    pm = PartialMap(((pt("00", "00"), top), (pt("01", "00"), pt("11", "10")),
                     (pt("01", "01"), pt("10", "10"))))
    out = extend_isometry(pm, ambient)
    assert check_map(out).kind == "isometric"
    assert set(out.targets) == set(ambient.points)
    for s, t in pm.pairs:
        assert out(s) == t
    # the assembled self-isometry must be the global flip here
    assert all(out(out(z)) == z for z in ambient)


def test_extend_isometry_validates_input():
    ambient = conv_hull([pt("00", "00"), pt("11", "10")])
    outside = pt("11", "11")
    with pytest.raises(StructureError):
        extend_isometry(PartialMap(((outside, outside),)), ambient)
    collapse = PartialMap(((pt("00", "00"), pt("00", "00")),
                           (pt("11", "10"), pt("00", "00"))))
    with pytest.raises(InfeasibleError):
        extend_isometry(collapse, ambient)
    flat = space([pt("00", "00"), pt("11", "10")])
    with pytest.raises(StructureError):
        extend_isometry(identity_map(flat), flat)  # not convex


def test_extend_empty_input_is_identity():
    ambient = conv_hull([pt("00", "00"), pt("11", "10")])
    empty = PartialMap(())
    assert extend_isometry(empty, ambient).pairs == identity_map(ambient).pairs
    assert extend_contraction(empty, ambient).pairs == identity_map(ambient).pairs


def test_empty_extension_input_meets_the_ambient_checks(monkeypatch):
    flat = space([pt("00", "00"), pt("11", "10")])
    fc = fincof_algebra()
    fc_line = FiniteSpace([Point((fc.fin(s),)) for s in ([], [1], [2], [1, 2])])
    assert not flat.convex and fc_line.convex
    empty = PartialMap(())
    init, built = Point.__init__, []
    monkeypatch.setattr(Point, "__init__",
                        lambda self, coords: built.append(self) or init(self, coords))
    for extend in (extend_isometry, extend_contraction):
        with pytest.raises(StructureError, match="must be convex"):
            extend(empty, flat)
        with pytest.raises(UnsupportedOperationError):
            extend(empty, fc_line)
        ambient = conv_hull([pt("00", "00"), pt("11", "10"), pt("01", "01")])
        built.clear()
        out = extend(empty, ambient)
        assert built == [] and check_map(out).kind == "isometric"
        assert out.pairs == identity_map(ambient).pairs


def test_extend_contraction_collapse():
    gens = [pt("00", "00"), pt("11", "10"), pt("01", "01")]
    ambient = conv_hull(gens)
    pm = PartialMap(((pt("00", "00"), pt("00", "00")),
                     (pt("11", "10"), pt("01", "00"))))
    out = extend_contraction(pm, ambient)
    assert len(out) == len(ambient)
    assert check_map(out).kind != "violation"
    for s, t in pm.pairs:
        assert out(s) == t
    for _, t in out.pairs:
        assert t in ambient


def test_extend_contraction_of_isometry_need_not_be_isometric():
    gens = [pt("00", "00"), pt("11", "10"), pt("01", "01")]
    ambient = conv_hull(gens)
    pm = PartialMap(((pt("00", "00"), pt("00", "00")),))
    out = extend_contraction(pm, ambient)
    assert check_map(out).kind in ("contractive", "isometric")
    assert len(out) == len(ambient)
