"""Hulls stored as per-atom pattern sets against spaces built point by
point: the canonical order of the built points, every answer the
factored form gives without points (size, membership, index, canonical
first point, profile, base, isometry decision) on seeded families, and a
guard that those answers stay cheap on a hull far too large to build."""

import random
import time
from itertools import product

import pytest

from boolmetric import (CapExceededError, FiniteSpace, Point, StructureError, alpha_profile,
                        atomic_algebra, build_base, conv_hull, decide_isometric,
                        orthogonal_complement)


def random_generators(rng, alg, dim, count):
    return [Point(alg._make(rng.randrange(1 << alg.atom_count)) for _ in range(dim))
            for _ in range(count)]


def product_points(alg, generators):
    """The hull by definition: on every atom independently, the bits of one
    generator in every coordinate."""
    k, dim = alg.atom_count, generators[0].dim
    per_atom = [sorted({tuple(c.bits >> t & 1 for c in g.coords) for g in generators})
                for t in range(k)]
    return [Point(alg._make(sum(bits[j] << t for t, bits in enumerate(choice)))
                  for j in range(dim))
            for choice in product(*per_atom)]


def test_hull_points_follow_the_sort_key_order():
    rng = random.Random(9)
    sizes = []
    while len(sizes) < 150:
        alg = atomic_algebra(rng.randint(1, 10))
        gens = random_generators(rng, alg, rng.randint(1, 3), rng.randint(1, 4))
        try:
            hull = conv_hull(gens, max_points=3000)
        except CapExceededError:
            continue
        points = product_points(alg, gens)
        assert hull.points == tuple(sorted(points, key=Point.sort_key))
        sizes.append(len(hull))
    assert max(sizes) > 1000


CUBES = {}


def cube(alg, dim):
    """Every point of the algebra's ``dim``-cube."""
    key = (alg.atom_count, dim)
    if key not in CUBES:
        CUBES[key] = [Point(alg._make(b) for b in bits)
                      for bits in product(range(1 << alg.atom_count), repeat=dim)]
    return CUBES[key]


def test_factored_hulls_answer_like_materialized_spaces():
    rng = random.Random(2024)
    pointed = proper = 0
    families = []
    for _ in range(500):
        k, dim = rng.randint(1, 5), rng.randint(1, 3)
        if k * dim > 12:  # keeps every cube at 4096 points or fewer
            dim = 2
        alg = atomic_algebra(k)
        gens = random_generators(rng, alg, dim, rng.randint(1, 4))
        oracle = FiniteSpace(product_points(alg, gens))
        bp = rng.choice(oracle.points) if rng.random() < 0.5 else None
        hull = conv_hull(gens, basepoint=bp)
        assert hull._points is None
        if bp is not None:
            oracle = oracle.with_basepoint(bp)
            pointed += 1
        assert hull.basepoint == oracle.basepoint
        assert len(hull) == len(oracle) and hull.convex and oracle.convex
        assert hull._first() == oracle._first() == oracle.points[0]
        assert alpha_profile(hull) == alpha_profile(oracle)
        inside = set(oracle.points)
        for x in cube(alg, dim):
            assert (x in hull) == (x in inside) == (x in oracle)
        proper += len(inside) < len(cube(alg, dim))
        for x in oracle.points:
            assert build_base(hull.with_basepoint(x)) == build_base(oracle.with_basepoint(x))
        assert hull._points is None
        assert hull.points == oracle.points
        assert all(hull.index(x) == i for i, x in enumerate(oracle.points))
        families.append((alg, hull, oracle))
    for (alg, hull, oracle), (alg2, hull2, oracle2) in zip(families, families[1:]):
        if alg == alg2:
            fresh = conv_hull(hull.points)  # factored again, with no points built
            assert decide_isometric(fresh, hull2) == decide_isometric(oracle, oracle2)
            assert decide_isometric(fresh, oracle)
    assert pointed > 200 and proper > 300


def test_basepoints_outside_a_hull_are_refused_per_atom():
    alg = atomic_algebra(2)
    gens = [Point.from_literals(alg, "00", "00"), Point.from_literals(alg, "11", "10")]
    outside = Point.from_literals(alg, "10", "01")
    with pytest.raises(StructureError):
        conv_hull(gens, basepoint=outside)
    hull = conv_hull(gens)
    with pytest.raises(StructureError):
        hull.with_basepoint(outside)
    shorter, wider = Point.from_literals(alg, "00"), Point.from_literals(atomic_algebra(3), "000")
    assert shorter not in hull and wider not in hull
    assert hull._points is None


def test_queries_on_a_huge_hull_build_no_points():
    alg = atomic_algebra(20)
    rng = random.Random(20)
    patterns = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 0, 1)]
    choices = [rng.sample(patterns, 3) for _ in range(20)]
    gens = [Point(alg._make(sum(choice[g][j] << t for t, choice in enumerate(choices)))
                  for j in range(3)) for g in range(3)]
    start = time.perf_counter()
    hull = conv_hull(gens, max_points=3 ** 20)
    other = conv_hull(gens[:2] + [gens[0]], max_points=3 ** 20)
    base = build_base(hull.with_basepoint(hull._first()))
    profile = alpha_profile(hull)
    same, different = decide_isometric(hull, hull), decide_isometric(hull, other)
    elapsed = time.perf_counter() - start
    assert len(hull) == 3 ** 20 and base.rank == profile.rank == 2
    assert same and not different
    assert hull._points is None and other._points is None
    assert elapsed < 0.5, elapsed


def test_complement_in_a_large_hull_builds_no_ambient_point():
    """In a hull held as its view the orthogonal complement is the product,
    per atom, of the basepoint's pattern and the ambient patterns the inner
    space does not show: the k=10, dim 3 hull's 59,049 points stay unbuilt."""
    alg = atomic_algebra(10)
    zero, one = "0" * 10, "1" * 10
    bp, first, second = (Point.from_literals(alg, *lits) for lits in
                         ((zero, zero, zero), (one, zero, zero), (zero, one, zero)))
    ambient = conv_hull([bp, first, second], basepoint=bp)
    inner = conv_hull([bp, first], basepoint=bp)
    start = time.perf_counter()
    comp = orthogonal_complement(inner, ambient)
    elapsed = time.perf_counter() - start
    assert len(ambient) == 3 ** 10 and len(inner) == len(comp) == 2 ** 10
    assert ambient._points is None and ambient._codes is None
    assert comp.basepoint == bp and comp.convex
    assert comp.points == conv_hull([bp, second]).points
    assert elapsed < 0.25, elapsed
    outside = conv_hull([bp, Point.from_literals(alg, zero, zero, one)], basepoint=bp)
    with pytest.raises(StructureError, match="subset of the ambient"):
        orthogonal_complement(outside, ambient)
