"""The closed-form map check and alpha profile against their definitional
oracles in ``boolmetric.suites``, on seeded random families over both
algebras."""

import random
from collections import Counter

from boolmetric import (PartialMap, Point, alpha_profile_of_points,
                        atomic_algebra, check_map, fincof_algebra)
from boolmetric.suites import enumerated_alpha_profile, pairwise_map_verdict


def random_family(rng):
    """An algebra, an element sampler over it, and up to 7 distinct points."""
    if rng.random() < 0.5:
        alg = atomic_algebra(rng.randint(1, 4))

        def element():
            return alg._make(rng.randrange(1 << alg.atom_count))
    else:
        alg = fincof_algebra()

        def element():
            support = rng.sample(range(6), rng.randint(0, 3))
            return alg.cof(support) if rng.random() < 0.3 else alg.fin(support)
    dim = rng.randint(1, 3)
    points = list(dict.fromkeys(Point(element() for _ in range(dim))
                                for _ in range(rng.randint(1, 7))))
    return alg, element, points


def random_images(rng, element, points):
    """Images under a translation (isometric), a collapse towards a center
    or a projection (contractive), a shuffle or random points."""
    mode = rng.choice(["translate", "collapse", "project", "shuffle", "random"])
    dim = points[0].dim
    if mode == "translate":
        offset = [element() for _ in range(dim)]
        return [Point(a ^ b for a, b in zip(x.coords, offset)) for x in points]
    if mode == "collapse":
        keep = element()
        center = rng.choice(points)
        return [Point((a & keep) | (c - keep) for a, c in zip(x.coords, center.coords))
                for x in points]
    if mode == "project":
        return [Point(x.coords[:1]) for x in points]
    if mode == "shuffle":
        return rng.sample(points, len(points))
    return [Point(element() for _ in range(dim)) for _ in points]


def test_closed_forms_match_definitional_oracles():
    rng = random.Random(2024)
    kinds = Counter()
    for _ in range(2000):
        alg, element, points = random_family(rng)
        assert alpha_profile_of_points(points) == enumerated_alpha_profile(points)
        pm = PartialMap(tuple(zip(points, random_images(rng, element, points))))
        verdict = check_map(pm)
        assert verdict == pairwise_map_verdict(pm), pm
        kinds[alg.kind, verdict.kind] += 1
    # every verdict occurs often over both algebras
    assert len(kinds) == 6 and min(kinds.values()) >= 50, kinds
