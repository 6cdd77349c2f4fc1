"""Plumbing of the randomized verification suites (small smoke runs)."""

import pytest

import boolmetric
from boolmetric import BoolmetricError, suites
from boolmetric.spaces import MapVerdict
from boolmetric.suites import (SUITES, RunConfig, SuiteResult,
                               random_contractive_self_map, random_hull,
                               random_point, random_pointed_hull,
                               random_self_isometry, run_suite)


def test_registry_names():
    assert set(SUITES) == {
        "sum-law", "isometry-oracle", "witt", "uniqueness-battery",
        "extend-isometry", "extend-contraction", "conv-uniqueness",
        "counterexamples", "line-extension", "structural"}


def test_every_exported_name_resolves():
    names = boolmetric.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(boolmetric, n)] == []
    # the exhaustive oracles live in the suites and stay exported
    from boolmetric import brute_force_isometry, witt_cube_solutions
    assert brute_force_isometry is suites.brute_force_isometry
    assert witt_cube_solutions is suites.witt_cube_solutions


def test_unknown_suite_name():
    with pytest.raises(BoolmetricError):
        run_suite("sum-laws", RunConfig())


def test_result_formatting():
    res = SuiteResult("demo", total=3)
    assert res.ok and res.summary() == "3/3 exact"
    res.fail("one bad case")
    assert not res.ok and res.passed == 2 and res.summary() == "2/3 exact"


def test_generators_are_deterministic():
    import random

    from boolmetric import atomic_algebra
    alg = atomic_algebra(3)
    a = random_point(random.Random(5), alg, 2)
    b = random_point(random.Random(5), alg, 2)
    assert a == b
    ha = random_hull(random.Random(9), alg, 2, 3)
    hb = random_hull(random.Random(9), alg, 2, 3)
    assert ha.points == hb.points


def test_random_self_isometry_is_isometric():
    import random

    from boolmetric import Point, atomic_algebra, check_map
    rng = random.Random(21)
    hull = random_hull(rng, atomic_algebra(3), 2, 3)
    iso = random_self_isometry(rng, hull)
    verdict = check_map(iso)
    assert verdict.kind == "isometric"
    assert sorted((t for _, t in iso.pairs), key=Point.sort_key) \
        == list(hull.points)


def test_random_contractive_self_maps_are_pinned():
    # the pairs of twelve seeded instances, and the generator's next draw
    import hashlib
    import random

    from boolmetric import atomic_algebra
    digest = hashlib.sha256()
    for seed in range(12):
        rng = random.Random(seed)
        hull = random_pointed_hull(rng, atomic_algebra(1 + seed % 3), 1 + seed % 2,
                                   max_generators=4)
        pm = random_contractive_self_map(rng, hull)
        digest.update("".join(f"{s.literal} -> {t.literal}\n" for s, t in pm.pairs).encode())
        digest.update(f"{rng.random()}\n".encode())
    assert digest.hexdigest() == \
        "424214c3f123b1ef16353f9bd54cbf74c3acc2894f9e369f9643f78c8a2aec41"


@pytest.mark.parametrize("name", ["sum-law", "witt", "extend-isometry",
                                  "conv-uniqueness", "line-extension"])
def test_small_smoke_runs(name):
    res = run_suite(name, RunConfig(seed=4, instances=3))
    assert res.ok and res.total == 3, res.failures[:1]


def test_extension_suites_classify_each_map_themselves(monkeypatch):
    def forged(extend):
        def run(pm, ambient):
            out = extend(pm, ambient)
            out._verdict = MapVerdict("violation")  # what a broken post-check might keep
            return out
        return run

    for name in ("extend_isometry", "extend_contraction"):
        monkeypatch.setattr(suites, name, forged(getattr(suites, name)))
    for run in (suites.run_extend_isometry, suites.run_extend_contraction):
        res = run(RunConfig(seed=4, instances=5))
        assert res.ok and res.total == 5, res.failures[:1]
