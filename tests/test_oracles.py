"""The closed-form map check, alpha profile, orthogonal complement and
pattern-table transport against their definitional oracles (in
``boolmetric.suites``, or per point), on seeded random families over both
algebras; the mask-based finite-cofinite elements and witness searches
against the frozenset model in ``fincof_model``."""

import random
from collections import Counter
from operator import and_, or_, sub, xor

import pytest

import fincof_model as model

from boolmetric import (ConvexCoefficients, NotInHullError, PartialMap, Point,
                        UnsupportedOperationError, alpha_profile_of_points,
                        atomic_algebra, check_map, conv_hull, convex_combine,
                        decompose, fincof_algebra, orthogonal_complement, space)
from boolmetric.algebra import FINITE_ATOMIC
from boolmetric.counterexamples import (IdealDescriptor, contraction_obstruction_witness,
                                        isometry_obstruction_witness)
from boolmetric.spaces import _transport
from boolmetric.suites import (enumerated_alpha_profile, pairwise_map_verdict,
                               pairwise_orthogonal_complement)


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


def per_point_transport(points, gens, images, tie_break):
    """decompose plus convex_combine, one point at a time: the images, or
    the first point not in the hull with its NotInHullError."""
    out = []
    for x in points:
        try:
            coeffs = decompose(x, gens, tie_break=tie_break)
        except NotInHullError as exc:
            return x, exc
        out.append(convex_combine(coeffs, images))
    return out


def test_complement_and_transport_match_per_point_oracles():
    rng = random.Random(4096)
    shapes = Counter()
    transports = Counter()
    for _ in range(1200):
        alg, element, points = random_family(rng)
        atomic = alg.kind == FINITE_ATOMIC
        convex = atomic and rng.random() < 0.5
        bp = rng.choice(points)
        if convex:
            ambient = conv_hull(points, basepoint=bp)
            extra = rng.sample(ambient.points, rng.randint(0, min(2, len(ambient))))
            inner = conv_hull([bp] + extra, basepoint=bp)
        else:
            ambient = space(points, basepoint=bp)
            inner = space([bp] + rng.sample(points, rng.randint(0, len(points) - 1)),
                          basepoint=bp)
        comp = orthogonal_complement(inner, ambient)
        oracle = pairwise_orthogonal_complement(inner, ambient)
        assert comp.points == oracle.points and comp.convex == oracle.convex
        trivial = len(comp) == 1 or len(comp) == len(ambient)
        shapes[alg.kind, convex, trivial] += 1

        gens = rng.sample(ambient.points, rng.randint(1, min(3, len(ambient))))
        images = random_images(rng, element, gens)
        if not atomic:
            with pytest.raises(UnsupportedOperationError):
                _transport(ambient.points, gens, images)
            continue
        # mostly points of the hull of gens, sometimes any point of the space
        probes = [convex_combine(ConvexCoefficients(tuple(
                      rng.randrange(len(gens)) for _ in range(alg.atom_count))), gens)
                  for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            probes.insert(rng.randrange(len(probes) + 1), rng.choice(ambient.points))
        for tie_break in ("min", "max"):
            expected = per_point_transport(probes, gens, images, tie_break)
            if isinstance(expected, list):
                assert _transport(probes, gens, images, tie_break) == expected
                transports["ok"] += 1
                continue
            x, exc = expected
            with pytest.raises(NotInHullError) as err:
                _transport(probes, gens, images, tie_break)
            assert err.value.point == x and err.value.atom_index == exc.atom_index
            assert str(err.value) == str(exc)
            transports["not in hull"] += 1
    # complements of every shape occur, non-trivial ones included
    assert min(shapes.values()) >= 20 and len(shapes) == 6, shapes
    assert min(transports.values()) >= 100, transports


PREDICATES = [IdealDescriptor(r, m) for m in range(2, 9) for r in range(m)]


def random_model_element(rng):
    """A model element whose support is empty, a few naturals below 131, or
    a dense run starting at 0, so that masks often cross 64 bits."""
    shape = rng.random()
    if shape < 0.15:
        support = frozenset()
    elif shape < 0.6:
        support = frozenset(rng.sample(range(131), rng.randint(1, 6)))
    else:
        support = frozenset(n for n in range(rng.randint(1, 131)) if rng.random() < 0.5)
    return (rng.random() < 0.5, support)


def test_fincof_masks_match_set_model():
    rng = random.Random(1729)
    kinds = Counter()
    wide = 0
    for i in range(2000):
        ma, mb = random_model_element(rng), random_model_element(rng)
        a, b = model.build(ma), model.build(mb)
        wide += a.mask.bit_length() > 64
        for x, m in ((a, ma), (b, mb)):
            assert model.as_model(x) == m
            assert x.literal == model.literal(m)
            assert x.sort_key() == model.sort_key(m)
            assert x.algebra.parse(x.literal) == x
            assert model.as_model(~x) == model.complement(m)
            assert x.is_zero == (m == (False, frozenset()))
            for n in rng.sample(range(140), 8) + sorted(m[1])[:3]:
                assert x.contains(n) == model.contains(m, n)
        for op, model_op in ((and_, model.meet), (or_, model.join),
                             (xor, model.symdiff), (sub, model.difference)):
            assert model.as_model(op(a, b)) == model_op(ma, mb)
            assert model.as_model(op(b, a)) == model_op(mb, ma)
        assert (a <= b, b <= a, a <= a) == (model.leq(ma, mb), model.leq(mb, ma), True)
        twin = model.build(ma)
        assert twin == a and hash(twin) == hash(a)
        assert (a == b) == (ma == mb) and len({a, b, twin}) == len({ma, mb})
        assert (a.sort_key() < b.sort_key()) == (model.sort_key(ma) < model.sort_key(mb))

        # three predicates per pair, so that each one meets about 170 pairs
        for desc in (PREDICATES[(3 * i + j) % len(PREDICATES)] for j in range(3)):
            # candidates of every branch: independent coordinates, a
            # coordinate and its complement, and both coordinates cofinite
            # with supports that keep M and its complement inside them
            overlap = ((True, frozenset(n for n in ma[1] if not desc.member(n))),
                       (True, frozenset(n for n in mb[1] if desc.member(n))))
            for pa, pb in ((ma, mb), (ma, model.complement(ma)), overlap):
                w = isometry_obstruction_witness((model.build(pa), model.build(pb)), desc)
                assert model.witness_as_model(w) == model.isometry_witness(pa, pb, desc)
                assert w.verified
                kinds[w.kind] += 1
            for v in (ma, mb):
                w = contraction_obstruction_witness(model.build(v), desc)
                assert model.witness_as_model(w) == model.contraction_witness(v, desc)
                assert w.verified
    assert wide >= 500, wide
    assert min(kinds.values()) >= 1000 and len(kinds) == 3, kinds
