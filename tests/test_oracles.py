"""The closed-form map check, alpha profile, orthogonal complement,
pattern-table transport and convexity test against their definitional
oracles (in ``boolmetric.suites``, per point, or closure under convex
combinations), on seeded random families over both algebras; the
per-atom extension pipelines against the composed building blocks; the
mask-based finite-cofinite elements and witness searches against the
frozenset model in ``fincof_model``."""

import random
from collections import Counter
from functools import reduce
from itertools import product
from math import prod
from operator import and_, or_, sub, xor

import pytest

import fincof_model as model

from boolmetric import (BoolmetricError, ConvexCoefficients, FiniteSpace,
                        InfeasibleError, NotInHullError, PartialMap, Point,
                        StructureError, UnsupportedOperationError, VerificationError,
                        alpha_profile_of_points, atomic_algebra, check_map,
                        construct_isometry, conv_extend, conv_hull, convex_combine,
                        decompose, extend_contraction, extend_isometry,
                        fincof_algebra, homogeneity_isometry, identity_map,
                        orthogonal_complement, orthogonal_join, space)
from boolmetric.algebra import FINITE_ATOMIC
from boolmetric.counterexamples import (IdealDescriptor, contraction_obstruction_witness,
                                        isometry_obstruction_witness)
from boolmetric.spaces import _atom_patterns, _checked_map, _code_points, _transport
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


def per_point_transport(points, gens, images):
    """decompose plus convex_combine, one point at a time in canonical
    order: the images, or the first point not in the hull with its
    NotInHullError."""
    out = []
    for x in sorted(set(points), key=Point.sort_key):
        try:
            coeffs = decompose(x, gens)
        except NotInHullError as exc:
            return x, exc
        out.append(convex_combine(coeffs, images))
    return out


def transported(points, gens, images):
    """The images of the space of ``points`` under the relations
    ``_transport`` builds, in canonical order, the first generator showing
    a pattern winning on each atom as in ``decompose``."""
    domain = space(points)
    maps = [dict(reversed(relation)) for relation in _transport(domain, gens, images)]
    atoms, table = _atom_patterns(domain.points)
    return list(_code_points(gens[0].algebra, atoms, images[0].dim,
                             [sum(g[row[i]] for g, row in zip(maps, table))
                              for i in range(len(domain))]))


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
                _transport(ambient, gens, images)
            continue
        # mostly points of the hull of gens, sometimes any point of the space
        probes = [convex_combine(ConvexCoefficients(tuple(
                      rng.randrange(len(gens)) for _ in range(alg.atom_count))), gens)
                  for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.4:
            probes.insert(rng.randrange(len(probes) + 1), rng.choice(ambient.points))
        expected = per_point_transport(probes, gens, images)
        if isinstance(expected, list):
            assert transported(probes, gens, images) == expected
            transports["ok"] += 1
            continue
        x, exc = expected
        with pytest.raises(NotInHullError) as err:
            transported(probes, gens, images)
        assert err.value.point == x and err.value.atom_index == exc.atom_index
        assert str(err.value) == str(exc)
        transports["not in hull"] += 1
    # complements of every shape occur, non-trivial ones included
    assert min(shapes.values()) >= 20 and len(shapes) == 6, shapes
    assert min(transports.values()) >= 100, transports


def combinations_by_lattice(points):
    """Every convex combination of finite-cofinite ``points`` whose
    coefficients join atoms among: each natural in the supports, one
    natural m outside them, and the rest; built with the lattice operations
    as the join over i of ``coefficient_i & points[i]``, coordinatewise."""
    alg = points[0].algebra
    union = sorted(set().union(*(c.support for p in points for c in p.coords)))
    m = max(union, default=-1) + 1
    atoms = [alg.fin([n]) for n in union + [m]] + [alg.cof(union + [m])]
    for assignment in product(range(len(points)), repeat=len(atoms)):
        coefficients = [reduce(or_, (a for a, i in zip(atoms, assignment) if i == j), alg.zero)
                        for j in range(len(points))]
        yield Point(reduce(or_, (c & x.coords[d] for c, x in zip(coefficients, points)))
                    for d in range(points[0].dim))


def test_convexity_matches_closure_under_combinations():
    rng = random.Random(1729)
    seen = Counter()
    for _ in range(600):
        alg = atomic_algebra(rng.randint(1, 3)) if rng.random() < 0.5 else fincof_algebra()

        def element():
            if alg.kind == FINITE_ATOMIC:
                return alg._make(rng.randrange(1 << alg.atom_count))
            support = rng.sample(range(3), rng.randint(0, 2))
            return alg.cof(support) if rng.random() < 0.3 else alg.fin(support)
        dim = rng.randint(1, 2)
        points = list(dict.fromkeys(Point(element() for _ in range(dim))
                                    for _ in range(rng.randint(1, 4))))
        if rng.random() < 0.3 and alg.kind == FINITE_ATOMIC:
            points = list(conv_hull(points).points)[:4]
        sp = space(points)
        if alg.kind == FINITE_ATOMIC:
            combos = (convex_combine(ConvexCoefficients(a), sp.points)
                      for a in product(range(len(sp)), repeat=alg.atom_count))
        else:
            combos = combinations_by_lattice(sp.points)
        closed = all(x in sp for x in combos)
        assert sp.convex == closed, sp.points
        seen[alg.kind, closed] += 1
    # convex and non-convex families occur often over both algebras
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def check_extension_input(pm, ambient):
    if not ambient.convex:
        raise StructureError("the ambient space must be convex")
    if not ambient._holds(pm.sources + pm.targets):
        raise StructureError("the map must send points of the space into the space")


def composed_extend_isometry(pm, ambient):
    """The isometry pipeline chained from its point-level building blocks."""
    check_extension_input(pm, ambient)
    verdict = check_map(pm)
    if verdict.kind != "isometric":
        raise InfeasibleError("the input pairs do not preserve distances",
                              witness=verdict.witness)
    if not pm.pairs:  # a convex ambient is its own hull; the finite-cofinite one has none
        return identity_map(conv_hull(ambient))
    anchor = pm.pairs[0][0]
    hull_map = conv_extend(pm)
    moved_anchor = hull_map(anchor)
    swap = homogeneity_isometry(ambient, moved_anchor, anchor)
    side = PartialMap(tuple((s, swap(t)) for s, t in hull_map.pairs))
    domain_hull = conv_hull(pm.sources, basepoint=anchor)
    image_hull = conv_hull(side.targets, basepoint=anchor)
    if len(image_hull) != len(domain_hull):
        raise VerificationError("the image of the domain hull failed to be convex")
    pointed = ambient.with_basepoint(anchor)
    domain_comp = orthogonal_complement(domain_hull, pointed)
    image_comp = orthogonal_complement(image_hull, pointed)
    try:
        comp_map = construct_isometry(domain_comp, image_comp)
    except InfeasibleError as exc:
        raise VerificationError(
            "complements of isometric subspaces must have equal profiles") from exc
    joined = orthogonal_join(side, comp_map, pointed)
    out = PartialMap(tuple((s, swap(t)) for s, t in joined.pairs))  # swap is an involution
    if check_map(out).kind != "isometric" or set(out.targets) != set(ambient.points):
        raise VerificationError("the assembled map is not a self-isometry")
    for s, t in pm.pairs:
        if out(s) != t:
            raise VerificationError("the assembled map does not extend the input")
    return out


def composed_extend_contraction(pm, ambient):
    """The contraction pipeline chained from its point-level building blocks."""
    check_extension_input(pm, ambient)
    verdict = check_map(pm)
    if verdict.kind == "violation":
        raise InfeasibleError("the input pairs do not contract distances",
                              witness=verdict.witness)
    if not pm.pairs:  # a convex ambient is its own hull; the finite-cofinite one has none
        return identity_map(conv_hull(ambient))
    anchor = pm.pairs[0][0]
    hull_map = conv_extend(pm)
    domain_hull = conv_hull(pm.sources, basepoint=anchor)
    pointed = ambient.with_basepoint(anchor)
    comp = orthogonal_complement(domain_hull, pointed)
    anchor_image = hull_map(anchor)
    constant = PartialMap(tuple((y, anchor_image) for y in comp))
    out = orthogonal_join(hull_map, constant, pointed)
    if check_map(out).kind == "violation":
        raise VerificationError("the assembled map is not contractive")
    for s, t in pm.pairs:
        if out(s) != t:
            raise VerificationError("the assembled map does not extend the input")
    for _, t in out.pairs:
        if t not in ambient:
            raise VerificationError("the assembled map leaves the space")
    return out


def random_extension_instance(rng):
    """A map and an ambient space: the ambient is a hull of at most 200
    points over k <= 4 atoms in dimension <= 3, given by its pattern set
    on each atom; the map sends a few of its points through per-atom
    pattern permutations (isometric) or functions (contractive), to random
    points, or is refused for its ambient (not convex: the hull less a
    point, a point outside, finite-cofinite)."""
    k, dim = rng.randint(1, 4), rng.randint(1, 3)
    alg = atomic_algebra(k)
    while True:
        per_atom = [rng.sample(range(1 << dim), rng.randint(1, 1 << dim)) for _ in range(k)]
        if prod(map(len, per_atom)) <= 200:
            break

    def point(pats):  # pats[t]: the dim-bit pattern on atom t, bit j for coordinate j
        return Point(alg._make(sum((pats[t] >> j & 1) << t for t in range(k)))
                     for j in range(dim))

    def patterns(x):
        return [sum((c.bits >> t & 1) << j for j, c in enumerate(x.coords)) for t in range(k)]

    gens = [point([pats[i % len(pats)] for pats in per_atom])
            for i in range(max(map(len, per_atom)))]
    ambient = conv_hull(gens, basepoint=rng.choice([None, gens[0]]))
    sources = rng.sample(ambient.points, rng.randint(1, min(6, len(ambient))))
    mode = rng.choice(["isometric"] * 4 + ["contractive"] * 3
                      + ["random", "empty", "outside", "not convex", "finite-cofinite"])
    if mode in ("isometric", "contractive"):
        maps = [dict(zip(pats, rng.sample(pats, len(pats)) if mode == "isometric"
                         else rng.choices(pats, k=len(pats)))) for pats in per_atom]
        images = [point([m[p] for m, p in zip(maps, patterns(x))]) for x in sources]
    else:
        images = [rng.choice(ambient.points) for _ in sources]
    pm = PartialMap(tuple(zip(sources, images)))
    if mode == "empty":
        pm = PartialMap(())
    elif mode == "outside":
        stray = point([rng.randrange(1 << dim) for _ in range(k)])
        pm = PartialMap(((stray, stray),) + tuple(pr for pr in pm.pairs if pr[0] != stray))
    elif mode == "not convex":  # the hull less a point: convex only when one atom varies
        ambient = space(ambient.points[1:] if len(ambient) >= 3 else ambient.points)
    elif mode == "finite-cofinite":
        fc = fincof_algebra()
        line = [Point((fc.fin(s),)) for s in ([], [1], [2], [1, 2])]
        ambient = FiniteSpace(line)
        pm = PartialMap(((line[0], line[1]),) if rng.random() < 0.5
                        else ((line[0], line[1]), (line[2], line[2])))
    return mode, pm, ambient


def extension_outcome(extend, pm, ambient):
    try:
        return extend(pm, ambient).pairs
    except BoolmetricError as exc:
        return type(exc)


def test_pipelines_match_composed_building_blocks():
    rng = random.Random(8191)
    outcomes = Counter()
    for _ in range(1000):
        mode, pm, ambient = random_extension_instance(rng)
        for name, extend, composed in (
                ("isometry", extend_isometry, composed_extend_isometry),
                ("contraction", extend_contraction, composed_extend_contraction)):
            got = extension_outcome(extend, pm, ambient)
            assert got == extension_outcome(composed, pm, ambient), (mode, name, pm)
            outcomes[name, got if isinstance(got, type) else "extended"] += 1
        outcomes["non-convex ambient"] += not ambient.convex
    # both pipelines extend often and refuse for every reason
    for name in ("isometry", "contraction"):
        assert outcomes[name, "extended"] >= 400, outcomes
        for error in (InfeasibleError, StructureError, UnsupportedOperationError):
            assert outcomes[name, error] >= 30, outcomes
    assert outcomes["isometry", InfeasibleError] >= 100, outcomes
    assert outcomes["non-convex ambient"] >= 30, outcomes


def test_empty_maps_match_composed_building_blocks_on_every_ambient_kind():
    # random_extension_instance pairs an empty map with a convex hull only,
    # so the comparison above never sends one to a refused ambient
    rng = random.Random(131071)
    outcomes = Counter()
    for _ in range(300):
        mode, _, ambient = random_extension_instance(rng)
        if mode not in ("not convex", "finite-cofinite"):
            continue
        for extend, composed in ((extend_isometry, composed_extend_isometry),
                                 (extend_contraction, composed_extend_contraction)):
            got = extension_outcome(extend, PartialMap(()), ambient)
            assert got == extension_outcome(composed, PartialMap(()), ambient), mode
            outcomes[got if isinstance(got, type) else "extended"] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) >= 10, outcomes


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


def constructed_maps(rng):
    """On a finite atomic hull (k <= 4, dim <= 3, at most 64 points), a
    map from each of the six constructors and one from random per-atom
    pattern functions (permutations half the time)."""
    while True:
        k, dim = rng.randint(1, 4), rng.randint(1, 3)
        alg = atomic_algebra(k)
        gens = [Point(alg._make(rng.randrange(1 << k)) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        hull = conv_hull(gens)
        if len(hull) <= 64:
            break
    points = hull.points
    a, b = rng.choice(points), rng.choice(points)
    sources = rng.sample(points, rng.randint(1, min(4, len(points))))
    twist = homogeneity_isometry(hull, a, b)
    squash = PartialMap(tuple((s, rng.choice(sources)) for s in sources))
    squash = squash if check_map(squash).ok else PartialMap(((sources[0], b),))
    pointed = hull.with_basepoint(a)
    inner = conv_hull([a, b], basepoint=a)
    constant = PartialMap(tuple((y, a) for y in orthogonal_complement(inner, pointed)))
    permute = rng.random() < 0.5
    relations = [zip(pats, rng.sample(pats, len(pats)) if permute
                     else rng.choices(pats, k=len(pats))) for pats in hull._patterns[1]]
    return {
        "pattern maps": _checked_map(hull, relations, hull.dim, isometric=permute, within=hull),
        "homogeneity_isometry": twist,
        "construct_isometry": construct_isometry(hull, pointed.with_basepoint(b)),
        "conv_extend": conv_extend(squash),
        "extend_isometry": extend_isometry(PartialMap(((a, b),)), hull),
        "extend_contraction": extend_contraction(squash, hull),
        "orthogonal_join": orthogonal_join(identity_map(inner), constant, pointed),
    }


def test_constructed_map_verdicts_match_pointwise_and_pairwise():
    """The verdict a constructor's map carries equals the pointwise
    check_map of its pairs and the pairwise oracle."""
    rng = random.Random(1111)
    kinds = Counter()
    for _ in range(150):
        for name, out in constructed_maps(rng).items():
            pointwise = PartialMap(out.pairs)
            verdict = check_map(out)
            assert verdict == check_map(pointwise) == pairwise_map_verdict(pointwise), name
            kinds[name, verdict.kind] += 1
    assert all(kinds[name, "isometric"] >= 20 for name in (
        "homogeneity_isometry", "construct_isometry", "extend_isometry")), kinds
    for name in ("conv_extend", "extend_contraction", "orthogonal_join", "pattern maps"):
        assert kinds[name, "contractive"] >= 20, kinds
    assert kinds["pattern maps", "isometric"] >= 50, kinds


def test_pattern_map_post_check_catches_each_broken_map():
    """The per-atom post-check accepts the identity and a collapse, and
    refuses one broken map per condition it verifies."""
    alg = atomic_algebra(2)
    gens = [Point.from_literals(alg, *lits) for lits in (("00", "00"), ("11", "10"),
                                                         ("10", "01"))]
    hull = conv_hull(gens)  # three patterns on each atom, nine points
    p, q, r = hull._patterns[1][0]
    ident = [[(x, x) for x in pats] for pats in hull._patterns[1]]
    collapse = [[(p, p), (q, p), (r, r)]] + ident[1:]  # contractive, not injective
    bigger = conv_hull(gens + [Point.from_literals(alg, "01", "11")])
    fixed = PartialMap(tuple((g, g) for g in gens))
    out = _checked_map(hull, ident, 2, inputs=(fixed,), isometric=True, within=hull)
    assert out.pairs == identity_map(hull).pairs and check_map(out).kind == "isometric"
    out = _checked_map(hull, collapse, 2, inputs=(PartialMap(((gens[0], gens[0]),)),),
                       within=bigger)
    assert check_map(out).kind == "contractive" and len(out) == 9
    broken = {
        "not a function": dict(relations=[ident[0] + [(p, q)]] + ident[1:]),
        "not injective": dict(relations=collapse, isometric=True),
        "leaves the target": dict(relations=ident, within=conv_hull(gens[:2])),
        "not onto": dict(relations=ident, isometric=True, within=bigger),
        # every image is the first point, but a target must be convex
        "non-convex target": dict(relations=[[(x, pats[0]) for x in pats]
                                             for pats in hull._patterns[1]],
                                  within=space([hull.points[0], hull.points[-1]])),
        "does not extend": dict(relations=ident,
                                inputs=(PartialMap(((gens[1], gens[2]),)),)),
    }
    for name, kwargs in broken.items():
        with pytest.raises(VerificationError):
            _checked_map(hull, dim=2, **kwargs)
    with pytest.raises(VerificationError):  # a pattern left without an image
        _checked_map(hull, [ident[0][:2]] + ident[1:], 2)
    # 10 10 shows the patterns of 00 00 and 11 10, but is not in their space
    flat = space(gens[:2])
    splice = Point.from_literals(alg, "10", "10")
    relations = [[(x, x) for x in pats] for pats in flat._patterns[1]]
    assert len(_checked_map(flat, relations, 2, inputs=(identity_map(flat),))) == 2
    with pytest.raises(VerificationError):
        _checked_map(flat, relations, 2, inputs=(PartialMap(((splice, splice),)),))
