"""Seeded verification suites.

Each suite generates reproducible random instances (all randomness comes
from one seeded generator), exercises a library construction, and checks
it for exact equality against either the defining property or an
independent brute-force oracle.  The command line ``verify`` subcommand
and the acceptance tests both run these.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .algebra import (FINITE_ATOMIC, Algebra, Element, atomic_algebra, fc_literal,
                      fincof_algebra, inf_family, sup_family)
from .counterexamples import (IdealDescriptor, _require_candidates_within,
                              _sweep, _violated, flatten_pair,
                              isometry_obstruction_witness, line_extension,
                              unflatten_line_point)
from .errors import BoolmetricError, CapExceededError, StructureError
from .extension import (WittInstance, _profile_tuple, conv_extend,
                        corner_images, cube_generators, extend_contraction,
                        extend_isometry, monotone_decompose, uniqueness_certify,
                        witt_first_failure, witt_residual, witt_solve)
from .invariants import (AlphaProfile, alpha_profile, alpha_profile_of_points,
                         build_base, decide_isometric, homogeneity_isometry)
from .spaces import (ConvexCoefficients, FiniteSpace, MapVerdict, PartialMap,
                     Point, _require_atomic, check_map, conv_hull, convex_combine,
                     distance, is_orthogonal, orthogonal_complement)


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the suites and the command line."""

    seed: int = 0
    instances: int = 100
    atoms: int = 3
    dim: int = 2
    max_points: int = 10 ** 6
    max_support: int = 16


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.passed}/{self.total} exact"

    def fail(self, message: str):
        self.failures.append(message)


SUITES: dict = {}  # suite name -> run(cfg), filled by @_suite


def _suite(name: str):
    """Register ``checks(res, cfg, ...)`` as the suite ``name``.  The
    registered function takes ``(cfg, ...)``, makes the result, times the
    checks into ``elapsed`` and returns the result."""
    def register(checks):
        @functools.wraps(checks)
        def run(cfg: RunConfig, *args, **kwargs) -> SuiteResult:
            res = SuiteResult(name)
            start = time.perf_counter()
            checks(res, cfg, *args, **kwargs)
            res.elapsed = time.perf_counter() - start
            return res
        SUITES[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# Random instances.
# ---------------------------------------------------------------------------


def random_element(rng: random.Random, algebra: Algebra) -> Element:
    return algebra._make(rng.randrange(1 << algebra.atom_count))


def random_point(rng: random.Random, algebra: Algebra, dim: int) -> Point:
    return Point(random_element(rng, algebra) for _ in range(dim))


def random_hull(rng: random.Random, algebra: Algebra, dim: int,
                max_generators: int, max_size: int | None = None) -> FiniteSpace:
    """A random convex space; regenerated until it fits under max_size."""
    while True:
        count = rng.randint(1, max_generators)
        gens = [random_point(rng, algebra, dim) for _ in range(count)]
        hull = conv_hull(gens)
        if max_size is None or len(hull) <= max_size:
            return hull


def random_pointed_hull(rng: random.Random, algebra: Algebra, dim: int,
                        max_generators: int, max_size: int | None = None) -> FiniteSpace:
    hull = random_hull(rng, algebra, dim, max_generators, max_size)
    return hull.with_basepoint(rng.choice(hull.points))


def random_convex_subspace(rng: random.Random, space: FiniteSpace,
                           max_generators: int = 4) -> FiniteSpace:
    """A random convex subspace through the basepoint."""
    bp = space.require_basepoint()
    count = rng.randint(0, max_generators)
    gens = [bp] + [rng.choice(space.points) for _ in range(count)]
    return conv_hull(gens, basepoint=bp)


def identity_map(space: FiniteSpace) -> PartialMap:
    return PartialMap(tuple((p, p) for p in space))


def random_self_isometry(rng: random.Random, space: FiniteSpace) -> PartialMap:
    """A certified self-isometry: a composition of homogeneity swaps."""
    pm = identity_map(space)
    for _ in range(rng.randint(1, 3)):
        a = rng.choice(space.points)
        b = rng.choice(space.points)
        swap = homogeneity_isometry(space, a, b)
        pm = PartialMap(tuple((s, swap(t)) for s, t in pm.pairs))
    return pm


def random_contractive_self_map(rng: random.Random, space: FiniteSpace) -> PartialMap:
    """A certified self-contraction: an isometry followed by collapses
    that copy a fixed point's coordinates outside a fixed element."""
    pm = random_self_isometry(rng, space)
    for _ in range(rng.randint(1, 2)):
        keep = random_element(rng, space.algebra)
        center = rng.choice(space.points)
        crush = PartialMap(tuple(
            (z, Point((a & keep) | (c - keep) for a, c in zip(z.coords, center.coords)))
            for z in space))
        pm = PartialMap(tuple((s, crush(t)) for s, t in pm.pairs))
    return pm


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------


def exhaustive_hull_membership(x: Point, generators: list[Point]) -> bool:
    """Hull membership by trying every coefficient assignment."""
    k = x.algebra.atom_count
    for assignment in product(range(len(generators)), repeat=k):
        if convex_combine(ConvexCoefficients(assignment), generators) == x:
            return True
    return False


def pairwise_map_verdict(pm: PartialMap) -> MapVerdict:
    """check_map by definition: every source distance against its image
    distance, pair by pair in canonical order."""
    all_equal = True
    for (si, ti), (sj, tj) in combinations(pm.pairs, 2):
        ds, dt = distance(si, sj), distance(ti, tj)
        if not dt <= ds:
            return MapVerdict("violation", witness=(si, sj))
        all_equal = all_equal and dt == ds
    return MapVerdict("isometric" if all_equal else "contractive")


def pairwise_orthogonal_complement(inner: FiniteSpace, ambient: FiniteSpace) -> FiniteSpace:
    """orthogonal_complement by definition: the points y of ``ambient`` with
    ``d(x, y) == |x| | |y|`` for every x of ``inner``, pair by pair."""
    bp = ambient.require_basepoint()
    norms = {p: distance(p, bp) for p in ambient}
    kept = [y for y in ambient
            if all(distance(x, y) == norms[x] | norms[y] for x in inner)]
    return FiniteSpace(kept, basepoint=bp)


def enumerated_alpha_profile(points: list[Point]) -> AlphaProfile:
    """The alpha profile by definition: ``alpha_k`` is the join over all
    (k+1)-subsets of the meet of their pairwise distances.  Families of
    more than 20 distinct points are refused."""
    pts = sorted(set(points), key=Point.sort_key)
    if len(pts) > 20:
        raise CapExceededError(f"direct profile enumeration over {len(pts)} points refused")
    alg = pts[0].algebra
    dist = {pair: distance(*pair) for pair in combinations(pts, 2)}
    values = []
    for k in range(1, len(pts)):
        value = sup_family((inf_family((dist[pair] for pair in combinations(subset, 2)), alg)
                            for subset in combinations(pts, k + 1)), alg)
        if value.is_zero:
            break
        values.append(value)
    return AlphaProfile(alg, tuple(values))


def brute_force_isometry(left: FiniteSpace, right: FiniteSpace,
                         cap: int = 12) -> PartialMap | None:
    """Exhaustive search for an isometry between small finite spaces.

    Independent of the profile machinery; used as an oracle against
    :func:`decide_isometric`.  Returns the first isometry in canonical
    backtracking order, or None.  Spaces larger than ``cap`` are refused.
    """
    if left.algebra != right.algebra:
        raise StructureError("isometry search needs a common algebra")
    if max(len(left), len(right)) > cap:
        raise CapExceededError(f"brute force beyond {cap} points refused")
    if len(left) != len(right):
        return None
    xs = list(left.points)
    ys = list(right.points)

    def row(points, p):
        return sorted(distance(p, q).sort_key() for q in points if q is not p)

    rows_l = {p: row(xs, p) for p in xs}
    rows_r = {q: row(ys, q) for q in ys}
    if sorted(map(tuple, rows_l.values())) != sorted(map(tuple, rows_r.values())):
        return None

    assigned: list[Point] = []
    used = [False] * len(ys)

    def extend(i: int) -> bool:
        if i == len(xs):
            return True
        x = xs[i]
        for j, y in enumerate(ys):
            if used[j] or rows_l[x] != rows_r[y]:
                continue
            if all(distance(x, xs[t]) == distance(y, assigned[t]) for t in range(i)):
                assigned.append(y)
                used[j] = True
                if extend(i + 1):
                    return True
                assigned.pop()
                used[j] = False
        return False

    if not extend(0):
        return None
    return PartialMap(tuple(zip(xs, assigned)))


def witt_cube_solutions(inst: WittInstance, cap: int = 65536) -> list[tuple[Element, ...]]:
    """All decreasing tuples satisfying the system, by exhaustive search.

    Independent of the closed form; used to certify uniqueness on small
    instances.  Enumerates one generator count per atom, i.e. every
    monotone tuple, (d+1) ** atoms in total.
    """
    alg = inst.algebra
    _require_atomic(alg, "the cube search")
    d = inst.length
    k = alg.atom_count
    if (d + 1) ** k > cap:
        raise CapExceededError(f"cube search over {(d + 1) ** k} tuples refused")
    out = []
    for counts in product(range(d + 1), repeat=k):
        masks = [0] * (d + 1)
        for t, c in enumerate(counts):
            for i in range(1, c + 1):
                masks[i] |= 1 << t
        candidate = tuple(alg._make(masks[i]) for i in range(1, d + 1))
        if witt_first_failure(inst, candidate) is None:
            out.append(candidate)
    return out


def enumerate_contractive_extensions(pm: PartialMap, domain: list[Point],
                                     targets: list[Point]) -> list[dict]:
    """All contractive maps domain -> targets extending the given pairs,
    found by backtracking.  Independent of the closed-form extension."""
    fixed = dict(pm.pairs)
    missing = [p for p in domain if p not in fixed]
    solutions: list[dict] = []
    assigned = dict(fixed)

    def consistent(x: Point, y: Point) -> bool:
        return all(distance(y, w) <= distance(x, z) for z, w in assigned.items())

    def walk(i: int):
        if i == len(missing):
            solutions.append(dict(assigned))
            return
        x = missing[i]
        for y in targets:
            if consistent(x, y):
                assigned[x] = y
                walk(i + 1)
                del assigned[x]

    walk(0)
    return solutions


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


@_suite("sum-law")
def run_sum_law(res: SuiteResult, cfg: RunConfig):
    """Profile of a space against profiles of a convex subspace and its
    orthogonal complement: alpha_n(X) must equal the join over i of
    alpha_i(U) & alpha_(n-i) of the complement, exactly, at every level."""
    rng = random.Random(cfg.seed)
    for idx in range(cfg.instances):
        res.total += 1
        k = rng.randint(1, min(3, cfg.atoms))
        n = rng.randint(1, min(3, cfg.dim))
        alg = atomic_algebra(k)
        ambient = random_pointed_hull(rng, alg, n, max_generators=5)
        inner = random_convex_subspace(rng, ambient)
        comp = orthogonal_complement(inner, ambient)
        if comp.points != pairwise_orthogonal_complement(inner, ambient).points:
            res.fail(f"instance {idx}: complement differs from the pairwise oracle")
            continue
        pa = alpha_profile(ambient)
        pu = alpha_profile(inner)
        pc = alpha_profile(comp)
        for level in range(1, pa.rank + 2):
            rhs = sup_family((pu.alpha(i) & pc.alpha(level - i)
                              for i in range(level + 1)), alg)
            if pa.alpha(level) != rhs:
                res.fail(f"instance {idx}: level {level}: "
                         f"{pa.alpha(level).literal} != {rhs.literal}")
                break


@_suite("isometry-oracle")
def run_isometry_oracle(res: SuiteResult, cfg: RunConfig):
    """decide_isometric against exhaustive isometry search on small pairs."""
    rng = random.Random(cfg.seed)
    for idx in range(cfg.instances):
        res.total += 1
        k = rng.randint(1, min(3, cfg.atoms))
        n = rng.randint(1, 2)
        alg = atomic_algebra(k)
        left = random_hull(rng, alg, n, max_generators=3, max_size=12)
        if rng.random() < 0.5:
            extra = [random_point(rng, alg, n) for _ in range(rng.randint(0, 2))]
            ambient = conv_hull(list(left.points) + extra)
            twist = random_self_isometry(rng, ambient)
            right = conv_hull([twist(p) for p in left])
            if len(right) != len(left):
                res.fail(f"instance {idx}: isometric image changed size")
                continue
        else:
            right = random_hull(rng, alg, n, max_generators=3, max_size=12)
        squeeze = PartialMap(tuple((p, right.points[i * len(right) // len(left)])
                                   for i, p in enumerate(left.points)))
        if (check_map(squeeze) != pairwise_map_verdict(squeeze)
                or any(alpha_profile(sp) != enumerated_alpha_profile(sp.points)
                       for sp in (left, right))):
            res.fail(f"instance {idx}: a closed form differs from its oracle")
            continue
        decided = decide_isometric(left, right)
        found = brute_force_isometry(left, right)
        if decided != (found is not None):
            res.fail(f"instance {idx}: criterion says {decided}, "
                     f"search says {found is not None}")
            continue
        if found is not None and check_map(found).kind != "isometric":
            res.fail(f"instance {idx}: search returned a non-isometry")


@_suite("witt")
def run_witt(res: SuiteResult, cfg: RunConfig):
    """The profile cancellation solver on instances built from real
    subspace/complement pairs, with exhaustive uniqueness checks on the
    small ones."""
    rng = random.Random(cfg.seed)
    cube_checked = 0
    for idx in range(cfg.instances):
        res.total += 1
        k = rng.randint(1, 2) if idx % 2 == 0 else rng.randint(1, min(3, cfg.atoms))
        n = rng.randint(1, min(3, cfg.dim))
        alg = atomic_algebra(k)
        ambient = random_pointed_hull(rng, alg, n, max_generators=4)
        inner = random_convex_subspace(rng, ambient)
        comp = orthogonal_complement(inner, ambient)
        outer_profile = alpha_profile(ambient)
        inst = WittInstance(alpha_profile(inner), outer_profile,
                            length=outer_profile.rank)
        try:
            inst.validate()
            solved = witt_solve(inst)
        except BoolmetricError as exc:
            res.fail(f"instance {idx}: solver refused a real instance: {exc}")
            continue
        if solved != alpha_profile(comp):
            res.fail(f"instance {idx}: solution differs from the complement profile")
            continue
        if k <= 2 and inst.length <= 3:
            cube_checked += 1
            expected = _profile_tuple(solved, inst.length)
            sols = witt_cube_solutions(inst)
            if sols != [expected]:
                res.fail(f"instance {idx}: cube search found {len(sols)} solutions")
    res.info["cube_checked"] = cube_checked


@_suite("uniqueness-battery")
def run_uniqueness_battery(res: SuiteResult, cfg: RunConfig):
    """Exhaustive hypothesis check for the at-most-one-zero lemma: for
    every valid profile pair the staircase images pairwise join to 1, the
    last image has its closed form, and small systems have exactly one
    solution on the cube."""
    certified = 0
    for k in range(1, min(3, cfg.atoms) + 1):
        alg = atomic_algebra(k)
        one = alg.one
        for d in range(1, 5):
            atom_choices = [(p, q) for q in range(d + 1) for p in range(q + 1)]
            for combo in product(atom_choices, repeat=k):
                res.total += 1
                inner = AlphaProfile.from_counts(alg, {t: c[0] for t, c in enumerate(combo)})
                outer = AlphaProfile.from_counts(alg, {t: c[1] for t, c in enumerate(combo)})
                inst = WittInstance(inner, outer, length=d)
                images = corner_images(inst)
                bad = next((f"{i},{j}" for i, j in combinations(range(len(images)), 2)
                            if images[i] | images[j] != one), None)
                if bad is not None:
                    res.fail(f"k={k} d={d} combo={combo}: images {bad} do not join to 1")
                    continue
                closed_form = ~outer.alpha(d) | inner.alpha(1)
                if images[d] != closed_form:
                    res.fail(f"k={k} d={d} combo={combo}: last image "
                             f"{images[d].literal} != {closed_form.literal}")
                    continue
                if k <= 2 and d <= 3:
                    report = uniqueness_certify(cube_generators(alg, d),
                                                witt_residual(inst))
                    if not report.hypotheses_ok or len(report.zeros) != 1:
                        res.fail(f"k={k} d={d} combo={combo}: certification failed")
                    else:
                        certified += 1
    res.info["certified_unique"] = certified


def _extension_suite(res: SuiteResult, cfg: RunConfig, self_map, extend, checks):
    """The extension suites: restrict a certified random self-map of a
    random hull to a random subset, extend it, and run ``checks``, pairs of
    a failure message and a test of ``(extension, ambient)``, up to the
    first failure; last, the extension must restrict to the input."""
    rng = random.Random(cfg.seed)
    for idx in range(cfg.instances):
        res.total += 1
        k = rng.randint(1, min(3, cfg.atoms))
        n = rng.randint(1, min(3, cfg.dim))
        ambient = random_hull(rng, atomic_algebra(k), n, max_generators=4)
        certified = self_map(rng, ambient)
        size = rng.randint(1, min(6, len(ambient)))
        pm = PartialMap(tuple((u, certified(u)) for u in rng.sample(ambient.points, size)))
        try:
            out = extend(pm, ambient)
        except BoolmetricError as exc:
            res.fail(f"instance {idx}: extension failed: {exc}")
            continue
        failed = next((message for message, bad in checks if bad(out, ambient)), None)
        if failed is None and any(out(s) != t for s, t in pm.pairs):
            failed = "extension does not restrict to the input"
        if failed is not None:
            res.fail(f"instance {idx}: {failed}")


@_suite("extend-isometry")
def run_extend_isometry(res: SuiteResult, cfg: RunConfig):
    """Full pipeline: restrict a certified random self-isometry to a random
    subset, extend, and check the result is a self-isometry extending it."""
    _extension_suite(res, cfg, random_self_isometry, extend_isometry, [
        ("extension is not a self-bijection", lambda out, ambient: len(out) != len(ambient)
         or set(out.targets) != set(ambient.points)),
        ("extension is not isometric",
         lambda out, _: check_map(PartialMap(out.pairs)).kind != "isometric")])


@_suite("extend-contraction")
def run_extend_contraction(res: SuiteResult, cfg: RunConfig):
    """Same shape as extend-isometry, for contractions."""
    _extension_suite(res, cfg, random_contractive_self_map, extend_contraction, [
        ("extension is not total", lambda out, ambient: len(out) != len(ambient)),
        ("extension is not contractive",
         lambda out, _: check_map(PartialMap(out.pairs)).kind == "violation"),
        ("extension leaves the space",
         lambda out, ambient: any(t not in ambient for _, t in out.pairs))])


@_suite("conv-uniqueness")
def run_conv_uniqueness(res: SuiteResult, cfg: RunConfig):
    """The hull extension against exhaustive enumeration of all contractive
    extensions: there must be exactly one and it must match pointwise."""
    rng = random.Random(cfg.seed)
    for idx in range(cfg.instances):
        res.total += 1
        k = rng.randint(1, 2)
        n = rng.randint(1, 2)
        alg = atomic_algebra(k)
        pool = random_hull(rng, alg, n, max_generators=3, max_size=12)
        while len(pool) < 2:
            pool = random_hull(rng, alg, n, max_generators=3, max_size=12)
        squash = random_contractive_self_map(rng, pool)
        while True:
            size = rng.randint(2, min(3, len(pool)))
            subset = rng.sample(pool.points, size)
            if len(conv_hull(subset)) <= 8:
                break
        pm = PartialMap(tuple((u, squash(u)) for u in subset))
        try:
            out = conv_extend(pm)
        except BoolmetricError as exc:
            res.fail(f"instance {idx}: extension failed: {exc}")
            continue
        domain = list(conv_hull(subset).points)
        found = enumerate_contractive_extensions(pm, domain, list(pool.points))
        if len(found) != 1:
            res.fail(f"instance {idx}: search found {len(found)} contractive extensions")
            continue
        if found[0] != dict(out.pairs):
            res.fail(f"instance {idx}: search disagrees with the closed form")


@_suite("counterexamples")
def run_counterexamples(res: SuiteResult, cfg: RunConfig):
    """Every bounded candidate is refuted by a verified finite witness, for
    both obstruction constructions over the evens, and the plane merge map
    preserves distances on sampled pairs.  Sweeps beyond ``cfg.max_points``
    candidates are refused."""
    _require_candidates_within(cfg.max_support, cfg.max_points)
    desc = IdealDescriptor.evens()
    alg = fincof_algebra()
    for which, failure in (("contraction", "contraction candidate {}: unverified witness"),
                           ("two-dim", "plane candidate ({}, ~): unverified witness")):
        for mask, found in _sweep(which, cfg.max_support, desc):
            for cofinite, (_, _, lhs, rhs) in enumerate(found):
                res.total += 1
                if not _violated(lhs, rhs):
                    res.fail(failure.format(fc_literal((cofinite, mask))))
    # Candidates hitting the overlap branch: both coordinates cofinite.
    non_members = [n for n in range(8) if not desc.member(n)][:4]
    members = [n for n in range(9) if desc.member(n)][:4]
    for c_bits in range(1 << len(non_members)):
        for d_bits in range(1 << len(members)):
            res.total += 1
            a = alg.cof({n for i, n in enumerate(non_members) if c_bits >> i & 1})
            b = alg.cof({n for i, n in enumerate(members) if d_bits >> i & 1})
            w = isometry_obstruction_witness((a, b), desc)
            if not (w.verified and w.kind == "overlap"):
                res.fail(f"overlap candidate ({a.literal}, {b.literal}): "
                         f"kind {w.kind} unverified")
    # The merge map is distance preserving where defined.
    rng = random.Random(cfg.seed)
    pool = list(range(cfg.max_support + 1))
    most = min(4, len(pool))  # below max_support 3 the pool is smaller
    for _ in range(50):
        res.total += 1
        pts = []
        for _ in range(2):
            xs = {n for n in rng.sample(pool, rng.randint(0, most)) if desc.member(n)}
            ys = {n for n in rng.sample(pool, rng.randint(0, most)) if not desc.member(n)}
            pts.append(Point((alg.fin(xs), alg.fin(ys))))
        merged = [flatten_pair(p) for p in pts]
        if distance(merged[0], merged[1]) != distance(pts[0], pts[1]):
            res.fail(f"merge map moved the distance of {pts[0].literal} / {pts[1].literal}")
            continue
        if any(unflatten_line_point(desc, m) != p for m, p in zip(merged, pts)):
            res.fail("merge map round trip failed")


@_suite("line-extension")
def run_line_extension(res: SuiteResult, cfg: RunConfig):
    """Translations recovered from sampled distance-preserving line maps,
    over both algebras."""
    rng = random.Random(cfg.seed)

    def random_fincof(alg):
        support = set(rng.sample(range(12), rng.randint(0, 4)))
        return alg.cof(support) if rng.random() < 0.5 else alg.fin(support)

    for idx in range(cfg.instances):
        res.total += 1
        if idx % 2 == 0:
            alg = atomic_algebra(rng.randint(1, 4))
            offset = random_element(rng, alg)
            pool = list(alg.elements())
            domain = rng.sample(pool, rng.randint(2, min(6, len(pool))))
        else:
            alg = fincof_algebra()
            offset = random_fincof(alg)
            domain = []
            while len(domain) < rng.randint(3, 6):
                e = random_fincof(alg)
                if e not in domain:
                    domain.append(e)
        pm = PartialMap(tuple((Point((x,)), Point((x ^ offset,))) for x in domain))
        try:
            ext = line_extension(pm)
        except BoolmetricError as exc:
            res.fail(f"instance {idx}: rejected a translation: {exc}")
            continue
        if ext.offset != offset:
            res.fail(f"instance {idx}: recovered the wrong offset")
            continue
        if alg.kind == FINITE_ATOMIC:
            full = ext.full_map()
            if check_map(full).kind != "isometric":
                res.fail(f"instance {idx}: full translation is not isometric")
                continue
            if any(full(s) != t for s, t in pm.pairs):
                res.fail(f"instance {idx}: full translation does not extend the input")
        else:
            sample = [Point((random_fincof(alg),)) for _ in range(4)] + list(pm.sources)
            if check_map(ext.as_pairs(sample)).kind != "isometric":
                res.fail(f"instance {idx}: translation moved a distance")
            elif any(ext(s) != t for s, t in pm.pairs):
                res.fail(f"instance {idx}: translation does not extend the input")


@_suite("structural")
def run_structural(res: SuiteResult, cfg: RunConfig):
    """Exhaustive small-scale law checks: lattice laws, triangle
    inequality, hull idempotence, generator invariance, hull membership
    against coefficient search, base conditions, complement convexity."""

    # Lattice laws, finite atomic, up to 4 atoms.
    for k in range(1, 5):
        alg = atomic_algebra(k)
        elems = list(alg.elements())
        for a, b in product(elems, repeat=2):
            res.total += 1
            if (~(a | b) != (~a & ~b) or ~(a & b) != (~a | ~b)
                    or (a & (a | b)) != a or (a | (a & b)) != a
                    or (a ^ b) != ((a - b) | (b - a))):
                res.fail(f"k={k}: lattice law broke on {a.literal}, {b.literal}")
        for a, b, c in product(elems, repeat=3):
            res.total += 1
            if ((a & b) & c != a & (b & c) or (a | b) | c != a | (b | c)
                    or a & (b | c) != (a & b) | (a & c)):
                res.fail(f"k={k}: associativity/distributivity broke")
    # Distributivity over finite families, up to 3 atoms.
    for k in range(1, 4):
        alg = atomic_algebra(k)
        elems = list(alg.elements())
        for x in elems:
            for size in range(0, 3):
                for family in combinations(elems, size):
                    res.total += 1
                    lhs = x & sup_family(family, alg)
                    rhs = sup_family((x & y for y in family), alg)
                    if lhs != rhs:
                        res.fail(f"k={k}: family distributivity broke at {x.literal}")
    # Lattice laws in the finite-cofinite algebra on bounded supports.
    falg = fincof_algebra()
    fincof_elems = [falg.fin(s) for s in _subsets(range(3))] + \
                   [falg.cof(s) for s in _subsets(range(3))]
    for a, b in product(fincof_elems, repeat=2):
        res.total += 1
        if (~(a | b) != (~a & ~b) or ~(a & b) != (~a | ~b)
                or ~~a != a or (a ^ b) != ((a - b) | (b - a))
                or (a & (a | b)) != a):
            res.fail(f"fincof law broke on {a.literal}, {b.literal}")

    # Triangle inequality on full product spaces.
    for k, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        alg = atomic_algebra(k)
        pts = [Point(c) for c in product(alg.elements(), repeat=n)]
        for x, y, z in combinations(pts, 3):
            res.total += 1
            if not distance(x, z) <= distance(x, y) | distance(y, z):
                res.fail(f"triangle broke at k={k} n={n}")
        for x in pts:
            res.total += 1
            if not distance(x, x).is_zero:
                res.fail("self distance is nonzero")

    # Hull idempotence, generator invariance, membership oracle, bases:
    # every nonempty subset of the one-coordinate space, up to 3 atoms.
    rng = random.Random(cfg.seed)
    families: list[list[Point]] = []
    for k in range(1, 4):
        alg = atomic_algebra(k)
        line = [Point((e,)) for e in alg.elements()]
        for size in range(1, len(line) + 1):
            families.extend(list(s) for s in combinations(line, size))
    alg2 = atomic_algebra(2)
    plane = [Point(c) for c in product(alg2.elements(), repeat=2)]
    for size in (1, 2):
        families.extend(list(s) for s in combinations(plane, size))
    for _ in range(40):
        families.append(rng.sample(plane, 3))
    for gens in families:
        res.total += 1
        hull = conv_hull(gens)
        again = conv_hull(hull.points)
        if set(again.points) != set(hull.points):
            res.fail("hull is not idempotent")
            continue
        if alpha_profile_of_points(gens) != alpha_profile_of_points(hull.points):
            res.fail("profile changed between generators and hull")
            continue
        halving = PartialMap(tuple((p, hull.points[i // 2])
                                   for i, p in enumerate(hull.points)))
        if (alpha_profile_of_points(gens) != enumerated_alpha_profile(hull.points)
                or check_map(halving) != pairwise_map_verdict(halving)):
            res.fail("a closed form differs from its oracle")
            continue
        base = build_base(hull.with_basepoint(hull.points[0]))
        bp = hull.points[0]
        regenerated = conv_hull([bp] + list(base.points))
        cond = (set(regenerated.points) == set(hull.points)
                and all(is_orthogonal(a, b, bp)
                        for a, b in combinations(base.points, 2)))
        profile = alpha_profile_of_points(hull.points)
        cond = cond and all(distance(x, bp) == profile.alpha(i) and not distance(x, bp).is_zero
                            for i, x in enumerate(base.points, start=1))
        if not cond:
            res.fail("base conditions failed")
    # Membership against exhaustive coefficient search (<= 3 atoms, <= 4 gens).
    checked = 0
    for gens in families:
        if len(gens) > 4 or checked >= 60:
            continue
        checked += 1
        alg = gens[0].algebra
        n = gens[0].dim
        for _ in range(4):
            candidate = random_point(rng, alg, n)
            res.total += 1
            if (candidate in conv_hull(gens)) != exhaustive_hull_membership(candidate, gens):
                res.fail(f"membership predicate disagrees at {candidate.literal}")
    # Orthogonal complements of convex subspaces are convex.
    for _ in range(20):
        k = rng.randint(1, 2)
        alg = atomic_algebra(k)
        ambient = random_pointed_hull(rng, alg, rng.randint(1, 2), max_generators=3)
        inner = random_convex_subspace(rng, ambient, max_generators=2)
        comp = orthogonal_complement(inner, ambient)
        res.total += 1
        if comp.points != pairwise_orthogonal_complement(inner, ambient).points:
            res.fail("complement differs from the pairwise oracle")
            continue
        combos = product(range(len(comp.points)), repeat=alg.atom_count)
        closed = all(convex_combine(ConvexCoefficients(c), list(comp.points)) in comp
                     for c in combos)
        if not closed:
            res.fail("complement is not closed under convex combinations")
    # Staircase decomposition round trip on all monotone tuples (k=2, d=3).
    alg = atomic_algebra(2)
    gens = cube_generators(alg, 3)
    cube = conv_hull(gens)
    for p in cube:
        res.total += 1
        back = convex_combine(monotone_decompose(p), gens)
        if back != p:
            res.fail(f"staircase round trip failed at {p.literal}")


def _subsets(values) -> list[frozenset[int]]:
    vals = list(values)
    return [frozenset(c) for size in range(len(vals) + 1)
            for c in combinations(vals, size)]


def run_suite(name: str, cfg: RunConfig) -> SuiteResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise BoolmetricError(f"unknown suite {name!r}; choose from "
                              + ", ".join(sorted(SUITES))) from None
    return fn(cfg)
