"""Constructive extension of isometries and contractions.

The central results implemented here, all with post-verified constructions:

* ``conv_extend``: a contractive map defined on a finite set has exactly one
  contractive extension to the convex hull of its domain, given in closed
  form by ``G(x) = join over u of (f(u) minus d(u, x))`` coordinatewise.
  The extension of an isometry is an isometry onto the hull of the image.

* ``orthogonal_join``: a pointed convex subspace U and its orthogonal
  complement generate the whole space, so two pointed contractions defined
  on U and on the complement merge into a single map by decomposing each
  point over the union and pushing the coefficients through.

* ``witt_solve``: given the profiles of a space and of a convex subspace,
  the profile of the orthogonal complement is the unique decreasing
  solution of a triangular system of join equations; the solver uses an
  atom-wise closed form plus an exhaustive cube search fallback, and the
  two must agree.

* ``extend_isometry`` / ``extend_contraction``: any isometry (contraction)
  between finite subsets of a convex space extends to a self-isometry
  (self-contraction) of the whole space, built from the pieces above.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

from .algebra import Algebra, Element
from .errors import (CapExceededError, InfeasibleError, NotInHullError,
                     StructureError, VerificationError)
from .invariants import AlphaProfile, construct_isometry, homogeneity_isometry
from .spaces import (DEFAULT_MAX_HULL_POINTS, ConvexCoefficients, FiniteSpace,
                     PartialMap, Point, _atom_patterns, _require_atomic,
                     check_map, conv_hull, convex_combine, decompose, distance,
                     identity_map, orthogonal_complement)

# ---------------------------------------------------------------------------
# The monotone cube: decreasing tuples and their canonical generators.
# ---------------------------------------------------------------------------


def cube_generators(algebra: Algebra, length: int) -> list[Point]:
    """The length+1 staircase points (0,..,0), (1,0,..,0), ..., (1,..,1).

    They are pairwise at distance 1 and generate exactly the decreasing
    tuples of the given length.
    """
    if length < 1:
        raise StructureError("the cube needs length at least 1")
    one, zero = algebra.one, algebra.zero
    return [Point([one] * j + [zero] * (length - j)) for j in range(length + 1)]


def monotone_cube(algebra: Algebra, length: int,
                  max_points: int = DEFAULT_MAX_HULL_POINTS) -> FiniteSpace:
    """The space of all decreasing tuples, materialized as a hull."""
    gens = cube_generators(algebra, length)
    return conv_hull(gens, basepoint=gens[0], max_points=max_points)


def is_monotone(p: Point) -> bool:
    return all(later <= earlier for earlier, later in zip(p.coords, p.coords[1:]))


def monotone_decompose(c: Point) -> ConvexCoefficients:
    """Canonical coefficients of a decreasing tuple over the staircase.

    On each atom the selected generator index is the number of coordinates
    containing that atom; in element form the coefficient of the j-th
    generator is ``c_j minus c_{j+1}`` (with ``not c_1`` on the zero
    generator and ``c_length`` on the top one).
    """
    if not is_monotone(c):
        raise StructureError("monotone decomposition needs a decreasing tuple")
    _require_atomic(c.algebra, "monotone decomposition")
    _, table = _atom_patterns([c])
    return ConvexCoefficients(tuple(row[0].bit_count() for row in table))


# ---------------------------------------------------------------------------
# The subspace-complement profile system.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WittInstance:
    """Profiles ``inner`` (of a convex subspace) and ``outer`` (of the
    ambient space) together with the system length ``d``.

    The system asks for a decreasing tuple x_1 >= ... >= x_d with

        join(i = 0..n) of inner_(n-i) & x_i  ==  outer_n   for n = 1..d+1,

    where x_0 = 1, x_{d+1} = 0 and profile values beyond the rank are 0.
    """

    inner: AlphaProfile
    outer: AlphaProfile
    length: int

    def __post_init__(self):
        if self.inner.algebra != self.outer.algebra:
            raise StructureError("both profiles must live in one algebra")
        if self.length < 0:
            raise StructureError("the system length must be a natural")
        if self.outer.rank > self.length:
            raise StructureError("the outer profile must vanish beyond the length")

    @property
    def algebra(self) -> Algebra:
        return self.inner.algebra

    def validate(self):
        """Check the instance invariant inner_i <= outer_i for all i."""
        for i in range(1, self.length + 2):
            if not self.inner.alpha(i) <= self.outer.alpha(i):
                raise StructureError(f"inner profile exceeds the outer one at index {i}")


def _profile_tuple(profile: AlphaProfile, length: int) -> tuple[Element, ...]:
    return tuple(profile.alpha(i) for i in range(1, length + 1))


def witt_level(inst: WittInstance, solution: Sequence[Element], n: int) -> Element:
    """Left-hand side of the n-th equation for a candidate tuple."""
    alg = inst.algebra
    x = (alg.one,) + tuple(solution) + (alg.zero,)
    acc = alg.zero
    for i in range(0, n + 1):
        if i < len(x):
            acc = acc | (inst.inner.alpha(n - i) & x[i])
    return acc


def witt_first_failure(inst: WittInstance, solution: Sequence[Element]) -> int | None:
    """Index of the first violated equation, or None if all hold."""
    for n in range(1, inst.length + 2):
        if witt_level(inst, solution, n) != inst.outer.alpha(n):
            return n
    return None


def witt_solve(inst: WittInstance) -> AlphaProfile:
    """Solve the system by the atom-wise closed form and verify it.

    On each atom, let p and q be the largest indices whose inner and outer
    profile values contain the atom (their monotone decompositions); the
    unique solution puts the atom into x_1, ..., x_{q-p}.  The candidate is
    substituted back into every equation; a failure (possible exactly when
    the inner profile is not below the outer one) raises with the failing
    equation index.
    """
    alg = inst.algebra
    _require_atomic(alg, "the profile cancellation solver")
    d = inst.length
    inner = monotone_decompose(Point(_profile_tuple(inst.inner, d + 1))).assignment
    outer = monotone_decompose(Point(_profile_tuple(inst.outer, d + 1))).assignment
    solution = AlphaProfile.from_counts(
        alg, {t: min(max(q - p, 0), d) for t, (p, q) in enumerate(zip(inner, outer))})
    failing = witt_first_failure(inst, _profile_tuple(solution, d))
    if failing is not None:
        raise InfeasibleError(
            f"the profile system has no solution: equation {failing} fails",
            witness=failing)
    return solution


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


def witt_residual(inst: WittInstance) -> Callable[[Point], Element]:
    """The scalar map whose zeros on the monotone cube are exactly the
    solutions of the system: the join over n of
    ``outer_n xor (join(i = 0..n) inner_(n-i) & x_i)``."""

    def residual(p: Point) -> Element:
        if p.dim != inst.length:
            raise StructureError("the residual expects tuples of the system length")
        acc = inst.algebra.zero
        for n in range(1, inst.length + 2):
            acc = acc | (inst.outer.alpha(n) ^ witt_level(inst, p.coords, n))
        return acc

    return residual


def corner_images(inst: WittInstance) -> list[Element]:
    """Residual values at the staircase generators y_0, ..., y_d."""
    f = witt_residual(inst)
    return [f(y) for y in cube_generators(inst.algebra, inst.length)]


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of certifying the at-most-one-zero property."""

    hypotheses_ok: bool
    failures: tuple[str, ...]
    zeros: tuple[Point, ...]

    @property
    def certified(self) -> bool:
        return self.hypotheses_ok and len(self.zeros) <= 1


def uniqueness_certify(generators: Sequence[Point], scalar: Callable[[Point], Element],
                       max_points: int = DEFAULT_MAX_HULL_POINTS) -> UniquenessReport:
    """Certify that a contractive scalar map has at most one zero on the
    hull of generators that are pairwise at distance 1 and whose images
    pairwise join to 1.

    All three hypotheses are checked (violations are reported, not
    silently ignored), then the hull is enumerated and the zeros counted.
    """
    gens = sorted(set(generators), key=Point.sort_key)
    if len(gens) < 2:
        raise StructureError("uniqueness certification needs at least two generators")
    alg = gens[0].algebra
    one = alg.one
    failures: list[str] = []
    for a, b in combinations(gens, 2):
        if distance(a, b) != one:
            failures.append(f"generators {a.literal} and {b.literal} are not at distance 1")
    values = {g: scalar(g) for g in gens}
    for a, b in combinations(gens, 2):
        if values[a] | values[b] != one:
            failures.append(f"images of {a.literal} and {b.literal} do not join to 1")
    hull = conv_hull(gens, max_points=max_points)
    all_values = {p: scalar(p) for p in hull}
    for a, b in combinations(hull.points, 2):
        if not (all_values[a] ^ all_values[b]) <= distance(a, b):
            failures.append(f"the map is not contractive on {a.literal}, {b.literal}")
            break
    zeros = tuple(p for p in hull if all_values[p].is_zero)
    return UniquenessReport(hypotheses_ok=not failures, failures=tuple(failures),
                            zeros=zeros)


# ---------------------------------------------------------------------------
# Extension to the hull of the domain.
# ---------------------------------------------------------------------------


def conv_extend(pm: PartialMap, target: FiniteSpace | None = None,
                max_points: int = DEFAULT_MAX_HULL_POINTS) -> PartialMap:
    """The unique contractive extension of a contractive map to the convex
    hull of its domain.

    Each coordinate of the extension is the join over domain points u of
    ``f(u) minus d(u, x)``.  The result is verified to extend the input, to
    be contractive, to take values inside the hull of the image, and to be
    an isometry onto that hull whenever the input is an isometry.
    """
    if not pm.pairs:
        raise StructureError("cannot extend an empty map over an empty hull")
    verdict = check_map(pm)
    if verdict.kind == "violation":
        raise InfeasibleError("the map is not contractive, no contractive extension exists",
                              witness=verdict.witness)
    hull = conv_hull(pm.sources, max_points=max_points)
    target_dim = pm.targets[0].dim
    alg = hull.algebra
    out_pairs = []
    for x in hull:
        dists = [distance(u, x) for u in pm.sources]
        coords = []
        for j in range(target_dim):
            acc = alg.zero
            for (u, v), du in zip(pm.pairs, dists):
                acc = acc | (v.coords[j] - du)
            coords.append(acc)
        out_pairs.append((x, Point(coords)))
    out = PartialMap(tuple(out_pairs), flag=verdict.kind)
    for s, t in pm.pairs:
        if out(s) != t:
            raise VerificationError("hull extension does not extend the input map")
    out_verdict = check_map(out)
    if out_verdict.kind == "violation":
        raise VerificationError("hull extension is not contractive")
    image_hull = conv_hull(pm.targets, max_points=max_points)
    for _, t in out.pairs:
        if t not in image_hull:
            raise VerificationError("hull extension leaves the hull of the image")
    if verdict.kind == "isometric":
        if out_verdict.kind != "isometric":
            raise VerificationError("extension of an isometry failed to be isometric")
        if set(out.targets) != set(image_hull.points):
            raise VerificationError("extension of an isometry is not onto the image hull")
    if target is not None:
        for _, t in out.pairs:
            if t not in target:
                raise VerificationError("hull extension leaves the requested target space")
    return out


# ---------------------------------------------------------------------------
# Joining a map on a subspace with a map on its orthogonal complement.
# ---------------------------------------------------------------------------


def orthogonal_join(f: PartialMap, g: PartialMap, ambient: FiniteSpace,
                    tie_break: str = "min") -> PartialMap:
    """Merge pointed contractions defined on a convex subspace and on its
    orthogonal complement into one map on the whole space.

    Every point of the ambient space is decomposed as a convex combination
    of the two domains together; the same coefficients are then applied to
    the image points.  Contractions preserve convex combinations, so the
    result is independent of the decomposition (the tie break only picks
    one); it is verified to extend both inputs, to be contractive, and to
    be isometric when both inputs are.
    """
    bp = ambient.require_basepoint()
    if not (f.defined_at(bp) and g.defined_at(bp)):
        raise StructureError("both maps must be defined at the basepoint")
    if f(bp) != g(bp):
        raise StructureError("the maps disagree at the basepoint")
    fv = check_map(f)
    gv = check_map(g)
    if not fv.ok:
        raise InfeasibleError("the subspace map is not contractive", witness=fv.witness)
    if not gv.ok:
        raise InfeasibleError("the complement map is not contractive", witness=gv.witness)
    gens = list(f.sources) + list(g.sources)
    targets = list(f.targets) + list(g.targets)
    pairs = []
    for z in ambient:
        try:
            coeffs = decompose(z, gens, tie_break=tie_break)
        except NotInHullError as exc:
            raise StructureError(
                "the two domains together must generate the space "
                f"(point {z.literal} is not decomposable)") from exc
        pairs.append((z, convex_combine(coeffs, targets)))
    out = PartialMap(tuple(pairs))
    for s, t in list(f.pairs) + list(g.pairs):
        if out(s) != t:
            raise VerificationError("orthogonal join does not extend its inputs")
    verdict = check_map(out)
    if verdict.kind == "violation":
        raise VerificationError("orthogonal join is not contractive")
    if fv.kind == "isometric" and gv.kind == "isometric" and verdict.kind != "isometric":
        raise VerificationError("orthogonal join of isometries is not isometric")
    return PartialMap(out.pairs, flag=verdict.kind)


# ---------------------------------------------------------------------------
# Full extension pipelines.
# ---------------------------------------------------------------------------


def _check_extension_input(pm: PartialMap, ambient: FiniteSpace):
    if not ambient.convex:
        raise StructureError("the ambient space must be convex")
    for s, t in pm.pairs:
        if s not in ambient or t not in ambient:
            raise StructureError("the map must send points of the space into the space")


def extend_isometry(pm: PartialMap, ambient: FiniteSpace,
                    max_points: int = DEFAULT_MAX_HULL_POINTS) -> PartialMap:
    """Extend an isometry between finite subsets of a convex space to a
    self-isometry of the whole space.

    Pipeline: extend to the hull of the domain; move the image of the
    chosen basepoint back onto it with a homogeneity swap; the domain hull
    and the image hull then share the basepoint, so their orthogonal
    complements have equal profiles and an isometry between them can be
    built by base transport; join the two maps and undo the swap.  The
    result is verified to be a self-isometry extending the input.
    """
    if not pm.pairs:
        return identity_map(ambient)
    _check_extension_input(pm, ambient)
    verdict = check_map(pm)
    if verdict.kind != "isometric":
        raise InfeasibleError("the input pairs do not preserve distances",
                              witness=verdict.witness)
    anchor = pm.pairs[0][0]
    hull_map = conv_extend(pm, max_points=max_points)
    moved_anchor = hull_map(anchor)
    swap = homogeneity_isometry(ambient, moved_anchor, anchor)
    side = PartialMap(tuple((s, swap(t)) for s, t in hull_map.pairs), flag="isometric")
    domain_hull = conv_hull(pm.sources, basepoint=anchor, max_points=max_points)
    image_hull = conv_hull(side.targets, basepoint=anchor, max_points=max_points)
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
    out = PartialMap(joined.then(swap.inverse()).pairs, flag="isometric")
    if check_map(out).kind != "isometric" or set(out.targets) != set(ambient.points):
        raise VerificationError("the assembled map is not a self-isometry")
    for s, t in pm.pairs:
        if out(s) != t:
            raise VerificationError("the assembled map does not extend the input")
    return out


def extend_contraction(pm: PartialMap, ambient: FiniteSpace,
                       max_points: int = DEFAULT_MAX_HULL_POINTS) -> PartialMap:
    """Extend a contraction between finite subsets of a convex space to a
    contraction of the whole space into itself.

    Pipeline: extend to the hull of the domain, then join with the map
    sending the hull's orthogonal complement constantly to the image of
    the basepoint.  The result is verified to be contractive and to extend
    the input; it need not be isometric even when the input is.
    """
    if not pm.pairs:
        return identity_map(ambient)
    _check_extension_input(pm, ambient)
    verdict = check_map(pm)
    if verdict.kind == "violation":
        raise InfeasibleError("the input pairs do not contract distances",
                              witness=verdict.witness)
    anchor = pm.pairs[0][0]
    hull_map = conv_extend(pm, max_points=max_points)
    domain_hull = conv_hull(pm.sources, basepoint=anchor, max_points=max_points)
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
