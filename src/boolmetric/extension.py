"""Constructive extension of isometries and contractions.

The central results implemented here, all with post-verified constructions:

* ``conv_extend``: a contractive map defined on a finite set has exactly one
  contractive extension to the convex hull of its domain, given in closed
  form by ``G(x) = join over u of (f(u) minus d(u, x))`` coordinatewise.
  The extension of an isometry is an isometry onto the hull of the image.

* ``orthogonal_join``: a pointed convex subspace U and its orthogonal
  complement generate the whole space, so two pointed contractions defined
  on U and on the complement merge into a single map that sends, on each
  atom, a point's pattern to the image pattern of a domain point showing
  it (a convex combination over the union with its coefficients pushed
  through).

* ``witt_solve``: given the profiles of a space and of a convex subspace,
  the profile of the orthogonal complement is the unique decreasing
  solution of a triangular system of join equations; the solver uses an
  atom-wise closed form, which the suites check against an exhaustive cube
  search (``suites.witt_cube_solutions``).

* ``extend_isometry`` / ``extend_contraction``: any isometry (contraction)
  between finite subsets of a convex space extends to a self-isometry
  (self-contraction) of the whole space, the stages above composed per atom.
  Both run through one frame (``spaces._extend``) that checks the ambient
  and the input, the empty input included, before building anything.

Every stage is atom-local: one pattern table (``spaces._transport``) gives
each atom's pattern relation, and one per-atom post-check
(``spaces._checked_map``) verifies every map built here to be contractive
or isometric as claimed, to extend its inputs and to stay inside (for
isometries: onto) its target space, which is convex and checked atom by
atom, whatever the space's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .algebra import Algebra, Element
from .errors import (InfeasibleError, NotInHullError, StructureError,
                     VerificationError)
from .invariants import AlphaProfile
from .spaces import (ConvexCoefficients, FiniteSpace, PartialMap, Point,
                     _atom_patterns, _checked_map, _extend, _generator_sequence,
                     _require_atomic, _transport, check_map, conv_hull, distance)

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


def uniqueness_certify(generators: Sequence[Point],
                       scalar: Callable[[Point], Element]) -> UniquenessReport:
    """Certify that a contractive scalar map has at most one zero on the
    hull of generators that are pairwise at distance 1 and whose images
    pairwise join to 1.

    All three hypotheses are checked (violations are reported, not
    silently ignored; contractivity on the hull by :func:`check_map` on the
    scalar as a one-coordinate map), then the hull's zeros are counted.
    """
    gens = sorted(set(_generator_sequence(generators, empty=None)), key=Point.sort_key)
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
    hull = conv_hull(gens)
    all_values = {p: scalar(p) for p in hull}
    verdict = check_map(PartialMap(tuple((p, Point((v,))) for p, v in all_values.items())))
    if not verdict.ok:
        a, b = verdict.witness
        failures.append(f"the map is not contractive on {a.literal}, {b.literal}")
    zeros = tuple(p for p in hull if all_values[p].is_zero)
    return UniquenessReport(hypotheses_ok=not failures, failures=tuple(failures),
                            zeros=zeros)


# ---------------------------------------------------------------------------
# Extension to the hull of the domain.
# ---------------------------------------------------------------------------


def conv_extend(pm: PartialMap) -> PartialMap:
    """The unique contractive extension of a contractive map to the convex
    hull of its domain.

    Each coordinate of the extension is the join over domain points u of
    ``f(u) minus d(u, x)``.  On an atom t, ``d(u, x)`` removes every u whose
    pattern differs from x's, so the join is the image pattern of the u
    with ``u_t = x_t``, which a contractive map makes the same for all of
    them: the extension is the transport of the hull through the map, its
    decomposition coefficients pushed onto the images.  The result is
    verified to extend the input, to be contractive, to take values inside
    the hull of the image, and to be an isometry onto that hull whenever
    the input is an isometry.
    """
    if not pm.pairs:
        raise StructureError("cannot extend an empty map over an empty hull")
    verdict = check_map(pm)
    if verdict.kind == "violation":
        raise InfeasibleError("the map is not contractive, no contractive extension exists",
                              witness=verdict.witness)
    hull = conv_hull(pm.sources)
    return _checked_map(hull, _transport(hull, pm.sources, pm.targets), pm.targets[0].dim,
                        inputs=(pm,), isometric=verdict.kind == "isometric",
                        within=conv_hull(pm.targets))


# ---------------------------------------------------------------------------
# Joining a map on a subspace with a map on its orthogonal complement.
# ---------------------------------------------------------------------------


def orthogonal_join(f: PartialMap, g: PartialMap, ambient: FiniteSpace) -> PartialMap:
    """Merge pointed contractions defined on a convex subspace and on its
    orthogonal complement into one map on the whole space.

    Every point of the ambient space is transported through the two domains
    together: on each atom its pattern goes to the image pattern of the
    first domain point showing it, which is its convex decomposition over
    the domains with the coefficients applied to the images.  Each input is
    contractive, so all its domain points showing one pattern share the
    image pattern; where f and g disagree on a pattern, no choice of
    domain point extends both, and their pairs together are refused as
    not contractive.  The result is verified to extend both inputs, to be
    contractive, and to be isometric when both inputs are.
    """
    bp = ambient.require_basepoint()
    if not (f.defined_at(bp) and g.defined_at(bp)):
        raise StructureError("both maps must be defined at the basepoint")
    if f(bp) != g(bp):
        raise StructureError("the maps disagree at the basepoint")
    if not ambient._holds(f.sources + g.sources):
        raise StructureError("both maps must be defined on points of the space")
    fv = check_map(f)
    gv = check_map(g)
    if not fv.ok:
        raise InfeasibleError("the subspace map is not contractive", witness=fv.witness)
    if not gv.ok:
        raise InfeasibleError("the complement map is not contractive", witness=gv.witness)
    try:
        relations = _transport(ambient, f.sources + g.sources, f.targets + g.targets)
    except NotInHullError as exc:
        raise StructureError(
            "the two domains together must generate the space "
            f"(point {exc.point.literal} is not decomposable)") from exc
    both = check_map(PartialMap(f.pairs + g.pairs))
    if not both.ok:
        raise InfeasibleError("the two maps clash: together they are not contractive",
                              witness=both.witness)
    return _checked_map(ambient, relations, f(bp).dim, inputs=(f, g),
                        isometric=fv.kind == gv.kind == "isometric")


# ---------------------------------------------------------------------------
# Full extension pipelines.
# ---------------------------------------------------------------------------


def _isometry_stages(a: int, f: dict, patterns: set) -> dict:
    swap = {f[a]: a, a: f[a]}
    side = {p: swap.get(q, q) for p, q in f.items()}
    left = [a] + sorted(patterns - f.keys())
    right = [a] + sorted(patterns - set(side.values()))
    if len(left) != len(right):
        raise VerificationError("complements of isometric subspaces must have equal profiles")
    joined = side | dict(zip(left, right))
    return {p: swap.get(q, q) for p, q in joined.items()}


def extend_isometry(pm: PartialMap, ambient: FiniteSpace) -> PartialMap:
    """Extend an isometry between finite subsets of a convex space to a
    self-isometry of the whole space.

    The stages run on each atom as maps between patterns.  With ``a`` the
    anchor's pattern and ``f`` the input's pattern map: the hull extension
    is ``f`` on the domain hull's patterns D; the homogeneity swap ``s``
    transposes ``f(a)`` and ``a``, so ``side = s . f`` fixes ``a``; the
    orthogonal complements list ``a`` and then the patterns outside D
    (outside ``side(D)``) in ascending order, as ``build_base`` does, and
    must be equally long; base transport matches them index by index; the
    join of ``side`` and the transport is composed with ``s`` to undo the
    swap.  The one resulting map (for an empty input, the identity) is
    verified to be a self-isometry extending the input.
    """
    return _extend(pm, ambient, _isometry_stages, isometric=True)


def extend_contraction(pm: PartialMap, ambient: FiniteSpace) -> PartialMap:
    """Extend a contraction between finite subsets of a convex space to a
    contraction of the whole space into itself.

    On each atom, the hull extension keeps the input's pattern map on the
    domain hull's patterns, and the join sends the orthogonal complement's
    patterns, all the others, to the anchor's image pattern.  The one
    resulting map (for an empty input, the identity) is verified to be
    contractive, to extend the input and to stay in the space; it need not
    be isometric even when the input is.
    """
    return _extend(pm, ambient, lambda a, f, patterns: dict.fromkeys(patterns, f[a]) | f,
                   isometric=False)
