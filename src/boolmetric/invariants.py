"""Isometry invariants of finite Boolean metric spaces.

The central invariant is the alpha profile: ``alpha_k`` is the largest
element below which ``k + 1`` points of the space stay pairwise far apart,
formally the join over all (k+1)-subsets of the meet of their pairwise
distances.  The sequence is decreasing, ``alpha_0 = 1`` by convention, and
for convex spaces the profile decides isometry: two convex spaces over the
same algebra are isometric exactly when their profiles agree, and an
isometry can be constructed by transporting bases, which on each atom
pairs the two spaces' patterns in base order.

In closed form, ``alpha_k`` is the join of the atoms on which the points
show more than ``k`` distinct patterns; the suites check it against the
subset enumeration ``suites.enumerated_alpha_profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .algebra import Algebra, Element
from .errors import InfeasibleError, StructureError, VerificationError
# check_map is not called here, but the bench's tracer expects this module to bind it.
from .spaces import (FiniteSpace, PartialMap, Point, _atom_patterns, _checked_map,
                     _code_points, _extend, _generator_sequence, _join_atoms,
                     _pattern_sets, _require_atomic, check_map, distance,
                     is_orthogonal)


@dataclass(frozen=True)
class AlphaProfile:
    """The nonzero alpha values of a space, indexed from 1.

    ``values[i - 1]`` is ``alpha_i``; the stored values are exactly the
    nonzero ones, so ``rank`` (the largest index with a nonzero value) is
    their count.  ``alpha(0)`` is 1 and indices beyond the rank give 0.
    """

    algebra: Algebra
    values: tuple[Element, ...]

    def __post_init__(self):
        prev = self.algebra.one
        for v in self.values:
            if v.is_zero:
                raise StructureError("profile values must be nonzero; trim trailing zeros")
            if not v <= prev:
                raise StructureError("profile values must be decreasing")
            prev = v

    @property
    def rank(self) -> int:
        return len(self.values)

    def alpha(self, k: int) -> Element:
        if k < 0:
            raise StructureError("alpha index must be a natural")
        if k == 0:
            return self.algebra.one
        if k <= len(self.values):
            return self.values[k - 1]
        return self.algebra.zero

    def lines(self) -> list[str]:
        return [f"alpha[{k}] = {self.values[k - 1].literal}"
                for k in range(1, len(self.values) + 1)]

    @classmethod
    def from_counts(cls, algebra: Algebra, counts: dict) -> "AlphaProfile":
        """The profile whose ``alpha_k`` joins the atoms ``a`` with
        ``counts[a] >= k``; ``counts`` covers all atoms, labelled as by
        ``spaces._atom_patterns`` (indices, for a finite atomic algebra)."""
        atoms, values = list(counts), list(counts.values())
        return cls(algebra, tuple(
            _join_atoms(algebra, atoms,
                        sum(1 << len(values) - 1 - t for t, c in enumerate(values) if c >= k))
            for k in range(1, max(values, default=0) + 1)))


def alpha_profile(source) -> AlphaProfile:
    """Profile of a space or a finite point family: ``alpha_k`` is the join
    of the atoms on which it shows more than ``k`` distinct patterns
    (checked against ``suites.enumerated_alpha_profile``).  A generator set
    has the profile of its hull, and a space reads the counts off its
    per-atom pattern view, so a hull's profile costs its generators'
    patterns, whatever its size.
    """
    if isinstance(source, FiniteSpace):
        algebra, (atoms, patterns) = source.algebra, source._patterns
    else:
        pts = _generator_sequence(source)
        algebra, (atoms, patterns) = pts[0].algebra, _pattern_sets(pts)
    return AlphaProfile.from_counts(algebra, {a: len(pats) - 1
                                              for a, pats in zip(atoms, patterns)})


def alpha_profile_of_points(points: Sequence[Point]) -> AlphaProfile:
    """Profile of a finite point family, as :func:`alpha_profile` gives it."""
    return alpha_profile(points)


@dataclass(frozen=True)
class Base:
    """A base of a pointed convex space: pairwise orthogonal points with
    ``|x_i| = alpha_i > 0`` that generate the space together with the
    basepoint."""

    points: tuple[Point, ...]
    basepoint: Point

    @property
    def rank(self) -> int:
        return len(self.points)


def _base_order(space: FiniteSpace, bp: Point) -> list[list[int]]:
    """Per atom, the space's patterns: the basepoint's first, the others in
    ascending order."""
    _, at_bp = _atom_patterns([bp])
    return [[b] + [p for p in pats if p != b] for (b,), pats in zip(at_bp, space._patterns[1])]


def build_base(space: FiniteSpace) -> Base:
    """Construct and verify a base of a pointed convex space.

    Construction is atom by atom, from the space's per-atom pattern view
    and the basepoint's patterns, never from the space's points: on each
    atom, list the distinct patterns of the space with the basepoint's
    pattern first, the rest in ascending order; the i-th base point copies
    the i-th pattern where it exists and falls back to the basepoint's
    pattern elsewhere.  So a hull's base costs atoms times its generators'
    patterns, whatever its size.  The three defining conditions are
    re-checked before returning.
    """
    bp = space.require_basepoint()
    if not space.convex:
        raise StructureError("bases exist for convex spaces; materialize a hull first")
    alg = space.algebra
    _require_atomic(alg, "base construction")
    atoms, patterns = space._patterns
    per_atom = _base_order(space, bp)
    rank = max(len(pats) for pats in per_atom) - 1
    base_points = _code_points(alg, atoms, space.dim, [
        sum(pats[i] if i < len(pats) else pats[0] for pats in per_atom)
        for i in range(1, rank + 1)])

    # Condition: basepoint and base generate the space.  A convex space is
    # the product of its per-atom pattern sets, so it is the hull of
    # basepoint and base when these show the same pattern sets.
    _, generated = _atom_patterns([bp, *base_points])
    if [set(row) for row in generated] != [set(pats) for pats in patterns]:
        raise VerificationError("base construction failed: wrong hull")
    # Condition: pairwise orthogonality.
    for a, b in combinations(base_points, 2):
        if not is_orthogonal(a, b, bp):
            raise VerificationError("base construction failed: not orthogonal")
    # Condition: norms realize the profile, which also pins the rank.
    profile = alpha_profile_of_points([bp, *base_points])
    if profile.rank != rank:
        raise VerificationError("base construction failed: rank mismatch")
    for i, x in enumerate(base_points, start=1):
        nx = distance(x, bp)
        if nx != profile.alpha(i) or nx.is_zero:
            raise VerificationError("base construction failed: norm != alpha")
    return Base(base_points, bp)


def decide_isometric(left: FiniteSpace, right: FiniteSpace) -> bool:
    """Profile comparison, a complete isometry criterion for convex spaces
    over a common algebra."""
    if left.algebra != right.algebra:
        raise StructureError("isometry comparison needs a common algebra")
    if not (left.convex and right.convex):
        raise StructureError("the profile criterion applies to convex spaces")
    return alpha_profile(left) == alpha_profile(right)


def construct_isometry(left: FiniteSpace, right: FiniteSpace) -> PartialMap:
    """Build an isometry between convex spaces with equal profiles.

    With each space pointed at its basepoint (canonical-first when unset),
    every atom shows as many patterns in both, and the isometry pairs them
    in base order (the basepoint's first, the others ascending) index by
    index: the transport of the one base onto the other, built per atom
    without building either base.  The result is re-checked to be an
    isometry onto ``right`` sending basepoint to basepoint.
    """
    if not decide_isometric(left, right):
        raise InfeasibleError("spaces have different profiles, no isometry exists")
    _require_atomic(left.algebra, "base construction")
    bp_l = left.basepoint if left.basepoint is not None else left._first()
    bp_r = right.basepoint if right.basepoint is not None else right._first()
    relations = list(map(zip, _base_order(left, bp_l), _base_order(right, bp_r)))
    return _checked_map(left, relations, right.dim, inputs=(PartialMap(((bp_l, bp_r),)),),
                        isometric=True, within=right)


def homogeneity_isometry(space: FiniteSpace, a: Point, b: Point) -> PartialMap:
    """A self-isometry of a convex space swapping two of its points.

    The swap {a -> b, b -> a} runs through the frame of the extension
    pipelines; atom-wise the result transposes the patterns of a and b and
    fixes all others.  It is verified to be an isometry of the space onto
    itself that swaps a and b and is an involution.
    """
    pm = _extend(PartialMap(((a, b), (b, a))), space,
                 lambda _, f, patterns: {p: f.get(p, p) for p in patterns}, isometric=True)
    if any(g[g[p]] != p for g in pm._atom_maps for p in g):
        raise VerificationError("homogeneity map is not an involution")
    return pm
