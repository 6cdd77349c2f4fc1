"""Isometry invariants of finite Boolean metric spaces.

The central invariant is the alpha profile: ``alpha_k`` is the largest
element below which ``k + 1`` points of the space stay pairwise far apart,
formally the join over all (k+1)-subsets of the meet of their pairwise
distances.  The sequence is decreasing, ``alpha_0 = 1`` by convention, and
for convex spaces the profile decides isometry: two convex spaces over the
same algebra are isometric exactly when their profiles agree, and an
isometry can be constructed by transporting bases.

In closed form, ``alpha_k`` is the join of the atoms on which the points
show more than ``k`` distinct patterns; the suites check it against the
subset enumeration ``suites.enumerated_alpha_profile``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Sequence

from .algebra import Algebra, Element
from .errors import (CapExceededError, InfeasibleError, StructureError,
                     VerificationError)
from .spaces import (FiniteSpace, PartialMap, Point, _atom_patterns,
                     _generator_sequence, _join_atoms, _point_from_patterns,
                     _require_atomic, check_map, convex_combine, decompose,
                     distance, is_orthogonal)


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
            _join_atoms(algebra, atoms, sum(1 << t for t, c in enumerate(values) if c >= k))
            for k in range(1, max(values, default=0) + 1)))


def alpha_profile_of_points(points: Sequence[Point]) -> AlphaProfile:
    """Profile of a finite point family: ``alpha_k`` is the join of the atoms
    on which the points show more than ``k`` distinct patterns (checked
    against ``suites.enumerated_alpha_profile``).  A generator set has the
    profile of its hull, so callers may pass generators for a whole space.
    """
    pts = _generator_sequence(points)
    atoms, table = _atom_patterns(pts)
    return AlphaProfile.from_counts(
        pts[0].algebra, {a: len(set(row)) - 1 for a, row in zip(atoms, table)})


def alpha_profile(source) -> AlphaProfile:
    """Profile of a space or point family; a hull's remembered generator
    set stands in for its points."""
    if isinstance(source, FiniteSpace) and source.generators is not None:
        return alpha_profile_of_points(source.generators)
    return alpha_profile_of_points(list(source))


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


def build_base(space: FiniteSpace) -> Base:
    """Construct and verify a base of a pointed convex space.

    Construction is atom by atom: on each atom, list the distinct patterns
    of the space with the basepoint's pattern first, the rest in ascending
    order; the i-th base point copies the i-th pattern where it exists and
    falls back to the basepoint's pattern elsewhere.  The three defining
    conditions are re-checked before returning.
    """
    bp = space.require_basepoint()
    if not space.convex:
        raise StructureError("bases exist for convex spaces; materialize a hull first")
    alg = space.algebra
    _require_atomic(alg, "base construction")
    atoms, table = _atom_patterns([bp] + list(space.points))
    per_atom = [[row[0]] + sorted(set(row) - {row[0]}) for row in table]
    rank = max(len(pats) for pats in per_atom) - 1
    base_points = [_point_from_patterns(alg, atoms, space.dim,
                                        [pats[i] if i < len(pats) else pats[0]
                                         for pats in per_atom])
                   for i in range(1, rank + 1)]

    # Condition: basepoint and base generate the space.  A space lies inside
    # the product of its per-atom pattern sets, so it equals the hull of
    # basepoint and base when the pattern sets agree and the sizes match.
    _, generated = _atom_patterns([bp] + base_points)
    if ([set(row) for row in generated] != [set(pats) for pats in per_atom]
            or len(space) != prod(map(len, per_atom))):
        raise VerificationError("base construction failed: wrong hull")
    # Condition: pairwise orthogonality.
    for a, b in combinations(base_points, 2):
        if not is_orthogonal(a, b, bp):
            raise VerificationError("base construction failed: not orthogonal")
    # Condition: norms realize the profile, which also pins the rank.
    profile = alpha_profile_of_points([bp] + base_points)
    if profile.rank != rank:
        raise VerificationError("base construction failed: rank mismatch")
    for i, x in enumerate(base_points, start=1):
        nx = distance(x, bp)
        if nx != profile.alpha(i) or nx.is_zero:
            raise VerificationError("base construction failed: norm != alpha")
    return Base(tuple(base_points), bp)


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

    Bases are built over each space's basepoint (canonical-first when
    unset), matched index by index, and every point is transported through
    its convex decomposition.  The result is re-checked to be a bijective
    isometry before returning.
    """
    if not decide_isometric(left, right):
        raise InfeasibleError("spaces have different profiles, no isometry exists")
    bp_l = left.basepoint if left.basepoint is not None else left.points[0]
    bp_r = right.basepoint if right.basepoint is not None else right.points[0]
    base_l = build_base(left.with_basepoint(bp_l))
    base_r = build_base(right.with_basepoint(bp_r))
    if base_l.rank != base_r.rank:
        raise VerificationError("equal profiles but mismatched base ranks")
    gens_l = [bp_l] + list(base_l.points)
    gens_r = [bp_r] + list(base_r.points)
    pairs = []
    for z in left:
        coeffs = decompose(z, gens_l)
        pairs.append((z, convex_combine(coeffs, gens_r)))
    pm = PartialMap(tuple(pairs), flag="isometric")
    targets = set(pm.targets)
    if check_map(pm).kind != "isometric" or targets != set(right.points):
        raise VerificationError("base transport did not produce an isometry")
    return pm


def homogeneity_isometry(space: FiniteSpace, a: Point, b: Point) -> PartialMap:
    """A self-isometry of a convex space swapping two of its points.

    Atom-wise it transposes the patterns of a and b and fixes all others:
    each point z goes to the convex combination of (b, a, z) with
    coefficients (where z agrees with a, where z agrees with b but not a,
    the rest).  The result is verified to be an isometric involution
    mapping a to b.
    """
    if not space.convex:
        raise StructureError("homogeneity applies to convex spaces")
    if a not in space or b not in space:
        raise StructureError("both points must belong to the space")
    atoms, table = _atom_patterns([a, b] + list(space.points))
    swaps = [{row[0]: row[1], row[1]: row[0]} for row in table]
    pm = PartialMap(tuple(
        (z, _point_from_patterns(space.algebra, atoms, space.dim,
                                 [swap.get(row[i], row[i]) for swap, row in zip(swaps, table)]))
        for i, z in enumerate(space.points, start=2)), flag="isometric")
    if pm(a) != b or pm(b) != a:
        raise VerificationError("homogeneity map does not swap the chosen points")
    for z, w in pm.pairs:
        if pm(w) != z:
            raise VerificationError("homogeneity map is not an involution")
    if check_map(pm).kind != "isometric":
        raise VerificationError("homogeneity map is not isometric")
    return pm


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
    return PartialMap(tuple(zip(xs, assigned)), flag="isometric")
