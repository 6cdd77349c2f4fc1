"""Finite Boolean metric spaces.

A point is a tuple of algebra elements.  The distance between two points is
the join of the coordinatewise symmetric differences; it is zero exactly
when the points are equal and satisfies the triangle inequality
``d(x, z) <= d(x, y) | d(y, z)``.

Every question about finitely many points localizes to atoms: the
coordinates generate a finite subalgebra, restricted to one of its atoms
each coordinate is either 0 or that atom, so a point leaves a 0/1
"pattern" of length ``dim`` on every atom, and two points are at distance
>= atom exactly when their patterns on that atom differ.  Convex
combinations splice patterns from different points, one choice per atom.
:func:`_atom_patterns` is the one place that reads patterns off points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterable, Iterator, Sequence

from .algebra import FINITE_ATOMIC, Algebra, Element
from .errors import (CapExceededError, NotInHullError, StructureError,
                     UnsupportedOperationError)

DEFAULT_MAX_HULL_POINTS = 10 ** 6


class Point:
    """An immutable tuple of elements of one algebra."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Element]):
        coords = tuple(coords)
        if not coords:
            raise StructureError("a point needs at least one coordinate")
        alg = coords[0].algebra
        for c in coords[1:]:
            if c.algebra != alg:
                raise StructureError("all coordinates of a point must share one algebra")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("points are immutable")

    @classmethod
    def from_literals(cls, algebra: Algebra, *literals: str) -> "Point":
        return cls(algebra.parse(lit) for lit in literals)

    @property
    def algebra(self) -> Algebra:
        return self.coords[0].algebra

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def literal(self) -> str:
        return " ".join(c.literal for c in self.coords)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and other.coords == self.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"<pt {self.literal}>"


def _check_pair(x: Point, y: Point):
    if x.algebra != y.algebra:
        raise StructureError("points belong to different algebras")
    if x.dim != y.dim:
        raise StructureError(f"dimension mismatch: {x.dim} vs {y.dim}")


def distance(x: Point, y: Point) -> Element:
    """Join of the coordinatewise symmetric differences."""
    _check_pair(x, y)
    alg = x.algebra
    if alg.kind == FINITE_ATOMIC:
        acc = 0
        for a, b in zip(x.coords, y.coords):
            acc |= a.bits ^ b.bits
        return alg._make(acc)
    acc = x.coords[0] ^ y.coords[0]
    for a, b in zip(x.coords[1:], y.coords[1:]):
        acc = acc | (a ^ b)
    return acc


def product_distance(pair_a: tuple[Point, Point], pair_b: tuple[Point, Point]) -> Element:
    """Distance between pairs in the product space: the join of the
    componentwise distances."""
    return distance(pair_a[0], pair_b[0]) | distance(pair_a[1], pair_b[1])


def norm(x: Point, basepoint: Point) -> Element:
    """Distance to the designated basepoint."""
    return distance(x, basepoint)


def is_orthogonal(x: Point, y: Point, basepoint: Point) -> bool:
    """True when d(x, y) equals |x| | |y| (it is always <= by the triangle
    inequality through the basepoint)."""
    return distance(x, y) == norm(x, basepoint) | norm(y, basepoint)


def _atom_patterns(points: Sequence[Point]) -> tuple[list, list[list[int]]]:
    """The atoms of the subalgebra the coordinates generate (a finite atomic
    algebra's own, by index; over the finite-cofinite algebra ``{n}`` for
    each ``n`` in the union U of the supports, labelled ``n``, and the rest
    of the naturals, labelled ``None``) and ``table[t][i]``, the pattern of
    ``points[i]`` on ``atoms[t]``: the point packed into one integer
    (coordinate ``j`` as an atom mask shifted by ``len(atoms) * (dim-1-j)``)
    and cut down to that atom's bits.  The points share one algebra.  On one
    atom, points of one dimension order like 0/1 tuples, and a point's
    patterns sum to its packing.
    """
    alg = points[0].algebra
    if alg.kind == FINITE_ATOMIC:
        atoms = list(range(alg.atom_count))
        masks = [[c.bits for c in p.coords] for p in points]
    else:
        atoms = sorted(set().union(*(c.support for p in points for c in p.coords)))
        index = {n: i for i, n in enumerate(atoms)}
        full = (1 << len(atoms) + 1) - 1
        masks = [[sum(1 << index[n] for n in c.support) ^ (full if c.cofinite else 0)
                  for c in p.coords] for p in points]
        atoms.append(None)
    k = len(atoms)
    packed = [sum(b << k * j for j, b in enumerate(reversed(bs))) for bs in masks]
    spread = sum(1 << k * j for j in range(max(map(len, masks))))
    return atoms, [[v & spread << t for v in packed] for t in range(k)]


def _join_atoms(algebra: Algebra, atoms: Sequence, mask: int) -> Element:
    """The join of the atoms ``atoms[t]`` whose bit ``t`` is set in
    ``mask``, for atoms listed as by :func:`_atom_patterns`."""
    if algebra.kind == FINITE_ATOMIC:
        return algebra._make(mask)
    chosen = {a for t, a in enumerate(atoms) if mask >> t & 1}
    if None in chosen:
        return algebra.cof(set(atoms[:-1]) - chosen)
    return algebra.fin(chosen)


def _point_from_patterns(algebra: Algebra, atoms: Sequence, dim: int,
                         patterns: Iterable[int]) -> Point:
    """The point of dimension ``dim`` with the given pattern on each atom."""
    packed = sum(patterns)
    k = len(atoms)
    low = (1 << k) - 1
    return Point(_join_atoms(algebra, atoms, packed >> k * (dim - 1 - j) & low)
                 for j in range(dim))


def _require_atomic(algebra: Algebra, what: str):
    if algebra.kind != FINITE_ATOMIC:
        raise UnsupportedOperationError(
            f"{what} needs the finite atomic algebra; the finite-cofinite algebra "
            "is not complete and hulls there are unsupported")


@dataclass(frozen=True)
class ConvexCoefficients:
    """A partition of 1 into generator shares, stored atom-wise.

    ``assignment[t]`` is the index of the generator whose coefficient
    contains atom ``t``.  The classic element form of the coefficients is
    recovered by :meth:`partition`.
    """

    assignment: tuple[int, ...]

    @classmethod
    def from_partition(cls, parts: Sequence[Element]) -> "ConvexCoefficients":
        """Convert explicit coefficient elements into atom assignments.

        The elements must be pairwise disjoint with join 1.
        """
        if not parts:
            raise StructureError("a partition needs at least one part")
        alg = parts[0].algebra
        _require_atomic(alg, "coefficient partitions")
        assignment = []
        for t in range(alg.atom_count):
            owners = [i for i, p in enumerate(parts) if p.bits >> t & 1]
            if len(owners) != 1:
                raise StructureError(
                    f"coefficients are not a partition: atom {t} is covered "
                    f"{len(owners)} times")
            assignment.append(owners[0])
        return cls(tuple(assignment))

    def partition(self, algebra: Algebra, count: int) -> tuple[Element, ...]:
        masks = [0] * count
        for t, i in enumerate(self.assignment):
            if not 0 <= i < count:
                raise StructureError(f"coefficient index {i} out of range")
            masks[i] |= 1 << t
        return tuple(algebra._make(m) for m in masks)


def convex_combine(coeffs: ConvexCoefficients, points: Sequence[Point]) -> Point:
    """The point that copies, on each atom, the coordinates of the generator
    selected by the coefficients.

    The result x is the unique point with ``a_i & d(x, x_i) == 0`` for every
    generator ``x_i`` with coefficient ``a_i``.
    """
    if not points:
        raise StructureError("convex combination of an empty family")
    alg = points[0].algebra
    _require_atomic(alg, "convex combinations")
    for p in points[1:]:
        _check_pair(points[0], p)
    if len(coeffs.assignment) != alg.atom_count:
        raise StructureError("coefficient assignment does not match the atom count")
    for i in coeffs.assignment:
        if not 0 <= i < len(points):
            raise StructureError(f"coefficient index {i} out of range")
    atoms, table = _atom_patterns([points[i] for i in coeffs.assignment])
    return _point_from_patterns(alg, atoms, points[0].dim,
                                [row[t] for t, row in enumerate(table)])


class FiniteSpace:
    """A finite set of points, deduplicated and canonically ordered.

    The canonical order is lexicographic on the concatenated coordinate bit
    vectors (for the finite-cofinite algebra: on the tag plus ascending
    support).  ``convex`` marks spaces produced by hull materialization or
    proven closed under convex combinations; ``generators`` remembers a
    generating set when one is known, which keeps invariant computations
    small.
    """

    __slots__ = ("points", "algebra", "dim", "basepoint", "convex", "generators", "_index")

    def __init__(self, points: Iterable[Point], basepoint: Point | None = None,
                 convex: bool = False, generators: tuple[Point, ...] | None = None):
        pts = sorted(set(points), key=Point.sort_key)
        if not pts:
            raise StructureError("a space needs at least one point")
        first = pts[0]
        for p in pts[1:]:
            _check_pair(first, p)
        self.points = tuple(pts)
        self.algebra = first.algebra
        self.dim = first.dim
        self._index = {p: i for i, p in enumerate(self.points)}
        if basepoint is not None and basepoint not in self._index:
            raise StructureError("the basepoint must be one of the points")
        self.basepoint = basepoint
        self.convex = convex
        self.generators = generators

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self._index

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise StructureError(f"point {p.literal} is not in the space") from None

    def require_basepoint(self) -> Point:
        if self.basepoint is None:
            raise StructureError("this operation needs a space with a basepoint")
        return self.basepoint

    def with_basepoint(self, basepoint: Point) -> "FiniteSpace":
        return FiniteSpace(self.points, basepoint=basepoint, convex=self.convex,
                           generators=self.generators)

    def norm(self, x: Point) -> Element:
        return distance(x, self.require_basepoint())

    def __repr__(self):
        return f"<space of {len(self.points)} points, dim {self.dim}>"


def space(points: Iterable[Point], basepoint: Point | None = None) -> FiniteSpace:
    """Plain space constructor (no convexity claim)."""
    return FiniteSpace(points, basepoint=basepoint)


def _generator_sequence(source) -> list[Point]:
    """Generators in the caller's own order, duplicates kept, checked to
    share an algebra and a dimension.  A FiniteSpace contributes its
    canonical point order."""
    if isinstance(source, FiniteSpace):
        return list(source.points)
    gens = list(source)
    if not gens:
        raise StructureError("need at least one generator")
    first = gens[0]
    for g in gens[1:]:
        _check_pair(first, g)
    return gens


def conv_hull(source, basepoint: Point | None = None,
              max_points: int = DEFAULT_MAX_HULL_POINTS) -> FiniteSpace:
    """Materialize the convex hull of the given generators.

    The hull consists of all points obtained by choosing, independently on
    each atom, the pattern of one generator.  Its size is the product over
    atoms of the number of distinct generator patterns, at most
    ``len(generators) ** atom_count``; anything beyond ``max_points`` is
    refused.
    """
    gens = sorted(set(_generator_sequence(source)), key=Point.sort_key)
    alg = gens[0].algebra
    _require_atomic(alg, "hull materialization")
    if basepoint is None and isinstance(source, FiniteSpace):
        basepoint = source.basepoint
    atoms, table = _atom_patterns(gens)
    per_atom = [sorted(set(row)) for row in table]
    if prod(map(len, per_atom)) > max_points:
        raise CapExceededError(
            f"hull would exceed {max_points} points; raise max_points to override")
    points = [_point_from_patterns(alg, atoms, gens[0].dim, choice)
              for choice in product(*per_atom)]
    return FiniteSpace(points, basepoint=basepoint, convex=True, generators=tuple(gens))


def hull_contains(x: Point, source) -> bool:
    """Hull membership without materialization: on every atom some
    generator must agree with ``x``."""
    gens = _generator_sequence(source)
    _check_pair(gens[0], x)
    _require_atomic(x.algebra, "hull membership")
    _, table = _atom_patterns([x] + gens)
    return all(row[0] in row[1:] for row in table)


def decompose(x: Point, source, tie_break: str = "min") -> ConvexCoefficients:
    """Express ``x`` as a convex combination of the given generators.

    Coefficient indices refer to the generators exactly as passed (for a
    FiniteSpace, its canonical order), so they can be applied to a parallel
    list of image points.  On each atom the agreeing generator of smallest
    index wins (``tie_break="max"`` picks the largest instead; any choice
    yields a valid combination).  Raises :class:`NotInHullError` with a
    witness atom when no generator matches somewhere.
    """
    gens = _generator_sequence(source)
    _check_pair(gens[0], x)
    _require_atomic(x.algebra, "convex decomposition")
    if tie_break not in ("min", "max"):
        raise StructureError(f"unknown tie break rule {tie_break!r}")
    atoms, table = _atom_patterns([x] + gens)
    assignment = []
    for t, (pat, *pats) in zip(atoms, table):
        matches = [i for i, g in enumerate(pats) if g == pat]
        if not matches:
            raise NotInHullError(
                f"point {x.literal} is not in the hull: no generator matches on atom {t}",
                atom_index=t)
        assignment.append(matches[0] if tie_break == "min" else matches[-1])
    return ConvexCoefficients(tuple(assignment))


def orthogonal_complement(inner: FiniteSpace, ambient: FiniteSpace) -> FiniteSpace:
    """All points of ``ambient`` orthogonal to every point of ``inner``.

    Both spaces must carry the same basepoint, which always belongs to the
    result.  When both spaces are convex the result is convex as well.
    """
    bp = ambient.require_basepoint()
    if inner.require_basepoint() != bp:
        raise StructureError("inner and ambient spaces must share the basepoint")
    for p in inner:
        if p not in ambient:
            raise StructureError("the inner space must be a subset of the ambient space")
    norms = {p: distance(p, bp) for p in ambient}
    kept = []
    for y in ambient:
        ny = norms[y]
        if all(distance(x, y) == norms[x] | ny for x in inner):
            kept.append(y)
    return FiniteSpace(kept, basepoint=bp, convex=inner.convex and ambient.convex)


@dataclass(frozen=True)
class PartialMap:
    """A finite list of (source, target) pairs, canonically ordered.

    ``flag`` is an optional claim ("contractive" or "isometric") carried for
    reporting; :func:`check_map` computes the actual verdict.
    """

    pairs: tuple[tuple[Point, Point], ...]
    flag: str | None = None
    _mapping: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        pairs = sorted(set(self.pairs), key=lambda pr: pr[0].sort_key())
        if pairs:
            s0, t0 = pairs[0]
            for s, t in pairs[1:]:
                _check_pair(s0, s)
                _check_pair(t0, t)
        mapping = {}
        for s, t in pairs:
            if s in mapping:
                raise StructureError(f"conflicting images for source point {s.literal}")
            mapping[s] = t
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "_mapping", mapping)

    @classmethod
    def from_dict(cls, mapping: dict, flag: str | None = None) -> "PartialMap":
        return cls(tuple(mapping.items()), flag=flag)

    @property
    def sources(self) -> tuple[Point, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def targets(self) -> tuple[Point, ...]:
        return tuple(t for _, t in self.pairs)

    def __call__(self, x: Point) -> Point:
        try:
            return self._mapping[x]
        except KeyError:
            raise StructureError(f"point {x.literal} is outside the map's domain") from None

    def __len__(self) -> int:
        return len(self.pairs)

    def defined_at(self, x: Point) -> bool:
        return x in self._mapping

    def inverse(self) -> "PartialMap":
        targets = self.targets
        if len(set(targets)) != len(targets):
            raise StructureError("only injective maps can be inverted")
        return PartialMap(tuple((t, s) for s, t in self.pairs), flag=self.flag)

    def then(self, other: "PartialMap") -> "PartialMap":
        """Composition: apply this map first, then ``other``."""
        return PartialMap(tuple((s, other(t)) for s, t in self.pairs))

    def restricted_to(self, points: Iterable[Point]) -> "PartialMap":
        return PartialMap(tuple((p, self(p)) for p in points), flag=self.flag)


def identity_map(space: FiniteSpace) -> PartialMap:
    return PartialMap(tuple((p, p) for p in space), flag="isometric")


@dataclass(frozen=True)
class MapVerdict:
    """Outcome of checking a partial map against the metric.

    ``kind`` is "isometric", "contractive", or "violation"; for violations
    ``witness`` holds the first offending source pair in canonical order.
    """

    kind: str
    witness: tuple[Point, Point] | None = None

    @property
    def ok(self) -> bool:
        return self.kind != "violation"


def check_map(pm: PartialMap) -> MapVerdict:
    """Classify a partial map atom by atom.

    "isometric" means every distance is preserved exactly (which forces
    injectivity); "contractive" means every image distance is <= the source
    distance; anything else is a violation with the first bad pair.

    Distances split over atoms: the map is contractive when on every atom
    equal source patterns have equal images, isometric when these per-atom
    pattern maps are also injective.  A class of equal source patterns
    first fails at its first member and the next member with another image.
    """
    pairs = pm.pairs
    n = len(pairs)
    if n < 2:
        return MapVerdict("isometric")
    if pairs[0][0].algebra != pairs[0][1].algebra:
        raise StructureError("sources and targets belong to different algebras")
    _, table = _atom_patterns(pm.sources + pm.targets)
    witness = None
    injective = True
    for row in table:
        images = row[n:]
        heads: dict = {}
        for i, (src, img) in enumerate(zip(row[:n], images)):
            first, first_img = heads.setdefault(src, (i, img))
            if img != first_img and (witness is None or (first, i) < witness):
                witness = (first, i)
        injective = injective and len(set(images)) == len(heads)
    if witness is not None:
        return MapVerdict("violation", witness=(pairs[witness[0]][0], pairs[witness[1]][0]))
    return MapVerdict("isometric" if injective else "contractive")
