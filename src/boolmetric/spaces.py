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
:func:`_encode` codes points (a finite atomic one by :attr:`Point.code`,
which the point keeps), and a pattern is a code's bits on one atom
(:func:`_atom_patterns`), so patterns sum to codes.  A space is
carried as codes over its own atoms (the naturals its points show, over the
finite-cofinite algebra), a hull as its per-atom pattern sets, a map given
as pairs as its sources' and images' codes and a constructed map as
per-atom pattern maps; each is checked by masking codes, and ``Point``
objects are built only when a caller reads them.
"""

from __future__ import annotations

from copy import copy
from functools import cache
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import FINITE_ATOMIC, Algebra, Element, SetElement, _naturals
from .errors import (CapExceededError, InfeasibleError, NotInHullError, StructureError,
                     UnsupportedOperationError, VerificationError)

DEFAULT_MAX_HULL_POINTS = 10 ** 6


class Point:
    """An immutable tuple of elements of one algebra."""

    __slots__ = ("coords", "_code")

    def __init__(self, coords: Iterable[Element]):
        coords = tuple(coords)
        if not coords:
            raise StructureError("a point needs at least one coordinate")
        alg = coords[0].algebra
        for c in coords[1:]:
            if c.algebra is not alg and c.algebra != alg:
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

    @property
    def code(self) -> int:
        """A finite atomic point's code (see :func:`_encode`), its literals'
        characters read as bits; kept once read or decoded (a decoded
        finite-cofinite point keeps its code over its space's atoms)."""
        if not hasattr(self, "_code"):
            object.__setattr__(self, "_code", int("".join([c.literal for c in self.coords]), 2))
        return self._code

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, Point) and other.coords == self.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"<pt {self.literal}>"


def _check_pair(x: Point, y: Point):
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise StructureError("points belong to different algebras")
    if x.dim != y.dim:
        raise StructureError(f"dimension mismatch: {x.dim} vs {y.dim}")


def distance(x: Point, y: Point) -> Element:
    """Join of the coordinatewise symmetric differences."""
    _check_pair(x, y)
    acc = x.coords[0] ^ y.coords[0]
    for a, b in zip(x.coords[1:], y.coords[1:]):
        acc = acc | (a ^ b)
    return acc


def norm(x: Point, basepoint: Point) -> Element:
    """Distance to the designated basepoint."""
    return distance(x, basepoint)


def is_orthogonal(x: Point, y: Point, basepoint: Point) -> bool:
    """True when d(x, y) equals |x| | |y| (it is always <= by the triangle
    inequality through the basepoint)."""
    return distance(x, y) == norm(x, basepoint) | norm(y, basepoint)


def _encode(points: Sequence[Point], atoms: Sequence | None = None):
    """The atoms of the subalgebra the coordinates generate (a finite atomic
    algebra's own, by index; over the finite-cofinite algebra ``{n}`` for
    each ``n`` in the union U of the supports, labelled ``n``, and the rest
    of the naturals, labelled ``None``; or those given), the points' codes
    over them (atom ``t`` of coordinate ``j`` at bit ``k*(dim-1-j) + k-1-t``,
    ``k = len(atoms)``; a finite atomic point's :attr:`Point.code`) and a key
    on their positions that orders them canonically.  The points share one
    algebra.  A point showing a natural outside the atoms given raises KeyError.
    """
    alg = points[0].algebra
    if alg.kind == FINITE_ATOMIC:
        codes = [p.code for p in points]
        return list(range(alg.atom_count)), codes, codes.__getitem__
    if atoms is None:
        union = 0
        for p in points:
            for c in p.coords:
                union |= c.mask
        atoms = _naturals(union) + [None]
    k, full, codes = len(atoms), (1 << len(atoms)) - 1, []
    bit = {1 << n: 1 << k - 1 - t for t, n in enumerate(atoms[:-1])}  # a natural's bit: its atom's
    for p in points:
        code = 0
        for c in p.coords:
            mask, chunk = c.mask, full if c.cofinite else 0
            while mask:
                chunk ^= bit[mask & -mask]
                mask &= mask - 1
            code = code << k | chunk
        codes.append(code)
    return atoms, codes, lambda i: points[i].sort_key()


def _atom_patterns(points: Sequence[Point],
                   atoms: Sequence | None = None) -> tuple[list, list[list[int]]]:
    """The atoms :func:`_encode` lists and ``table[t][i]``, the pattern of
    ``points[i]`` on ``atoms[t]``: its bits of the point's code.  On one
    atom, points of one dimension order like 0/1 tuples, and a point's
    patterns sum to its code."""
    atoms, codes, _ = _encode(points, atoms)
    return atoms, [[c & m for c in codes]
                   for m in _atom_masks(len(atoms), max(p.dim for p in points))]


@cache
def _atom_masks(k: int, dim: int) -> tuple[int, ...]:
    """Per atom ``t`` of ``k``, the bits of a ``dim``-coordinate code there: its pattern."""
    spread = sum(1 << k * j for j in range(dim))
    return tuple(spread << k - 1 - t for t in range(k))


def _join_atoms(algebra: Algebra, atoms: Sequence, mask: int) -> Element:
    """The join of the atoms ``atoms[t]`` whose bit ``k-1-t`` is set in
    ``mask`` (a chunk of a code), for the ``k`` atoms listed as by
    :func:`_atom_patterns`."""
    k = len(atoms)
    if algebra.kind == FINITE_ATOMIC:  # atom t at bit t of the element's mask
        return algebra._make(int(f"{mask:0{k}b}"[::-1], 2))
    chosen = left_out = 0
    for t, n in enumerate(atoms[:-1]):
        if mask >> k - 1 - t & 1:
            chosen |= 1 << n
        else:
            left_out |= 1 << n
    if mask & 1:
        return SetElement(algebra, True, left_out)
    return SetElement(algebra, False, chosen)


def _require_atomic(algebra: Algebra, what: str):
    if algebra.kind != FINITE_ATOMIC:
        raise UnsupportedOperationError(
            f"{what} needs the finite atomic algebra; the finite-cofinite algebra "
            "is not complete and hulls there are unsupported")


class ConvexCoefficients(NamedTuple):
    """A partition of 1 into generator shares, stored atom-wise.

    ``assignment[t]`` is the index of the generator whose coefficient
    contains atom ``t``.  The classic element form of the coefficients is
    recovered by :meth:`partition`.
    """

    assignment: tuple[int, ...]

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
    points = _generator_sequence(points, "convex combination of an empty family")
    alg = points[0].algebra
    _require_atomic(alg, "convex combinations")
    if len(coeffs.assignment) != alg.atom_count:
        raise StructureError("coefficient assignment does not match the atom count")
    for i in coeffs.assignment:
        if not 0 <= i < len(points):
            raise StructureError(f"coefficient index {i} out of range")
    atoms, table = _atom_patterns([points[i] for i in coeffs.assignment])
    return _code_points(alg, atoms, points[0].dim, [sum(row[t] for t, row in enumerate(table))])[0]


class FiniteSpace:
    """A finite set of points, deduplicated and canonically ordered.

    The canonical order is lexicographic on the concatenated coordinate bit
    vectors, so the codes ascend (for the finite-cofinite algebra: on the
    tag plus ascending support).  Whether the space is convex is read off
    its points, never passed in: see :attr:`convex`.

    It is keyed by its codes over its own atoms (as :func:`_atom_patterns`
    lists them), in its order, read off its points or given; or, a hull,
    held as its per-atom pattern view alone (see :attr:`_patterns`), the
    product of its per-atom sets.  Codes, then points, are built when read.
    """

    __slots__ = ("algebra", "dim", "basepoint", "_atoms", "_points", "_codes", "_lookup", "_view")

    def __init__(self, points: Iterable[Point], basepoint: Point | None = None):
        pts = _generator_sequence(points, "a space needs at least one point")
        self.algebra, self.dim = pts[0].algebra, pts[0].dim
        self._lookup = self._view = None
        self._atoms, codes, key = _encode(pts)
        order = sorted(dict(zip(codes, range(len(pts)))).values(), key=key)
        self._codes, self._points = [codes[i] for i in order], tuple(pts[i] for i in order)
        if basepoint is not None and basepoint not in self:
            raise StructureError("the basepoint must be one of the points")
        self.basepoint = basepoint

    @property
    def codes(self) -> list[int]:
        """The points' codes over its atoms, in its order (ascending if finite atomic)."""
        if self._codes is None:
            self._codes = _product_codes(self._view[1])
        return self._codes

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = _code_points(self.algebra, self._atoms, self.dim, self.codes)
        return self._points

    @property
    def _index(self) -> dict:
        """The points' positions, keyed by their codes."""
        if self._lookup is None:
            self._lookup = {code: i for i, code in enumerate(self.codes)}
        return self._lookup

    def _keys(self, points: Sequence[Point]) -> list[int]:
        """The codes of ``points`` over the space's atoms; -1, no point's code,
        for one that shows a natural outside them."""
        if self._atoms[-1] is not None:  # finite atomic: its codes are the points' own
            return [p.code for p in points]
        try:
            return _encode(points, self._atoms)[1] if points else []
        except KeyError:
            return [-1] if len(points) == 1 else [c for p in points for c in self._keys([p])]

    @property
    def _patterns(self) -> tuple[list, list[tuple[int, ...]]]:
        """The atoms (as :func:`_atom_patterns` labels them) and, per atom,
        the sorted patterns the points show there: a code's bits there."""
        if self._view is None:
            self._view = self._atoms, [tuple(sorted({c & m for c in self._codes}))
                                       for m in _atom_masks(len(self._atoms), self.dim)]
        return self._view

    @property
    def convex(self) -> bool:
        """Closed under convex combinations: the space is the product of its
        per-atom pattern sets (its size is the product of their sizes), and
        over the finite-cofinite algebra its points agree on the atom
        outside every support, which a combination could split.  A hull
        passes without building a point."""
        atoms, patterns = self._patterns
        counts = [len(pats) for pats in patterns]
        return len(self) == prod(counts) and (atoms[-1] is not None or counts[-1] == 1)

    def _first(self) -> Point:
        """The canonical first point of a convex space: on every atom, its
        least pattern."""
        atoms, patterns = self._patterns
        return _code_points(self.algebra, atoms, self.dim, [sum(pats[0] for pats in patterns)])[0]

    def __len__(self) -> int:  # a hull: its pattern counts' product
        return prod(map(len, self._view[1])) if self._codes is None else len(self._codes)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: Point) -> bool:
        return self._holds((p,))

    def _holds(self, points: Sequence[Point]) -> bool:
        """Whether all ``points`` belong to the space, by their codes."""
        alg, dim = self.algebra, self.dim
        return all(p.dim == dim and (p.coords[0].algebra is alg or p.algebra == alg)
                   for p in points) and self._has(self._keys(points))

    def _has(self, codes: Sequence[int]) -> bool:
        """Whether all ``codes`` (over its atoms) are its points': by index,
        else (a hull held as its view) per atom, by masking each code: each
        pattern they show must be in that atom's set."""
        if self._codes is None:
            masks = _atom_masks(len(self._atoms), self.dim)
            return all(c & m in pats for c in codes for m, pats in zip(masks, self._view[1]))
        return all(map(self._index.__contains__, codes))

    def index(self, p: Point) -> int:
        if p.algebra != self.algebra or p.dim != self.dim or \
                (i := self._index.get(self._keys([p])[0])) is None:
            raise StructureError(f"point {p.literal} is not in the space")
        return i

    def require_basepoint(self) -> Point:
        if self.basepoint is None:
            raise StructureError("this operation needs a space with a basepoint")
        return self.basepoint

    def with_basepoint(self, basepoint: Point) -> "FiniteSpace":
        """The same space (points, codes, index and view shared) pointed at
        ``basepoint``, which must be one of its points."""
        if basepoint not in self:
            raise StructureError("the basepoint must be one of the points")
        out = copy(self)
        out.basepoint = basepoint
        return out

    def __repr__(self):
        return f"<space of {len(self)} points, dim {self.dim}>"


def space(points: Iterable[Point], basepoint: Point | None = None) -> FiniteSpace:
    """The space of the given points, pointed at ``basepoint`` if given."""
    return FiniteSpace(points, basepoint=basepoint)


def _generator_sequence(source, empty: str | None = "need at least one generator") -> list[Point]:
    """Generators in the caller's own order, duplicates kept, checked to
    share an algebra and a dimension (before anyone sorts them) and, unless
    ``empty`` is None, to be at least one.  A FiniteSpace contributes its
    canonical point order."""
    if isinstance(source, FiniteSpace):
        return list(source.points)
    gens = list(source)
    if not gens and empty is not None:
        raise StructureError(empty)
    for g in gens[1:]:
        _check_pair(gens[0], g)
    return gens


def _held_space(algebra: Algebra, dim: int, codes: list[int] | None = None, view=None,
                basepoint: Point | None = None, max_points=DEFAULT_MAX_HULL_POINTS,
                atoms: list | None = None) -> FiniteSpace:
    """A space held as its ``codes`` over ``atoms`` (by default the finite
    atomic algebra's), in its order, or, a hull, as its view (refused past
    ``max_points``), pointed at ``basepoint``, one of its points."""
    sp = FiniteSpace.__new__(FiniteSpace)
    sp.algebra, sp.dim, sp.basepoint, sp._codes, sp._view = algebra, dim, basepoint, codes, view
    sp._atoms = view[0] if view else atoms or list(range(algebra.atom_count))
    sp._points = sp._lookup = None
    if codes is None and len(sp) > max_points:
        raise CapExceededError(
            f"hull would exceed {max_points} points; raise max_points to override")
    return sp


def _product_codes(patterns) -> list[int]:
    """Every choice of one pattern per atom, summed into its code, in
    canonical order; distinct choices have distinct codes."""
    codes = [0]
    for pats in patterns:
        codes = [c + p for c in codes for p in pats]
    codes.sort()
    return codes


def _code_points(algebra: Algebra, atoms: Sequence, dim: int,
                 codes: Sequence[int]) -> tuple[Point, ...]:
    """The points with the given codes, over the atoms listed as by
    :func:`_atom_patterns`, in their order, one element object per distinct
    coordinate chunk; each keeps its code."""
    k = len(atoms)
    low, shifts = (1 << k) - 1, [k * (dim - 1 - j) for j in range(dim)]
    element = {chunk: _join_atoms(algebra, atoms, chunk)
               for chunk in {c >> s & low for c in codes for s in shifts}}
    points = tuple(Point([element[c >> s & low] for s in shifts]) for c in codes)
    for p, c in zip(points, codes):
        object.__setattr__(p, "_code", c)
    return points


def conv_hull(source, basepoint: Point | None = None,
              max_points: int = DEFAULT_MAX_HULL_POINTS) -> FiniteSpace:
    """The convex hull of the given generators (a point family or a space).

    The hull consists of all points obtained by choosing, independently on
    each atom, the pattern of one generator: it is the product of the
    generators' per-atom pattern sets, and it is stored as those sets.  Its
    size is the product of their sizes, at most
    ``len(generators) ** atom_count``; anything beyond ``max_points`` is
    refused.  Its codes and points are built, in canonical order, only when
    a caller first reads them.
    """
    if not isinstance(source, FiniteSpace):
        source = FiniteSpace(_generator_sequence(source))
    elif basepoint is None:
        basepoint = source.basepoint
    _require_atomic(source.algebra, "hull materialization")
    hull = _held_space(source.algebra, source.dim, view=source._patterns, max_points=max_points)
    return hull if basepoint is None else hull.with_basepoint(basepoint)


def decompose(x: Point, source) -> ConvexCoefficients:
    """Express ``x`` as a convex combination of the given generators.

    Coefficient indices refer to the generators exactly as passed (for a
    FiniteSpace, its canonical order), so they can be applied to a parallel
    list of image points.  On each atom the agreeing generator of smallest
    index wins (any choice yields a valid combination).  Raises
    :class:`NotInHullError` with a witness atom when no generator matches
    somewhere.
    """
    gens = _generator_sequence(source)
    _check_pair(gens[0], x)
    _require_atomic(x.algebra, "convex decomposition")
    atoms, table = _atom_patterns([x] + gens)
    assignment = []
    for t, (pat, *pats) in zip(atoms, table):
        if pat not in pats:
            raise NotInHullError(
                f"point {x.literal} is not in the hull: no generator matches on atom {t}",
                atom_index=t, point=x)
        assignment.append(pats.index(pat))
    return ConvexCoefficients(tuple(assignment))


def _transport(domain: FiniteSpace, sources: Sequence[Point],
               targets: Sequence[Point]) -> list[list[tuple[int, int]]]:
    """Per atom, the relation carrying ``domain`` through the generators,
    ``convex_combine(decompose(x, sources), targets)`` for every ``x``: it
    pairs each source's pattern with its (parallel, checked) target's, for
    ``extension.orthogonal_join`` and as the tests' reference.  The first
    domain point with a pattern no source shows raises :func:`decompose`'s
    :class:`NotInHullError`."""
    _require_atomic(domain.algebra, "convex decomposition")
    table, target_table = _atom_patterns(sources)[1], _atom_patterns(targets)[1]
    if any(set(pats) - set(row) for pats, row in zip(domain._patterns[1], table)):
        for x in domain.points:
            decompose(x, sources)
    return [list(zip(row, target_row)) for row, target_row in zip(table, target_table)]


def orthogonal_complement(inner: FiniteSpace, ambient: FiniteSpace) -> FiniteSpace:
    """All points of ``ambient`` orthogonal to every point of ``inner``.

    Both spaces must carry the same basepoint, which always belongs to the
    result, convex (as its points show) when both spaces are.

    Orthogonality splits over atoms: ``y`` is orthogonal to every point of
    ``inner`` exactly when on each atom its pattern is the basepoint's or
    one no point of ``inner`` shows (over either algebra, convex or not;
    the suites check this against ``suites.pairwise_orthogonal_complement``).
    In a hull held as its view, that is the product of those patterns, and
    no point is built.
    """
    bp = ambient.require_basepoint()
    if inner.require_basepoint() != bp:
        raise StructureError("inner and ambient spaces must share the basepoint")
    if ambient._codes is None and (inner.algebra, inner.dim) == (ambient.algebra, ambient.dim):
        atoms, patterns = ambient._view
        if any(not set(own).issubset(pats) for own, pats in zip(inner._patterns[1], patterns)):
            raise StructureError("the inner space must be a subset of the ambient space")
        at_bp = ambient._keys([bp])[0]
        allowed = [tuple(sorted(set(pats) - set(own) | {at_bp & m})) for m, own, pats in
                   zip(_atom_masks(len(atoms), ambient.dim), inner._patterns[1], patterns)]
        return _held_space(ambient.algebra, ambient.dim, view=(atoms, allowed), basepoint=bp,
                           max_points=len(ambient))
    if not ambient._holds(inner.points):
        raise StructureError("the inner space must be a subset of the ambient space")
    m = len(inner)
    b = inner.index(bp)
    _, table = _atom_patterns(inner.points + ambient.points)
    allowed = [(set(row[m:]) - set(row[:m])) | {row[b]} for row in table]
    kept = [y for y, *patterns in zip(ambient.points, *(row[m:] for row in table))
            if all(pat in ok for pat, ok in zip(patterns, allowed))]
    return FiniteSpace(kept, basepoint=bp)


class PartialMap:
    """A finite list of (source, target) pairs, canonically ordered, held as
    its domain (a space held as its sources' codes) and its images' codes,
    of dimension ``_dim``, over the domain's atoms (for pairs given as
    points, the atoms their sources and targets show together).
    :func:`check_map` classifies it once by masking those codes and keeps
    the verdict and, for a contractive map, one pattern map per atom.  A
    map from :func:`_checked_map` is kept as its domain and those maps
    alone.  Its pairs are built, in the domain's order, when first read."""

    __slots__ = ("_pairs", "_mapping", "_verdict", "_domain", "_atom_maps", "_dim", "_images")

    def __init__(self, pairs: Iterable[tuple[Point, Point]]):
        pairs = list(pairs)
        sources = _generator_sequence([s for s, _ in pairs], empty=None)
        targets = _generator_sequence([t for _, t in pairs], empty=None)
        self._domain = self._dim = self._verdict = self._atom_maps = self._mapping = None
        self._images, self._pairs = [], ()
        if not pairs:
            return
        if sources[0].algebra != targets[0].algebra:
            raise StructureError("sources and targets belong to different algebras")
        atoms, codes, key = _encode(sources + targets)
        n, firsts = len(pairs), {}  # each source code's first pair
        clashes = [firsts[c] for i, c in enumerate(codes[:n])
                   if codes[n + firsts.setdefault(c, i)] != codes[n + i]]
        if clashes:
            raise StructureError("conflicting images for source point "
                                 f"{pairs[min(clashes, key=key)][0].literal}")
        order = sorted(firsts.values(), key=key)
        self._domain = _held_space(sources[0].algebra, sources[0].dim,
                                   [codes[i] for i in order], atoms=atoms)
        self._images, self._dim = [codes[n + i] for i in order], targets[0].dim
        self._pairs = tuple(pairs[i] for i in order)

    @property
    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        if self._pairs is None:
            targets = _code_points(self._domain.algebra, self._domain._atoms, self._dim,
                                   self._image_codes)
            self._pairs = tuple(zip(self._domain.points, targets))
        return self._pairs

    @property
    def _image_codes(self) -> list[int]:
        """The image of every domain code: a table per half of the atoms
        maps a code's part there (few distinct values) to its image; over a
        convex domain the parts are the product of the pattern maps' keys."""
        if self._images is None:
            codes, maps = self._domain.codes, self._atom_maps
            masks = _atom_masks(len(maps), self._domain.dim)
            tables = []
            for half in (range(len(maps) // 2), range(len(maps) // 2, len(maps))):
                mask = sum(masks[t] for t in half)
                if self._domain.convex:
                    table = {0: 0}
                    for t in half:
                        table = {p + q: v + w for p, v in table.items() for q, w in maps[t].items()}
                else:
                    table = {part: sum(maps[t][part & masks[t]] for t in half)
                             for part in {c & mask for c in codes}}
                tables.append((mask, table))
            (low, at_low), (high, at_high) = tables
            self._images = [at_low[c & low] + at_high[c & high] for c in codes]
        return self._images

    @property
    def _ends(self) -> list[tuple[Algebra, int]]:
        """The algebra and dimension of its sources and of its targets, if any."""
        return [] if self._domain is None else [(self._domain.algebra, self._domain.dim),
                                                (self._domain.algebra, self._dim)]

    def _lies_in(self, space: FiniteSpace, targets: bool = True) -> bool:
        """Whether its sources (and its targets, if asked) are points of
        ``space``, by their codes; a constructed map answers a convex space
        from its pattern maps' keys and values."""
        if any(end != (space.algebra, space.dim) for end in self._ends[:1 + targets]):
            return False
        if self._domain is None:
            return True
        if self._images is None and space.convex:
            return all(f.keys() | (f.values() if targets else ()) <= set(pats)
                       for f, pats in zip(self._atom_maps, space._patterns[1]))
        if self._domain._atoms != space._atoms:  # finite-cofinite codes over other atoms
            return space._holds(self.sources + self.targets if targets else self.sources)
        return space._has(self._domain.codes + (self._image_codes if targets else []))

    @property
    def sources(self) -> tuple[Point, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def targets(self) -> tuple[Point, ...]:
        return tuple(t for _, t in self.pairs)

    def __call__(self, x: Point) -> Point:
        if not self.defined_at(x):
            raise StructureError(f"point {x.literal} is outside the map's domain")
        return self._mapping[x]

    def __len__(self) -> int:
        return 0 if self._domain is None else len(self._domain)

    def __eq__(self, other):
        return isinstance(other, PartialMap) and other.pairs == self.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"PartialMap(pairs={self.pairs!r})"

    def defined_at(self, x: Point) -> bool:
        if self._mapping is None:
            self._mapping = dict(self.pairs)
        return x in self._mapping


class MapVerdict(NamedTuple):
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
    The verdict and a contractive map's pattern maps stay on the map; a
    map from :func:`_checked_map` carries what its post-check proved.
    """
    if pm._verdict is None:
        pm._verdict = _classify(pm)
    return pm._verdict


def _classify(pm: PartialMap) -> MapVerdict:
    """The verdict of a map held as its sources' and images' codes, atom by
    atom, by masking them; a contractive map keeps its pattern maps, keyed
    as its pairs show them.  Only a violation's witness builds points."""
    maps, witness = [], None
    if pm._domain is not None:
        codes, k = pm._domain.codes, len(pm._domain._atoms)
        for m, image_m in zip(_atom_masks(k, pm._domain.dim), _atom_masks(k, pm._dim)):
            pairs = list(zip([c & m for c in codes], [c & image_m for c in pm._image_codes]))
            maps.append(dict(pairs))  # keyed in the order the pairs first show a pattern
            if len(set(pairs)) == len(maps[-1]):
                continue  # a function on this atom
            heads: dict = {}
            for i, (src, img) in enumerate(pairs):
                first, first_img = heads.setdefault(src, (i, img))
                if img != first_img and (witness is None or (first, i) < witness):
                    witness = (first, i)
    if witness is not None:
        pairs = pm.pairs
        return MapVerdict("violation", witness=(pairs[witness[0]][0], pairs[witness[1]][0]))
    pm._atom_maps = maps
    return MapVerdict("isometric" if all(len(set(g.values())) == len(g) for g in maps)
                      else "contractive")


def _checked_map(domain: FiniteSpace, relations: Sequence[Iterable[tuple[int, int]]],
                 dim: int, inputs: Sequence[PartialMap] = (), isometric: bool = False,
                 within: FiniteSpace | None = None) -> PartialMap:
    """The map on ``domain`` (finite atomic) into dimension ``dim`` that
    sends a pattern on atom ``t`` through ``relations[t]``, pairs of
    patterns, checked per atom in O(patterns + input patterns x atoms): each
    relation is a function on the domain's patterns (contractive) and
    injective if ``isometric``; the map extends ``inputs`` (their sources
    lie in the domain, their pattern maps agree); ``within`` is convex and
    shows its image patterns, and an isometry is onto, as large as ``within``.
    The map keeps its verdict and pattern maps, each led, as a pair map's,
    by the first point's pattern, then in the domain's pattern order.  A
    failure is a bug of the construction: :class:`VerificationError`."""
    out = PartialMap(())  # then kept as pattern maps, its pairs unbuilt
    out._pairs, out._domain, out._images, out._atom_maps, out._dim = None, domain, None, [], dim
    first = sum(pats[0] for pats in domain._patterns[1]) if domain.convex else domain.codes[0]
    for relation, pats in zip(relations, domain._patterns[1]):
        g: dict = {}
        if any(g.setdefault(p, q) != q for p, q in relation) or not g.keys() >= set(pats):
            raise VerificationError("the constructed map is not a function on its domain")
        lead = max(p for p in pats if p & first == p)  # the first point's: the largest in it
        out._atom_maps.append({p: g[p] for p in (lead, *pats)})
    injective = all(len(set(g.values())) == len(g) for g in out._atom_maps)
    if isometric and not injective:
        raise VerificationError("the constructed map is not isometric")
    out._verdict = MapVerdict("isometric" if injective else "contractive")
    for pm in filter(len, inputs):
        if not (pm._lies_in(domain, targets=False) and check_map(pm).ok) or any(
                g.get(p) != q for g, f in zip(out._atom_maps, pm._atom_maps)
                for p, q in f.items()):
            raise VerificationError("the constructed map does not extend its inputs")
    if within is not None and not (
            within.algebra == domain.algebra and within.dim == dim and within.convex
            and all(set(g.values()) <= set(targets)
                    for g, targets in zip(out._atom_maps, within._patterns[1]))
            and (not isometric or len(domain) == len(within))):
        raise VerificationError("the constructed map is not into (an isometry: onto) "
                                "its target space")
    return out


def _extend(pm: PartialMap, ambient: FiniteSpace, isometric: bool) -> PartialMap:
    """The frame of both extension pipelines and the homogeneity swap:
    check the ambient and the input, then build the map atom by atom and
    post-check it as a self-map extending the input, isometric if asked.
    On an atom with patterns ``P`` it keeps the input's pattern map ``f``
    on ``D = f.keys()`` and sends ``sorted(P - D)[i]`` to ``f(a)``, ``a``
    the first source's pattern, or for an isometry to
    ``s(sorted(P - s(f(D)))[i])``, ``s`` the swap of ``a`` and ``f(a)``;
    an empty input gives the identity."""
    if not ambient.convex:
        raise StructureError("the ambient space must be convex")
    if not pm._lies_in(ambient):
        raise StructureError("the map must send points of the space into the space")
    verdict = check_map(pm)
    if not verdict.ok or isometric and verdict.kind != "isometric":
        raise InfeasibleError("the input pairs do not "
                              f"{'preserve' if isometric else 'contract'} distances",
                              witness=verdict.witness)
    _require_atomic(ambient.algebra, "convex decomposition")
    relations = [zip(pats, pats) for pats in ambient._patterns[1]]  # identity if empty
    for t, f in enumerate(pm._atom_maps):
        f, a, pats = dict(f), next(iter(f)), set(ambient._patterns[1][t])
        rest = sorted(pats - f.keys())
        if isometric:
            s = {a: f[a], f[a]: a}
            free = sorted(pats - {s.get(q, q) for q in f.values()})
            if len(free) != len(rest):
                raise VerificationError("complements of isometric subspaces must have "
                                        "equal profiles")
            f |= {p: s.get(q, q) for p, q in zip(rest, free)}
        else:
            f |= dict.fromkeys(rest, f[a])
        relations[t] = f.items()
    return _checked_map(ambient, relations, ambient.dim, inputs=(pm,), isometric=isometric,
                        within=ambient)
