"""Obstructions to extension over the finite-cofinite algebra.

Fix an infinite, co-infinite decidable set M of naturals (described by a
residue predicate).  Inside the algebra B of finite and cofinite sets, the
ideal I of finite subsets of M has no supremum: every upper bound must be a
cofinite set containing M, and removing one more point of the complement
gives a smaller upper bound.  This incompleteness breaks the extension
theorems that hold over complete algebras, and this module makes the
failure finitely checkable:

* In the plane over B, restricted to pairs with disjoint coordinates, the
  map that merges a pair to its symmetric difference on the first axis is
  an isometry between two natural subsets, yet no contractive map of the
  plane extends its inverse.  Any candidate image (a, b) for the point
  (1, 0) violates a concrete contraction inequality, and
  :func:`isometry_obstruction_witness` produces one.

* On the line over B, the contraction x -> M & x on finite sets admits no
  contractive extension F to all of B: the value F(1) would have to agree
  with M everywhere, and M is not in B.
  :func:`contraction_obstruction_witness` exhibits a finite set refuting
  any candidate value.

* By contrast, a distance-preserving map between subsets of the line
  itself always extends: its offsets x ^ f(x) are constant, and
  translation by that constant is a global isometry even though the
  algebra is incomplete.  :func:`line_extension` recovers it.

Every witness is a finite object whose violated inequality can be, and is,
re-checked by plain lattice operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import (FINITE_ATOMIC, Algebra, Element, SetElement,
                      fc_join, fc_leq, fc_literal, fc_meet, fc_xor,
                      fincof_algebra)
from .errors import (CapExceededError, InfeasibleError, StructureError,
                     UnsupportedOperationError, VerificationError)
from .spaces import PartialMap, Point

MAX_MODULUS = 8
_NAMED_SETS = {"evens": (0, 2), "odds": (1, 2)}  # label -> (residue, modulus)


@dataclass(frozen=True)
class IdealDescriptor:
    """A decidable infinite, co-infinite set M of naturals: the residue
    class ``residue`` modulo ``modulus`` (modulus between 2 and 8)."""

    residue: int
    modulus: int

    def __post_init__(self):
        if not 2 <= self.modulus <= MAX_MODULUS:
            raise StructureError(f"the modulus must lie between 2 and {MAX_MODULUS} "
                                 "so that the set is infinite and co-infinite")
        if not 0 <= self.residue < self.modulus:
            raise StructureError("the residue must lie below the modulus")

    @classmethod
    def evens(cls) -> "IdealDescriptor":
        return cls.parse("evens")

    @classmethod
    def odds(cls) -> "IdealDescriptor":
        return cls.parse("odds")

    @classmethod
    def parse(cls, label: str) -> "IdealDescriptor":
        if label in _NAMED_SETS:
            return cls(*_NAMED_SETS[label])
        if label.startswith("mod:"):
            try:
                r, m = (int(v) for v in label[4:].split(","))
            except ValueError:
                raise StructureError(f"bad predicate {label!r}; expected mod:r,m") from None
            return cls(r, m)
        raise StructureError(f"unknown predicate {label!r}")

    @property
    def label(self) -> str:
        pair = (self.residue, self.modulus)
        return next((name for name, named in _NAMED_SETS.items() if named == pair),
                    f"mod:{self.residue},{self.modulus}")

    def member(self, n: int) -> bool:
        return n % self.modulus == self.residue

    def member_mask(self, width: int) -> int:
        """The members of M below ``width`` as a mask (bit n is n): a
        repunit in base 2**modulus, shifted by the residue."""
        count = (width - self.residue + self.modulus - 1) // self.modulus  # 0 if width <= residue
        return ((1 << self.modulus * count) - 1) // ((1 << self.modulus) - 1) << self.residue


def _as_fincof(x: Element) -> SetElement:
    if not isinstance(x, SetElement):
        raise StructureError("this construction lives in the finite-cofinite algebra")
    return x


# ---------------------------------------------------------------------------
# The ideals and the plane construction.
# ---------------------------------------------------------------------------


def in_ideal(desc: IdealDescriptor, x: Element) -> bool:
    """Membership in I: finite subsets of M."""
    x = _as_fincof(x)
    return not x.cofinite and not x.mask & ~desc.member_mask(x.mask.bit_length())


def in_orthogonal_ideal(desc: IdealDescriptor, y: Element) -> bool:
    """Membership in J, the annihilator of I: elements disjoint from M.

    A finite set qualifies when its support avoids M.  A cofinite set
    would need to contain no member of M at all, i.e. its finite support
    would have to contain the infinite set M, so the constructive test
    (find one member of M outside the support) always rejects it.
    """
    y = _as_fincof(y)
    if not y.cofinite:
        return not y.mask & desc.member_mask(y.mask.bit_length())
    return False


def in_sum_ideal(desc: IdealDescriptor, z: Element) -> bool:
    """Membership in I + J (elementwise symmetric differences).

    Every finite set z splits as (z & M) ^ (z - M), with the two parts in
    I and J.  No cofinite z belongs: a split would need z ^ x in J for
    some finite x, but z ^ x is then still cofinite and J contains no
    cofinite elements.
    """
    return not _as_fincof(z).cofinite


def split_line_point(desc: IdealDescriptor, z: Element) -> tuple[Element, Element]:
    """The unique split z = x ^ y with x in I and y in J (finite z)."""
    z = _as_fincof(z)
    if not in_sum_ideal(desc, z):
        raise StructureError(f"{z.literal} is not a sum of an I and a J element")
    members = z.mask & desc.member_mask(z.mask.bit_length())
    return SetElement(z.algebra, False, members), SetElement(z.algebra, False, z.mask ^ members)


def is_disjoint_pair(p: Point) -> bool:
    """Membership in the plane restricted to disjoint coordinate pairs."""
    if p.dim != 2:
        raise StructureError("the plane construction uses two coordinates")
    return (p.coords[0] & p.coords[1]).is_zero


def is_split_pair(desc: IdealDescriptor, p: Point) -> bool:
    """Membership in V: pairs (x, y) with x in I and y in J."""
    return (is_disjoint_pair(p) and in_ideal(desc, p.coords[0])
            and in_orthogonal_ideal(desc, p.coords[1]))


def is_line_point(desc: IdealDescriptor, p: Point) -> bool:
    """Membership in U: pairs (z, 0) with z in I + J."""
    if p.dim != 2:
        raise StructureError("the plane construction uses two coordinates")
    return p.coords[1].is_zero and in_sum_ideal(desc, p.coords[0])


def flatten_pair(p: Point) -> Point:
    """The isometry V -> U: (x, y) goes to (x ^ y, 0)."""
    if p.dim != 2:
        raise StructureError("the plane construction uses two coordinates")
    zero = p.algebra.zero
    return Point((p.coords[0] ^ p.coords[1], zero))


def unflatten_line_point(desc: IdealDescriptor, p: Point) -> Point:
    """The inverse isometry U -> V via the unique I + J split."""
    if not is_line_point(desc, p):
        raise StructureError("the point is not on the embedded line")
    x, y = split_line_point(desc, p.coords[0])
    return Point((x, y))


# ---------------------------------------------------------------------------
# Witnesses.
# ---------------------------------------------------------------------------


def _members_window(desc: IdealDescriptor, *masks: int) -> int:
    """M below a width that exceeds every mask's by one period, so that
    each window of ``modulus`` naturals above a support is decided."""
    return desc.member_mask(max(m.bit_length() for m in masks) + desc.modulus)


def _isometry_witness(a: tuple[bool, int], b: tuple[bool, int], members: int):
    """The kernel of :func:`isometry_obstruction_witness` on ``(cofinite,
    mask)`` pairs: ``(kind, element, lhs, rhs)``, with ``members`` from
    :func:`_members_window` of both masks.  Every witness but "overlap" is
    a singleton, found as the lowest set bit of what a coordinate leaves
    out."""
    (ac, am), (bc, bm) = a, b
    # A member of M that a leaves out: an element of I not below a.
    out = am & members if ac else members & ~am
    if out:
        x = (False, out & -out)
        return "ideal", x, fc_join(fc_xor(x, a), b), (True, x[1])
    # A non-member that b leaves out: an element of J not below b.
    out = bm & ~members if bc else ~(members | bm)
    if out:
        y = (False, out & -out)
        return "orthogonal", y, fc_join(fc_xor(y, b), a), (True, y[1])
    # Now a contains M and b its complement: both are cofinite, so their
    # meet is cofinite, in particular nonzero.
    overlap = fc_meet(a, b)
    if overlap == (False, 0):
        raise VerificationError("overlap witness failed; this cannot happen")
    return "overlap", overlap, overlap, None


def _contraction_witness(v: tuple[bool, int], members: int):
    """The kernel of :func:`contraction_obstruction_witness` on ``(cofinite,
    mask)`` pairs: ``(kind, element, lhs, rhs)``, with ``members`` from
    :func:`_members_window` of v's mask.  Above its support v is constant
    while M is not, so they disagree inside the window."""
    vc, vm = v
    disagree = ~(vm ^ members) if vc else vm ^ members
    bit = disagree & -disagree
    return "contraction", (False, bit), fc_xor(v, (False, bit & members)), (True, bit)


def _violated(lhs: tuple[bool, int], rhs: tuple[bool, int] | None) -> bool:
    """Re-check a witness: its inequality ``lhs <= rhs`` (``lhs = 0`` when
    ``rhs`` is None) fails."""
    if rhs is None:
        return lhs != (False, 0)
    return not fc_leq(lhs, rhs)


def _describe(kind: str, element, lhs, rhs) -> str:
    if rhs is None:
        return (f"kind={kind} witness={fc_literal(element)} "
                f"violates {fc_literal(lhs)} = 0")
    return (f"kind={kind} witness={fc_literal(element)} "
            f"violates {fc_literal(lhs)} <= {fc_literal(rhs)}")


@dataclass(frozen=True)
class Witness:
    """A finite refutation of one candidate.

    ``kind`` says which constraint broke: "ideal" (an element of I escapes
    the first coordinate), "orthogonal" (an element of J escapes the second
    coordinate), "overlap" (the candidate coordinates are not disjoint), or
    "contraction" (a finite set refuting a candidate line value).  The
    violated inequality is stored as ``lhs`` and ``rhs`` (``rhs`` is None
    for "overlap", where the failure is ``lhs != 0``).
    """

    kind: str
    element: Element
    lhs: Element
    rhs: Element | None

    @classmethod
    def _of(cls, alg: Algebra, kind: str, element, lhs, rhs) -> "Witness":
        """The witness of a kernel's ``(kind, element, lhs, rhs)`` pairs."""
        return cls(kind, SetElement(alg, *element), SetElement(alg, *lhs),
                   None if rhs is None else SetElement(alg, *rhs))

    def _pairs(self):
        return (self.element.pair, self.lhs.pair,
                None if self.rhs is None else self.rhs.pair)

    @property
    def verified(self) -> bool:
        _, lhs, rhs = self._pairs()
        return _violated(lhs, rhs)

    def describe(self) -> str:
        return _describe(self.kind, *self._pairs())


def isometry_obstruction_witness(candidate: tuple[Element, Element],
                                 desc: IdealDescriptor) -> Witness:
    """Refute a candidate image (a, b) of the point (1, 0) under any
    contractive extension of the merge isometry's inverse.

    Contractivity against the fixed points (x, 0), x in I, forces every
    x <= a; against the points (0, y), y in J, it forces every y <= b.  An
    a above all of I must contain M and a b above all of J must contain
    the complement of M, so a & b cannot vanish, contradicting
    disjointness.  One of the three failures always materializes and is
    returned with its violated inequality.
    """
    a, b = (_as_fincof(candidate[0]), _as_fincof(candidate[1]))
    members = _members_window(desc, a.mask, b.mask)
    return Witness._of(a.algebra, *_isometry_witness(a.pair, b.pair, members))


def contraction_obstruction_witness(candidate: Element,
                                    desc: IdealDescriptor) -> Witness:
    """Refute a candidate value v = F(1) for a contractive extension of
    x -> M & x from finite sets to the whole line.

    Contractivity against a finite x forces v ^ (M & x) <= complement(x),
    i.e. v must agree with M inside x.  The least natural where the
    candidate and M disagree yields a singleton refutation; it exists
    because v is finite or cofinite while M is neither.
    """
    v = _as_fincof(candidate)
    members = _members_window(desc, v.mask)
    return Witness._of(v.algebra, *_contraction_witness(v.pair, members))


def bounded_candidates(max_support: int = 16) -> Iterator[Element]:
    """All fin S and cof S (finite-cofinite) with S inside {0..max_support},
    in a fixed order: supports by binary counting, fin before cof."""
    alg = fincof_algebra()
    for mask in range(1 << (max_support + 1)):
        yield SetElement(alg, False, mask)
        yield SetElement(alg, True, mask)


def _sweep(which: str, max_support: int, desc: IdealDescriptor):
    """``(mask, found)`` for every support S of :func:`bounded_candidates`,
    in its order: ``found`` holds the witnesses, on ``(cofinite, mask)``
    pairs, of the candidates fin S and cof S.  For "contraction" a
    candidate is the line value v, for "two-dim" the plane candidate
    (v, ~v)."""
    members = _members_window(desc, (1 << max_support + 1) - 1)
    for mask in range(1 << max_support + 1):
        fin, cof = (False, mask), (True, mask)
        if which == "contraction":
            yield mask, (_contraction_witness(fin, members), _contraction_witness(cof, members))
        else:
            yield mask, (_isometry_witness(fin, cof, members), _isometry_witness(cof, fin, members))


def _require_candidates_within(max_support: int, cap: int):
    """Refuse a sweep whose ``2 ** (max_support + 2)`` candidates would
    exceed ``cap``; exponents are compared, so no huge power is built."""
    if max_support + 2 >= cap.bit_length():
        raise CapExceededError(f"the sweep would exceed {cap} candidates; "
                               "raise max_points to override")


# ---------------------------------------------------------------------------
# The positive one-dimensional case.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineExtension:
    """A global isometry of the one-dimensional space: translation by a
    fixed element, x -> offset ^ x.  Works over either algebra, including
    the incomplete one, because no suprema are needed."""

    offset: Element

    def __call__(self, p: Point) -> Point:
        if p.dim != 1:
            raise StructureError("line translations act on one-coordinate points")
        return Point((self.offset ^ p.coords[0],))

    def as_pairs(self, points) -> PartialMap:
        return PartialMap(tuple((p, self(p)) for p in points))

    def full_map(self) -> PartialMap:
        """The translation on the whole (finite atomic) line."""
        alg = self.offset.algebra
        if alg.kind != FINITE_ATOMIC:
            raise UnsupportedOperationError(
                "the finite-cofinite line is infinite; apply the translation pointwise")
        pairs = tuple((Point((e,)), Point((e ^ self.offset,))) for e in alg.elements())
        return PartialMap(pairs)


def line_extension(pm: PartialMap) -> LineExtension:
    """Extend a distance-preserving map between subsets of the line to a
    translation of the whole line.

    For one-coordinate points, preserving distances is the same as having
    a constant offset x ^ f(x); the translation by that offset is then an
    isometry of all of B extending the input.  A non-constant offset is
    reported as infeasible with the two clashing pairs.
    """
    if not pm.pairs:
        raise StructureError("an empty map does not determine a translation")
    if pm.pairs[0][0].dim != 1 or pm.pairs[0][1].dim != 1:
        raise StructureError("line extension applies to one-coordinate points")
    first_pair = pm.pairs[0]
    offset = first_pair[0].coords[0] ^ first_pair[1].coords[0]
    for s, t in pm.pairs[1:]:
        other = s.coords[0] ^ t.coords[0]
        if other != offset:
            raise InfeasibleError(
                "the map does not preserve distances: offsets "
                f"{offset.literal} and {other.literal} differ",
                witness=(first_pair, (s, t)))
    return LineExtension(offset)
