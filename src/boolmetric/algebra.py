"""Two exactly-represented Boolean algebras.

* The finite atomic algebra with ``k`` atoms.  Elements are joins of atoms
  and are stored as ``k``-bit masks, so every lattice operation is a single
  integer operation.  Atom ``i`` corresponds to bit ``i`` and to position
  ``i`` (counted from the left) in the text literal, e.g. ``"101"``.

* The algebra of finite and cofinite subsets of the naturals.  Elements are
  stored as a finite support, packed into an integer mask (bit ``n`` is
  the natural ``n``), plus a tag saying whether the element is that finite
  set or its complement, so every lattice operation is again one integer
  operation.  Supports contain naturals below :data:`MAX_NATURAL` only,
  which bounds a mask at ``MAX_NATURAL`` bits.  This algebra is not
  complete: an infinite, co-infinite set of naturals is neither finite nor
  cofinite, so some bounded families have no least upper bound inside the
  algebra.

All operations are exact; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StructureError, UnsupportedOperationError

FINITE_ATOMIC = "finite-atomic"
FINITE_COFINITE = "finite-cofinite"

#: Supports of finite-cofinite elements contain naturals below this bound
#: only: ``fin``, ``cof`` and ``parse`` refuse larger ones, so that no mask
#: grows beyond ``MAX_NATURAL`` bits.
MAX_NATURAL = 2 ** 16

_FINCOF_LITERAL = re.compile(r"(fin|cof)\{([0-9]+(?:,[0-9]+)*)?\}")


@dataclass(frozen=True)
class Algebra:
    """A handle identifying one of the two supported algebras.

    Two handles with the same kind (and atom count) are interchangeable;
    elements built from either compare equal.
    """

    kind: str
    atom_count: int | None = None

    def __post_init__(self):
        if self.kind == FINITE_ATOMIC:
            if not isinstance(self.atom_count, int) or self.atom_count < 1:
                raise StructureError("a finite atomic algebra needs a positive atom count")
        elif self.kind == FINITE_COFINITE:
            if self.atom_count is not None:
                raise StructureError("the finite-cofinite algebra has no atom count")
        else:
            raise StructureError(f"unknown algebra kind: {self.kind!r}")

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> "Element":
        if self.kind == FINITE_ATOMIC:
            return BitsElement(self, 0)
        return SetElement(self, False, 0)

    @property
    def one(self) -> "Element":
        if self.kind == FINITE_ATOMIC:
            return BitsElement(self, (1 << self.atom_count) - 1)
        return SetElement(self, True, 0)

    def element(self, bits: int) -> "Element":
        """Finite atomic element from a bit mask (bit i = atom i)."""
        if self.kind != FINITE_ATOMIC:
            raise UnsupportedOperationError("bit masks only describe finite atomic elements")
        if not 0 <= bits < (1 << self.atom_count):
            raise StructureError(f"bit mask {bits} out of range for {self.atom_count} atoms")
        return BitsElement(self, bits)

    def _make(self, bits: int) -> "BitsElement":
        # Internal fast path; callers guarantee the range.
        return BitsElement(self, bits)

    def atom(self, index: int) -> "Element":
        if self.kind != FINITE_ATOMIC:
            raise UnsupportedOperationError("the finite-cofinite algebra is atomless at the top: "
                                            "use fin({n}) for singletons")
        if not 0 <= index < self.atom_count:
            raise StructureError(f"atom index {index} out of range")
        return BitsElement(self, 1 << index)

    def fin(self, support: Iterable[int]) -> "Element":
        """The finite set with the given support."""
        if self.kind != FINITE_COFINITE:
            raise UnsupportedOperationError("fin/cof elements live in the finite-cofinite algebra")
        return SetElement(self, False, _check_support(support))

    def cof(self, support: Iterable[int]) -> "Element":
        """The complement of the finite set with the given support."""
        if self.kind != FINITE_COFINITE:
            raise UnsupportedOperationError("fin/cof elements live in the finite-cofinite algebra")
        return SetElement(self, True, _check_support(support))

    # -- literals ---------------------------------------------------------

    def parse(self, literal: str) -> "Element":
        """Parse an element literal.

        Finite atomic: a string of 0/1 characters, one per atom, leftmost
        character is atom 0, e.g. ``"101"``.  Finite-cofinite: ``fin{...}``
        or ``cof{...}`` with ascending comma-separated naturals below
        :data:`MAX_NATURAL` and no spaces, e.g. ``fin{1,3}`` or ``cof{}``.
        """
        if self.kind == FINITE_ATOMIC:
            if len(literal) != self.atom_count or any(c not in "01" for c in literal):
                raise StructureError(f"bad element literal {literal!r} "
                                     f"for {self.atom_count} atoms")
            return BitsElement(self, int(literal[::-1], 2))
        m = _FINCOF_LITERAL.fullmatch(literal)
        if m is None:
            raise StructureError(f"bad element literal {literal!r} for the finite-cofinite algebra")
        values = [_decimal(v) for v in m.group(2).split(",")] if m.group(2) else []
        if None in values:  # more digits than int() converts
            raise StructureError(f"naturals must lie below {MAX_NATURAL}: {literal!r}")
        if any(b >= a for a, b in zip(values[1:], values)):
            raise StructureError(f"literal support must be strictly ascending: {literal!r}")
        return SetElement(self, m.group(1) == "cof", _check_support(values))

    def elements(self) -> Iterator["Element"]:
        """All elements, in bit-mask order (finite atomic only)."""
        if self.kind != FINITE_ATOMIC:
            raise UnsupportedOperationError("cannot enumerate the finite-cofinite algebra")
        for bits in range(1 << self.atom_count):
            yield BitsElement(self, bits)


def atomic_algebra(atom_count: int) -> Algebra:
    return Algebra(FINITE_ATOMIC, atom_count)


def fincof_algebra() -> Algebra:
    return Algebra(FINITE_COFINITE)


def _check_support(values: Iterable[int]) -> int:
    """The mask of a support given as naturals below ``MAX_NATURAL``."""
    mask = 0
    for v in values:
        if not isinstance(v, int) or v < 0:
            raise StructureError(f"supports contain naturals only, got {v!r}")
        if v >= MAX_NATURAL:
            raise StructureError(f"supports contain naturals below {MAX_NATURAL} only, got {v}")
        mask |= 1 << v
    return mask


def _decimal(text: str) -> int | None:
    """``text`` as an int if it is ``-?[0-9]+`` and int() takes it (4300 digits), else None."""
    try:
        return int(text) if re.fullmatch("-?[0-9]+", text) else None
    except ValueError:
        return None


def _naturals(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    return [n for n, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


@functools.cache
def _byte_texts(position: int) -> tuple[str, ...]:
    """The support text of each value of byte ``position`` of a mask."""
    return tuple(",".join(str(8 * position + n) for n in _naturals(b)) for b in range(256))


def _support_text(mask: int) -> str:
    """The comma-separated naturals of a support, ascending.  Naturals
    below 64 come from per-byte tables; tables for every byte of a wide
    mask would cost seconds, so the rest are rendered one by one."""
    parts, position, low = [], 0, mask & (1 << 64) - 1
    while low:
        if low & 255:
            parts.append(_byte_texts(position)[low & 255])
        low, position = low >> 8, position + 1
    if mask >> 64:
        parts.append(",".join(map(str, _naturals(mask >> 64 << 64))))
    return ",".join(parts)


class Element:
    """Common interface of elements of either algebra."""

    __slots__ = ()

    algebra: Algebra

    @property
    def is_zero(self) -> bool:
        return self == self.algebra.zero

    @property
    def literal(self) -> str:
        raise NotImplementedError

    def sort_key(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.literal}>"


def _same(a: Element, b: Element):
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise StructureError("operands belong to different algebras")


class BitsElement(Element):
    """Element of a finite atomic algebra, stored as a bit mask."""

    __slots__ = ("algebra", "bits")

    def __init__(self, algebra: Algebra, bits: int):
        self.algebra = algebra
        self.bits = bits

    def __eq__(self, other):
        return (isinstance(other, BitsElement)
                and other.bits == self.bits and other.algebra == self.algebra)

    def __hash__(self):
        return hash((self.algebra.atom_count, self.bits))

    def __and__(self, other):
        _same(self, other)
        return BitsElement(self.algebra, self.bits & other.bits)

    def __or__(self, other):
        _same(self, other)
        return BitsElement(self.algebra, self.bits | other.bits)

    def __xor__(self, other):
        _same(self, other)
        return BitsElement(self.algebra, self.bits ^ other.bits)

    def __sub__(self, other):
        _same(self, other)
        return BitsElement(self.algebra, self.bits & ~other.bits)

    def __invert__(self):
        return BitsElement(self.algebra, self.bits ^ ((1 << self.algebra.atom_count) - 1))

    def __le__(self, other):
        _same(self, other)
        return self.bits & ~other.bits == 0

    @property
    def literal(self) -> str:
        return format(self.bits, f"0{self.algebra.atom_count}b")[::-1]

    def sort_key(self):
        return self.literal


class SetElement(Element):
    """Finite or cofinite set of naturals, stored by its finite support.

    ``mask`` packs the support (bit ``n`` is the natural ``n``, below
    :data:`MAX_NATURAL`); ``cofinite`` says whether the element is that
    finite set or its complement.  ``support`` is the same set as a
    frozenset, built on demand.
    """

    __slots__ = ("algebra", "cofinite", "mask")

    def __init__(self, algebra: Algebra, cofinite: bool, mask: int):
        self.algebra = algebra
        self.cofinite = cofinite
        self.mask = mask

    @property
    def support(self) -> frozenset[int]:
        return frozenset(_naturals(self.mask))

    @property
    def is_zero(self) -> bool:
        return not self.cofinite and not self.mask

    def __eq__(self, other):
        return (isinstance(other, SetElement)
                and other.cofinite == self.cofinite and other.mask == self.mask)

    def __hash__(self):
        return hash((self.cofinite, self.mask))

    @property
    def pair(self) -> tuple[bool, int]:
        """The ``(cofinite, mask)`` pair the lattice rules below act on.
        The operators spell it out, saving a property call per operand."""
        return self.cofinite, self.mask

    def __and__(self, other):
        _same(self, other)
        cofinite, mask = fc_meet((self.cofinite, self.mask), (other.cofinite, other.mask))
        return SetElement(self.algebra, cofinite, mask)

    def __or__(self, other):
        _same(self, other)
        cofinite, mask = fc_join((self.cofinite, self.mask), (other.cofinite, other.mask))
        return SetElement(self.algebra, cofinite, mask)

    def __xor__(self, other):
        _same(self, other)
        cofinite, mask = fc_xor((self.cofinite, self.mask), (other.cofinite, other.mask))
        return SetElement(self.algebra, cofinite, mask)

    def __sub__(self, other):
        return self & ~other

    def __invert__(self):
        return SetElement(self.algebra, not self.cofinite, self.mask)

    def __le__(self, other):
        _same(self, other)
        return fc_leq((self.cofinite, self.mask), (other.cofinite, other.mask))

    @property
    def literal(self) -> str:
        return fc_literal(self.pair)

    def sort_key(self):
        return (1 if self.cofinite else 0, tuple(_naturals(self.mask)))

    def contains(self, n: int) -> bool:
        """Set membership of the natural ``n``."""
        return (self.mask >> n & 1) != self.cofinite


# -- the finite-cofinite lattice on (cofinite, mask) pairs -----------------
#
# A finite-cofinite element is the pair (cofinite, mask): the finite set
# ``mask`` (bit n is the natural n) or its complement.  These rules are the
# only code that combines such pairs: ``SetElement`` wraps them, and the
# counterexample searches run on them directly.

def fc_meet(a: tuple[bool, int], b: tuple[bool, int]) -> tuple[bool, int]:
    (ac, am), (bc, bm) = a, b
    if ac and bc:
        return True, am | bm
    if ac:
        return False, bm & ~am
    if bc:
        return False, am & ~bm
    return False, am & bm


def fc_join(a: tuple[bool, int], b: tuple[bool, int]) -> tuple[bool, int]:
    (ac, am), (bc, bm) = a, b
    if ac and bc:
        return True, am & bm
    if ac:
        return True, am & ~bm
    if bc:
        return True, bm & ~am
    return False, am | bm


def fc_xor(a: tuple[bool, int], b: tuple[bool, int]) -> tuple[bool, int]:
    return a[0] != b[0], a[1] ^ b[1]


def fc_leq(a: tuple[bool, int], b: tuple[bool, int]) -> bool:
    (ac, am), (bc, bm) = a, b
    if not ac:
        # a finite set is below b when it avoids what b leaves out
        return not am & (bm if bc else ~bm)
    # a cofinite set is below cofinite sets leaving out less only
    return bc and not bm & ~am


def fc_literal(a: tuple[bool, int]) -> str:
    return ("cof{" if a[0] else "fin{") + _support_text(a[1]) + "}"


# -- functional spellings of the lattice operations -----------------------

def meet(a: Element, b: Element) -> Element:
    return a & b


def join(a: Element, b: Element) -> Element:
    return a | b


def difference(a: Element, b: Element) -> Element:
    return a - b


def symdiff(a: Element, b: Element) -> Element:
    return a ^ b


def complement(a: Element) -> Element:
    return ~a


def leq(a: Element, b: Element) -> bool:
    return a <= b


def sup_family(elements: Iterable[Element], algebra: Algebra | None = None) -> Element:
    """Least upper bound of a finite family.

    The empty family yields 0 by convention, in which case the algebra
    must be passed explicitly.
    """
    out: Element | None = None
    for e in elements:
        out = e if out is None else out | e
    if out is None:
        if algebra is None:
            raise StructureError("sup of an empty family needs an explicit algebra")
        return algebra.zero
    return out


def inf_family(elements: Iterable[Element], algebra: Algebra | None = None) -> Element:
    """Greatest lower bound of a finite family; empty family yields 1."""
    out: Element | None = None
    for e in elements:
        out = e if out is None else out & e
    if out is None:
        if algebra is None:
            raise StructureError("inf of an empty family needs an explicit algebra")
        return algebra.one
    return out


def atoms(algebra: Algebra) -> list[Element]:
    """The atoms of a finite atomic algebra, in index order."""
    if algebra.kind != FINITE_ATOMIC:
        raise UnsupportedOperationError("atom enumeration needs the finite atomic algebra")
    return [algebra.atom(i) for i in range(algebra.atom_count)]
