"""Error taxonomy shared by the whole package.

Every failure mode that callers are expected to handle gets its own class,
so the command line front end can translate exceptions into exit codes
without string matching.
"""

from __future__ import annotations


class BoolmetricError(Exception):
    """Base class for all package errors."""


class StructureError(BoolmetricError):
    """Operands do not fit together (mixed algebras, dimension mismatch,
    missing basepoint, malformed construction arguments)."""


class UnsupportedOperationError(BoolmetricError):
    """The operation is undefined for the given algebra kind, for example
    hull materialization over the finite-cofinite algebra."""


class CapExceededError(BoolmetricError):
    """An enumeration would exceed the configured size cap."""


class NotInHullError(BoolmetricError):
    """A point is not a convex combination of the given generators.

    Carries the point and the index of an atom on which no generator agrees
    with it, which is a complete certificate of non-membership.
    """

    def __init__(self, message: str, atom_index: int | None = None,
                 point: object | None = None):
        super().__init__(message)
        self.atom_index = atom_index
        self.point = point


class InfeasibleError(BoolmetricError):
    """The requested object provably does not exist for this input.

    ``witness`` holds a small certificate when one is available, for
    example the pair of points on which a map fails to be contractive.
    """

    def __init__(self, message: str, witness: object | None = None):
        super().__init__(message)
        self.witness = witness


class VerificationError(BoolmetricError):
    """A constructed object failed its own post-verification.

    The constructions in this package re-check their defining properties
    before returning; this error signals a bug, not a bad input.
    """


class ParseError(BoolmetricError):
    """Malformed input text. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
