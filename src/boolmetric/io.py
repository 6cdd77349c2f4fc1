"""The plain-text input format.

A file declares one algebra, then any number of spaces and maps::

    # comment lines and blank lines are skipped
    algebra finite k=2
    space W dim=2
    point 00 00
    point 11 01
    basepoint 0
    map F from=W to=W
    pair 0 -> 1

``algebra finite k=N`` fixes the finite algebra with N atoms;
``algebra cofinite`` selects the finite-cofinite algebra over the
naturals (literals like ``fin{1,3}`` and ``cof{2}``).  ``basepoint``
and ``pair`` refer to points by their zero-based position among the
``point`` lines of the named space, in file order.  Parsing failures
raise ParseError with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, atomic_algebra, fincof_algebra
from .errors import ParseError, StructureError
from .spaces import FiniteSpace, PartialMap, Point, space


@dataclass(frozen=True)
class ParsedMap:
    name: str
    source_space: str
    target_space: str
    map: PartialMap


@dataclass(frozen=True)
class ParsedInput:
    algebra: Algebra
    spaces: dict[str, FiniteSpace]
    space_points: dict[str, tuple[Point, ...]]  # in file order
    maps: dict[str, ParsedMap]

    def only_space(self) -> str:
        if len(self.spaces) != 1:
            raise ParseError("file declares "
                             f"{len(self.spaces)} spaces; name one explicitly")
        return next(iter(self.spaces))

    def only_map(self) -> str:
        if len(self.maps) != 1:
            raise ParseError("file declares "
                             f"{len(self.maps)} maps; name one explicitly")
        return next(iter(self.maps))


def _parse_algebra(rest: list[str], line_no: int) -> Algebra:
    if rest and rest[0] == "finite":
        if len(rest) == 2 and rest[1].startswith("k="):
            try:
                return atomic_algebra(int(rest[1][2:]))
            except (ValueError, StructureError) as exc:
                raise ParseError(str(exc), line_no) from None
        raise ParseError("expected 'algebra finite k=N'", line_no)
    if rest == ["cofinite"]:
        return fincof_algebra()
    raise ParseError("expected 'algebra finite k=N' or 'algebra cofinite'", line_no)


def _keyword(token: str, key: str, line_no: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"expected '{key}=...', got {token!r}", line_no)
    return token[len(key) + 1:]


def parse_input(text: str) -> ParsedInput:
    algebra: Algebra | None = None
    spaces: dict[str, FiniteSpace] = {}
    space_points: dict[str, tuple[Point, ...]] = {}
    maps: dict[str, ParsedMap] = {}

    # Per-block accumulators.
    current_space: str | None = None
    current_dim = 0
    points: list[Point] = []
    basepoint_index: int | None = None
    current_map: tuple[str, str, str] | None = None
    pairs: list[tuple[int, int]] = []

    def close_space(line_no: int):
        nonlocal current_space, points, basepoint_index
        if current_space is None:
            return
        if not points:
            raise ParseError(f"space {current_space!r} has no points", line_no)
        bp = None
        if basepoint_index is not None:
            if not 0 <= basepoint_index < len(points):
                raise ParseError(f"basepoint index {basepoint_index} out of "
                                 f"range for space {current_space!r}", line_no)
            bp = points[basepoint_index]
        try:
            spaces[current_space] = space(points, basepoint=bp)
        except StructureError as exc:
            raise ParseError(str(exc), line_no) from None
        space_points[current_space] = tuple(points)
        current_space, points, basepoint_index = None, [], None

    def close_map(line_no: int):
        nonlocal current_map, pairs
        if current_map is None:
            return
        name, src, dst = current_map
        if not pairs:
            raise ParseError(f"map {name!r} has no pairs", line_no)
        src_points = space_points[src]
        dst_points = space_points[dst]
        resolved = []
        for i, j in pairs:
            if not 0 <= i < len(src_points):
                raise ParseError(f"pair index {i} out of range for "
                                 f"space {src!r}", line_no)
            if not 0 <= j < len(dst_points):
                raise ParseError(f"pair index {j} out of range for "
                                 f"space {dst!r}", line_no)
            resolved.append((src_points[i], dst_points[j]))
        try:
            pm = PartialMap(tuple(resolved))
        except StructureError as exc:
            raise ParseError(f"map {name!r}: {exc}", line_no) from None
        maps[name] = ParsedMap(name, src, dst, pm)
        current_map, pairs = None, []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]

        if head == "algebra":
            if algebra is not None:
                raise ParseError("algebra declared twice", line_no)
            algebra = _parse_algebra(rest, line_no)
            continue
        if algebra is None:
            raise ParseError("the first directive must declare the algebra", line_no)

        if head == "space":
            close_space(line_no)
            close_map(line_no)
            if len(rest) != 2:
                raise ParseError("expected 'space NAME dim=N'", line_no)
            name = rest[0]
            if name in spaces:
                raise ParseError(f"space {name!r} declared twice", line_no)
            try:
                dim = int(_keyword(rest[1], "dim", line_no))
            except ValueError:
                raise ParseError(f"bad dimension {rest[1]!r}", line_no) from None
            if dim < 1:
                raise ParseError("dimension must be at least 1", line_no)
            current_space = name
            current_dim = dim
        elif head == "point":
            if current_space is None:
                raise ParseError("'point' outside a space block", line_no)
            if len(rest) != current_dim:
                raise ParseError(f"expected {current_dim} coordinates, "
                                 f"got {len(rest)}", line_no)
            try:
                p = Point(algebra.parse(tok) for tok in rest)
            except StructureError as exc:
                raise ParseError(str(exc), line_no) from None
            if p in points:
                raise ParseError(f"duplicate point {p.literal}; indices "
                                 "would be ambiguous", line_no)
            points.append(p)
        elif head == "basepoint":
            if current_space is None:
                raise ParseError("'basepoint' outside a space block", line_no)
            if basepoint_index is not None:
                raise ParseError("basepoint declared twice", line_no)
            try:
                basepoint_index = int(rest[0]) if len(rest) == 1 else None
            except ValueError:
                basepoint_index = None
            if basepoint_index is None:
                raise ParseError("expected 'basepoint INDEX'", line_no)
        elif head == "map":
            close_space(line_no)
            close_map(line_no)
            if len(rest) != 3:
                raise ParseError("expected 'map NAME from=A to=B'", line_no)
            name = rest[0]
            if name in maps:
                raise ParseError(f"map {name!r} declared twice", line_no)
            src = _keyword(rest[1], "from", line_no)
            dst = _keyword(rest[2], "to", line_no)
            for ref in (src, dst):
                if ref not in spaces:
                    raise ParseError(f"map {name!r} refers to unknown "
                                     f"space {ref!r}", line_no)
            current_map = (name, src, dst)
        elif head == "pair":
            if current_map is None:
                raise ParseError("'pair' outside a map block", line_no)
            if len(rest) != 3 or rest[1] != "->":
                raise ParseError("expected 'pair I -> J'", line_no)
            try:
                pairs.append((int(rest[0]), int(rest[2])))
            except ValueError:
                raise ParseError("pair indices must be integers", line_no) from None
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    last = text.count("\n") + 1
    close_space(last)
    close_map(last)
    if algebra is None:
        raise ParseError("empty input: no algebra declared")
    return ParsedInput(algebra, spaces, space_points, maps)


def read_input(path: str) -> ParsedInput:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_input(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


# ---------------------------------------------------------------------------
# Emission.  Emitted blocks re-parse to the same objects; points come out
# in canonical order.
# ---------------------------------------------------------------------------


def format_algebra(algebra: Algebra) -> str:
    if algebra.kind == "finite-atomic":
        return f"algebra finite k={algebra.atom_count}"
    return "algebra cofinite"


def format_space(name: str, sp: FiniteSpace) -> str:
    lines = [f"space {name} dim={sp.dim}"]
    lines.extend("point " + " ".join(c.literal for c in p.coords) for p in sp)
    if sp.basepoint is not None:
        lines.append(f"basepoint {sp.index(sp.basepoint)}")
    return "\n".join(lines)


def format_map(name: str, pm: PartialMap, source_name: str, target_name: str,
               source: FiniteSpace, target: FiniteSpace) -> str:
    lines = [f"map {name} from={source_name} to={target_name}"]
    lines.extend(f"pair {source.index(s)} -> {target.index(t)}"
                 for s, t in pm.pairs)
    return "\n".join(lines)
