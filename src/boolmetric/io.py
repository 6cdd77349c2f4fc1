"""The plain-text input format.

A file declares one algebra, then any number of spaces and maps::

    algebra finite k=2    # '#' starts a comment, to the end of the line
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
``point`` lines of the named space, in file order.  Blank lines are
skipped, and names cannot contain ``#``.  Files are read as UTF-8, a
leading byte-order mark dropped.  Parsing failures raise ParseError
with the offending line number; an empty block's is its header line.

Over a finite atomic algebra a ``point`` line is read straight to its
code (its literals' characters, joined, are the code's bits from the
top).  A finite-cofinite one is parsed to a point, and the points are
coded over the atoms they show when their block closes.  Either way a
space is held as its codes, and ``space_points`` builds the points, in
file order, when first read.  A map block is held as its sources' and
targets' codes (between finite-cofinite spaces that show different
naturals: given as points).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .algebra import FINITE_ATOMIC, Algebra, _decimal, atomic_algebra, fincof_algebra
from .errors import ParseError, StructureError
from .spaces import FiniteSpace, PartialMap, Point, _code_points, _held_space, _join_atoms, space


class ParsedMap(NamedTuple):
    name: str
    source_space: str
    target_space: str
    map: PartialMap


class ParsedInput(NamedTuple):
    algebra: Algebra
    spaces: dict[str, FiniteSpace]
    file_order: dict[str, tuple]  # each space's point codes, in file order
    maps: dict[str, ParsedMap]

    @property
    def space_points(self) -> dict[str, tuple[Point, ...]]:
        """Each space's points in file order (the space's own, built when first read)."""
        return {name: tuple(sp.points[sp._index[key]] for key in self.file_order[name])
                for name, sp in self.spaces.items()}

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
    if rest == ["cofinite"]:
        return fincof_algebra()
    if rest[:1] != ["finite"]:
        raise ParseError("expected 'algebra finite k=N' or 'algebra cofinite'", line_no)
    count = _decimal(rest[1][2:]) if len(rest) == 2 and rest[1].startswith("k=") else None
    if count is None:
        raise ParseError("expected 'algebra finite k=N'", line_no)
    try:
        return atomic_algebra(count)
    except StructureError as exc:
        raise ParseError(str(exc), line_no) from None


def _keyword(token: str, key: str, line_no: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"expected '{key}=...', got {token!r}", line_no)
    return token[len(key) + 1:]


def parse_input(text: str) -> ParsedInput:
    algebra: Algebra | None = None
    spaces: dict[str, FiniteSpace] = {}
    file_order: dict[str, tuple] = {}
    maps: dict[str, ParsedMap] = {}

    # The one open block: its directive, header line, header fields and body.
    # A space's fields are its name, its dimension and its basepoint's
    # (index, line); its body keys its points (finite atomic: their codes) in
    # file order.  A map's fields are its name and its two spaces; its body
    # maps each source index to its target index.
    kind, header, fields, body = None, 0, [], {}

    def points(ref: str, indices) -> Sequence[Point]:
        sp = spaces[ref]
        return _code_points(algebra, sp._atoms, sp.dim, [file_order[ref][i] for i in indices])

    def close():
        if kind == "space":
            name, dim, basepoint_at = fields
            if not body:
                raise ParseError(f"space {name!r} has no points", header)
            sp = spaces[name] = _held_space(algebra, dim, sorted(body)) if atomic else space(body)
            file_order[name] = tuple(body if atomic else sp._keys(list(body)))
            if basepoint_at is not None:
                index, line_no = basepoint_at
                if not 0 <= index < len(body):
                    raise ParseError(f"basepoint index {index} out of "
                                     f"range for space {name!r}", line_no)
                sp.basepoint = points(name, [index])[0]
        elif kind == "map":
            name, src, dst = fields
            if not body:
                raise ParseError(f"map {name!r} has no pairs", header)
            a, b = spaces[src], spaces[dst]
            if a._atoms != b._atoms:
                pm = PartialMap(zip(points(src, body.keys()), points(dst, body.values())))
            else:  # its codes, in the order of the source space
                pairs = sorted(((file_order[src][i], file_order[dst][j]) for i, j in body.items()),
                               key=lambda pair: a._index[pair[0]])
                pm = PartialMap(())
                pm._domain = _held_space(algebra, a.dim, [s for s, _ in pairs], atoms=a._atoms)
                pm._images, pm._dim, pm._pairs = [t for _, t in pairs], b.dim, None
            maps[name] = ParsedMap(name, src, dst, pm)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]

        if head == "algebra":
            if algebra is not None:
                raise ParseError("algebra declared twice", line_no)
            algebra = _parse_algebra(rest, line_no)
            atomic, k = algebra.kind == FINITE_ATOMIC, algebra.atom_count
            continue
        if algebra is None:
            raise ParseError("the first directive must declare the algebra", line_no)

        if head == "point":
            if kind != "space":
                raise ParseError("'point' outside a space block", line_no)
            if len(rest) != fields[1]:
                raise ParseError(f"expected {fields[1]} coordinates, "
                                 f"got {len(rest)}", line_no)
            try:  # a finite atomic code's bits are the literals' characters, from the top
                if atomic and not (bits := "".join(rest)).strip("01") and all(
                        len(tok) == k for tok in rest):
                    key = int(bits, 2)
                else:  # a bad finite atomic literal raises as the algebra parses it
                    key = Point(algebra.parse(tok) for tok in rest)
            except StructureError as exc:
                raise ParseError(str(exc), line_no) from None
            if key in body:
                raise ParseError(f"duplicate point {Point.from_literals(algebra, *rest).literal}; "
                                 "indices would be ambiguous", line_no)
            body[key] = None
        elif head == "space":
            close()
            if len(rest) != 2:
                raise ParseError("expected 'space NAME dim=N'", line_no)
            name = rest[0]
            if name in spaces:
                raise ParseError(f"space {name!r} declared twice", line_no)
            dim = _decimal(_keyword(rest[1], "dim", line_no))
            if dim is None:
                raise ParseError(f"bad dimension {rest[1]!r}", line_no)
            if dim < 1:
                raise ParseError("dimension must be at least 1", line_no)
            kind, header, fields, body = head, line_no, [name, dim, None], {}
        elif head == "basepoint":
            if kind != "space":
                raise ParseError("'basepoint' outside a space block", line_no)
            if fields[2] is not None:
                raise ParseError("basepoint declared twice", line_no)
            index = _decimal(rest[0]) if len(rest) == 1 else None
            if index is None:
                raise ParseError("expected 'basepoint INDEX'", line_no)
            fields[2] = (index, line_no)
        elif head == "map":
            close()
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
            kind, header, fields, body = head, line_no, [name, src, dst], {}
        elif head == "pair":
            if kind != "map":
                raise ParseError("'pair' outside a map block", line_no)
            if len(rest) != 3 or rest[1] != "->":
                raise ParseError("expected 'pair I -> J'", line_no)
            i, j = _decimal(rest[0]), _decimal(rest[2])
            if i is None or j is None:
                raise ParseError("pair indices must be integers", line_no)
            name, src, dst = fields
            for index, ref in ((i, src), (j, dst)):
                if not 0 <= index < len(file_order[ref]):
                    raise ParseError(f"pair index {index} out of range for "
                                     f"space {ref!r}", line_no)
            if body.setdefault(i, j) != j:
                source = points(src, [i])[0]
                raise ParseError(f"map {name!r}: conflicting images for source point "
                                 f"{source.literal}", line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    close()
    if algebra is None:
        raise ParseError("empty input: no algebra declared")
    return ParsedInput(algebra, spaces, file_order, maps)


def read_input(path: str) -> ParsedInput:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_input(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


# ---------------------------------------------------------------------------
# Emission.  Emitted blocks re-parse to the same objects; points come out
# in canonical order, from their codes.
# ---------------------------------------------------------------------------


def format_algebra(algebra: Algebra) -> str:
    if algebra.kind == FINITE_ATOMIC:
        return f"algebra finite k={algebra.atom_count}"
    return "algebra cofinite"


def format_space(name: str, sp: FiniteSpace) -> str:
    # each distinct chunk's literal, first chunk and rest of a code is rendered
    # once; a finite atomic chunk's literal is its bits
    atoms, codes = sp._atoms, sp.codes
    k, rest = len(atoms), len(atoms) * (sp.dim - 1)
    low, chunk = (1 << rest) - 1, (1 << k) - 1
    heads, tails = {c >> rest for c in codes}, dict.fromkeys({c & low for c in codes}, "")
    chunks = heads.union(*[{t >> s & chunk for t in tails} for s in range(0, rest, k)])
    literals = {ch: f" {ch:0{k}b}" if atoms[-1] is not None
                else " " + _join_atoms(sp.algebra, atoms, ch).literal for ch in chunks}
    heads = {h: "point" + literals[h] for h in heads}
    for s in range(0, rest, k):  # a rest's literals, from its last chunk
        tails = {t: literals[t >> s & chunk] + text for t, text in tails.items()}
    lines = [f"space {name} dim={sp.dim}"]
    lines.extend([heads[c >> rest] + tails[c & low] for c in codes])
    if sp.basepoint is not None:
        lines.append(f"basepoint {sp.index(sp.basepoint)}")
    return "\n".join(lines)


def format_map(name: str, pm: PartialMap, source_name: str, target_name: str,
               source: FiniteSpace, target: FiniteSpace) -> str:
    lines = [f"map {name} from={source_name} to={target_name}"]
    # a code keys a point only within one algebra and dimension
    if any(end != (sp.algebra, sp.dim) for end, sp in zip(pm._ends, (source, target))):
        raise StructureError("the map's points are not in the given spaces")
    if len(pm) and pm._domain._atoms == source._atoms == target._atoms:
        keys = zip(pm._domain.codes, pm._image_codes)
    else:  # finite-cofinite codes over other atoms
        keys = zip(source._keys(pm.sources), target._keys(pm.targets))
    at, to = source._index, target._index
    try:
        lines.extend(f"pair {at[s]} -> {to[t]}" for s, t in keys)
    except KeyError:
        raise StructureError("the map's points are not in the given spaces") from None
    return "\n".join(lines)
