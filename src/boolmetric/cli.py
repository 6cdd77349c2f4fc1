"""Command line interface.

Exit codes: 0 on success, 1 when a checked property is violated, 2 on a
syntax or semantic error in the input, 3 when the request is infeasible
(no object with the demanded properties exists, an operation is not
available over the chosen algebra, or the ``--max-points`` hull or
candidate cap was hit).

Output is deterministic: the same input file and flags produce the same
bytes.  ``--json`` prints the same report as a JSON object with the
fields under ``"fields"``, per-item lines under ``"lines"`` and emitted
file-format blocks under ``"blocks"``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, TextIO

from .algebra import _byte_texts, _support_text, fc_literal
from .counterexamples import (IdealDescriptor, _describe,
                              _require_candidates_within, _sweep, _violated)
from .errors import (BoolmetricError, CapExceededError, InfeasibleError,
                     ParseError, StructureError, UnsupportedOperationError,
                     VerificationError)
from .extension import extend_contraction, extend_isometry
from .invariants import (alpha_profile_of_points, build_base,
                         construct_isometry, decide_isometric)
from .io import (ParsedInput, format_algebra, format_map, format_space,
                 read_input)
from .spaces import DEFAULT_MAX_HULL_POINTS, FiniteSpace, check_map, conv_hull
from .suites import SUITES, RunConfig, run_line_extension, run_suite


class Report:
    """An ordered key/value report plus free lines and emitted blocks.

    ``lines`` is a list, or any iterable that yields them once: a long
    listing can be produced while it is written, never held whole."""

    CHUNK = 4096  # lines per write

    def __init__(self, **fields):
        self.fields: dict[str, object] = fields
        self.lines: Iterable[str] = []
        self.blocks: list[str] = []

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def _chunks(self) -> Iterator[list[str]]:
        lines = iter(self.lines)
        while chunk := list(itertools.islice(lines, self.CHUNK)):
            yield chunk

    def render(self, as_json: bool, out: TextIO):
        """Write the report to ``out``, the lines a chunk at a time.  The
        JSON form is byte for byte ``json.dumps`` of the fields, lines and
        blocks with ``indent=2``."""
        if as_json:
            def nested(value) -> str:
                return json.dumps(value, indent=2).replace("\n", "\n  ")
            out.write('{\n  "fields": ' + nested(self.fields) + ',\n  "lines": [')
            wrote = False
            for chunk in self._chunks():
                out.write(("," if wrote else "") + "\n    "
                          + ",\n    ".join(map(json.dumps, chunk)))
                wrote = True
            out.write(("\n  ]" if wrote else "]")
                      + ',\n  "blocks": ' + nested(self.blocks) + "\n}\n")
            return
        out.write("".join(f"{k} = {self._fmt(v)}\n" for k, v in self.fields.items()))
        for chunk in self._chunks():
            out.write("\n".join(chunk) + "\n")
        for b in self.blocks:
            out.write(f"\n{b}\n")


def _algebra_label(algebra) -> str:
    return format_algebra(algebra).removeprefix("algebra ")


def _declared(parsed: ParsedInput, name: str) -> FiniteSpace:
    """The named space as declared.  Its points are read as a generator
    set: every subcommand but ``alpha`` works on the hull they span."""
    if name not in parsed.spaces:
        raise ParseError(f"no space named {name!r} in the input")
    return parsed.spaces[name]


def _space_arg(args) -> tuple[ParsedInput, str, FiniteSpace]:
    """The input, and the name and points of the space ``--space`` picks."""
    parsed = read_input(args.input)
    name = args.space or parsed.only_space()
    return parsed, name, _declared(parsed, name)


def cmd_alpha(args) -> tuple[Report, int]:
    parsed, name, sp = _space_arg(args)
    profile = alpha_profile_of_points(sp)
    rep = Report(algebra=_algebra_label(parsed.algebra), space=name, points=len(sp),
                 rank=profile.rank)
    rep.lines = profile.lines()
    return rep, 0


def cmd_base(args) -> tuple[Report, int]:
    parsed, name, sp = _space_arg(args)
    hull = conv_hull(sp, max_points=args.max_points)
    if hull.basepoint is None:
        hull = hull.with_basepoint(hull._first())
    base = build_base(hull)
    rep = Report(algebra=_algebra_label(parsed.algebra), space=name, points=len(hull),
                 basepoint=base.basepoint.literal, rank=base.rank)
    rep.lines = ([f"base[{i}] = {p.literal}" for i, p in enumerate(base.points, start=1)]
                 + alpha_profile_of_points((base.basepoint,) + base.points).lines())
    return rep, 0


def cmd_conv(args) -> tuple[Report, int]:
    parsed, name, sp = _space_arg(args)
    hull = conv_hull(sp, max_points=args.max_points)
    rep = Report(algebra=_algebra_label(parsed.algebra), space=name,
                 generators=len(sp), points=len(hull))
    rep.blocks = [format_algebra(parsed.algebra), format_space(name, hull)]
    return rep, 0


def cmd_isometric(args) -> tuple[Report, int]:
    parsed = read_input(args.input)
    if args.left is None and args.right is None and len(parsed.spaces) == 2:
        left_name, right_name = list(parsed.spaces)
    elif args.left is not None and args.right is not None:
        left_name, right_name = args.left, args.right
    else:
        raise ParseError("give both --left and --right, or a file with "
                         "exactly two spaces")
    left = conv_hull(_declared(parsed, left_name), max_points=args.max_points)
    right = conv_hull(_declared(parsed, right_name), max_points=args.max_points)
    verdict = decide_isometric(left, right)
    rep = Report(algebra=_algebra_label(parsed.algebra), left=left_name, right=right_name,
                 left_points=len(left), right_points=len(right), isometric=verdict)
    if verdict:
        iso = construct_isometry(left, right)
        rep.blocks = [format_algebra(parsed.algebra), format_space(left_name, left)]
        if right_name != left_name:
            rep.blocks.append(format_space(right_name, right))
        rep.blocks.append(format_map("iso", iso, left_name, right_name, left, right))
    return rep, 0


def cmd_extend(args) -> tuple[Report, int]:
    parsed = read_input(args.input)
    map_name = args.map or parsed.only_map()
    if map_name not in parsed.maps:
        raise ParseError(f"no map named {map_name!r} in the input")
    info = parsed.maps[map_name]
    ambient_name = args.target
    if ambient_name is None:
        if info.source_space != info.target_space:
            raise ParseError("map endpoints differ; pick the ambient "
                             "space with --target")
        ambient_name = info.source_space
    ambient = conv_hull(_declared(parsed, ambient_name), max_points=args.max_points)
    extend = extend_isometry if args.command == "extend" else extend_contraction
    out = extend(info.map, ambient)
    rep = Report(algebra=_algebra_label(parsed.algebra), map=map_name, ambient=ambient_name,
                 ambient_points=len(ambient), pairs_in=len(info.map), pairs_out=len(out),
                 kind=check_map(out).kind)
    rep.blocks = [format_algebra(parsed.algebra), format_space(ambient_name, ambient),
                  format_map(f"{map_name}_ext", out, ambient_name, ambient_name,
                             ambient, ambient)]
    return rep, 0


def cmd_verify(args) -> tuple[Report, int]:
    cfg = RunConfig(seed=args.seed, instances=args.instances, atoms=args.atoms,
                    dim=args.dim, max_points=args.max_points,
                    max_support=args.max_support)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    rep = Report(seed=cfg.seed, instances=cfg.instances)
    bad = False
    for name in names:
        result = run_suite(name, cfg)
        rep.fields[name] = result.summary()
        for key in sorted(result.info):
            rep.fields[f"{name}.{key}"] = result.info[key]
        for f in result.failures:
            rep.lines.append(f"failure [{name}]: {f}")
        bad = bad or not result.ok
    return rep, (1 if bad else 0)


def _sweep_lines(which: str, max_support: int, desc: IdealDescriptor,
                 unverified: set[int]) -> Iterator[list[str]]:
    """The report lines of the swept candidates, a list per run of supports;
    only the lines of those numbered (from 0) in ``unverified``, which failed
    their re-check, are rewritten.  Each two-dim witness is described, and
    each contraction singleton's description split, once per sweep."""
    described, singles = {}, {}
    def run_lines(masks: range, *found: list) -> list[str]:
        start, high = masks.start, _support_text(masks.start)
        texts = [f"{low},{high}" if low and high else low or high
                 for low in _byte_texts(0)[:len(masks)]]
        labels = [f"fin{{{text}}}" for text in texts], [f"cof{{{text}}}" for text in texts]
        lines = [""] * (2 * len(masks))
        for cofinite, witnesses in enumerate(found):
            own, other, run = labels[cofinite], labels[not cofinite], []
            if which == "two-dim":
                for label, opposite, witness in zip(own, other, witnesses):
                    said = described.get(witness)
                    if said is None:
                        said = described[witness] = _describe(
                            witness[0], *(part and fc_literal(part) for part in witness[1:]))
                    run.append(f"candidate ({label}, {opposite}): {said} [refuted]")
            else:
                for label, (kind, (_, bit), (_, low), _) in zip(own, witnesses):
                    # the left side varies per candidate: split around it
                    head, tail = singles.get(bit) or singles.setdefault(bit, _describe(
                        kind, fc_literal((False, bit)), "\n", fc_literal((True, bit))).split("\n"))
                    lhs = own[low - start] if low in masks else fc_literal((cofinite, low))
                    run.append(f"candidate {label}: {head}{lhs}{tail} [refuted]")
            lines[cofinite::2] = run
        for number in unverified and unverified.intersection(range(2 * start, 2 * masks.stop)):
            lines[number - 2 * start] = lines[number - 2 * start].replace("refuted", "UNVERIFIED")
        return lines  # a run's witnesses and labels are not held while it is written
    return itertools.starmap(run_lines, _sweep(which, max_support, desc))


def cmd_counterexample(args) -> tuple[Report, int]:
    desc = IdealDescriptor.parse("evens" if args.predicate is None else args.predicate)
    rep = Report(which=args.which, predicate=desc.label)
    bad = False
    if args.which in ("two-dim", "contraction"):
        max_support = 3 if args.max_support is None else args.max_support
        _require_candidates_within(max_support, args.max_points)
        rep.fields["max_support"] = max_support
        # Pass 1 re-checks every witness, so the fields above the lines are
        # final; pass 2 finds each run's witnesses again as its lines are written.
        total, unverified = 0, set()
        for masks, *found in _sweep(args.which, max_support, desc):
            total += 2 * len(masks)
            for cofinite, witnesses in enumerate(found):
                unverified.update(2 * mask + cofinite for mask, (_, _, lhs, rhs)
                                  in zip(masks, witnesses) if not _violated(lhs, rhs))
        bad = bool(unverified)
        rep.fields.update(candidates=total, refuted="all" if not bad else "INCOMPLETE")
        rep.lines = itertools.chain.from_iterable(
            _sweep_lines(args.which, max_support, desc, unverified))
    else:
        cfg = RunConfig(seed=args.seed or 0, instances=args.instances or 50)
        result = run_line_extension(cfg)
        rep.fields.update(seed=cfg.seed, instances=result.total, result=result.summary())
        for f in result.failures:
            rep.lines.append(f"failure: {f}")
        bad = not result.ok
    return rep, (1 if bad else 0)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolmetric",
        description="Exact computations in Boolean-valued metric spaces: "
                    "alpha invariants, bases, convex hulls, isometry "
                    "decisions, map extensions, and counterexample searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, metavar="PATH",
                           help="input file in the plain-text format")
        p.add_argument("--max-points", type=int, default=DEFAULT_MAX_HULL_POINTS,
                       metavar="N", help="cap on hull points and on counterexample candidates")
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON")

    for name, text, handler, options in (
            ("alpha", "alpha profile of a space", cmd_alpha, {"--space": None}),
            ("base", "orthogonal base of the hull of a space", cmd_base, {"--space": None}),
            ("conv", "convex hull of a space", cmd_conv, {"--space": None}),
            ("isometric", "decide whether two hulls are isometric", cmd_isometric,
             {"--left": None, "--right": None}),
            ("extend", "extend a partial isometry to the whole space", cmd_extend,
             {"--map": None, "--target": "ambient space name"}),
            ("extend-contraction", "extend a contractive map to the whole space", cmd_extend,
             {"--map": None, "--target": "ambient space name"})):
        p = sub.add_parser(name, help=text)
        common(p)
        for flag, flag_help in options.items():
            p.add_argument(flag, metavar="NAME", help=flag_help)
        p.set_defaults(handler=handler)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    common(p, needs_input=False)
    p.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=RunConfig.seed, metavar="N")
    p.add_argument("--instances", type=int, default=RunConfig.instances, metavar="N")
    p.add_argument("--atoms", type=int, default=RunConfig.atoms, metavar="K")
    p.add_argument("--dim", type=int, default=RunConfig.dim, metavar="N")
    p.add_argument("--max-support", type=int, default=RunConfig.max_support, metavar="N")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("counterexample",
                       help="finite witnesses against extension over the "
                            "finite-cofinite algebra")
    common(p, needs_input=False)
    p.add_argument("--which", choices=["two-dim", "contraction", "line"],
                   default="two-dim")
    p.add_argument("--predicate", metavar="P",
                   help="evens (default), odds, or mod:r,m (two-dim and contraction only)")
    p.add_argument("--max-support", type=int, metavar="N",
                   help="candidate supports range over {0..N} (default 3; "
                        "two-dim and contraction only)")
    p.add_argument("--seed", type=int, metavar="N", help="default 0 (line only)")
    p.add_argument("--instances", type=int, metavar="N", help="default 50 (line only)")
    p.set_defaults(handler=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, minimum in (("max_points", 1), ("instances", 1), ("atoms", 1), ("dim", 1),
                          ("max_support", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < minimum:
            parser.error(f"argument --{flag.replace('_', '-')}: must be at least {minimum}")
    if getattr(args, "which", None) == "line" and args.max_support is not None:
        parser.error("argument --max-support: not allowed with --which line, "
                     "whose supports are drawn from {0..11}")
    if getattr(args, "which", None) == "line" and args.predicate is not None:
        parser.error("argument --predicate: not allowed with --which line, "
                     "which uses no predicate")
    for flag in ("seed", "instances") if getattr(args, "which", "line") != "line" else ():
        if getattr(args, flag) is not None:
            parser.error(f"argument --{flag}: not allowed with --which {args.which}, "
                         "which sweeps every candidate and draws no instances")
    try:
        report, code = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, UnsupportedOperationError, CapExceededError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationError, BoolmetricError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    try:
        report.render(args.json, sys.stdout)
    except BrokenPipeError:
        # The reader left (``| head``): stop quietly, and point stdout at
        # the null device so that the final flush cannot fail again.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
