"""Command line interface.

Exit codes: 0 on success, 1 when a checked property is violated, 2 on a
syntax or semantic error in the input, 3 when the request is infeasible
(no object with the demanded properties exists, an operation is not
available over the chosen algebra, or the hull cap was hit).

Output is deterministic: the same input file and flags produce the same
bytes.  ``--json`` prints the same report as a JSON object with the
fields under ``"fields"``, per-item lines under ``"lines"`` and emitted
file-format blocks under ``"blocks"``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import fincof_algebra
from .counterexamples import (IdealDescriptor, bounded_candidates,
                              contraction_obstruction_witness,
                              isometry_obstruction_witness)
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
    """An ordered key/value report plus free lines and emitted blocks."""

    def __init__(self):
        self.fields: dict[str, object] = {}
        self.lines: list[str] = []
        self.blocks: list[str] = []

    def field(self, key: str, value):
        self.fields[key] = value

    def line(self, text: str):
        self.lines.append(text)

    def block(self, text: str):
        self.blocks.append(text)

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps({"fields": self.fields, "lines": self.lines,
                               "blocks": self.blocks}, indent=2) + "\n"
        out = [f"{k} = {self._fmt(v)}" for k, v in self.fields.items()]
        out.extend(self.lines)
        for b in self.blocks:
            out.append("")
            out.append(b)
        return "\n".join(out) + "\n"


def _algebra_label(algebra) -> str:
    return format_algebra(algebra).removeprefix("algebra ")


def _hulled(parsed: ParsedInput, name: str, max_points: int) -> FiniteSpace:
    """The named space's convex hull.  Declared point lists are read as
    generator sets; every subcommand works on the hull they span."""
    if name not in parsed.spaces:
        raise ParseError(f"no space named {name!r} in the input")
    sp = parsed.spaces[name]
    return conv_hull(sp.points, basepoint=sp.basepoint, max_points=max_points)


def cmd_alpha(args) -> tuple[Report, int]:
    parsed = read_input(args.input)
    name = args.space or parsed.only_space()
    if name not in parsed.spaces:
        raise ParseError(f"no space named {name!r} in the input")
    sp = parsed.spaces[name]
    profile = alpha_profile_of_points(sp.points)
    rep = Report()
    rep.field("algebra", _algebra_label(parsed.algebra))
    rep.field("space", name)
    rep.field("points", len(sp))
    rep.field("rank", profile.rank)
    for line in profile.lines():
        rep.line(line)
    return rep, 0


def cmd_base(args) -> tuple[Report, int]:
    parsed = read_input(args.input)
    name = args.space or parsed.only_space()
    hull = _hulled(parsed, name, args.max_points)
    if hull.basepoint is None:
        hull = hull.with_basepoint(hull.points[0])
    base = build_base(hull)
    rep = Report()
    rep.field("algebra", _algebra_label(parsed.algebra))
    rep.field("space", name)
    rep.field("points", len(hull))
    rep.field("basepoint", base.basepoint.literal)
    rep.field("rank", base.rank)
    for i, p in enumerate(base.points, start=1):
        rep.line(f"base[{i}] = {p.literal}")
    for line in alpha_profile_of_points((base.basepoint,) + base.points).lines():
        rep.line(line)
    return rep, 0


def cmd_conv(args) -> tuple[Report, int]:
    parsed = read_input(args.input)
    name = args.space or parsed.only_space()
    hull = _hulled(parsed, name, args.max_points)
    rep = Report()
    rep.field("algebra", _algebra_label(parsed.algebra))
    rep.field("space", name)
    rep.field("generators", len(parsed.spaces[name]))
    rep.field("points", len(hull))
    rep.block(format_algebra(parsed.algebra))
    rep.block(format_space(name, hull))
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
    left = _hulled(parsed, left_name, args.max_points)
    right = _hulled(parsed, right_name, args.max_points)
    verdict = decide_isometric(left, right)
    rep = Report()
    rep.field("algebra", _algebra_label(parsed.algebra))
    rep.field("left", left_name)
    rep.field("right", right_name)
    rep.field("left_points", len(left))
    rep.field("right_points", len(right))
    rep.field("isometric", verdict)
    if verdict:
        iso = construct_isometry(left, right)
        rep.block(format_algebra(parsed.algebra))
        rep.block(format_space(left_name, left))
        if right_name != left_name:
            rep.block(format_space(right_name, right))
        rep.block(format_map("iso", iso, left_name, right_name, left, right))
    return rep, 0


def _cmd_extend(args, kind: str) -> tuple[Report, int]:
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
    ambient = _hulled(parsed, ambient_name, args.max_points)
    if kind == "isometry":
        out = extend_isometry(info.map, ambient, max_points=args.max_points)
    else:
        out = extend_contraction(info.map, ambient, max_points=args.max_points)
    rep = Report()
    rep.field("algebra", _algebra_label(parsed.algebra))
    rep.field("map", map_name)
    rep.field("ambient", ambient_name)
    rep.field("ambient_points", len(ambient))
    rep.field("pairs_in", len(info.map))
    rep.field("pairs_out", len(out))
    rep.field("kind", check_map(out).kind)
    rep.block(format_algebra(parsed.algebra))
    rep.block(format_space(ambient_name, ambient))
    rep.block(format_map(f"{map_name}_ext", out, ambient_name, ambient_name,
                         ambient, ambient))
    return rep, 0


def cmd_extend(args) -> tuple[Report, int]:
    return _cmd_extend(args, "isometry")


def cmd_extend_contraction(args) -> tuple[Report, int]:
    return _cmd_extend(args, "contraction")


def cmd_verify(args) -> tuple[Report, int]:
    cfg = RunConfig(seed=args.seed, instances=args.instances, atoms=args.atoms,
                    dim=args.dim, max_points=args.max_points,
                    max_support=args.max_support)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    rep = Report()
    rep.field("seed", cfg.seed)
    rep.field("instances", cfg.instances)
    bad = False
    for name in names:
        result = run_suite(name, cfg)
        rep.field(name, result.summary())
        for key in sorted(result.info):
            rep.field(f"{name}.{key}", result.info[key])
        for f in result.failures:
            rep.line(f"failure [{name}]: {f}")
        bad = bad or not result.ok
    return rep, (1 if bad else 0)


def cmd_counterexample(args) -> tuple[Report, int]:
    desc = IdealDescriptor.parse(args.predicate)
    rep = Report()
    rep.field("which", args.which)
    rep.field("predicate", desc.label)
    bad = False
    if args.which in ("two-dim", "contraction"):
        rep.field("max_support", args.max_support)
        alg = fincof_algebra()
        total = 0
        for v in bounded_candidates(args.max_support, alg):
            total += 1
            if args.which == "two-dim":
                w = isometry_obstruction_witness((v, ~v), desc)
                label = f"candidate ({v.literal}, {(~v).literal})"
            else:
                w = contraction_obstruction_witness(v, desc)
                label = f"candidate {v.literal}"
            status = "refuted" if w.verified else "UNVERIFIED"
            rep.line(f"{label}: {w.describe()} [{status}]")
            bad = bad or not w.verified
        rep.field("candidates", total)
        rep.field("refuted", "all" if not bad else "INCOMPLETE")
    else:
        cfg = RunConfig(seed=args.seed, instances=args.instances,
                        max_support=args.max_support)
        result = run_line_extension(cfg)
        rep.field("seed", cfg.seed)
        rep.field("instances", result.total)
        rep.field("result", result.summary())
        for f in result.failures:
            rep.line(f"failure: {f}")
        bad = not result.ok
    return rep, (1 if bad else 0)


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
                       metavar="N", help="hull enumeration cap")
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON")

    p = sub.add_parser("alpha", help="alpha profile of a space")
    common(p)
    p.add_argument("--space", metavar="NAME")
    p.set_defaults(handler=cmd_alpha)

    p = sub.add_parser("base", help="orthogonal base of the hull of a space")
    common(p)
    p.add_argument("--space", metavar="NAME")
    p.set_defaults(handler=cmd_base)

    p = sub.add_parser("conv", help="convex hull of a space")
    common(p)
    p.add_argument("--space", metavar="NAME")
    p.set_defaults(handler=cmd_conv)

    p = sub.add_parser("isometric", help="decide whether two hulls are isometric")
    common(p)
    p.add_argument("--left", metavar="NAME")
    p.add_argument("--right", metavar="NAME")
    p.set_defaults(handler=cmd_isometric)

    p = sub.add_parser("extend", help="extend a partial isometry to the whole space")
    common(p)
    p.add_argument("--map", metavar="NAME")
    p.add_argument("--target", metavar="NAME", help="ambient space name")
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("extend-contraction",
                       help="extend a contractive map to the whole space")
    common(p)
    p.add_argument("--map", metavar="NAME")
    p.add_argument("--target", metavar="NAME", help="ambient space name")
    p.set_defaults(handler=cmd_extend_contraction)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    common(p, needs_input=False)
    p.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--instances", type=int, default=100, metavar="N")
    p.add_argument("--atoms", type=int, default=3, metavar="K")
    p.add_argument("--dim", type=int, default=2, metavar="N")
    p.add_argument("--max-support", type=int, default=16, metavar="N")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("counterexample",
                       help="finite witnesses against extension over the "
                            "finite-cofinite algebra")
    common(p, needs_input=False)
    p.add_argument("--which", choices=["two-dim", "contraction", "line"],
                   default="two-dim")
    p.add_argument("--predicate", default="evens", metavar="P",
                   help="evens, odds, or mod:r,m")
    p.add_argument("--max-support", type=int, default=3, metavar="N",
                   help="candidate supports range over {0..N}")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--instances", type=int, default=50, metavar="N")
    p.set_defaults(handler=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, minimum in (("max_points", 1), ("instances", 1), ("atoms", 1), ("dim", 1),
                          ("max_support", 0)):
        if getattr(args, flag, minimum) < minimum:
            parser.error(f"argument --{flag.replace('_', '-')}: must be at least {minimum}")
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
    sys.stdout.write(report.render(args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
