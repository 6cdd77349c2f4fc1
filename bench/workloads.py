"""Seeded request lists for the three benchmark workloads.

Everything here is plain Python on bit masks; nothing imports boolmetric,
so the inputs a run feeds the CLI cannot depend on the code under test.

A finite atomic point is a tuple of ``dim`` coordinate masks over ``k``
atoms.  On atom ``t`` a point leaves a pattern: the ``dim``-bit integer
whose bit ``j`` is bit ``t`` of coordinate ``j``.  A hull is the product of
its per-atom pattern sets, so fixing the number of patterns per atom fixes
the hull size exactly, whatever the random draw; slot names carry those
counts.

Each workload is a fixed list of slots.  A slot has one base instance,
drawn from a generator seeded by ``(workload, slot)``, and ``VARIANTS``
variants of it, each seeded by ``(workload, slot, variant)``.  A variant of
a point-set slot is the base instance moved by a random symmetry of the
whole space (a translation, a permutation of the coordinates and one of
the atoms): its bytes and its report differ, while the work it asks for
stays the same, which keeps runs with different seeds comparable.  A
variant of a counterexample or verify slot draws its predicate or suite
seed.  The golden file records the exit code and stdout digest of every
variant; the run's ``--seed`` picks one variant per slot.

Maps come with their expected exit code by construction:

* per-atom pattern permutations give isometries (``extend`` exits 0),
* per-atom pattern functions give contractions (``extend-contraction``
  exits 0),
* two sources that agree on an atom where their images differ give a
  non-contractive map (either command exits 3 from ``check_map``'s early
  exit).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

VARIANTS = 8

# Predicates for the counterexample searches: decidable infinite,
# co-infinite residue classes.
PREDICATES = ("evens", "odds", "mod:0,3", "mod:2,3", "mod:1,4", "mod:3,5",
              "mod:2,6", "mod:5,7")


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``text`` is the input file, if the command reads one."""

    id: str
    args: tuple[str, ...]
    text: str | None
    expect_exit: int

    def argv(self, path: str | None) -> list[str]:
        if self.text is None:
            return list(self.args)
        return [self.args[0], "--input", path, *self.args[1:]]


@dataclass(frozen=True)
class Slot:
    """``make(base_rng, variant_rng)`` returns (args, input text or None,
    expected exit code)."""

    name: str
    make: Callable[[random.Random, random.Random], tuple[tuple[str, ...], str | None, int]]


# ---------------------------------------------------------------------------
# Points, patterns and hulls on bit masks.
# ---------------------------------------------------------------------------


def pattern(point: tuple[int, ...], t: int) -> int:
    return sum(((c >> t) & 1) << j for j, c in enumerate(point))


def from_patterns(pats: list[int], dim: int) -> tuple[int, ...]:
    return tuple(sum(((p >> j) & 1) << t for t, p in enumerate(pats))
                 for j in range(dim))


def literal(mask: int, k: int) -> str:
    return "".join("1" if mask >> i & 1 else "0" for i in range(k))


@dataclass(frozen=True)
class Hull:
    k: int
    dim: int
    generators: tuple[tuple[int, ...], ...]
    patterns: tuple[tuple[int, ...], ...]  # per atom, the hull's patterns

    def random_point(self, rng: random.Random) -> tuple[int, ...]:
        return from_patterns([rng.choice(p) for p in self.patterns], self.dim)


def make_hull(rng: random.Random, k: int, dim: int, counts: list[int],
              gens: int) -> Hull:
    """Generators whose hull has exactly ``counts[t]`` patterns on atom t
    (the counts are shuffled over the atoms)."""
    assert len(counts) == k and max(counts) <= min(gens, 1 << dim)
    counts = list(counts)
    rng.shuffle(counts)
    columns = []
    for c in counts:
        pats = rng.sample(range(1 << dim), c)
        column = pats + [rng.choice(pats) for _ in range(gens - c)]
        rng.shuffle(column)
        columns.append(column)
    points = [from_patterns([col[i] for col in columns], dim) for i in range(gens)]
    return Hull(k, dim, tuple(dict.fromkeys(points)),
                tuple(tuple(sorted(set(col))) for col in columns))


def symmetry(rng: random.Random, k: int, dim: int) -> Callable:
    """A random map x -> atoms(coords(x) ^ shift).  Distances move by the
    same atom permutation, so hull sizes and map kinds are kept."""
    shift = [rng.randrange(1 << k) for _ in range(dim)]
    coords = rng.sample(range(dim), dim)
    atoms = rng.sample(range(k), k)

    def move(p: tuple[int, ...]) -> tuple[int, ...]:
        q = [p[coords[j]] ^ shift[j] for j in range(dim)]
        return tuple(sum(((c >> t) & 1) << atoms[t] for t in range(k)) for c in q)

    return move


def relabelled(rng: random.Random, hull: Hull) -> Hull:
    """An isometric copy: every atom's patterns XOR-ed with a random mask."""
    masks = [rng.randrange(1 << hull.dim) for _ in range(hull.k)]

    def move(p):
        return from_patterns([pattern(p, t) ^ masks[t] for t in range(hull.k)], hull.dim)

    return Hull(hull.k, hull.dim, tuple(move(g) for g in hull.generators),
                tuple(tuple(sorted(q ^ m for q in pats))
                      for pats, m in zip(hull.patterns, masks)))


def pattern_maps(rng: random.Random, hull: Hull, injective: bool) -> list[dict]:
    out = []
    for pats in hull.patterns:
        if injective:
            images = list(pats)
            rng.shuffle(images)
        else:
            images = [rng.choice(pats) for _ in pats]
        out.append(dict(zip(pats, images)))
    return out


def apply(maps: list[dict], hull: Hull, x: tuple[int, ...]) -> tuple[int, ...]:
    return from_patterns([maps[t][pattern(x, t)] for t in range(hull.k)], hull.dim)


def spread_points(rng: random.Random, hull: Hull, n: int) -> list[tuple[int, ...]]:
    """``n`` points that differ on every atom where the hull allows it, so
    the hull they span has a size fixed by the pattern counts alone."""
    columns = []
    for pats in hull.patterns:
        column = rng.sample(pats, min(n, len(pats)))
        columns.append(column + [rng.choice(column) for _ in range(n - len(column))])
    points = [from_patterns([col[i] for col in columns], hull.dim) for i in range(n)]
    assert len(set(points)) == n, "some atom needs at least n patterns"
    return points


def make_map(rng: random.Random, hull: Hull, pairs: int,
             kind: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``kind`` is "isometry", "contraction" or "violation"."""
    maps = pattern_maps(rng, hull, injective=(kind == "isometry"))
    if kind != "violation":
        return [(x, apply(maps, hull, x)) for x in spread_points(rng, hull, pairs)]
    wide = [t for t, p in enumerate(hull.patterns) if len(p) > 1]
    assert len(wide) >= 2 and pairs >= 2
    t0, t1 = rng.sample(wide, 2)
    x1 = hull.random_point(rng)
    pats = [pattern(x1, t) for t in range(hull.k)]
    pats[t1] = rng.choice([p for p in hull.patterns[t1] if p != pats[t1]])
    x2 = from_patterns(pats, hull.dim)
    y1, y2 = apply(maps, hull, x1), apply(maps, hull, x2)
    bad = [pattern(y2, t) for t in range(hull.k)]
    bad[t0] = rng.choice([p for p in hull.patterns[t0] if p != pattern(y1, t0)])
    out = [(x1, y1), (x2, from_patterns(bad, hull.dim))]
    while len(out) < pairs:
        x = hull.random_point(rng)
        if all(x != s for s, _ in out):
            out.append((x, apply(maps, hull, x)))
    return out


# ---------------------------------------------------------------------------
# Input files.
# ---------------------------------------------------------------------------


def space_block(name: str, hull: Hull, points, move: Callable) -> list[str]:
    lines = [f"space {name} dim={hull.dim}"]
    lines += ["point " + " ".join(literal(c, hull.k) for c in move(p)) for p in points]
    return lines


def map_file(hull: Hull, pairs, move: Callable) -> str:
    points = list(dict.fromkeys(list(hull.generators)
                                + [p for pair in pairs for p in pair]))
    index = {p: i for i, p in enumerate(points)}
    lines = [f"algebra finite k={hull.k}"] + space_block("X", hull, points, move)
    lines.append("map F from=X to=X")
    lines += [f"pair {index[s]} -> {index[t]}" for s, t in pairs]
    return "\n".join(lines) + "\n"


def space_file(move: Callable, *named: tuple[str, Hull]) -> str:
    lines = [f"algebra finite k={named[0][1].k}"]
    for name, hull in named:
        lines += space_block(name, hull, hull.generators, move)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Slot makers.
# ---------------------------------------------------------------------------


def shape(counts: list[int], gens: int) -> str:
    """Slot-name tag: generator count and per-atom pattern counts."""
    return f"g{gens}c" + "".join(map(str, counts))


def extend_slot(command: str, k: int, dim: int, counts: list[int], gens: int,
                pairs: int, kind: str) -> Slot:
    def make(base, variant):
        hull = make_hull(base, k, dim, counts, gens)
        text = map_file(hull, make_map(base, hull, pairs, kind), symmetry(variant, k, dim))
        return (command,), text, 3 if kind == "violation" else 0

    tag = {"isometry": "iso", "contraction": "con", "violation": "bad"}[kind]
    return Slot(f"{command}-k{k}d{dim}-n{math.prod(counts)}-{shape(counts, gens)}"
                f"-p{pairs}-{tag}", make)


def conv_slot(k: int, dim: int, counts: list[int], gens: int) -> Slot:
    def make(base, variant):
        hull = make_hull(base, k, dim, counts, gens)
        return ("conv",), space_file(symmetry(variant, k, dim), ("X", hull)), 0

    return Slot(f"conv-k{k}d{dim}-n{math.prod(counts)}-{shape(counts, gens)}", make)


def alpha_slot(gens: int, counts: list[int]) -> Slot:
    def make(base, variant):
        hull = make_hull(base, 8, 3, counts, gens)
        return ("alpha",), space_file(symmetry(variant, 8, 3), ("X", hull)), 0

    return Slot(f"alpha-k8d3-{shape(counts, gens)}", make)


def base_slot(k: int, counts: list[int], gens: int) -> Slot:
    def make(base, variant):
        hull = make_hull(base, k, 3, counts, gens)
        return ("base",), space_file(symmetry(variant, k, 3), ("X", hull)), 0

    return Slot(f"base-k{k}d3-n{math.prod(counts)}-{shape(counts, gens)}", make)


def isometric_slot(k: int, dim: int, counts: list[int], gens: int,
                   equal: bool) -> Slot:
    def make(base, variant):
        left = make_hull(base, k, dim, counts, gens)
        if equal:
            right = relabelled(base, left)
        else:
            # One atom loses a pattern, so the profiles differ there.
            other = list(counts)
            other[other.index(max(other))] -= 1
            right = make_hull(base, k, dim, other, gens)
        text = space_file(symmetry(variant, k, dim), ("L", left), ("R", right))
        return ("isometric",), text, 0

    return Slot(f"isometric-k{k}d{dim}-n{math.prod(counts)}-{shape(counts, gens)}"
                f"-{'eq' if equal else 'ne'}", make)


def counterexample_slot(which: str, max_support: int) -> Slot:
    def make(base, variant):
        return ("counterexample", "--which", which, "--predicate",
                variant.choice(PREDICATES), "--max-support", str(max_support)), None, 0

    return Slot(f"counterexample-{which}-m{max_support}", make)


def line_slot(instances: int) -> Slot:
    def make(base, variant):
        return ("counterexample", "--which", "line", "--seed",
                str(variant.randrange(10 ** 6)), "--instances", str(instances)), None, 0

    return Slot(f"counterexample-line-i{instances}", make)


def verify_slot(suite: str, extra: tuple[str, ...]) -> Slot:
    def make(base, variant):
        return ("verify", "--suite", suite, "--seed",
                str(variant.randrange(10 ** 6)), *extra), None, 0

    return Slot(f"verify-{suite}" + "".join(extra).replace("--", "-"), make)


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, dict] = {
    "pipeline": {
        "elements": {"atoms": 6, "support": 12},
        "warmup": extend_slot("extend", 4, 2, [2, 2, 3, 3], 3, 2, "isometry"),
        "slots": [
            extend_slot("extend", 4, 2, [2, 2, 3, 3], 3, 1, "isometry"),
            extend_slot("extend", 4, 2, [2, 3, 3, 3], 3, 3, "isometry"),
            extend_slot("extend", 4, 3, [4, 2, 3, 3], 4, 2, "isometry"),
            extend_slot("extend", 5, 2, [3, 3, 2, 2, 3], 3, 2, "isometry"),
            extend_slot("extend", 5, 3, [4, 3, 2, 2, 3], 4, 3, "isometry"),
            extend_slot("extend", 6, 2, [3, 3, 2, 2, 3, 2], 3, 2, "isometry"),
            extend_slot("extend", 7, 2, [2, 2, 2, 3, 2, 2, 2], 3, 2, "isometry"),
            extend_slot("extend-contraction", 4, 2, [2, 2, 3, 3], 3, 2, "contraction"),
            extend_slot("extend-contraction", 4, 3, [4, 2, 3, 3], 4, 3, "contraction"),
            extend_slot("extend-contraction", 5, 2, [3, 3, 2, 2, 3], 3, 1, "contraction"),
            extend_slot("extend-contraction", 5, 3, [4, 3, 2, 2, 3], 4, 2, "contraction"),
            extend_slot("extend-contraction", 7, 2, [2, 2, 2, 3, 2, 2, 2], 3, 2, "contraction"),
            extend_slot("extend", 6, 2, [3, 3, 2, 2, 3, 3], 3, 2, "violation"),
            extend_slot("extend-contraction", 6, 3, [4, 3, 2, 2, 3, 3], 4, 3, "violation"),
            extend_slot("extend", 4, 3, [3, 2, 3, 2], 4, 1, "isometry"),
            extend_slot("extend-contraction", 4, 2, [2, 3, 3, 3], 3, 1, "contraction"),
            conv_slot(4, 2, [2, 3, 3, 2], 3),
            conv_slot(4, 3, [4, 2, 3, 2], 4),
            conv_slot(5, 2, [3, 2, 3, 3, 2], 3),
            conv_slot(5, 3, [4, 3, 2, 3, 2], 4),
            conv_slot(6, 2, [3, 3, 3, 2, 3, 2], 3),
            conv_slot(6, 3, [4, 4, 3, 2, 3, 2], 4),
            conv_slot(7, 2, [3, 3, 2, 3, 3, 2, 3], 3),
            conv_slot(7, 3, [4, 3, 3, 2, 3, 3, 2], 4),
            conv_slot(7, 3, [3, 3, 2, 3, 2, 3, 4], 4),
        ],
    },
    "query": {
        "elements": {"atoms": 10, "support": 12},
        "warmup": alpha_slot(8, [4, 4, 3, 3, 2, 2, 2, 2]),
        "slots": [
            alpha_slot(8, [8, 6, 5, 4, 4, 3, 2, 2]),
            alpha_slot(9, [8, 7, 5, 4, 4, 3, 3, 2]),
            alpha_slot(10, [8, 7, 6, 5, 4, 3, 3, 2]),
            alpha_slot(10, [6, 6, 5, 4, 4, 3, 2, 2]),
            alpha_slot(11, [8, 7, 6, 5, 4, 3, 3, 2]),
            alpha_slot(12, [8, 6, 5, 4, 4, 3, 2, 2]),
            alpha_slot(13, [8, 7, 6, 5, 4, 3, 3, 2]),
            alpha_slot(14, [8, 7, 6, 5, 4, 3, 3, 2]),
            alpha_slot(15, [8, 7, 6, 5, 4, 3, 3, 2]),
            alpha_slot(16, [8, 8, 6, 5, 4, 3, 3, 2]),
            base_slot(9, [3, 3, 3, 2, 2, 2, 2, 2, 3], 3),
            base_slot(8, [4, 4, 4, 4, 3, 3, 2, 2], 4),
            base_slot(10, [3, 3, 3, 3, 2, 2, 2, 2, 2, 2], 4),
            base_slot(12, [3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2], 3),
            isometric_slot(4, 2, [3, 2, 3, 2], 3, True),
            isometric_slot(4, 2, [3, 2, 3, 2], 3, False),
            isometric_slot(5, 2, [3, 2, 2, 2, 3], 3, True),
            isometric_slot(4, 3, [4, 3, 3, 2], 4, True),
            isometric_slot(4, 3, [4, 3, 3, 2], 4, False),
            isometric_slot(5, 2, [3, 3, 2, 2, 3], 3, True),
            isometric_slot(5, 2, [3, 3, 2, 2, 3], 3, False),
            isometric_slot(6, 2, [3, 3, 2, 2, 3, 2], 3, True),
            isometric_slot(6, 2, [3, 3, 2, 2, 3, 2], 3, False),
            isometric_slot(5, 3, [4, 3, 2, 2, 3], 4, True),
            isometric_slot(5, 3, [4, 3, 2, 2, 3], 4, False),
        ],
    },
    "sweep": {
        "elements": {"atoms": 4, "support": 12},
        "warmup": counterexample_slot("contraction", 6),
        "slots": [
            counterexample_slot("two-dim", 10),
            counterexample_slot("two-dim", 11),
            counterexample_slot("two-dim", 12),
            counterexample_slot("two-dim", 13),
            counterexample_slot("contraction", 10),
            counterexample_slot("contraction", 11),
            counterexample_slot("contraction", 12),
            counterexample_slot("contraction", 13),
            verify_slot("counterexamples", ("--max-support", "10")),
            verify_slot("counterexamples", ("--max-support", "11")),
            verify_slot("counterexamples", ("--max-support", "12")),
            line_slot(50),
            line_slot(100),
            line_slot(200),
            verify_slot("line-extension", ("--instances", "50")),
            verify_slot("line-extension", ("--instances", "100")),
            verify_slot("line-extension", ("--instances", "200")),
        ],
    },
}


def build(workload: str, slot: Slot, variant: int) -> Request:
    args, text, expect = slot.make(random.Random(f"{workload}/{slot.name}"),
                                   random.Random(f"{workload}/{slot.name}/{variant}"))
    return Request(f"{workload}/{slot.name}/{variant}", args, text, expect)


def pool(workload: str) -> list[Request]:
    """Every request the workload can issue, warm-up included."""
    spec = WORKLOADS[workload]
    return [build(workload, slot, v)
            for slot in [spec["warmup"]] + spec["slots"] for v in range(VARIANTS)]


def plan(workload: str, seed: int) -> tuple[Request, list[Request]]:
    """The warm-up request and the request list for one seed, in slot order.

    The order is fixed so that heap and cache state carried from one
    request to the next does not vary with the seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    warmup = build(workload, spec["warmup"], rng.randrange(VARIANTS))
    return warmup, [build(workload, slot, rng.randrange(VARIANTS)) for slot in spec["slots"]]
