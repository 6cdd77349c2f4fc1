"""Spaces read from the input format, over either algebra, answer like
spaces built from points, and like the `_atom_patterns` oracle."""

import hashlib
import random

import pytest

from boolmetric import (ParseError, PartialMap, Point, StructureError, alpha_profile,
                        alpha_profile_of_points, atomic_algebra, check_map, conv_hull,
                        fincof_algebra)
from boolmetric.algebra import SetElement
from boolmetric.cli import main
from boolmetric.io import format_map, format_space, parse_input
from boolmetric.spaces import FiniteSpace, _atom_patterns
from boolmetric.suites import enumerated_alpha_profile


def _random_point(rng, alg, dim):
    return Point(alg._make(rng.getrandbits(alg.atom_count)) for _ in range(dim))


def _oracle(points):
    """Canonical order, codes and per-atom pattern sets, from one
    `_atom_patterns` table over the distinct points."""
    ordered = sorted(set(points), key=Point.sort_key)
    atoms, table = _atom_patterns(ordered)
    codes = [sum(col) for col in zip(*table)]
    return ordered, codes, (atoms, [tuple(sorted(set(row))) for row in table])


def _families(count=240, seed=20261020):
    """Seeded families over k <= 5 atoms and dim <= 3, some with repeated
    points; the small ones are often convex, most are not."""
    rng = random.Random(seed)
    for _ in range(count):
        alg, dim = atomic_algebra(rng.randint(1, 5)), rng.randint(1, 3)
        size = min(rng.randint(1, 12), 2 ** (alg.atom_count * dim))
        family = [_random_point(rng, alg, dim) for _ in range(size)]
        family += rng.choices(family, k=rng.randint(0, 3))  # duplicates
        yield rng, alg, dim, family


def test_parsed_spaces_match_point_built_spaces_and_the_pattern_oracle():
    convex = []
    for rng, alg, dim, family in _families():
        in_file = list(dict.fromkeys(family))  # the file lists each point once
        rng.shuffle(in_file)
        bp_index = rng.choice([None, rng.randrange(len(in_file))])
        lines = [f"algebra finite k={alg.atom_count}", f"space W dim={dim}"]
        lines += [f"point {p.literal}" for p in in_file]
        if bp_index is not None:
            lines.append(f"basepoint {bp_index}")
        parsed = parse_input("\n".join(lines))
        bp = None if bp_index is None else in_file[bp_index]
        ordered, codes, view = _oracle(family)
        outside = [q for q in (_random_point(rng, alg, dim) for _ in range(6))
                   if q not in set(family)]
        for sp in (parsed.spaces["W"], FiniteSpace(family, basepoint=bp)):
            assert (sp.algebra, sp.dim, sp.basepoint) == (alg, dim, bp)
            assert len(sp) == len(ordered)
            assert sp.codes == codes
            assert sp._patterns == view
            for i, p in enumerate(ordered):
                assert p in sp and sp.index(p) == i
            assert sp._holds(ordered) and sp._holds(ordered[:1])
            for q in outside:
                assert q not in sp and not sp._holds(ordered + [q])
                with pytest.raises(StructureError):
                    sp.index(q)
            assert sp.points == tuple(ordered)
        assert parsed.space_points["W"] == tuple(in_file)
        convex.append(parsed.spaces["W"].convex)
    assert len(convex) == 240 and 0 < sum(convex) < 240


# Each case: the point lines after ``algebra finite k=2`` and ``space W
# dim=2`` (lines 1 and 2), the line at fault and the whole message.
@pytest.mark.parametrize("points,bad,message", [
    (["point 1_ 00"], 3, "bad element literal '1_' for 2 atoms"),
    (["point 00 +1"], 3, "bad element literal '+1' for 2 atoms"),
    (["point 00  1"], 3, "bad element literal '1' for 2 atoms"),  # ' 1' is split off
    (["point 00 00", "point ١0 00"], 4, "bad element literal '١0' for 2 atoms"),
    (["point 10 ١٠"], 3, "bad element literal '١٠' for 2 atoms"),
    (["point 101 00"], 3, "bad element literal '101' for 2 atoms"),
    (["point 00 0"], 3, "bad element literal '0' for 2 atoms"),
    (["point 0 1x"], 3, "bad element literal '0' for 2 atoms"),  # the first bad one
    (["point 10 01", "point 11 11", "point 10 01"], 5,
     "duplicate point 10 01; indices would be ambiguous"),
    (["point 10 01", "point 1 01", "point 10 01"], 4, "bad element literal '1' for 2 atoms"),
])
def test_point_literal_errors_keep_their_message_and_line(points, bad, message):
    with pytest.raises(ParseError) as err:
        parse_input("\n".join(["algebra finite k=2", "space W dim=2"] + points))
    assert err.value.line_no == bad and str(err.value) == f"line {bad}: {message}"


def test_commands_build_no_point_for_the_point_lines(tmp_path, capsys, monkeypatch):
    """`alpha`, `conv`, `isometric`, `extend` and `extend-contraction` read
    a parsed space and a parsed map as codes, from the input to the printed
    report: the only points built are the two basepoints of `isometric`'s
    witness map."""
    rng, alg = random.Random(7), atomic_algebra(6)
    lines = {" ".join(format(rng.getrandbits(6), "06b") for _ in range(3)) for _ in range(48)}
    text = "\n".join(["algebra finite k=6", "space W dim=3"]
                     + [f"point {lit}" for lit in sorted(lines)] + ["space V dim=3"]
                     + [f"point {lit}" for lit in sorted(lines, reverse=True)]
                     + ["map F from=W to=W", "pair 0 -> 1", "pair 1 -> 0"])
    path = tmp_path / "in.txt"
    path.write_text(text)
    built, init = [], Point.__init__
    monkeypatch.setattr(Point, "__init__",
                        lambda self, coords: built.append(self) or init(self, coords))
    for argv, points in ((["alpha", "--space", "W"], 0), (["conv", "--space", "V"], 0),
                         (["isometric"], 2), (["extend"], 0), (["extend-contraction"], 0)):
        built.clear()
        assert main(argv + ["--input", str(path)]) == 0
        assert len(built) == points, argv
    out = capsys.readouterr().out
    assert "isometric = true" in out and out.count("kind = ") == 2

    parsed = parse_input(text)
    sp, inside = parsed.spaces["W"], Point.from_literals(alg, *min(lines).split())
    outside = Point.from_literals(alg, "111111", "111111", "111111")
    built.clear()
    assert len(sp) == len(lines) and inside in sp and sp.index(inside) == 0
    assert (outside in sp) == (outside.literal in lines)
    assert alpha_profile_of_points(sp) == alpha_profile(sp)
    assert len(conv_hull(sp)) >= len(sp)
    assert built == []


def _random_fincof_point(rng, alg, dim):
    return Point(SetElement(alg, rng.random() < 0.5, rng.getrandbits(6)) for _ in range(dim))


def _fincof_families(count=200, seed=20261021):
    """Seeded finite-cofinite families: supports in {0..5}, both flags,
    dim <= 3, some with repeated points, a few spliced to be convex."""
    rng, alg = random.Random(seed), fincof_algebra()
    for i in range(count):
        dim = rng.randint(1, 3)
        family = [_random_fincof_point(rng, alg, dim) for _ in range(rng.randint(1, 10))]
        if i % 5 == 0:  # two points apart on one natural only: the pair is convex
            x, n, j = family[0], rng.randrange(6), rng.randrange(dim)
            c = x.coords[j]
            family = [x, Point(x.coords[:j] + (SetElement(alg, c.cofinite, c.mask ^ 1 << n),)
                               + x.coords[j + 1:])]
        family += rng.choices(family, k=rng.randint(0, 3))  # duplicates
        yield rng, alg, dim, family


def _splices_stay_inside(codes, table):
    """Every one-atom splice of two points (one takes the other's pattern
    on one atom of the points' own) is a point, and all points agree on
    the atom outside every support: the definition of a convex family."""
    held = set(codes)
    return len(set(table[-1])) == 1 and all(
        x - row[i] + row[j] in held
        for row in table[:-1] for i, x in enumerate(codes) for j in range(len(codes)))


def test_parsed_fincof_spaces_match_point_built_spaces_and_the_pattern_oracle():
    convex = []
    for rng, alg, dim, family in _fincof_families():
        in_file = list(dict.fromkeys(family))
        rng.shuffle(in_file)
        bp_index = rng.choice([None, rng.randrange(len(in_file))])
        lines = ["algebra cofinite", f"space W dim={dim}"]
        lines += [f"point {p.literal}" for p in in_file]
        if bp_index is not None:
            lines.append(f"basepoint {bp_index}")
        parsed = parse_input("\n".join(lines))
        bp = None if bp_index is None else in_file[bp_index]
        ordered, codes, view = _oracle(family)
        shown = set().union(*(c.support for p in family for c in p.coords))
        fresh = rng.choice(sorted(set(range(10)) - shown))
        x, j = rng.choice(ordered), rng.randrange(dim)
        with_fresh = Point(x.coords[:j] + (x.coords[j] ^ alg.fin([fresh]),) + x.coords[j + 1:])
        flipped = Point(x.coords[:j] + (SetElement(alg, not x.coords[j].cofinite,
                                                   x.coords[j].mask),) + x.coords[j + 1:])
        other_dim = _random_fincof_point(rng, alg, dim % 3 + 1)
        outside = [q for q in (with_fresh, flipped, other_dim) if q not in set(family)]
        assert with_fresh in outside and other_dim in outside
        oracle_convex = _splices_stay_inside(codes, _atom_patterns(ordered)[1])
        for sp in (parsed.spaces["W"], FiniteSpace(family, basepoint=bp)):
            assert (sp.algebra, sp.dim, sp.basepoint) == (alg, dim, bp)
            assert sp.points == tuple(ordered)
            assert [p.sort_key() for p in sp] == sorted(p.sort_key() for p in set(family))
            assert len(sp) == len(ordered)
            assert sp.codes == codes
            assert sp._patterns == view
            for i, p in enumerate(ordered):
                assert p in sp and sp.index(p) == i
            assert sp._holds(ordered) and sp._holds(ordered[:1])
            for q in outside:
                assert q not in sp and not sp._holds(ordered + [q])
                with pytest.raises(StructureError):
                    sp.index(q)
            assert sp.convex == oracle_convex
            assert alpha_profile(sp) == enumerated_alpha_profile(family)
        assert parsed.space_points["W"] == tuple(in_file)
        convex.append(oracle_convex)
    assert len(convex) == 200 and 40 <= sum(convex) < 200


def _fincof_blocks(count=50, seed=20261022):
    """Seeded finite-cofinite spaces, rendered with and without a basepoint,
    and a pair map between the first two, with each block re-parsed."""
    rng, alg = random.Random(seed), fincof_algebra()
    spaces = []
    for _ in range(count):
        dim = rng.randint(1, 3)
        sp = FiniteSpace(_random_fincof_point(rng, alg, dim) for _ in range(rng.randint(1, 12)))
        spaces.append(sp.with_basepoint(rng.choice(sp.points)))
        spaces.append(sp)
    blocks = [format_space("W", sp) for sp in spaces]
    for sp, block in zip(spaces, blocks):
        parsed = parse_input("algebra cofinite\n" + block)
        assert parsed.space_points["W"] == sp.points
        assert parsed.spaces["W"].points == sp.points
        assert parsed.spaces["W"].basepoint == sp.basepoint
    src = next(sp for sp in spaces if len(sp) >= 4)
    dst = next(sp for sp in spaces if sp.dim == src.dim and sp is not src and len(sp) >= 3)
    pm = PartialMap(zip(src.points[::2], rng.choices(dst.points, k=len(src.points[::2]))))
    blocks.append(format_map("F", pm, "A", "B", src, dst))
    text = "\n".join(["algebra cofinite", format_space("A", src), format_space("B", dst),
                      blocks[-1]])
    assert parse_input(text).maps["F"].map.pairs == pm.pairs
    return blocks


def test_fincof_rendering_keeps_its_digest():
    blocks = _fincof_blocks()
    digest = hashlib.sha256("\n\n".join(blocks).encode("utf-8")).hexdigest()
    assert digest == "9ad500638e59b4d7fb0eef05ebf21fe118c2169165648d4368e805338f77ac37"


def test_point_codes_are_the_pattern_column_sums():
    """A finite atomic point's code (`Point.code`) is its literals'
    characters, joined and read as bits (the parser's rule), and the sum of
    its patterns; spaces key and decode their points by it, and a decoded
    point keeps it."""
    checked = 0
    for _, alg, dim, family in _families():
        _, table = _atom_patterns(family)
        sums = [sum(col) for col in zip(*table)]
        sp = FiniteSpace(family)
        assert sp._keys(family) == sums
        for p, code in zip(family, sums):
            assert int(p.literal.replace(" ", ""), 2) == code == p.code
            assert sp.points[sp.index(p)] == p and sp.codes[sp.index(p)] == code
            assert sp.points[sp.index(p)].code == code
            checked += 1
    assert checked > 1500


def _map_cases(count=200, seed=20261023):
    """Seeded map blocks with the points their spaces list, in file order:
    finite atomic maps on one space and across two spaces of different
    dimension, finite-cofinite maps across two spaces whose points show
    different naturals; some violate contraction, some give one source two
    images."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            alg, header = fincof_algebra(), "algebra cofinite"
            dims = [rng.randint(1, 2)] * 2
            shown = [range(0, 4), range(2, 7)]  # the two spaces' atom lists differ
            def draw(side, dim):
                return Point(SetElement(alg, rng.random() < 0.4,
                                        sum(1 << n for n in shown[side] if rng.random() < 0.4))
                             for _ in range(dim))
        else:
            alg = atomic_algebra(rng.randint(1, 4))
            header = f"algebra finite k={alg.atom_count}"
            dims = [rng.randint(1, 3), rng.randint(1, 3)] if i % 4 == 1 else [rng.randint(1, 3)] * 2
            def draw(side, dim):
                return _random_point(rng, alg, dim)
        one_space = i % 4 == 0
        names = ["W", "W"] if one_space else ["A", "B"]
        listed = []
        for side in range(1 if one_space else 2):
            pts = list(dict.fromkeys(draw(side, dims[side]) for _ in range(rng.randint(1, 9))))
            listed.append(pts)
        if one_space:
            listed.append(listed[0])
        sources = rng.sample(range(len(listed[0])), rng.randint(1, min(6, len(listed[0]))))
        pair_lines = [(s, rng.randrange(len(listed[1]))) for s in sources]
        pair_lines += rng.choices(pair_lines, k=rng.randint(0, 2))  # repeated pairs
        if len(listed[1]) > 1 and rng.random() < 0.25:  # a second image for one source
            s, t = rng.choice(pair_lines)
            pair_lines.insert(rng.randint(0, len(pair_lines)), (s, (t + 1) % len(listed[1])))
        lines = [header]
        for name, pts in list(zip(names, listed))[:1 if one_space else 2]:
            lines += [f"space {name} dim={pts[0].dim}"] + [f"point {p.literal}" for p in pts]
        lines += [f"map F from={names[0]} to={names[1]}"]
        lines += [f"pair {s} -> {t}" for s, t in pair_lines]
        yield alg, names, listed, pair_lines, "\n".join(lines)


def test_parsed_maps_answer_like_maps_built_from_their_points(tmp_path, capsys):
    """A map block gives the pairs, verdict, witness and definitional
    verdict of ``PartialMap`` over the same points; a conflicting pair is
    refused at its line with the first source given two images, and the
    CLI's exit codes follow the verdict."""
    from boolmetric.suites import pairwise_map_verdict
    seen, path = {"conflict": 0, "violation": 0, "fincof": 0, "two dims": 0, "cli": 0}, \
        tmp_path / "in.txt"
    for alg, names, listed, pair_lines, text in _map_cases():
        pairs = [(listed[0][s], listed[1][t]) for s, t in pair_lines]
        images, conflict = {}, None
        for line_no, (s, t) in enumerate(pair_lines, start=len(text.splitlines())
                                         - len(pair_lines) + 1):
            if images.setdefault(s, t) != t and conflict is None:
                conflict = line_no, listed[0][s]
        if conflict is not None:
            seen["conflict"] += 1
            with pytest.raises(ParseError) as err:
                parse_input(text)
            assert str(err.value) == (f"line {conflict[0]}: map 'F': conflicting images "
                                      f"for source point {conflict[1].literal}")
            with pytest.raises(StructureError, match="conflicting images for source point"):
                PartialMap(pairs)
            if names[0] == names[1]:
                path.write_text(text)
                assert main(["extend", "--input", str(path)]) == 2
                assert capsys.readouterr().err == f"error: {err.value}\n"
            continue
        pm, ref = parse_input(text).maps["F"].map, PartialMap(pairs)
        assert pm.pairs == ref.pairs and len(pm) == len(ref)
        verdict = check_map(pm)
        assert verdict == check_map(ref)
        assert pairwise_map_verdict(pm) == pairwise_map_verdict(ref)
        assert pairwise_map_verdict(ref).kind == verdict.kind
        assert all(pm(s) == t for s, t in pairs)
        seen["violation"] += verdict.kind == "violation"
        seen["fincof"] += alg.atom_count is None
        seen["two dims"] += listed[0][0].dim != listed[1][0].dim
        if names[0] == names[1]:
            seen["cli"] += 1
            path.write_text(text)
            for command, ok in (("extend", verdict.kind == "isometric"),
                                ("extend-contraction", verdict.ok)):
                code = main([command, "--input", str(path)])
                out, err = capsys.readouterr()
                assert code == (0 if ok else 3), (command, text)
                assert (f"pairs_in = {len(ref)}" in out) if ok else err.startswith("infeasible:")
    assert min(seen.values()) >= 10, seen
