"""Spaces read from the input format over a finite atomic algebra answer
like spaces built from points, and like the `_atom_patterns` oracle."""

import random

import pytest

from boolmetric import (ParseError, Point, StructureError, alpha_profile,
                        alpha_profile_of_points, atomic_algebra, conv_hull)
from boolmetric.cli import main
from boolmetric.io import parse_input
from boolmetric.spaces import FiniteSpace, _atom_patterns


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
    """`alpha`, `conv` and `isometric` read a parsed space as codes: the
    only points built are the map's own (two per pair) and, for
    `isometric`, the two basepoints of its witness map."""
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
    for argv, points in ((["alpha", "--space", "W"], 4), (["conv", "--space", "V"], 4),
                         (["isometric"], 6)):
        built.clear()
        assert main(argv + ["--input", str(path)]) == 0
        assert len(built) == points, argv
    assert "isometric = true" in capsys.readouterr().out

    parsed = parse_input(text)
    sp, inside = parsed.spaces["W"], Point.from_literals(alg, *min(lines).split())
    outside = Point.from_literals(alg, "111111", "111111", "111111")
    built.clear()
    assert len(sp) == len(lines) and inside in sp and sp.index(inside) == 0
    assert (outside in sp) == (outside.literal in lines)
    assert alpha_profile_of_points(sp) == alpha_profile(sp)
    assert len(conv_hull(sp)) >= len(sp)
    assert built == []
