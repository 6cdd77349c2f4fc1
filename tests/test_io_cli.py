"""Input-file parsing and the command-line front end."""

import json

import pytest

from boolmetric import ParseError, conv_hull
from boolmetric.cli import main
from boolmetric.io import format_map, format_space, parse_input, read_input

PLANE = """\
# two generators in the two-atom plane
algebra finite k=2
space W dim=2
point 00 00
point 11 10
point 01 01
basepoint 0
map F from=W to=W
pair 0 -> 0
pair 1 -> 1
pair 2 -> 2
"""

TWIST = """\
algebra finite k=2
space W dim=2
point 00 00
point 01 00
point 01 01
point 10 10
point 11 10
point 11 11
map F from=W to=W
pair 0 -> 5
pair 1 -> 4
pair 2 -> 3
"""

COLLAPSE = """\
algebra finite k=2
space W dim=2
point 00 00
point 01 00
point 01 01
map F from=W to=W
pair 0 -> 0
pair 1 -> 0
"""

COF_LINE = """\
algebra cofinite
space L dim=1
point fin{}
point fin{1,3}
point cof{2}
"""


def write(tmp_path, text, name="in.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- parsing

def test_parse_plane():
    parsed = parse_input(PLANE)
    assert parsed.algebra.atom_count == 2
    sp = parsed.spaces[parsed.only_space()]
    assert len(sp) == 3 and sp.basepoint == sp.points[0]
    pm = parsed.maps[parsed.only_map()]
    assert pm.name == "F" and len(pm.map) == 3
    assert pm.source_space == pm.target_space == "W"


def test_points_kept_in_file_order():
    parsed = parse_input(PLANE)
    lits = [" ".join(c.literal for c in p.coords)
            for p in parsed.space_points["W"]]
    assert lits == ["00 00", "11 10", "01 01"]


def test_format_round_trips():
    parsed = parse_input(TWIST)
    sp = conv_hull(parsed.space_points["W"])
    text = "algebra finite k=2\n\n" + format_space("W", sp)
    again = parse_input(text).spaces["W"]
    assert again.points == sp.points and again.basepoint == sp.basepoint
    pm = parsed.maps["F"].map
    source = parsed.spaces["W"]
    text += "\n\n" + format_map("F", pm, "W", "W", source, source)
    assert parse_input(text).maps["F"].map.pairs == pm.pairs


def test_read_input(tmp_path):
    path = write(tmp_path, COF_LINE)
    parsed = read_input(path)
    assert parsed.algebra.kind == "finite-cofinite"
    assert len(parsed.spaces[parsed.only_space()]) == 3


@pytest.mark.parametrize("text,fragment", [
    ("", "no algebra"),
    ("space W dim=1\npoint 00", "must declare the algebra"),
    ("algebra finite k=2\nalgebra finite k=2", "algebra declared twice"),
    ("algebra finite k=0", "positive atom count"),
    ("algebra finite\n", "expected 'algebra finite k=N'"),
    ("algebra finite k=2\nfrobnicate", "unknown directive"),
    ("algebra finite k=2\npoint 00", "outside a space block"),
    ("algebra finite k=2\nspace W dim=2\npoint 00", "expected 2 coordinates"),
    ("algebra finite k=2\nspace W dim=1\npoint 00 11",
     "expected 1 coordinates, got 2"),
    ("algebra finite k=2\nspace W dim=1\npoint 0", "bad element literal"),
    ("algebra finite k=2\nspace W dim=0", "at least 1"),
    ("algebra finite k=2\nspace W\npoint 00", "expected 'space NAME dim=N'"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\npoint 00",
     "indices would be ambiguous"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\nbasepoint 1",
     "out of range"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\nbasepoint x",
     "expected 'basepoint INDEX'"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\nbasepoint 0\nbasepoint 0",
     "basepoint declared twice"),
    ("algebra finite k=2\nspace W dim=1", "has no points"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\nspace W dim=1\npoint 11",
     "declared twice"),
    ("algebra finite k=2\nmap F from=W to=W\npair 0 -> 0", "unknown space"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\n"
     "map F from=W to=Z\npair 0 -> 0", "unknown space 'Z'"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\n"
     "map F from=W to=W\npair 0 -> 1", "pair index 1 out of range"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\n"
     "map F from=W to=W\npair 0 0", "expected 'pair I -> J'"),
    ("algebra finite k=2\nspace W dim=1\npoint 00\nmap F from=W to=W",
     "has no pairs"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_input(text)
    assert fragment in str(err.value)


def test_parse_errors_carry_line_numbers():
    bad = "algebra finite k=2\nspace W dim=2\npoint 00 00\npoint 00"
    with pytest.raises(ParseError) as err:
        parse_input(bad)
    assert str(err.value).startswith("line 4:")


def test_only_accessors_fail_when_ambiguous():
    two = ("algebra finite k=2\nspace A dim=1\npoint 00\n"
           "space B dim=1\npoint 11")
    parsed = parse_input(two)
    with pytest.raises(ParseError):
        parsed.only_space()
    with pytest.raises(ParseError):
        parsed.only_map()


# ---------------------------------------------------------------- commands

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_command(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, _ = run_cli(capsys, "alpha", "--input", path)
    assert code == 0
    assert out == ("algebra = finite k=2\n"
                   "space = W\n"
                   "points = 3\n"
                   "rank = 2\n"
                   "alpha[1] = 11\n"
                   "alpha[2] = 01\n")


def test_alpha_works_over_cofinite_algebra(tmp_path, capsys):
    path = write(tmp_path, COF_LINE)
    code, out, _ = run_cli(capsys, "alpha", "--input", path)
    assert code == 0 and "alpha[1] = cof{2}" in out and "rank = 1" in out


def test_base_command(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, _ = run_cli(capsys, "base", "--input", path)
    assert code == 0
    assert "basepoint = 00 00" in out
    assert "base[1] = 11 10\nbase[2] = 01 01" in out


def test_conv_emits_a_reparseable_space(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, _ = run_cli(capsys, "conv", "--input", path)
    assert code == 0 and "points = 6" in out
    block = out.split("\n\n", 1)[1]
    sp = parse_input(block).spaces["W"]
    gens = parse_input(PLANE).space_points["W"]
    assert sp.points == conv_hull(gens).points
    assert sp.basepoint == gens[0]  # the declared basepoint rides along


def test_isometric_true_emits_witness_map(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, _ = run_cli(capsys, "isometric", "--input", path,
                           "--left", "W", "--right", "W")
    assert code == 0 and "isometric = true" in out
    assert "map iso from=W to=W" in out


def test_isometric_false_is_still_exit_zero(tmp_path, capsys):
    text = ("algebra finite k=2\n"
            "space A dim=1\npoint 00\npoint 11\n"
            "space B dim=1\npoint 00\n")
    path = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "isometric", "--input", path)
    assert code == 0 and "isometric = false" in out


def test_extend_command(tmp_path, capsys):
    path = write(tmp_path, TWIST)
    code, out, _ = run_cli(capsys, "extend", "--input", path)
    assert code == 0
    assert "pairs_in = 3" in out and "pairs_out = 6" in out
    assert "kind = isometric" in out
    assert ("map F_ext from=W to=W\n"
            "pair 0 -> 5\npair 1 -> 4\npair 2 -> 3\n"
            "pair 3 -> 2\npair 4 -> 1\npair 5 -> 0\n") in out


def test_extend_contraction_command(tmp_path, capsys):
    path = write(tmp_path, COLLAPSE)
    code, out, _ = run_cli(capsys, "extend-contraction", "--input", path)
    assert code == 0 and "kind = contractive" in out
    assert "pairs_in = 2" in out and "pairs_out = 3" in out
    assert "pair 2 -> 0" in out


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sum-law",
                           "--instances", "5", "--seed", "1")
    assert code == 0
    assert out == "seed = 1\ninstances = 5\nsum-law = 5/5 exact\n"


def test_counterexample_listing(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--which", "contraction",
                           "--predicate", "evens", "--max-support", "1")
    assert code == 0
    assert "candidates = 8" in out and "refuted = all" in out
    assert ("candidate cof{}: kind=contraction witness=fin{1} "
            "violates cof{} <= cof{1} [refuted]") in out


def test_counterexample_two_dim(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--which", "two-dim",
                           "--predicate", "mod:1,3", "--max-support", "1")
    assert code == 0
    assert ("candidate (cof{}, fin{}): kind=orthogonal witness=fin{0} "
            "violates cof{} <= cof{0} [refuted]") in out


def test_counterexample_line(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--which", "line",
                           "--instances", "5", "--seed", "2")
    assert code == 0 and "result = 5/5 exact" in out


# ---------------------------------------------------------------- failures

def test_parse_failure_is_exit_two(tmp_path, capsys):
    path = write(tmp_path, "algebra finite k=2\nspace W dim=2\npoint 00\n")
    code, _, err = run_cli(capsys, "alpha", "--input", path)
    assert code == 2 and err.startswith("error: line 3:")


def test_distance_collapse_makes_extend_infeasible(tmp_path, capsys):
    path = write(tmp_path, COLLAPSE)
    code, _, err = run_cli(capsys, "extend", "--input", path)
    assert code == 3
    assert err == "infeasible: the input pairs do not preserve distances\n"


def test_hulls_unsupported_over_cofinite_algebra(tmp_path, capsys):
    path = write(tmp_path, COF_LINE)
    code, _, err = run_cli(capsys, "conv", "--input", path)
    assert code == 3 and err.startswith("infeasible:")


def test_hull_cap_is_exit_three(tmp_path, capsys):
    text = ("algebra finite k=3\nspace W dim=3\n"
            "point 000 000 000\npoint 111 000 000\npoint 000 111 000\n"
            "point 000 000 111\npoint 111 111 111\n")
    path = write(tmp_path, text)
    code, _, err = run_cli(capsys, "conv", "--input", path,
                           "--max-points", "4")
    assert code == 3 and "exceed 4 points" in err


@pytest.mark.parametrize("argv", [
    ["alpha", "--input", "NON_UTF8"],
    ["conv", "--input", "NON_UTF8", "--max-points", "0"],
    ["verify", "--suite", "witt", "--instances", "-3"],
    ["verify", "--suite", "witt", "--atoms", "0"],
    ["verify", "--suite", "witt", "--dim", "0"],
    ["verify", "--suite", "witt", "--max-support", "x"],
    ["counterexample", "--max-support", "-2"],
    ["counterexample", "--which", "line", "--instances", "0"],
])
def test_bad_input_and_flags_are_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"algebra finite k=2\nspace W dim=1\npoint 0\xe9\n")
    argv = [str(path) if a == "NON_UTF8" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and err and "Traceback" not in err


def test_alpha_handles_inputs_beyond_the_enumeration_range(tmp_path, capsys):
    lits = [f"{a:03b} {b:03b}" for a in range(8) for b in range(8)][::2][:25]
    path = write(tmp_path, "algebra finite k=3\nspace W dim=2\n"
                 + "".join(f"point {lit}\n" for lit in lits))
    code, alpha_out, _ = run_cli(capsys, "alpha", "--input", path)
    assert code == 0 and "points = 25" in alpha_out
    code, base_out, _ = run_cli(capsys, "base", "--input", path)
    assert code == 0

    def alpha_lines(text):
        return [line for line in text.splitlines() if line.startswith("alpha[")]
    assert alpha_lines(alpha_out) and alpha_lines(alpha_out) == alpha_lines(base_out)


def test_unknown_space_name_is_exit_two(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, _, err = run_cli(capsys, "alpha", "--input", path, "--space", "Z")
    assert code == 2 and err.startswith("error:")


# ---------------------------------------------------------------- output

def test_json_mirror(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    _, plain, _ = run_cli(capsys, "alpha", "--input", path)
    code, out, _ = run_cli(capsys, "alpha", "--input", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fields"]["rank"] == 2
    assert data["lines"] == ["alpha[1] = 11", "alpha[2] = 01"]
    assert data["blocks"] == []
    assert "alpha[1] = 11" in plain


def test_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, TWIST)
    _, first, _ = run_cli(capsys, "extend", "--input", path)
    _, second, _ = run_cli(capsys, "extend", "--input", path)
    assert first == second
