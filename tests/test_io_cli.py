"""Input-file parsing and the command-line front end."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boolmetric import (IdealDescriptor, ParseError, PartialMap, Point,
                        StructureError, VerificationError, atomic_algebra, bounded_candidates,
                        contraction_obstruction_witness, conv_extend, conv_hull,
                        fincof_algebra, isometry_obstruction_witness, space)
from boolmetric import cli
from boolmetric.cli import Report, main
from boolmetric.io import (format_algebra, format_map, format_space, parse_input,
                           read_input)

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


def test_format_space_renders_each_distinct_element_once(monkeypatch):
    from boolmetric.algebra import BitsElement
    alg = atomic_algebra(5)
    gens = [Point.from_literals(alg, *lits) for lits in
            (("00000", "00000"), ("11100", "01010"), ("10011", "11001"))]
    built = conv_hull(gens)
    expected = "\n".join([f"space H dim={built.dim}"]
                         + ["point " + " ".join(c.literal for c in p.coords) for p in built])
    calls = []
    literal = BitsElement.literal
    monkeypatch.setattr(BitsElement, "literal",
                        property(lambda e: calls.append(e) or literal.fget(e)))
    assert format_space("H", built) == expected
    assert len(built) == 108 and len(calls) == len(set(calls)) <= 2 * 2 ** 5
    # a hull whose points were never read is printed from its codes alone
    hull = conv_hull(gens)
    assert format_space("H", hull) == expected and hull._points is None


def test_reading_a_printed_hull_back_compares_few_points(monkeypatch):
    alg = atomic_algebra(6)
    zero, one = "0" * 6, "1" * 6
    hull = conv_hull([Point.from_literals(alg, *lits) for lits in
                      ((zero, zero, zero), (one, zero, zero), (zero, one, zero))])
    text = format_algebra(alg) + "\n" + format_space("W", hull)
    calls = []
    eq = Point.__eq__
    monkeypatch.setattr(Point, "__eq__", lambda p, q: calls.append(p) or eq(p, q))
    assert len(parse_input(text).spaces["W"]) == len(hull) == 729
    assert len(calls) < len(hull)
    # a duplicate is still refused at its own line
    lines = text.splitlines()
    with pytest.raises(ParseError) as err:
        parse_input("\n".join(lines + [lines[100]]))
    assert err.value.line_no == len(lines) + 1


def test_format_map_prints_an_empty_map_and_refuses_outside_points():
    a2, fc = atomic_algebra(2), fincof_algebra()
    plane = space([Point.from_literals(a2, "00", "00"), Point.from_literals(a2, "11", "10")])
    line = space([Point((fc.fin({1}),)), Point((fc.cof({2}),))])
    for sp in (plane, line):
        assert format_map("F", PartialMap(()), "W", "W", sp, sp) == "map F from=W to=W"
    x, y = plane.points
    outside = Point.from_literals(a2, "01", "01")
    kept = conv_extend(PartialMap(((x, x), (y, outside))))  # its image leaves the plane
    assert kept._atom_maps is not None
    for pm, sp in [(PartialMap(((outside, x),)), plane),
                   (PartialMap(((x, outside),)), plane),
                   (PartialMap(((Point.from_literals(a2, "00"), x),)), plane),
                   (PartialMap(((Point((fc.fin({7}),)), Point((fc.fin({1}),))),)), line),
                   (kept, plane), (kept, conv_hull(plane)),
                   # same codes, another algebra and dimension
                   (kept, conv_hull([Point.from_literals(atomic_algebra(4), lit)
                                     for lit in ("0000", "1111")]))]:
        with pytest.raises(StructureError):
            format_map("F", pm, "W", "W", sp, sp)


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


_ONE_POINT = ["algebra finite k=2", "space W dim=1", "point 00"]


@pytest.mark.parametrize("lines,bad,fragment", [
    (_ONE_POINT + ["map F from=W to=W", "pair 1 -> 0"], 5, "pair index 1 out of range"),
    (_ONE_POINT + ["map F from=W to=W", "pair 0 -> 0", "pair 0 -> 3"], 6,
     "pair index 3 out of range"),
    (_ONE_POINT + ["point 11", "map F from=W to=W", "pair 0 -> 0", "pair 1 -> 1",
                   "pair 0 -> 1"], 8, "map 'F': conflicting images for source point 00"),
    (_ONE_POINT + ["basepoint 4", "point 11", "point 01"], 4, "basepoint index 4 out of range"),
    (_ONE_POINT[:2], 2, "space 'W' has no points"),
    (_ONE_POINT + ["map F from=W to=W"], 4, "map 'F' has no pairs"),
])
@pytest.mark.parametrize("tail", ["", "\n", "\nspace V dim=1\npoint 11\n"])
def test_parse_errors_name_the_offending_line(lines, bad, fragment, tail):
    # the directive at fault, or the header of an empty block
    with pytest.raises(ParseError) as err:
        parse_input("\n".join(lines) + tail)
    assert err.value.line_no == bad and fragment in str(err.value)


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


def test_a_failed_witness_check_is_exit_one(tmp_path, capsys, monkeypatch):
    def refuse(left, right):
        raise VerificationError("the constructed map is not isometric")

    # the extend handlers are bound at parser build time; this name is read per call
    monkeypatch.setattr(cli, "construct_isometry", refuse)
    text = ("algebra finite k=2\n"
            "space A dim=1\npoint 00\npoint 11\n"
            "space B dim=2\npoint 00 00\npoint 11 10\n")
    code, out, err = run_cli(capsys, "isometric", "--input", write(tmp_path, text))
    assert (code, out) == (1, "")
    assert err == "violation: the constructed map is not isometric\n"


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


def test_counterexample_line_reports_a_failing_suite(capsys, monkeypatch):
    from boolmetric import suites

    def broken(cfg):
        res = suites.SuiteResult("line-extension", total=2)
        res.fail("instance 1: planted failure")
        return res
    monkeypatch.setattr(cli, "run_line_extension", broken)
    code, out, _ = run_cli(capsys, "counterexample", "--which", "line")
    assert code == 1 and "result = 1/2 exact\n" in out
    assert out.endswith("failure: instance 1: planted failure\n")


@pytest.mark.parametrize("support", ["0", "3", "40"])
def test_counterexample_line_refuses_max_support(capsys, support):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--which", "line", "--max-support", support])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "error: argument --max-support" in err
    assert "Traceback" not in err


def test_counterexample_sweeps_default_to_max_support_three(capsys):
    for which in ("two-dim", "contraction"):
        code, out, _ = run_cli(capsys, "counterexample", "--which", which)
        assert code == 0 and "max_support = 3\n" in out and "candidates = 32\n" in out


def object_path_report(which, predicate, support):
    """The fields and lines of a sweep report, built from the public
    ``Witness`` objects one candidate at a time."""
    desc = IdealDescriptor.parse(predicate)
    lines = []
    for v in bounded_candidates(support):
        if which == "two-dim":
            w = isometry_obstruction_witness((v, ~v), desc)
            label = f"candidate ({v.literal}, {(~v).literal})"
        else:
            w = contraction_obstruction_witness(v, desc)
            label = f"candidate {v.literal}"
        lines.append(f"{label}: {w.describe()} [{'refuted' if w.verified else 'UNVERIFIED'}]")
    fields = {"which": which, "predicate": desc.label, "max_support": support,
              "candidates": len(lines), "refuted": "all"}
    return fields, lines


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("which", ["two-dim", "contraction"])
def test_streamed_sweep_report_equals_the_object_path(capsys, monkeypatch, which, chunk):
    if chunk is not None:  # several writes per listing, one ending short
        monkeypatch.setattr(Report, "CHUNK", chunk)
    for support in range(5):
        for predicate in ("evens", "mod:2,5"):
            fields, lines = object_path_report(which, predicate, support)
            argv = ("counterexample", "--which", which, "--predicate", predicate,
                    "--max-support", str(support))
            code, out, _ = run_cli(capsys, *argv, "--json")
            assert code == 0
            assert out == json.dumps({"fields": fields, "lines": lines, "blocks": []},
                                     indent=2) + "\n"
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == "".join(f"{k} = {v}\n" for k, v in fields.items()) + \
                "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("which", ["two-dim", "contraction"])
def test_streamed_sweep_report_above_one_byte_equals_the_object_path(capsys, which):
    # supports 8 and 9 need a second byte of support text
    for support in (8, 9):
        for predicate in ("evens", "mod:7,8"):
            fields, lines = object_path_report(which, predicate, support)
            argv = ("counterexample", "--which", which, "--predicate", predicate,
                    "--max-support", str(support))
            assert run_cli(capsys, *argv, "--json")[:2] == (0, json.dumps(
                {"fields": fields, "lines": lines, "blocks": []}, indent=2) + "\n")
            assert run_cli(capsys, *argv)[:2] == (0, "".join(
                f"{k} = {v}\n" for k, v in fields.items()) + "".join(f"{line}\n" for line in lines))


@pytest.mark.parametrize("argv", [("--suite", "counterexamples", "--max-support", "0"),
                                  ("--suite", "counterexamples", "--max-support", "1"),
                                  ("--suite", "counterexamples", "--max-support", "2"),
                                  ("--suite", "all", "--max-support", "0", "--instances", "1")])
def test_counterexamples_suite_runs_on_supports_below_three(capsys, argv):
    # the merge-map samples draw up to four naturals from a smaller pool here
    code, out, err = run_cli(capsys, "verify", *argv)
    total = 2 * 4 * 2 ** int(argv[3]) + 256 + 50
    assert code == 0 and err == ""
    assert f"counterexamples = {total}/{total} exact\n" in out


def test_reports_without_lines_render_like_json_dumps(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, _ = run_cli(capsys, "conv", "--input", path, "--json")
    data = json.loads(out)
    assert code == 0 and data["lines"] == [] and len(data["blocks"]) == 2
    assert out == json.dumps(data, indent=2) + "\n"


def test_a_failed_recheck_marks_exactly_its_line(capsys, monkeypatch):
    from boolmetric import cli
    recheck = cli._violated
    # candidate fin{0,2} against the evens: witness fin{4}, lhs fin{0,2,4}
    target = ((False, 0b10101), (True, 0b10000))
    monkeypatch.setattr(cli, "_violated",
                        lambda lhs, rhs: (lhs, rhs) != target and recheck(lhs, rhs))
    for as_json in (False, True):
        code, out, _ = run_cli(capsys, "counterexample", "--which", "contraction",
                               "--max-support", "2", *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            data = json.loads(out)
            fields, lines = data["fields"], data["lines"]
        else:
            head, _, rest = out.partition("\ncandidate ")
            fields = dict(line.split(" = ") for line in head.splitlines())
            lines = ("candidate " + rest).splitlines()
        assert fields["refuted"] == "INCOMPLETE" and int(fields["candidates"]) == 16
        marked = [line for line in lines if "UNVERIFIED" in line]
        assert marked == ["candidate fin{0,2}: kind=contraction witness=fin{4} "
                          "violates fin{0,2,4} <= cof{4} [UNVERIFIED]"]
        assert sum(line.endswith("[refuted]") for line in lines) == 15


@pytest.mark.parametrize("argv, exit_code", [
    (["--predicate", "primes"], 2),
    (["--predicate", "mod:5,3"], 2),
    (["--which", "contraction", "--predicate", "mod:1,9"], 2),
    (["--max-support", "10", "--max-points", "4000"], 3),
    (["--which", "contraction", "--max-support", "40"], 3),
])
def test_refused_sweeps_print_nothing(capsys, argv, exit_code):
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "counterexample", *argv, *extra)
        assert code == exit_code and out == "" and err and "Traceback" not in err


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


def test_naturals_at_the_bound_are_exit_two(tmp_path, capsys):
    text = "algebra cofinite\nspace W dim=1\npoint fin{}\npoint fin{%d}\n"
    code, out, _ = run_cli(capsys, "alpha", "--input", write(tmp_path, text % (2 ** 16 - 1)))
    assert code == 0 and "points = 2" in out
    code, _, err = run_cli(capsys, "alpha", "--input", write(tmp_path, text % 2 ** 16))
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("argv,fragment", [
    (["base", "--space", "X"], "no space named 'X'"),
    (["conv", "--space", "X"], "no space named 'X'"),
    (["isometric", "--left", "W"], "give both --left and --right"),
    (["isometric", "--left", "W", "--right", "X"], "no space named 'X'"),
    (["extend", "--target", "X"], "no space named 'X'"),
    (["extend", "--map", "G"], "no map named 'G'"),
])
def test_unknown_names_and_missing_choices_are_exit_two(tmp_path, capsys, argv, fragment):
    code, out, err = run_cli(capsys, argv[0], "--input", write(tmp_path, PLANE), *argv[1:])
    assert (code, out) == (2, "") and err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["extend", "extend-contraction"])
def test_a_map_between_two_spaces_needs_a_target(tmp_path, capsys, command):
    text = ("algebra finite k=2\nspace W dim=1\npoint 00\nspace V dim=1\npoint 11\n"
            "map F from=W to=V\npair 0 -> 0\n")
    code, out, err = run_cli(capsys, command, "--input", write(tmp_path, text))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err == "error: map endpoints differ; pick the ambient space with --target\n"


def test_verify_reports_suite_info_fields(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "witt", "--instances", "4",
                           "--seed", "0")
    assert code == 0 and "witt = 4/4 exact\n" in out
    assert any(line.startswith("witt.cube_checked = ") and line[20:].isdigit()
               for line in out.splitlines())


def test_verify_reports_a_failing_suite(capsys, monkeypatch):
    from boolmetric import suites

    def broken(cfg):
        res = suites.SuiteResult("witt", total=2)
        res.fail("instance 1: planted failure")
        return res
    monkeypatch.setitem(suites.SUITES, "witt", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "witt")
    assert code == 1 and "witt = 1/2 exact\n" in out
    assert "failure [witt]: instance 1: planted failure\n" in out


def test_format_space_round_trips_over_the_cofinite_algebra():
    fc = fincof_algebra()
    points = [Point((fc.fin({1, 3}), fc.cof({2}))), Point((fc.fin(()), fc.fin({4}))),
              Point((fc.cof(()), fc.cof({0, 5})))]
    sp = space(points, basepoint=points[2])
    text = format_algebra(fc) + "\n" + format_space("L", sp)
    assert "point cof{} cof{0,5}" in text and "fin{1,3}" in text
    again = parse_input(text).spaces["L"]
    assert again.points == sp.points
    assert again.index(again.basepoint) == sp.index(sp.basepoint)
    assert again.basepoint == points[2]


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


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, exit_code", [
    (["extend"], 0),
    (["extend", "--json"], 0),
    (["counterexample", "--max-support", "6"], 0),
])
def test_a_closed_stdout_ends_quietly_with_the_report_code(tmp_path, capsys, monkeypatch,
                                                           argv, exit_code):
    if argv[0] == "extend":
        argv = argv + ["--input", write(tmp_path, TWIST)]
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == exit_code
    assert capsys.readouterr().err == ""


def test_python_dash_m_runs_the_command_line(tmp_path, capsys):
    path = write(tmp_path, PLANE)
    code, out, err = run_cli(capsys, "conv", "--input", path)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "boolmetric", "conv", "--input", path],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
    assert code == 0 and "points = 6" in out
