"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter

import layers
import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Generated maps, checked by a pairwise oracle that shares no code with the
# generator or with boolmetric.
# ---------------------------------------------------------------------------


def parse_map_file(text: str):
    """(k, points as tuples of masks, pairs as point index pairs)."""
    k, points, pairs = None, [], []
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "algebra":
            k = int(rest[1][2:])
        elif head == "point":
            points.append(tuple(sum(1 << i for i, c in enumerate(lit) if c == "1")
                                for lit in rest))
        elif head == "pair":
            pairs.append((int(rest[0]), int(rest[2])))
    return k, points, pairs


def oracle_kind(points, pairs) -> str:
    def d(x, y):
        acc = 0
        for a, b in zip(x, y):
            acc |= a ^ b
        return acc

    kind = "isometric"
    for (s1, t1), (s2, t2) in itertools.combinations(pairs, 2):
        ds = d(points[s1], points[s2])
        dt = d(points[t1], points[t2])
        if dt & ~ds:
            return "violation"
        if dt != ds:
            kind = "contractive"
    return kind


def hull_size(k, points) -> int:
    size = 1
    for t in range(k):
        size *= len({tuple(c >> t & 1 for c in p) for p in points})
    return size


def test_generated_maps_have_their_kind():
    spec = workloads.WORKLOADS["pipeline"]
    checked = Counter()
    for slot in [spec["warmup"]] + spec["slots"]:
        if not slot.name.startswith("extend"):
            continue
        size = int(slot.name.split("-n")[1].split("-")[0])
        for v in range(workloads.VARIANTS):
            req = workloads.build("pipeline", slot, v)
            k, points, pairs = parse_map_file(req.text)
            # Sources and images lie in the hull the generators span.
            assert hull_size(k, points) == size, req.id
            assert len({s for s, _ in pairs}) == len(pairs), req.id
            kind = oracle_kind(points, pairs)
            tag = slot.name.rsplit("-", 1)[1]
            allowed = {"iso": {"isometric"}, "con": {"isometric", "contractive"},
                       "bad": {"violation"}}[tag]
            assert kind in allowed, (req.id, kind)
            assert req.expect_exit == (3 if kind == "violation" else 0), req.id
            checked[tag] += 1
    assert checked["iso"] and checked["con"] and checked["bad"]


def test_oracle_sees_a_violation():
    points = [(0b01,), (0b00,), (0b11,)]
    assert oracle_kind(points, [(0, 0), (1, 1)]) == "isometric"
    assert oracle_kind(points, [(0, 1), (1, 1)]) == "contractive"
    assert oracle_kind(points, [(0, 0), (1, 2)]) == "violation"


# ---------------------------------------------------------------------------
# Self-time arithmetic.
# ---------------------------------------------------------------------------


def test_self_times_on_a_hand_built_tree():
    #   root [0, 10]: A [1, 4] holding A1 [2, 3]; B [5, 9] holding two
    #   overlapping children B1 [5, 6] and B2 [5.5, 7]; root2 [12, 13].
    starts = [0, 1, 2, 5, 5, 5.5, 12]
    ends = [10, 4, 3, 9, 6, 7, 13]
    parents = [-1, 0, 1, 0, 3, 3, -1]
    got = list(layers.self_times(starts, ends, parents))
    assert got == [3, 2, 1, 2, 1, 1.5, 1]


def test_pass_figures_account_for_the_wall_time():
    clock = iter([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
    tr = layers.Tracer(clock=lambda: next(clock))
    tr.begin_request("r1", 0.0)
    a = tr.open("A")
    a1 = tr.open("A1")
    tr.close(a1)
    tr.close(a)
    b = tr.open("B")
    tr.close(b)
    tr.end_request(10.0)
    assert list(tr.parents) == [-1, 0, 1, 0]
    fig = layers.pass_figures(tr, tr.self_times(), 0, len(tr), Counter())
    assert fig["cli.main.self_s"] == 3
    assert fig["A.self_s"] == 2 and fig["A1.self_s"] == 1 and fig["B.self_s"] == 4
    assert fig["trace.wall_s"] == 10
    assert fig["trace.unaccounted_s"] == 0


# ---------------------------------------------------------------------------
# Rebinding.
# ---------------------------------------------------------------------------


def package_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "boolmetric" or name.startswith("boolmetric.")}


def test_rebinding_covers_every_namespace(tmp_path):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    cli = run.fresh_cli()
    modules = package_modules()
    originals = {}
    for probe in layers.PROBES:
        if "." not in probe.attr:
            originals[probe.name] = getattr(modules[f"boolmetric.{probe.module}"], probe.attr)
    holders = {name: {m for m, mod in modules.items()
                      if any(v is fn for v in vars(mod).values())}
               for name, fn in originals.items()}
    assert {"boolmetric.spaces", "boolmetric.extension", "boolmetric.invariants",
            "boolmetric.cli", "boolmetric.suites"} <= holders["spaces.check_map"]

    tr = layers.Tracer()
    undo = layers.install(tr, sys.modules)
    try:
        for name, fn in originals.items():
            for m in holders[name]:
                assert all(v is not fn for v in vars(modules[m]).values()), (name, m)
        assert modules["boolmetric.spaces"].FiniteSpace.__init__.__name__ == "traced"
        # A traced request prints exactly what the untraced one prints.
        warmup, _ = workloads.plan("pipeline", 0)
        paths = run.write_inputs(tmp_path, [warmup])
        code, out, start, end = run.call(cli.main, warmup.argv(paths[warmup.id]),
                                         tr, warmup.id)
    finally:
        layers.uninstall(undo)
    golden = json.loads(run.GOLDEN.read_text())[warmup.id]
    assert {"exit": code, "stdout_sha256": run.digest(out)} == golden
    names = tr.names
    ext = names.index("extension.extend_isometry")
    assert tr.parents[ext] == 0
    assert any(names[i] == "spaces.check_map" and tr.parents[i] == ext
               for i in range(len(tr)))
    assert tr.ends[0] - tr.starts[0] == end - start
    for name, fn in originals.items():
        for m in holders[name]:
            assert any(v is fn for v in vars(modules[m]).values()), (name, m)


# ---------------------------------------------------------------------------
# The benchmark's declared contract.
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.LAYER_METRICS


def test_golden_covers_every_request_exactly():
    golden = json.loads(run.GOLDEN.read_text())
    ids = set()
    for name in workloads.WORKLOADS:
        for req in workloads.pool(name):
            assert golden[req.id]["exit"] == req.expect_exit, req.id
            ids.add(req.id)
    assert ids == set(golden)


def test_plans_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
        assert workloads.plan(name, 7) != workloads.plan(name, 8)
        _, requests = workloads.plan(name, 7)
        assert len(requests) == len(workloads.WORKLOADS[name]["slots"])


def test_tail_percentile():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (0.9, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 51)]) == (0.8, 40.0)
