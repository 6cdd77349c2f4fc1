"""Per-layer tracing of boolmetric from outside the library.

The traced run rebinds the public functions of each module, in every
``boolmetric.*`` namespace that holds them, to wrappers that record a span
(name, start, end, parent, request) and a few counters.  The library
source is not touched, and ``uninstall`` puts the originals back.

Counters named ``pairs_compared``, ``pairs`` and ``subsets`` are computed
upper bounds of the work a call may do (n(n-1)/2 map pairs, |inner|*|ambient|
complement checks, sum of C(n, k+1) subsets), not counts of work done.
A ``distinct_ratio`` is the number of distinct arguments over the number of
calls, both counted within one request and summed over the pass.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    Span ``i`` is stored column-wise: ``names[i]``, ``starts[i]``,
    ``ends[i]``, ``parents[i]`` (the index of the enclosing span, -1 for a
    request's top-level span) and ``requests[i]``.  Columns keep a sweep's
    hundreds of thousands of spans compact."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._request = None

    def __len__(self) -> int:
        return len(self.names)

    def _append(self, name: str, start: float) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self._stack.append(idx)
        return idx

    def open(self, name: str) -> int:
        idx = self._append(name, 0.0)
        self.starts[idx] = self.clock()
        return idx

    def close(self, idx: int):
        self.ends[idx] = self.clock()
        self._stack.pop()

    def begin_request(self, request, start: float) -> int:
        """Open the top-level span of one CLI call at a given time."""
        self._request = request
        return self._append("cli.main", start)

    def end_request(self, end: float):
        self.ends[self._stack.pop()] = end
        for name, keys in self._keys.items():
            self.counts[name + ".distinct"] += len(keys)
        self._keys.clear()
        self._request = None

    def distinct(self, name: str, key):
        self._keys[name].add(key)

    def self_times(self) -> array:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path, selfs):
        """One tab-separated line per span, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\tself\n")
            fh.writelines("%s\t%.9f\t%.9f\t%d\t%s\t%.9f\n" % row
                          for row in zip(self.names, self.starts, self.ends, self.parents,
                                         self.requests, selfs))


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Spans are given column-wise; ``parents[i]`` is -1 for a root."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = array("d", (e - s for s, e in zip(starts, ends)))
    for i, kids in children.items():
        covered, cursor, end = 0.0, starts[i], ends[i]
        for c in sorted(kids, key=starts.__getitem__):
            lo, hi = max(starts[c], cursor), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[i] -= covered
    return out


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts.
# ---------------------------------------------------------------------------


def _count_check_map(tr, name, args, kwargs, result):
    pairs = args[0].pairs
    tr.counts[name + ".pairs_compared"] += len(pairs) * (len(pairs) - 1) // 2
    tr.distinct(name, hash(pairs))


def _count_complement(tr, name, args, kwargs, result):
    tr.counts[name + ".pairs"] += len(args[0]) * len(args[1])


def _count_conv_hull(tr, name, args, kwargs, result):
    source = args[0]
    tr.distinct(name, hash(frozenset(getattr(source, "points", source))))
    tr.counts[name + ".points_out"] += len(result)


def _count_space_init(tr, name, args, kwargs, result):
    tr.counts[name + ".points"] += len(args[0].points)


def _count_map_init(tr, name, args, kwargs, result):
    tr.counts[name + ".pairs"] += len(args[0].pairs)


def _count_alpha(tr, name, args, kwargs, result):
    n = len(set(args[0]))
    tr.counts[name + ".subsets"] += 2 ** n - 1 - n


def _count_read_input(tr, name, args, kwargs, result):
    tr.counts[name + ".bytes_in"] += os.path.getsize(args[0])


def _record_suite(tr, name, args, kwargs, result):
    tr.counts[f"suites.{result.name}.elapsed_s"] += result.elapsed


@dataclass(frozen=True)
class Probe:
    """``module.attr`` is wrapped; ``attr`` may be ``Class.method``.

    ``kind`` is "span" (a span per call, then ``count``), "result" (no
    span; ``count`` reads the result) or "generator" (no span; the items
    yielded are counted)."""

    module: str
    attr: str
    name: str
    count: Callable | None = None
    kind: str = "span"


PROBES = (
    Probe("spaces", "check_map", "spaces.check_map", _count_check_map),
    Probe("spaces", "orthogonal_complement", "spaces.orthogonal_complement",
          _count_complement),
    Probe("spaces", "decompose", "spaces.decompose"),
    Probe("spaces", "convex_combine", "spaces.convex_combine"),
    Probe("spaces", "conv_hull", "spaces.conv_hull", _count_conv_hull),
    Probe("spaces", "FiniteSpace.__init__", "spaces.FiniteSpace.init", _count_space_init),
    Probe("spaces", "PartialMap.__init__", "spaces.PartialMap.init", _count_map_init),
    Probe("invariants", "alpha_profile_of_points", "invariants.alpha_profile_of_points",
          _count_alpha),
    Probe("invariants", "build_base", "invariants.build_base"),
    Probe("invariants", "decide_isometric", "invariants.decide_isometric"),
    Probe("invariants", "construct_isometry", "invariants.construct_isometry"),
    Probe("invariants", "homogeneity_isometry", "invariants.homogeneity_isometry"),
    Probe("extension", "conv_extend", "extension.conv_extend"),
    Probe("extension", "orthogonal_join", "extension.orthogonal_join"),
    Probe("extension", "extend_isometry", "extension.extend_isometry"),
    Probe("extension", "extend_contraction", "extension.extend_contraction"),
    Probe("io", "read_input", "io.read_input", _count_read_input),
    Probe("io", "format_space", "io.format_space"),
    Probe("io", "format_map", "io.format_map"),
    Probe("cli", "Report.render", "cli.Report.render"),
    Probe("counterexamples", "isometry_obstruction_witness",
          "counterexamples.isometry_obstruction_witness"),
    Probe("counterexamples", "contraction_obstruction_witness",
          "counterexamples.contraction_obstruction_witness"),
    Probe("counterexamples", "line_extension", "counterexamples.line_extension"),
    Probe("counterexamples", "bounded_candidates", "counterexamples.bounded_candidates",
          kind="generator"),
    Probe("suites", "run_suite", "suites.run_suite", _record_suite, kind="result"),
    Probe("suites", "run_line_extension", "suites.run_line_extension", _record_suite,
          kind="result"),
)


def _wrap(tr: Tracer, probe: Probe, fn: Callable) -> Callable:
    name, count = probe.name, probe.count
    if probe.kind == "generator":
        key = name + ".candidates"

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tr.counts[key] += 1
                yield item
        return counted
    if probe.kind == "result":
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tr, name, args, kwargs, result)
            return result
        return recorded

    calls = name + ".calls"

    def traced(*args, **kwargs):
        tr.counts[calls] += 1
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if count is not None:
            count(tr, name, args, kwargs, result)
        return result
    return traced


def install(tr: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    """Rebind every probed name in every ``boolmetric.*`` module of
    ``modules`` (a ``sys.modules``-like mapping).  Returns what
    :func:`uninstall` needs to undo it."""
    package = {name: mod for name, mod in modules.items()
               if name == "boolmetric" or name.startswith("boolmetric.")}
    undo = []
    for probe in PROBES:
        home = package[f"boolmetric.{probe.module}"]
        if "." in probe.attr:
            cls_name, method = probe.attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tr, probe, original))
            undo.append((cls, method, original))
            continue
        original = getattr(home, probe.attr)
        wrapped = _wrap(tr, probe, original)
        for mod in package.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

_SPANNED = [p.name for p in PROBES if p.kind == "span"]
_CALLS_REPORTED = [n for n in _SPANNED
                   if not n.startswith(("io.", "cli."))]
_EXTRA = [
    ("spaces.check_map.pairs_compared", "pairs_computed"),
    ("spaces.check_map.distinct_ratio", "ratio"),
    ("spaces.orthogonal_complement.pairs", "pairs_computed"),
    ("spaces.conv_hull.points_out", "points"),
    ("spaces.conv_hull.distinct_ratio", "ratio"),
    ("spaces.FiniteSpace.init.points", "points"),
    ("spaces.PartialMap.init.pairs", "pairs"),
    ("invariants.alpha_profile_of_points.subsets", "subsets_computed"),
    ("io.read_input.bytes_in", "B"),
    ("io.bytes_out", "B"),
    ("counterexamples.bounded_candidates.candidates", "count"),
    ("suites.counterexamples.elapsed_s", "s"),
    ("suites.line-extension.elapsed_s", "s"),
    ("cli.main.self_s", "s"),
]

# Every per-layer metric a traced run prints, with its unit.  The
# ``algebra.*`` rates come from a micro-loop in run.py and the ``trace.*``
# figures from comparing the traced and untraced passes.
LAYER_METRICS: list[tuple[str, str]] = (
    [(f"{n}.calls", "count") for n in _CALLS_REPORTED]
    + [(f"{n}.self_s", "s") for n in _SPANNED]
    + _EXTRA
    + [("algebra.setelement_ops_per_s", "1/s"), ("algebra.bitselement_ops_per_s", "1/s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s")]
)


def pass_figures(tr: Tracer, selfs, lo: int, hi: int, counts: Counter) -> dict:
    """Per-layer figures of one traced pass: spans ``lo`` to ``hi`` with
    their self times, and the counters the pass accumulated.

    ``trace.unaccounted_s`` is the pass's wall time (the sum of its
    top-level span durations) minus the top-level spans' self times and
    their children's durations; it is zero when the self-time arithmetic
    is consistent."""
    fig: dict[str, float] = defaultdict(float)
    wall = accounted = 0.0
    parents = tr.parents
    for i in range(lo, hi):
        fig[tr.names[i] + ".self_s"] += selfs[i]
        duration = tr.ends[i] - tr.starts[i]
        if parents[i] < 0:
            wall += duration
            accounted += selfs[i]
        elif parents[parents[i]] < 0:
            accounted += duration
    for key, value in counts.items():
        if not key.endswith(".distinct"):
            fig[key] += value
    for name in ("spaces.check_map", "spaces.conv_hull"):
        calls = counts[name + ".calls"]
        fig[name + ".distinct_ratio"] = counts[name + ".distinct"] / calls if calls else 0.0
    fig["trace.wall_s"] = wall
    fig["trace.unaccounted_s"] = wall - accounted
    return fig


def summarize(passes: list[dict]) -> dict[str, float]:
    """Medians over the traced passes of every per-layer figure."""
    return {name: statistics.median(p.get(name, 0.0) for p in passes)
            for name, _ in LAYER_METRICS
            if not name.startswith("algebra.") and name != "trace.overhead_s"}
