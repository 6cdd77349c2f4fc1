"""The boolmetric benchmark: seeded CLI workloads in one closed-loop client.

Run from the repository root::

    python3 bench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

One process, one thread, one client: each request is a call into
``boolmetric.cli.main(argv)`` made only after the previous one returned.
A pass is one trip over the workload's request list (see workloads.py);
passes repeat until ``--seconds`` have gone by.  Every request's exit code
and stdout SHA-256 are checked against golden.json, outside the timed
interval.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several set-ups of importing boolmetric afresh,
  generating and writing the inputs and running the warm-up request;
* ``wall_s``: median over passes of the summed request latencies;
* ``latency_p50_s`` / ``latency_p90_s``: per-request time from the call
  into ``cli.main`` to its return (the tail is p90 with at least 100
  samples, else the highest percentile with ten samples beyond it);
* ``peak_rss_mib``: peak resident memory of this process.

``fail_ratio`` (mismatched requests over attempted) is printed with them;
the JSON result carries it as ``failed`` / ``attempted``.

``--trace 1`` first runs untraced passes, then traced ones (layers.py), and
prints the per-layer metrics.  Spans and the full record go to
``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
OUT = ROOT / ".bench_run"
SETUP_REPS = 9
# Shares of --seconds for the untraced and the traced passes of a traced
# run; the rest covers the last pass of each phase running over and the
# span bookkeeping, so a traced run takes about as long as an untraced one.
TRACE_SPLIT = (0.35, 0.5)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("peak_rss_mib", "MiB")]


class Setup(Exception):
    """The checkout cannot run the benchmark."""


def single_thread():
    """The load generator is one process with one thread and no children."""
    tasks = Path("/proc/self/task")
    threads = os.listdir(tasks) if tasks.is_dir() else [None] * threading.active_count()
    children = [pid for t in threads if t is not None
                and (tasks / t / "children").is_file()
                for pid in (tasks / t / "children").read_text().split()]
    if len(threads) != 1 or threading.active_count() != 1 or children:
        raise RuntimeError(f"the load generator must be one thread of one process; "
                           f"found {len(threads)} threads and children {children}")


def fresh_cli():
    """Import boolmetric from the checkout's source tree, dropping any
    copy imported before."""
    for name in [m for m in sys.modules if m == "boolmetric" or m.startswith("boolmetric.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("boolmetric.cli")
    except ImportError as exc:
        raise Setup(f"cannot import boolmetric from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise Setup(f"boolmetric was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(work: Path, requests) -> dict[str, str]:
    paths = {}
    for i, req in enumerate(requests):
        if req.text is not None:
            path = work / f"{i:03d}.txt"
            path.write_text(req.text, encoding="utf-8")
            paths[req.id] = str(path)
    return paths


def call(main, argv: list[str], tracer: layers.Tracer | None = None, request=None):
    """One request: exit code (or the exception's name), stdout, start, end.
    When traced, the request's top-level span opens and closes at exactly
    the times that measure its latency."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(request, start)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crash
            code = type(exc).__name__
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_request(end)
    return code, out.getvalue(), start, end


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Compares each request's exit code and stdout digest with golden.json."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, req, code, stdout: str) -> int:
        """Records the outcome; returns the stdout size in bytes."""
        self.attempted += 1
        data = stdout.encode("utf-8")
        want = self.golden.get(req.id)
        got = {"exit": code, "stdout_sha256": hashlib.sha256(data).hexdigest()}
        if want != got:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{req.id}: expected {want}, got {got}")
        return len(data)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(q, value): p90 when there are at least 100 samples, else the highest
    percentile that still has ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(0.9 * n) if n >= 100 else max(1, n - 10)
    return rank / n, ordered[rank - 1]


def run_passes(main, requests, paths, seconds: float, checker: Checker,
               tracer: layers.Tracer | None = None):
    """Passes over the request list until ``seconds`` have gone by.
    Returns per-pass walls, all latencies and, when traced, per-pass
    (first span, end span, counters)."""
    walls, latencies, marks = [], [], []
    begin = time.perf_counter()
    while True:
        wall = 0.0
        first = len(tracer) if tracer else 0
        for req in requests:
            # Each request starts from a collected heap, as a fresh CLI
            # process would; this also steadies latency and peak memory.
            gc.collect()
            code, out, start, end = call(main, req.argv(paths.get(req.id)), tracer, req.id)
            wall += end - start
            latencies.append(end - start)
            size = checker.check(req, code, out)
            if tracer is not None:
                tracer.counts["io.bytes_out"] += size
        walls.append(wall)
        if tracer is not None:
            marks.append((first, len(tracer), tracer.counts))
            tracer.counts = Counter()
        if time.perf_counter() - begin >= seconds:
            return walls, latencies, marks


def element_rates(algebra, shape: dict) -> dict[str, float]:
    """Lattice operations per second on elements shaped like the workload's:
    a fixed micro-loop of meet/join/symdiff/complement/leq, median of three."""
    rng = random.Random(f"elements:{shape}")
    atomic = algebra.atomic_algebra(shape["atoms"])
    fincof = algebra.fincof_algebra()
    universe = range(shape["support"] + 1)
    families = {
        "algebra.bitselement_ops_per_s": [
            atomic.element(rng.randrange(1 << shape["atoms"])) for _ in range(64)],
        "algebra.setelement_ops_per_s": [
            (fincof.cof if rng.random() < 0.5 else fincof.fin)(
                rng.sample(universe, rng.randint(0, len(universe)))) for _ in range(64)],
    }
    ops = (algebra.meet, algebra.join, algebra.symdiff, algebra.leq)
    complement = algebra.complement
    rates = {}
    for name, elements in families.items():
        pairs = list(zip(elements, elements[1:] + elements[:1]))
        reps = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(200):
                for a, b in pairs:
                    for op in ops:
                        op(a, b)
                    complement(a)
            reps.append(5 * 200 * len(pairs) / (time.perf_counter() - start))
        rates[name] = statistics.median(reps)
    return rates


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "boolmetric").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(workload: str, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "commit": commit(), "source_sha256": source_digest(),
            "workload": workload, "seed": seed, "processes": 1, "threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "boolmetric" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: no boolmetric source under {SRC} or no {GOLDEN.name}",
              file=sys.stderr)
        return 2
    single_thread()
    sys.path.insert(0, str(SRC))
    golden = json.loads(GOLDEN.read_text())
    checker = Checker(golden)
    # Only the latest run's inputs, spans and record are kept.
    shutil.rmtree(OUT, ignore_errors=True)
    work = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    work.mkdir(parents=True)

    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cli = fresh_cli()
        warmup, requests = workloads.plan(args.workload, args.seed)
        paths = write_inputs(work, [warmup] + requests)
        code, out, _, _ = call(cli.main, warmup.argv(paths.get(warmup.id)))
        setups.append(time.perf_counter() - start)
        checker.check(warmup, code, out)

    facts = machine_facts(args.workload, args.seed)
    record = {"facts": facts, "requests_per_pass": len(requests)}
    problems = []
    if args.trace == 0:
        walls, latencies, _ = run_passes(cli.main, requests, paths, args.seconds, checker)
        q, tail = tail_percentile(latencies)
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(walls),
                   "latency_p50_s": statistics.median(latencies),
                   "latency_p90_s": tail,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
        record.update(passes=len(walls), latency_samples=len(latencies),
                      latency_tail_quantile=q, pass_walls=walls, setups=setups,
                      request_median_s={req.id: statistics.median(latencies[i::len(requests)])
                                        for i, req in enumerate(requests)})
    else:
        untraced, _, _ = run_passes(cli.main, requests, paths,
                                    args.seconds * TRACE_SPLIT[0], checker)
        tracer = layers.Tracer()
        undo = layers.install(tracer, sys.modules)
        try:
            traced, _, marks = run_passes(cli.main, requests, paths,
                                          args.seconds * TRACE_SPLIT[1], checker, tracer)
        finally:
            layers.uninstall(undo)
        selfs = tracer.self_times()
        passes = [layers.pass_figures(tracer, selfs, lo, hi, counts)
                  for lo, hi, counts in marks]
        metrics = layers.summarize(passes)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics.update(element_rates(sys.modules["boolmetric.algebra"],
                                     workloads.WORKLOADS[args.workload]["elements"]))
        units = dict(layers.LAYER_METRICS)
        record.update(passes=len(traced), untraced_passes=len(untraced), spans=len(tracer))
        tracer.write(work / "spans.tsv.gz", selfs)
        # Top-level self times plus their children's times must add up
        # to the traced wall time of every pass.
        if any(abs(p["trace.unaccounted_s"]) > 1e-6 for p in passes):
            problems.append("traced spans do not add up to the wall time")
    single_thread()

    correct = checker.failed == 0 and not problems
    record.update(metrics=metrics, fail_ratio=checker.failed / checker.attempted,
                  attempted=checker.attempted, failed=checker.failed,
                  mismatches=checker.mismatches, problems=problems)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, value in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {units[name]}")
    print(f"# {args.workload} fail_ratio = {checker.failed / checker.attempted:.6g} ratio"
          f" ({checker.failed} of {checker.attempted})")
    if args.trace == 0:
        print(f"# {args.workload} latency tail is p{100 * record['latency_tail_quantile']:.1f}"
              f" over {record['latency_samples']} samples in {record['passes']} passes")
    for line in checker.mismatches + problems:
        print(f"# problem: {line}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Setup as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
