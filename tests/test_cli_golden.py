"""Byte-identical CLI output on the benchmark's requests.

Replays every request of the benchmark's ``pipeline`` workload (all
variants of every slot, warm-up included) and, from its ``query``
workload, the ``isometric`` requests (the CLI's one path through
``construct_isometry``), the ``alpha`` requests and the first variant of
each ``base`` slot (the CLI's one path through ``build_base``), through
``cli.main``, and compares each exit code and stdout SHA-256 with
``bench/golden.json``.  The request lists and the golden file are read
from ``bench/``, not copied.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from boolmetric.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_pipeline_requests_match_golden_outputs(tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    workloads = load_workloads()
    pipeline = workloads.pool("pipeline")
    query = workloads.pool("query")
    isometric, alpha = ([req for req in query if req.args[0] == command]
                        for command in ("isometric", "alpha"))
    base = [req for req in query if req.args[0] == "base" and req.id.endswith("/0")]
    assert (len(pipeline), len(isometric), len(alpha), len(base)) == (208, 88, 88, 4)
    requests = pipeline + isometric + alpha + base
    mismatches = []
    for i, req in enumerate(requests):
        path = None
        if req.text is not None:
            path = tmp_path / f"{i:03d}.txt"
            path.write_text(req.text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(req.argv(str(path) if path else None))
        got = {"exit": code,
               "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}
        if got != golden[req.id]:
            mismatches.append((req.id, golden[req.id], got))
    assert not mismatches, mismatches[:5]
