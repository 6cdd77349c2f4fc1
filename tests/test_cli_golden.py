"""Byte-identical CLI output on the benchmark's requests.

Replays every request of the benchmark's ``pipeline`` and ``query``
workloads (all variants of every slot, warm-ups included) through
``cli.main`` and compares each exit code and stdout SHA-256 with
``bench/golden.json``.  Together they cover every CLI path through the
extension pipelines, ``conv``, ``alpha``, ``base`` (``build_base`` on
hulls of up to 9,216 points) and ``isometric`` (the decision, and
``construct_isometry`` where the profiles agree).  The ``sweep``
workload's requests are replayed up to a max-support of 11: both
counterexample sweeps and the counterexamples suite under all eight
predicates and suite seeds, and every line-extension request.  The request
lists and the golden file are read from ``bench/``, not copied.

The bench's hulls stop at 1,296 points, so four reports on 6,561-point
hulls (k=8, dim 3) are pinned here by digest as well.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from boolmetric.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def replay(requests, tmp_path):
    """The requests whose exit code or stdout digest differs from golden."""
    golden = json.loads((BENCH / "golden.json").read_text())
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
    return mismatches


def test_pipeline_requests_match_golden_outputs(tmp_path):
    workloads = load_workloads()
    pipeline = workloads.pool("pipeline")
    query = workloads.pool("query")
    commands = [req.args[0] for req in query]
    assert (len(pipeline), len(query)) == (208, 208)
    assert [commands.count(c) for c in ("alpha", "base", "isometric")] == [88, 32, 88]
    mismatches = replay(pipeline + query, tmp_path)
    assert not mismatches, mismatches[:5]


def max_support(req):
    args = req.args
    return int(args[args.index("--max-support") + 1]) if "--max-support" in args else None


def test_sweep_requests_match_golden_outputs(tmp_path):
    workloads = load_workloads()
    requests = [req for req in workloads.pool("sweep") if (max_support(req) or 0) <= 11]
    kinds = [(req.args[2], max_support(req)) for req in requests]
    assert len(requests) == 104
    assert [kinds.count(k) for k in (("contraction", 6), ("two-dim", 10), ("two-dim", 11),
                                     ("contraction", 10), ("contraction", 11),
                                     ("counterexamples", 10), ("counterexamples", 11),
                                     ("line", None), ("line-extension", None))] == \
        [8, 8, 8, 8, 8, 8, 8, 24, 24]
    predicates = {req.args[req.args.index("--predicate") + 1]
                  for req in requests if "--predicate" in req.args}
    assert predicates == set(workloads.PREDICATES)
    mismatches = replay(requests, tmp_path)
    assert not mismatches, mismatches[:5]


K8 = "0" * 8, "1" * 8
LARGE_W = ("algebra finite k=8\nspace W dim=3\n"
           "point {0} {0} {0}\npoint {1} {0} {0}\npoint {0} {1} {0}\n"
           "map F from=W to=W\npair 1 -> 2\npair 2 -> 1\n").format(*K8)
LARGE_WV = ("algebra finite k=8\nspace W dim=3\n"
            "point {0} {0} {0}\npoint {1} {0} {0}\npoint {0} {1} {0}\n"
            "space V dim=3\npoint {1} {1} {1}\npoint 10101010 01010101 11110000\n"
            "point {0} {0} {0}\nbasepoint 1\n").format(*K8)


@pytest.mark.parametrize("command, text, spaces, sha256", [
    ("conv", LARGE_W, 1, "810317883bc1e36c230b9ec9e94138a733a4061941949900d2220a7c0a6ef759"),
    ("extend", LARGE_W, 1, "f1b22ba6f72822b13c1661bcf27152461e8447e8381ff559784330bec8f08820"),
    ("extend-contraction", LARGE_W, 1,
     "c5b98fd5e07010ef7cca07447e0fccbf2b8d235b0ccd55b06e14cc077b5a3c3a"),
    ("isometric", LARGE_WV, 2,
     "d00b16e5fced95302dda092ab6ec0ff12200114e41f9d3b79254acb671b80589"),
], ids=["conv", "extend", "extend-contraction", "isometric"])
def test_large_hull_reports_match_frozen_digests(tmp_path, command, text, spaces, sha256):
    """Every report on the 3^8-point hulls (the isometric one with equal
    profiles, so its witness map is printed) keeps the bytes recorded
    before hulls and maps were carried as integer codes."""
    path = tmp_path / "large.txt"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(path)])
    assert code == 0
    assert out.getvalue().count("\npoint ") == spaces * 3 ** 8
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == sha256


def test_verify_report_matches_its_frozen_digest():
    """The report of every verification suite at seed 0 keeps its bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--suite", "all", "--seed", "0"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        "a10a334ef7abbf916aeb35284f3f673a57e676886039768b84cc386ae024cce8"
