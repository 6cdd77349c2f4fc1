"""Record golden.json: the exit code and stdout SHA-256 of every request
every workload can issue, at the current source tree.

    python3 bench/record_golden.py

Run it only at a commit whose CLI output is the reference; a later change
that alters any report shows up as failed requests in run.py.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.fresh_cli()
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in sorted(workloads.WORKLOADS):
            requests = workloads.pool(name)
            paths = run.write_inputs(Path(tmp), requests)
            for req in requests:
                code, out, start, end = run.call(cli.main, req.argv(paths.get(req.id)))
                if code != req.expect_exit:
                    print(f"{req.id}: exit {code}, expected {req.expect_exit} "
                          "by construction", file=sys.stderr)
                    return 1
                golden[req.id] = {"exit": code, "stdout_sha256": run.digest(out)}
                print(f"{req.id}: exit {code}, {len(out)} bytes, {end - start:.3f} s",
                      flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
