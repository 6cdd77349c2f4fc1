"""Each demo script prints exactly its recorded output.

The recordings in ``tests/data/demos/<name>.txt`` are the reference: a
change that alters what a demo prints must update the recording on
purpose, never by accident.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = ROOT / "tests" / "data" / "demos"


def test_every_demo_has_a_recording():
    assert len(DEMOS) == 5
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_recorded_output(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (RECORDED / f"{demo.stem}.txt").read_text()
