"""The benchmark's child process still runs against the current API.

``perfbench/run.py`` measures each configuration by feeding
``perfbench/child.py`` a JSON request on stdin.  An API change that breaks
the child would otherwise only show up as failed benchmark runs, so this
test sends it a tiny request the same way, traced and untraced.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

TEXT = ("symbols x, y; local F = (x+y)^4; local G = x-y; "
        "multiply x+y; .sort id x = y+1; .sort .end")


def _run_child(nslaves, backend, trace):
    request = {"programs": [TEXT], "nslaves": nslaves, "backend": backend,
               "chunk_size": 2, "point": [2, 3, 5, 7, 11], "trace": trace,
               "spans_out": None}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "child.py")],
        input=json.dumps(request), capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_benchmark_child_runs_every_configuration(trace):
    replies = {c: _run_child(*c, trace) for c in [(0, "sm"), (2, "sm"), (2, "mp")]}
    assert len({r["digest"] for r in replies.values()}) == 1
    for (nslaves, backend), r in replies.items():
        label = f"nslaves={nslaves} backend={backend}"
        assert r["run_workers"] == nslaves, label
        assert (r["handle_transfers"] > 0) == (nslaves > 0 and backend == "sm"), label
        assert ("layers" in r) == trace, label
