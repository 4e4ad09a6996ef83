"""The benchmark's tracer patches parterm's layer functions by name.

A renamed or bypassed hook would not fail the benchmark, it would only make
its per-layer numbers wrong, so this test installs the tracer the way
``perfbench/child.py`` does and checks what the trace sees.  It runs in a
subprocess so the patched module attributes cannot leak into other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

SCRIPT = r"""
import json
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
import parterm
from tracing import Tracer, layer_metrics

TEXT = ("symbols x, y; local F = (x+y)^6; local G = x-y; "
        "multiply x+y; .sort id x = y+1; .sort .end")
program = parterm.parse_program(TEXT)
configs = [(n, b) for n in (0, 1, 2) for b in ("sm", "mp")]

def run(n, backend):
    cfg = parterm.RunConfig(nslaves=n, chunk_size=3, backend=backend)
    return parterm.run_program(program, cfg)

untraced = {c: run(*c).expressions for c in configs}
tracer = Tracer()
tracer.install(parterm)
report = []
for c in configs:
    tracer.spans.clear()
    t0 = perf_counter()
    got = run(*c)
    layers = layer_metrics(tracer.spans, tracer.thread_names, perf_counter() - t0)
    report.append({"nslaves": c[0], "backend": c[1], "same": got.expressions == untraced[c],
                   "module_runs": layers["engine.module_runs"],
                   "worker_busy_s": layers["engine.worker_busy_s"],
                   "rewrite_calls": sum(1 for s in tracer.spans if s[1] == "rewrite"),
                   "traced_messages": layers["transport.messages"],
                   "traced_bytes": layers["transport.serialized_bytes"],
                   "messages": got.stats.messages,
                   "bytes": got.stats.serialized_bytes,
                   "spans": sorted({s[1] for s in tracer.spans})})
print(json.dumps({"modules": len(program.modules), "report": report}))
"""

# A traced run whose workers fault: the wrapped send/recv_any and slave
# endpoints must carry the FAILED reply to the master, which raises.
FAULT_SCRIPT = r"""
import json
import sys
import threading

sys.path.insert(0, sys.argv[1])
import parterm
from parterm.engine import WorkerError
from tracing import Tracer

program = parterm.parse_program("symbols x, y; local F = (x+y)^6; multiply x+y; .sort .end")
tracer = Tracer()
tracer.install(parterm)

def boom(*args):
    raise RuntimeError("injected fault")

parterm.rewrite.apply_module_to_chunk = tracer.wrap("rewrite", boom)
before = threading.active_count()
report = []
for backend in ("sm", "mp"):
    tracer.spans.clear()
    cfg = parterm.RunConfig(nslaves=2, chunk_size=2, backend=backend)
    try:
        parterm.run_program(program, cfg)
        error = None
    except WorkerError as exc:
        error = str(exc)
    report.append({"backend": backend, "error": error,
                   "threads_left": threading.active_count() - before,
                   "spans": sorted({s[1] for s in tracer.spans})})
print(json.dumps(report))
"""


def _run_traced(script: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", script, os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_trace_hooks_still_see_every_layer():
    out = _run_traced(SCRIPT)
    assert len(out["report"]) == 6
    for row in out["report"]:
        label = f"nslaves={row['nslaves']} backend={row['backend']}"
        assert row["same"], label
        assert row["module_runs"] == out["modules"], label
        assert row["rewrite_calls"] > 0, label
        if row["nslaves"]:
            assert row["worker_busy_s"] > 0, label
        # The tracer sees every message and every wire byte the run counts:
        # a bypassed endpoint or a codec bound at import would read 0 here.
        assert row["traced_messages"] == row["messages"], label
        assert row["traced_bytes"] == row["bytes"], label
        assert row["messages"] == {0: 0, 1: 23, 2: 30}[row["nslaves"]], label
        if row["backend"] == "sm":
            assert row["bytes"] == 0, label
        elif row["nslaves"]:
            assert {"encode", "decode"} <= set(row["spans"]), label
        if (row["nslaves"], row["backend"]) == (1, "mp"):
            # A payload adds 9 bytes: "(", a u32 count and a 4-byte CRC.
            # Every coefficient here fits an i32, 5 bytes, and so does a
            # monomial without x.  One with x is a 34- to 36-bit int: 3
            # 15-bit digits, 11 bytes.  So a term is 16 bytes with x, 10
            # without.  11 empty payloads (8 acks, 2 sorts, 1 shutdown): 99.
            # Module 1 chunks (x+y)^6 as 3+3+1 and x-y as 2: 57 + 57 + 19 +
            # 35 = 168; runs (x+y)^7, 7 terms with x and y^7, and x^2-y^2:
            # 131 + 35 = 166.  Module 2 chunks (x+y)^7 as 3+3+2 and x^2-y^2:
            # 57 + 57 + 35 + 35 = 184; runs (2y+1)^7, 8 terms without x, and
            # 2y+1: 89 + 29 = 118.  99+168+166+184+118 = 735.
            assert row["bytes"] == 735, label


def test_traced_worker_fault_raises_and_leaves_no_thread():
    report = _run_traced(FAULT_SCRIPT)
    assert [row["backend"] for row in report] == ["sm", "mp"]
    for row in report:
        assert row["error"] and row["error"].startswith("worker "), row
        assert "injected fault" in row["error"], row
        assert row["threads_left"] == 0, row
        # spans record calls that returned: not the raising rewrite
        for span in ("master_send", "master_recv", "slave_recv", "slave_reply"):
            assert span in row["spans"], (span, row)
