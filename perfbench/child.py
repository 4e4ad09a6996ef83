"""One measured run of one configuration, in a fresh interpreter.

Reads a JSON request on stdin (program texts, configuration, evaluation
point, whether to trace), times the import of parterm plus
``parse_program`` and then ``run_program`` with ``perf_counter`` from
outside, and prints one JSON object on stdout.  The host-speed reference
loop (``hostspeed.py``) is timed on every CPU just before the import,
between parse and run, and just after the run, and the CPU the main thread
is on is noted at each end of both timed regions, so ``run.py`` can rescale
both times to a nominal host.  Output checks happen after the timed region:
a digest of every printed result for comparing configurations, and each
result's value at the evaluation point.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import threading
import traceback
from time import perf_counter

import multiprocessing.process

from hostspeed import current_cpu, reference_times
from tracing import SPAN_FIELDS, Tracer, layer_metrics
from workloads import eval_output


def _count_starts(cls, counter: list[int]) -> None:
    """Count ``cls.start`` calls: the workers this process starts."""
    start = cls.start

    def counted(self, *args, **kwargs):
        counter[0] += 1
        return start(self, *args, **kwargs)

    cls.start = counted


def main() -> int:
    req = json.load(sys.stdin)
    threads_started = [0]
    processes_started = [0]
    _count_starts(threading.Thread, threads_started)
    _count_starts(multiprocessing.process.BaseProcess, processes_started)
    tracer = Tracer() if req["trace"] else None

    ref_before = reference_times()
    cpus = [current_cpu()]
    t0 = perf_counter()
    parterm = importlib.import_module("parterm")
    if tracer is not None:
        tracer.install(parterm)
    programs = [parterm.parser.parse_program(text) for text in req["programs"]]
    t1 = perf_counter()
    cpus.append(current_cpu())

    cfg = parterm.RunConfig(nslaves=req["nslaves"], chunk_size=req["chunk_size"],
                            backend=req["backend"], master_computes=False)
    ref_between = reference_times()
    cpus.append(current_cpu())
    threads_before_run = threads_started[0] + processes_started[0]
    t2 = perf_counter()
    results = [parterm.run_program(p, cfg) for p in programs]
    t3 = perf_counter()
    cpus.append(current_cpu())
    run_workers = threads_started[0] + processes_started[0] - threads_before_run
    ref_after = reference_times()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    values = []
    for p, r in zip(programs, results):
        names = p.symtab.names
        out = {}
        for name, e in r.expressions.items():
            text = parterm.format_expression(e, p.symtab)
            digest.update(f"{name}={text};".encode())
            out[name] = eval_output(text, names, req["point"])
        values.append(out)

    reply = {
        "setup_s": t1 - t0,
        "wall_s": t3 - t2,
        "ref_before_s": ref_before,
        "ref_between_s": ref_between,
        "ref_after_s": ref_after,
        "cpus": cpus,
        "run_workers": run_workers,
        "peak_rss_mb": rss_mb,
        "digest": digest.hexdigest(),
        "values": values,
        "threads_started": threads_started[0],
        "processes_started": processes_started[0],
        "handle_transfers": sum(r.stats.handle_transfers for r in results),
    }
    if tracer is not None:
        reply["layers"] = layer_metrics(tracer.spans, tracer.thread_names, t3 - t2)
        if req["spans_out"]:
            with open(req["spans_out"], "w") as fh:
                fh.write(json.dumps({"fields": SPAN_FIELDS, "threads": tracer.thread_names}) + "\n")
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
