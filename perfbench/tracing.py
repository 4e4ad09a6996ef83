"""Spans around parterm's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces the public functions and endpoint methods of each
layer module with wrappers that record one span per call: its name, its
parent span on the same thread, the thread, the wall time and the thread CPU
time (``time.thread_time_ns``).  Spans stay in a list in memory; the caller
writes them out when the run is over.  A call made from inside a span of the
same name is not recorded again (``apply_module_to_chunk`` calls
``apply_module_to_term`` once per term), so a span's wall time is that
layer's time for the call.

``layer_metrics`` turns the span list into per-layer numbers; self time is a
span's wall time minus the wall time of its child spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns


def _n(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _run_terms(runs) -> int:
    return sum(_n(getattr(r, "terms", r)) for r in runs)


# (module, attribute, span name, optional count(args, result)).  Counts are
# recorded with the span: terms in or out, bytes on the wire.
_FUNCTIONS = [
    ("parser", "parse_program", "parse_program", None),
    ("rewrite", "apply_module_to_chunk", "rewrite", lambda a, r: _n(getattr(r, "terms", r))),
    ("rewrite", "apply_module_to_term", "rewrite", lambda a, r: _n(r)),
    ("terms", "normalize", "normalize", lambda a, r: _n(a[0])),
    ("terms", "add_expressions", "add_expressions", lambda a, r: _n(a[0]) + _n(a[1])),
    ("sortmerge", "merge_runs", "merge_runs", lambda a, r: _run_terms(a[0])),
    ("transport", "serialize_terms", "encode", lambda a, r: _n(r)),
    ("transport", "deserialize_terms", "decode", lambda a, r: _n(a[0])),
    ("engine", "partition_chunks", "partition_chunks", None),
    ("engine", "execute_parallel", "execute_parallel", None),
]

_METHODS = [
    ("transport", "MasterEndpoint", "send", "master_send"),
    ("transport", "MasterEndpoint", "recv_any", "master_recv"),
    ("transport", "SlaveEndpoint", "recv", "slave_recv"),
    ("transport", "SlaveEndpoint", "reply", "slave_reply"),
]


SPAN_FIELDS = ("id", "name", "parent", "thread", "start_ns", "wall_ns", "cpu_ns", "count")


class Tracer:
    """Collects spans; one instance per traced process."""

    def __init__(self) -> None:
        # Each span is a tuple of SPAN_FIELDS; parent is -1 at a thread's top
        # level.  list.append and next(count) are atomic under the GIL.
        self.spans: list[tuple] = []
        self.thread_names: dict[int, str] = {}
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()

    def _stack(self) -> tuple[list, int]:
        local = self._local
        try:
            return local.stack, local.thread
        except AttributeError:
            local.stack, local.thread = [], next(self._threads)
            self.thread_names[local.thread] = threading.current_thread().name
            return local.stack, local.thread

    def wrap(self, name: str, fn, count=None):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, thread = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = perf_counter_ns()
            c0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = thread_time_ns()
                t1 = perf_counter_ns()
                stack.pop()
            n = count(args, result) if count is not None else 0
            spans.append((sid, name, parent, thread, t0, t1 - t0, c1 - c0, n))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer boundary of ``package`` (the imported parterm)."""
        modules = {m: getattr(package, m) for m in
                   ("parser", "rewrite", "terms", "sortmerge", "transport", "engine")}
        for mod, attr, name, count in _FUNCTIONS:
            setattr(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr), count))
        for mod, cls_name, attr, name in _METHODS:
            cls = getattr(modules[mod], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))


_S = 1e-9

_COMPUTE = ("rewrite", "normalize", "add_expressions")


def layer_metrics(spans: list[tuple], thread_names: dict[int, str],
                  run_wall_s: float) -> dict[str, float]:
    """Per-layer totals for one traced process.

    Spans under ``parse_program`` are parse work and count only there.
    Worker threads are the threads whose names start with ``parterm-worker``.
    """
    by_id = {s[0]: s for s in spans}
    child_wall: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[2] >= 0:
            child_wall[s[2]] += s[5]

    def under_parse(s) -> bool:
        while s[2] >= 0:
            s = by_id[s[2]]
            if s[1] == "parse_program":
                return True
        return False

    wall: dict[str, int] = defaultdict(int)
    cpu: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    busy_by_worker: dict[str, int] = defaultdict(int)
    gil_wait = 0
    for s in spans:
        sid, name, parent, thread, _, w, c, n = s
        if name != "parse_program" and under_parse(s):
            continue
        own = w - child_wall[sid]
        wall[name] += w
        cpu[name] += c
        self_ns[name] += own
        count[name] += n
        calls[name] += 1
        tname = thread_names.get(thread, "")
        if tname.startswith("parterm-worker") and parent < 0:
            # A worker is busy in its top-level spans, except while blocked
            # in recv; the decode under a recv is busy time.
            busy_by_worker[tname] += w - own if name == "slave_recv" else w
            if name in _COMPUTE:
                gil_wait += w - c

    busy = list(busy_by_worker.values())
    return {
        "parser.parse_s": wall["parse_program"] * _S,
        "rewrite.apply_s": wall["rewrite"] * _S,
        "rewrite.apply_cpu_s": cpu["rewrite"] * _S,
        "rewrite.terms_generated": count["rewrite"],
        "terms.normalize_s": wall["normalize"] * _S,
        "terms.normalize_terms_in": count["normalize"],
        "terms.add_expressions_s": wall["add_expressions"] * _S,
        "terms.accumulate_terms_walked": count["add_expressions"],
        "sortmerge.merge_s": wall["merge_runs"] * _S,
        "sortmerge.merge_terms_in": count["merge_runs"],
        "sortmerge.merge_share": wall["merge_runs"] * _S / run_wall_s,
        "transport.encode_s": wall["encode"] * _S,
        "transport.decode_s": wall["decode"] * _S,
        "transport.serialized_bytes": count["encode"],
        "transport.messages": calls["master_send"] + calls["slave_reply"],
        "transport.send_blocked_s": self_ns["master_send"] * _S,
        "transport.master_wait_s": self_ns["master_recv"] * _S,
        "transport.slave_wait_s": self_ns["slave_recv"] * _S,
        "engine.module_runs": calls["execute_parallel"],
        "engine.partition_s": wall["partition_chunks"] * _S,
        "engine.overhead_s": self_ns["execute_parallel"] * _S,
        "engine.worker_busy_s": sum(busy) * _S,
        "engine.load_imbalance": max(busy) / (sum(busy) / len(busy)) if busy and sum(busy) else 0.0,
        "engine.gil_wait_s": gil_wait * _S,
    }
