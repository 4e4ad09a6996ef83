"""Module execution: a sequential reference executor and the parallel engine.

The parallel engine runs one master and ``nslaves`` worker threads per module.
Workers share nothing except their transport endpoint; all term data moves by
message.  The session protocol, per module:

1. master sends ``ModuleBegin`` to every slave (the module opens);
2. chunks are dispatched dynamically: one to each slave up front, then one
   new chunk to a slave for each completion signal it returns (a completion
   signal is a ``RunReturn`` with an empty payload);
3. each slave rewrites every term of a chunk and keeps the raw output of all
   its chunks together, unsorted;
4. once every chunk is acknowledged the master sends ``ModuleBegin`` again,
   the sort boundary; each slave combines and sorts its raw terms once into
   its run and answers with one ``RunReturn`` carrying it;
5. the master k-way-merges the collected runs (plus its own, if it joined the
   computation) into the module's output, then sends ``Shutdown``; nothing
   travels on a channel after its Shutdown.

With ``master_computes`` the master rewrites chunks itself whenever no
completion signal is pending and unsent chunks remain.  A static round-robin
dispatch mode exists purely for tests, to demonstrate that placement cannot
change results.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Optional

from . import rewrite, sortmerge, terms
from .parser import Module, Program
from .sortmerge import SortedRun
from .terms import Expression
from .transport import (
    BACKENDS,
    MAILBOX_BOUND,
    Endpoint,
    Message,
    MessageKind,
    TransportStats,
    _TransportBase,
    make_transport,
)

MASTER_WORKER_ID = -1


class EngineError(RuntimeError):
    pass


class WorkerError(EngineError):
    def __init__(self, worker: int, detail: str):
        super().__init__(f"worker {worker} failed: {detail}")
        self.worker = worker


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one engine run; ``nslaves=0`` is the sequential sentinel."""

    nslaves: int = 1
    chunk_size: int = 1000
    backend: str = "sm"
    master_computes: bool = False
    mailbox_bound: int = MAILBOX_BOUND
    static_dispatch: bool = False  # test-only placement policy

    def __post_init__(self) -> None:
        if self.nslaves < 0:
            raise ValueError(f"nslaves must be >= 0, got {self.nslaves}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class Chunk:
    seq: int
    terms: Expression


@dataclass
class PhaseMetrics:
    """Per-module phase timings (ns) and term flow counts.

    ``t_distribute`` is the master's active partition/send time;
    ``master_busy`` is all master time not spent blocked waiting on slaves.
    ``per_slave_busy``/``terms_processed`` are keyed by worker id, with
    ``-1`` standing for a participating master.
    """

    t_distribute: int = 0
    t_compute_max: int = 0
    t_local_sort_max: int = 0
    t_final_merge: int = 0
    t_wall: int = 0
    master_busy: int = 0
    per_slave_busy: dict[int, int] = field(default_factory=dict)
    terms_processed: dict[int, int] = field(default_factory=dict)
    terms_in: int = 0
    terms_generated: int = 0
    terms_out: int = 0

    @staticmethod
    def combine(parts: list["PhaseMetrics"]) -> "PhaseMetrics":
        out = PhaseMetrics()
        for p in parts:
            out.t_distribute += p.t_distribute
            out.t_compute_max = max(out.t_compute_max, p.t_compute_max)
            out.t_local_sort_max = max(out.t_local_sort_max, p.t_local_sort_max)
            out.t_final_merge += p.t_final_merge
            out.t_wall += p.t_wall
            out.master_busy += p.master_busy
            for k, v in p.per_slave_busy.items():
                out.per_slave_busy[k] = out.per_slave_busy.get(k, 0) + v
            for k, v in p.terms_processed.items():
                out.terms_processed[k] = out.terms_processed.get(k, 0) + v
            out.terms_in += p.terms_in
            out.terms_generated += p.terms_generated
            out.terms_out += p.terms_out
        return out


@dataclass
class ProgramRunResult:
    expressions: dict[str, Expression]
    module_metrics: list[PhaseMetrics]
    module_stats: list[TransportStats]
    stats: TransportStats


def partition_chunks(e: Expression, chunk_size: int) -> list[Chunk]:
    """Split an expression into contiguous chunks; concatenation restores it."""
    return [Chunk(seq, e[i:i + chunk_size])
            for seq, i in enumerate(range(0, len(e), chunk_size))]


def execute_sequential(e: Expression, m: Module, nsymbols: int) -> Expression:
    """Reference executor: rewrite every term, then one full normalize."""
    return _sequential_module(e, m, nsymbols)[0]


@dataclass
class _WorkerSlot:
    """Out-of-band per-worker metrics; each worker writes only its own slot."""

    compute_ns: int = 0
    sort_ns: int = 0
    busy_ns: int = 0
    generated: int = 0
    processed: int = 0
    error: Optional[str] = None


def _slave_loop(endpoint, module: Module, nsymbols: int, slot: _WorkerSlot) -> None:
    raw: list[terms.Term] = []
    began = False
    try:
        while True:
            msg = endpoint.recv()
            if msg.kind is MessageKind.MODULE_BEGIN:
                if began:  # sort boundary: combine and sort once, return the run
                    t0 = perf_counter_ns()
                    run = sortmerge.build_run(raw, endpoint.worker)
                    raw = []
                    t1 = perf_counter_ns()
                    endpoint.reply(Message(MessageKind.RUN_RETURN, payload=run.terms))
                    slot.sort_ns += t1 - t0
                    slot.busy_ns += perf_counter_ns() - t0
                else:
                    began = True
            elif msg.kind is MessageKind.CHUNK_ASSIGNMENT:
                t0 = perf_counter_ns()
                batch = rewrite.apply_module_to_chunk(msg.payload, module, nsymbols,
                                                      msg.chunk_seq)
                raw.extend(batch.terms)
                t1 = perf_counter_ns()
                endpoint.reply(Message(MessageKind.RUN_RETURN, payload=()))
                slot.compute_ns += t1 - t0
                slot.busy_ns += perf_counter_ns() - t0
                slot.generated += len(batch.terms)
                slot.processed += len(msg.payload)
            elif msg.kind is MessageKind.SHUTDOWN:
                break
            else:  # pragma: no cover - protocol violation
                raise EngineError(f"unexpected message kind {msg.kind}")
    except Exception:
        slot.error = traceback.format_exc()


def execute_parallel(
    e: Expression,
    m: Module,
    nsymbols: int,
    cfg: RunConfig,
    transport: Optional[_TransportBase] = None,
) -> tuple[Expression, PhaseMetrics, TransportStats]:
    """Run one module through the master/slave engine.

    The result is structurally identical to :func:`execute_sequential` for
    every configuration; only metrics and transport stats vary.
    """
    if cfg.nslaves < 1:
        raise ValueError("execute_parallel needs nslaves >= 1")
    if transport is None:
        transport = make_transport(cfg.backend, cfg.nslaves, nsymbols, cfg.mailbox_bound)
    elif transport.nslaves != cfg.nslaves:
        raise ValueError("transport slave count does not match config")
    elif transport.nsymbols != nsymbols:
        raise ValueError("transport symbol count does not match the program")

    t_start = perf_counter_ns()
    master = transport.master_endpoint()
    slots = [_WorkerSlot() for _ in range(cfg.nslaves)]
    threads = []
    for i in range(cfg.nslaves):
        th = threading.Thread(
            target=_slave_loop,
            args=(transport.slave_endpoint(i), m, nsymbols, slots[i]),
            name=f"parterm-worker-{i}",
            daemon=True,
        )
        th.start()
        threads.append(th)

    t_distribute = 0
    wait_ns = 0
    master_compute_ns = 0
    master_sort_ns = 0
    master_generated = 0
    master_processed = 0
    master_raw: list[terms.Term] = []

    def send_timed(worker: int, msg: Message) -> None:
        nonlocal t_distribute
        t0 = perf_counter_ns()
        master.send(Endpoint.slave(worker), msg)
        t_distribute += perf_counter_ns() - t0

    def recv_checked() -> tuple[Endpoint, Message]:
        nonlocal wait_ns
        t0 = perf_counter_ns()
        while True:
            got = master.recv_any(timeout=0.05)
            if got is not None:
                wait_ns += perf_counter_ns() - t0
                return got
            for i, s in enumerate(slots):
                if s.error is not None:
                    raise WorkerError(i, s.error)

    def expect_ack(msg: Message) -> None:
        if msg.kind is not MessageKind.RUN_RETURN or msg.payload:
            raise EngineError(f"expected completion signal, got {msg.kind}")

    try:
        t0 = perf_counter_ns()
        chunks = partition_chunks(e, cfg.chunk_size)
        t_distribute += perf_counter_ns() - t0

        for i in range(cfg.nslaves):
            send_timed(i, Message(MessageKind.MODULE_BEGIN))

        if cfg.static_dispatch:
            for c in chunks:
                send_timed(c.seq % cfg.nslaves,
                           Message(MessageKind.CHUNK_ASSIGNMENT, c.seq, c.terms))
            for _ in chunks:
                _, msg = recv_checked()
                expect_ack(msg)
        else:
            pending = deque(chunks)
            outstanding = 0
            for i in range(cfg.nslaves):
                if not pending:
                    break
                c = pending.popleft()
                send_timed(i, Message(MessageKind.CHUNK_ASSIGNMENT, c.seq, c.terms))
                outstanding += 1
            while pending or outstanding:
                got = None
                if pending and cfg.master_computes:
                    got = master.recv_any(block=False)
                    if got is None:
                        # Every slave is busy: the master takes a chunk itself.
                        c = pending.popleft()
                        t0 = perf_counter_ns()
                        batch = rewrite.apply_module_to_chunk(c.terms, m, nsymbols, c.seq)
                        master_raw.extend(batch.terms)
                        master_compute_ns += perf_counter_ns() - t0
                        master_generated += len(batch.terms)
                        master_processed += len(c.terms)
                        continue
                if got is None:
                    frm, msg = recv_checked()
                else:
                    frm, msg = got
                expect_ack(msg)
                outstanding -= 1
                if pending:
                    c = pending.popleft()
                    send_timed(frm.worker,
                               Message(MessageKind.CHUNK_ASSIGNMENT, c.seq, c.terms))
                    outstanding += 1

        # Sort boundary: every worker, the master too if it computed, combines
        # and sorts its raw terms once; collect one run per slave.
        for i in range(cfg.nslaves):
            send_timed(i, Message(MessageKind.MODULE_BEGIN))
        runs: list[SortedRun] = []
        if cfg.master_computes:
            t0 = perf_counter_ns()
            runs.append(sortmerge.build_run(master_raw, MASTER_WORKER_ID))
            master_sort_ns = perf_counter_ns() - t0
        for _ in range(cfg.nslaves):
            frm, msg = recv_checked()
            if msg.kind is not MessageKind.RUN_RETURN:
                raise EngineError(f"expected run return, got {msg.kind}")
            runs.append(SortedRun(msg.payload, frm.worker))

        t0 = perf_counter_ns()
        result = sortmerge.merge_runs(runs)
        t_final_merge = perf_counter_ns() - t0
        active_end = perf_counter_ns()

        for i in range(cfg.nslaves):
            send_timed(i, Message(MessageKind.SHUTDOWN))
    except BaseException:
        for i in range(cfg.nslaves):
            transport._force_shutdown(i)
        for th in threads:
            th.join(timeout=5.0)
        raise

    for th in threads:
        th.join()
    t_wall = perf_counter_ns() - t_start

    metrics = PhaseMetrics(
        t_distribute=t_distribute,
        t_compute_max=max([s.compute_ns for s in slots] + [master_compute_ns]),
        t_local_sort_max=max([s.sort_ns for s in slots] + [master_sort_ns]),
        t_final_merge=t_final_merge,
        t_wall=t_wall,
        master_busy=(active_end - t_start) - wait_ns,
        per_slave_busy={i: s.busy_ns for i, s in enumerate(slots)},
        terms_processed={i: s.processed for i, s in enumerate(slots)},
        terms_in=len(e),
        terms_generated=sum(s.generated for s in slots) + master_generated,
        terms_out=len(result),
    )
    if cfg.master_computes:
        metrics.terms_processed[MASTER_WORKER_ID] = master_processed
    return result, metrics, transport.stats()


def _sequential_module(e: Expression, m: Module, nsymbols: int
                       ) -> tuple[Expression, PhaseMetrics]:
    t_start = perf_counter_ns()
    raw: list[terms.Term] = []
    for t in e:
        raw.extend(rewrite.apply_module_to_term(t, m, nsymbols))
    t_rewrite = perf_counter_ns()
    result = terms.normalize(raw)
    t_end = perf_counter_ns()
    metrics = PhaseMetrics(
        t_compute_max=t_rewrite - t_start,
        t_final_merge=t_end - t_rewrite,
        t_wall=t_end - t_start,
        master_busy=t_end - t_start,
        terms_processed={MASTER_WORKER_ID: len(e)},
        terms_in=len(e),
        terms_generated=len(raw),
        terms_out=len(result),
    )
    return result, metrics


def run_program(program: Program, cfg: RunConfig) -> ProgramRunResult:
    """Execute every module in order over every local expression."""
    exprs: dict[str, Expression] = dict(program.initial)
    nsymbols = len(program.symtab)
    module_metrics: list[PhaseMetrics] = []
    module_stats: list[TransportStats] = []
    for m in program.modules:
        parts: list[PhaseMetrics] = []
        stats_parts: list[TransportStats] = []
        for name in exprs:
            if cfg.nslaves == 0:
                result, metrics = _sequential_module(exprs[name], m, nsymbols)
                stats = TransportStats()
            else:
                result, metrics, stats = execute_parallel(exprs[name], m, nsymbols, cfg)
            exprs[name] = result
            parts.append(metrics)
            stats_parts.append(stats)
        module_metrics.append(PhaseMetrics.combine(parts))
        total = TransportStats()
        for s in stats_parts:
            total = total + s
        module_stats.append(total)
    grand = TransportStats()
    for s in module_stats:
        grand = grand + s
    return ProgramRunResult(exprs, module_metrics, module_stats, grand)
