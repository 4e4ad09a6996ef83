"""Program execution: one master and its workers, started once per program run.

:func:`run_program` has a :class:`~parterm.transport.MasterEndpoint` start
``nslaves`` workers once, and closes it, which shuts down and joins them, on
its way out.  Every worker holds the
program's module list and applies module *k* after it has seen *k* SORTs.
Workers share nothing except their transport endpoint: all term data and
every per-module record moves by message, and a worker writes no object the
master reads.  On each master-slave channel a run is, per module, CHUNK* then
SORT then one RUN_RETURN per expression, and SHUTDOWN once at the end:

1. CHUNK*: the master splits every local expression of the module into
   chunks tagged with their expression's index and deals them in one pass,
   one outstanding chunk per worker; a worker rewrites each chunk, adds its
   products into one accumulator (monomial -> coefficient) per expression,
   so like terms combine as they are generated, and acknowledges the chunk
   with an empty ``RunReturn``;
2. SORT: once every chunk is acknowledged the master sends ``Sort`` to each
   worker; the worker sorts the distinct monomials of each expression's
   accumulator once, dropping zero sums, and answers with exactly one
   ``RunReturn`` per expression (an empty run is allowed); the last one also
   carries the worker's :class:`WorkerMetrics` for the module, and the
   worker starts a fresh record for the next;
3. the master k-way-merges the runs of each expression, one expression at a
   time, into the module's output.

After the last module the master sends ``Shutdown`` to each worker once;
nothing travels on a channel after its Shutdown.

Every expression is one flat tuple ``(c0, m0, c1, m1, ...)`` (see
:mod:`parterm.terms`), from the program's initial expressions to the run's
results.  A chunk of terms ``start:stop`` is the slice ``2*start:2*stop``;
the runs, the merged result and every message payload are flat tuples too,
so no stage builds a tuple per term.  Term counts (``Chunk`` ranges,
``processed``, ``terms_in``/``terms_out``) count terms, half the elements.

A worker that raises
answers ``FAILED`` with the traceback and stops; the master raises
:class:`WorkerError` on receiving it, and the endpoint still shuts down and
joins every worker.

The dispatch loop hands each idle worker, in order, the next pending chunk.
With ``master_computes`` the master rewrites the next chunk itself whenever
no acknowledgement is waiting and chunks remain.  ``nslaves=0`` is the same
loop over an endpoint with no channels: the master rewrites every chunk
itself and merges its single run.
"""

from __future__ import annotations

import os
import traceback
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import NamedTuple, Optional, Sequence

from . import rewrite, sortmerge, terms
from .parser import Module, Program
from .terms import Expression
from .transport import BACKENDS, MasterEndpoint, Message, MessageKind, TransportStats

MASTER_WORKER_ID = -1

# Each slave is an OS thread, started before any work; a count above this is
# a typo, not a machine.  Never below the CLI default or a test's sweep.
MAX_SLAVES = max(64, 4 * (os.cpu_count() or 1))


class EngineError(RuntimeError):
    pass


class SlaveCountError(ValueError):
    pass


class WorkerError(EngineError):
    """``worker N failed: Type: message``, from the last line of the worker's
    traceback; ``detail`` keeps the whole traceback."""

    def __init__(self, worker: int, detail: str):
        kind, sep, message = detail.rstrip().rpartition("\n")[2].partition(": ")
        super().__init__(f"worker {worker} failed: {kind.rpartition('.')[2]}{sep}{message}")
        self.worker = worker
        self.detail = detail


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one engine run; with ``nslaves=0`` the master computes every chunk."""

    nslaves: int = 1
    chunk_size: int = 1000
    backend: str = "sm"
    master_computes: bool = False

    def __post_init__(self) -> None:
        if self.nslaves < 0:
            raise ValueError(f"nslaves must be >= 0, got {self.nslaves}")
        if self.nslaves > MAX_SLAVES:
            raise SlaveCountError(f"nslaves {self.nslaves} exceeds the cap of {MAX_SLAVES} "
                                  f"(4 per CPU, at least 64)")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")


class Chunk(NamedTuple):
    """Terms ``start:stop`` of local expression ``expr``: its flat elements
    ``2*start:2*stop``."""

    expr: int
    start: int
    stop: int


@dataclass
class WorkerMetrics:
    """One worker's (or the computing master's) share of one module.

    ``busy_ns`` runs from a message's arrival, before its decode, until its
    answers are encoded; sending them is transport time.  A worker writes
    only its own record and sends it with the module's last encoded run.
    """

    compute_ns: int = 0
    sort_ns: int = 0
    busy_ns: int = 0
    generated: int = 0
    processed: int = 0


@dataclass
class PhaseMetrics:
    """Per-module phase timings (ns) and term flow counts.

    ``t_distribute`` is the master's active partition/send time;
    ``master_busy`` is all master time not spent blocked waiting on slaves.
    ``workers`` is keyed by worker id, ``-1`` standing for a computing master.
    """

    t_distribute: int = 0
    t_final_merge: int = 0
    t_wall: int = 0
    master_busy: int = 0
    terms_in: int = 0
    terms_out: int = 0
    workers: dict[int, WorkerMetrics] = field(default_factory=dict)

    @property
    def t_compute_max(self) -> int:
        return max((w.compute_ns for w in self.workers.values()), default=0)

    @property
    def t_local_sort_max(self) -> int:
        return max((w.sort_ns for w in self.workers.values()), default=0)

    @property
    def terms_generated(self) -> int:
        return sum(w.generated for w in self.workers.values())


@dataclass
class ProgramRunResult:
    expressions: dict[str, Expression]
    module_metrics: list[PhaseMetrics]
    module_stats: list[TransportStats]
    stats: TransportStats


def partition_chunks(exprs: Sequence[Expression], chunk_size: int) -> list[Chunk]:
    """Split every expression into contiguous nonempty term ranges,
    expression by expression; each expression's ranges, in order, cover its
    terms exactly."""
    return [Chunk(expr, i, min(i + chunk_size, len(e) // 2))
            for expr, e in enumerate(exprs)
            for i in range(0, len(e) // 2, chunk_size)]


def _rewrite_chunk(chunk: Expression, m: Module, nsymbols: int,
                   acc: terms.Accumulator, metrics: WorkerMetrics) -> None:
    t0 = perf_counter_ns()
    generated = rewrite.apply_module_to_chunk(chunk, m, nsymbols, acc)
    metrics.compute_ns += perf_counter_ns() - t0
    metrics.generated += generated
    metrics.processed += len(chunk) // 2


def _sort_runs(accs: list[terms.Accumulator], metrics: WorkerMetrics) -> list[Expression]:
    """Sort the distinct monomials of each expression's accumulator once: the runs.

    Empties each accumulator, so its terms are freed before the runs travel.
    """
    t0 = perf_counter_ns()
    runs = []
    for acc in accs:
        runs.append(terms.sorted_flat(acc))
        acc.clear()
    metrics.sort_ns += perf_counter_ns() - t0
    return runs


def _return_runs(endpoint, accs: list[terms.Accumulator], mine: WorkerMetrics,
                 t0: int) -> None:
    """Answer a SORT that arrived at ``t0`` with one run per expression, the
    last carrying ``mine``; the worker keeps none of them."""
    runs = _sort_runs(accs, mine)
    last = len(runs) - 1
    records = [endpoint.encode(Message(MessageKind.RUN_RETURN, payload=run, expr=expr,
                                       metrics=mine if expr == last else None))
               for expr, run in enumerate(runs)]
    mine.busy_ns += perf_counter_ns() - t0
    for record in records:
        endpoint.reply(record)


def _slave_loop(endpoint, modules: Sequence[Module], nsymbols: int, nexprs: int) -> None:
    k = 0
    accs: list[terms.Accumulator] = [{} for _ in range(nexprs)]
    mine = WorkerMetrics()
    try:
        while True:
            msg = endpoint.recv()
            if msg.kind is MessageKind.SHUTDOWN:
                break
            t0 = endpoint.received_ns  # before the decode
            if msg.kind is MessageKind.CHUNK_ASSIGNMENT:
                _rewrite_chunk(msg.payload, modules[k], nsymbols, accs[msg.expr], mine)
                ack = endpoint.encode(Message(MessageKind.RUN_RETURN))
                mine.busy_ns += perf_counter_ns() - t0
                endpoint.reply(ack)
            elif msg.kind is MessageKind.SORT:
                _return_runs(endpoint, accs, mine, t0)
                mine = WorkerMetrics()  # the sent record now belongs to the master
                k += 1
            else:  # pragma: no cover - protocol violation
                raise EngineError(f"unexpected message kind {msg.kind}")
    except Exception:
        failed = Message(MessageKind.FAILED, detail=traceback.format_exc())
        endpoint.reply(endpoint.encode(failed))


def _recv(master: MasterEndpoint, block: bool = True) -> Optional[tuple[int, Message]]:
    """The next worker message, or None if ``block`` is false and none is
    waiting; a ``FAILED`` message raises :class:`WorkerError`."""
    got = master.recv_any(block)
    if got is not None and got[1].kind is MessageKind.FAILED:
        raise WorkerError(got[0], got[1].detail)
    return got


def execute_parallel(master: MasterEndpoint, cfg: RunConfig, m: Module,
                     exprs: Sequence[Expression]) -> tuple[list[Expression], PhaseMetrics]:
    """Run module ``m`` over every local expression in one dispatch pass.

    Returns the new expressions, in the order of ``exprs``, and the module's
    metrics, each slave's record as its last run delivered it.  The result is
    the same for every configuration; only metrics and transport stats vary.
    """
    nsymbols = master.nsymbols
    first = MASTER_WORKER_ID if cfg.master_computes or not cfg.nslaves else 0
    workers = {i: WorkerMetrics() for i in range(first, cfg.nslaves)}
    mine = workers.get(MASTER_WORKER_ID)
    wait_start = master.wait_ns
    t_start = perf_counter_ns()
    t_distribute = 0

    def chunk_terms(c: Chunk) -> Expression:
        # Sliced only when sent or computed, so only outstanding chunks are copies.
        return exprs[c.expr][2 * c.start:2 * c.stop]

    t0 = perf_counter_ns()
    pending = deque(partition_chunks(exprs, cfg.chunk_size))
    t_distribute += perf_counter_ns() - t0

    master_accs: list[terms.Accumulator] = [{} for _ in exprs]
    idle = deque(range(cfg.nslaves))
    outstanding = 0
    while pending or outstanding:
        t0 = perf_counter_ns()
        while idle and pending:
            c = pending.popleft()
            master.send(idle.popleft(), Message(
                MessageKind.CHUNK_ASSIGNMENT, chunk_terms(c), c.expr))
            outstanding += 1
        t_distribute += perf_counter_ns() - t0
        got = None
        if pending and mine is not None:
            got = _recv(master, block=False) if outstanding else None
            if got is None:
                # Every worker is busy: the master takes a chunk itself.
                c = pending.popleft()
                _rewrite_chunk(chunk_terms(c), m, nsymbols, master_accs[c.expr], mine)
                continue
        worker, msg = got or _recv(master)
        if msg.kind is not MessageKind.RUN_RETURN or msg.payload:
            raise EngineError(f"expected completion signal, got {msg.kind}")
        outstanding -= 1
        idle.append(worker)

    # Sort boundary: every worker, the master too if it computes, sorts the
    # distinct monomials it accumulated once per expression.
    t0 = perf_counter_ns()
    for w in range(cfg.nslaves):
        master.send(w, Message(MessageKind.SORT))
    t_distribute += perf_counter_ns() - t0
    runs: list[list[Expression]] = [[] for _ in exprs]
    if mine is not None:
        for expr, run in enumerate(_sort_runs(master_accs, mine)):
            runs[expr].append(run)
    for _ in range(cfg.nslaves * len(exprs)):
        worker, msg = _recv(master)
        if msg.kind is not MessageKind.RUN_RETURN:
            raise EngineError(f"expected run return, got {msg.kind}")
        runs[msg.expr].append(msg.payload)
        if msg.metrics is not None:
            workers[worker] = msg.metrics

    t0 = perf_counter_ns()
    results = [sortmerge.merge_runs(r) for r in runs]
    t_end = perf_counter_ns()
    metrics = PhaseMetrics(
        t_distribute=t_distribute,
        t_final_merge=t_end - t0,
        t_wall=t_end - t_start,
        master_busy=(t_end - t_start) - (master.wait_ns - wait_start),
        terms_in=sum(len(e) for e in exprs) // 2,
        terms_out=sum(len(e) for e in results) // 2,
        workers=workers,
    )
    return results, metrics


def run_program(program: Program, cfg: RunConfig) -> ProgramRunResult:
    """Execute every module in order over every local expression."""
    names = [name for name, _ in program.initial]
    exprs = [e for _, e in program.initial]
    module_metrics: list[PhaseMetrics] = []
    marks: list[TransportStats] = []
    nsymbols = len(program.symtab)
    master = MasterEndpoint(cfg.backend, cfg.nslaves, nsymbols)
    try:
        master.start(_slave_loop, program.modules, nsymbols, len(exprs))
        for m in program.modules:
            exprs, metrics = execute_parallel(master, cfg, m, exprs)
            module_metrics.append(metrics)
            marks.append(master.stats())
    finally:
        master.close()
    stats = master.stats()
    if marks:
        marks[-1] = stats  # the Shutdowns count towards the last module
    module_stats = [b - a for a, b in zip([TransportStats()] + marks, marks)]
    return ProgramRunResult(dict(zip(names, exprs)),
                            module_metrics, module_stats, stats)
