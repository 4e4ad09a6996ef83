"""Program execution: one master and its workers, started once per program run.

:func:`run_program` has a :class:`~parterm.transport.MasterEndpoint` start
``nslaves`` workers once, if some module has statements, and closes it,
which shuts down and joins them, on its way out.  Every worker holds the
modules that have statements, in program order, and applies the *k*-th of
them after it has seen *k* SORTs; a module with no statements moves no terms
(see :func:`run_program`).  Workers share nothing except their transport
endpoint: all term data and every per-module record moves by message.  A
record is a value, a tuple of ints sent once per module, so nothing the
master holds is ever written again.  On each master-slave channel a run is,
per module that has statements, CHUNK* then SORT then one RUN_RETURN per
expression, and SHUTDOWN once at the end:

1. CHUNK*: the master splits every local expression of the module into
   chunks tagged with their expression's index and deals them in one pass,
   one outstanding chunk per worker, by the rule at the end; a worker
   rewrites each chunk, adds its products into one accumulator (monomial ->
   coefficient) per expression, so like terms combine as they are
   generated, and acknowledges the chunk with an empty ``RunReturn``;
2. SORT: once every chunk is acknowledged the master sends ``Sort`` to each
   worker; the worker sorts the distinct monomials of each expression's
   accumulator once, dropping zero sums, and answers with exactly one
   ``RunReturn`` per expression (an empty run is allowed); once every run is
   encoded, the last one takes the worker's :class:`WorkerMetrics` for the
   module, the sum of its messages' shares, and the worker starts a fresh
   sum for the next;
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

The dispatch loop cuts the module's chunks, in order, into one contiguous
region per taker, of about equal term count: one per slave in id order, then
the last for the master whenever it computes, with ``master_computes`` or
with no slaves.  An idle taker takes the front chunk of its own region; once
that is empty, it steals the back chunk of the region with the most chunks
left, so every region stays contiguous.  A taker's run then spans few
monomials that another run also holds, and the master's merge copies what
the runs do not share (see :mod:`parterm.sortmerge`).  A computing master
takes a chunk and rewrites it itself whenever no acknowledgement is waiting
and chunks remain; with no slaves none ever is, so it takes every chunk of
its one region, front to back.
"""

from __future__ import annotations

import os
from collections import deque
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


class _RunKnobs(NamedTuple):
    nslaves: int = 1
    chunk_size: int = 1000
    backend: str = "sm"
    master_computes: bool = False


class RunConfig(_RunKnobs):
    """Knobs for one engine run, checked whenever one is built, by ``_replace``
    too; with ``nslaves=0`` the master computes every chunk."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.nslaves < 0:
            raise ValueError(f"nslaves must be >= 0, got {self.nslaves}")
        if self.nslaves > MAX_SLAVES:
            raise SlaveCountError(f"nslaves {self.nslaves} exceeds the cap of {MAX_SLAVES} "
                                  f"(4 per CPU, at least 64)")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "RunConfig":
        return cls(*iterable)


class Chunk(NamedTuple):
    """Terms ``start:stop`` of local expression ``expr``: its flat elements
    ``2*start:2*stop``."""

    expr: int
    start: int
    stop: int


class WorkerMetrics(NamedTuple):
    """One worker's (or the computing master's) share of one module.

    A slave's ``busy_ns`` runs from a message's arrival, before its decode,
    until its answers are encoded; sending them is transport time.  A worker
    adds up the shares of its messages and sends the sum once per module.
    The computing master decodes and encodes nothing, so its ``busy_ns`` is
    its ``compute_ns + sort_ns``: each share carries its own elapsed time.
    """

    compute_ns: int = 0
    sort_ns: int = 0
    busy_ns: int = 0
    generated: int = 0
    processed: int = 0

    def __add__(self, other: "WorkerMetrics") -> "WorkerMetrics":
        return WorkerMetrics(*map(int.__add__, self, other))


class PhaseMetrics(NamedTuple):
    """Per-module phase timings (ns) and term flow counts.

    ``t_distribute`` is the master's active partition/send time;
    ``master_busy`` is all master time not spent blocked waiting on slaves.
    ``workers`` is keyed by worker id, ``-1`` standing for a computing master.
    ``terms_merged`` counts the terms of the runs the master's merge takes
    in; a module with no statements merges nothing.
    """

    t_distribute: int
    t_final_merge: int
    t_wall: int
    master_busy: int
    terms_in: int
    terms_out: int
    workers: dict[int, WorkerMetrics]
    terms_merged: int = 0

    @property
    def t_compute_max(self) -> int:
        return max((w.compute_ns for w in self.workers.values()), default=0)

    @property
    def t_local_sort_max(self) -> int:
        return max((w.sort_ns for w in self.workers.values()), default=0)

    @property
    def terms_generated(self) -> int:
        return sum(w.generated for w in self.workers.values())


class ProgramRunResult(NamedTuple):
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


def _regions(chunks: list[Chunk], n: int) -> list[deque[Chunk]]:
    """``chunks`` cut at chunk boundaries into ``n`` contiguous regions of
    about equal term count: a chunk joins the region whose equal share of
    all the terms holds the chunk's midpoint."""
    total = sum(c.stop - c.start for c in chunks)
    regions: list[deque[Chunk]] = [deque() for _ in range(n)]
    before = 0
    for c in chunks:
        size = c.stop - c.start
        regions[(2 * before + size) * n // (2 * total)].append(c)
        before += size
    return regions


def _rewrite_chunk(chunk: Expression, m: Module, nsymbols: int,
                   acc: terms.Accumulator) -> WorkerMetrics:
    t0 = perf_counter_ns()
    generated = rewrite.apply_module_to_chunk(chunk, m, nsymbols, acc)
    elapsed = perf_counter_ns() - t0
    return WorkerMetrics(compute_ns=elapsed, busy_ns=elapsed, generated=generated,
                         processed=len(chunk) // 2)


def _sort_runs(accs: list[terms.Accumulator]) -> tuple[list[Expression], WorkerMetrics]:
    """Sort the distinct monomials of each expression's accumulator once: the
    runs, and the sort's share.

    Empties each accumulator, so its terms are freed before the runs travel.
    """
    t0 = perf_counter_ns()
    runs = []
    for acc in accs:
        runs.append(terms.sorted_flat(acc))
        acc.clear()
    elapsed = perf_counter_ns() - t0
    return runs, WorkerMetrics(sort_ns=elapsed, busy_ns=elapsed)


def _return_runs(endpoint, accs: list[terms.Accumulator], mine: WorkerMetrics,
                 t0: int) -> None:
    """Answer a SORT that arrived at ``t0`` with one run per expression; once
    every run is encoded, the last one takes ``mine`` plus the SORT's share.
    The worker keeps none of them."""
    runs, share = _sort_runs(accs)
    records = [endpoint.encode(Message(MessageKind.RUN_RETURN, run, expr))
               for expr, run in enumerate(runs)]
    mine += share._replace(busy_ns=perf_counter_ns() - t0)
    if records:
        records[-1] = records[-1]._replace(metrics=mine)
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
                share = _rewrite_chunk(msg.payload, modules[k], nsymbols, accs[msg.expr])
                ack = endpoint.encode(Message(MessageKind.RUN_RETURN))
                mine += share._replace(busy_ns=perf_counter_ns() - t0)
                endpoint.reply(ack)
            elif msg.kind is MessageKind.SORT:
                _return_runs(endpoint, accs, mine, t0)
                mine, k = WorkerMetrics(), k + 1
            else:  # pragma: no cover - protocol violation
                raise EngineError(f"unexpected message kind {msg.kind}")
    except Exception:
        import traceback  # only a failing worker needs it
        failed = Message(MessageKind.FAILED, detail=traceback.format_exc())
        endpoint.reply(endpoint.encode(failed))


def _recv(master: MasterEndpoint, block: bool = True) -> Optional[tuple[int, Message]]:
    """The next worker message, or None if ``block`` is false and none is
    waiting; a ``FAILED`` message raises :class:`WorkerError`."""
    got = master.recv_any(block)
    if got is not None and got[1].kind is MessageKind.FAILED:
        raise WorkerError(got[0], got[1].detail)
    return got


def _worker_records(cfg: RunConfig) -> dict[int, WorkerMetrics]:
    """A fresh record for every slave, and for the master if it computes."""
    first = MASTER_WORKER_ID if cfg.master_computes or not cfg.nslaves else 0
    return {i: WorkerMetrics() for i in range(first, cfg.nslaves)}


def execute_parallel(master: MasterEndpoint, cfg: RunConfig, m: Module,
                     exprs: Sequence[Expression]) -> tuple[list[Expression], PhaseMetrics]:
    """Run module ``m`` over every local expression in one dispatch pass.

    Returns the new expressions, in the order of ``exprs``, and the module's
    metrics, each slave's record as its last run delivered it.  The result is
    the same for every configuration; only metrics and transport stats vary.
    """
    nsymbols = master.nsymbols
    workers = _worker_records(cfg)
    mine = workers.get(MASTER_WORKER_ID)
    wait_start = master.wait_ns
    t_start = perf_counter_ns()
    t_distribute = 0

    def chunk_terms(c: Chunk) -> Expression:
        # Sliced only when sent or computed, so only outstanding chunks are copies.
        return exprs[c.expr][2 * c.start:2 * c.stop]

    t0 = perf_counter_ns()
    # One region per taker: slave w owns regions[w], and a computing master
    # the last, regions[MASTER_WORKER_ID].
    regions = _regions(partition_chunks(exprs, cfg.chunk_size), len(workers))
    t_distribute += perf_counter_ns() - t0

    def take(taker: int) -> Chunk:
        # The front of the taker's own region, else the back of the region
        # with the most chunks left.
        return regions[taker].popleft() if regions[taker] else max(regions, key=len).pop()

    master_accs: list[terms.Accumulator] = [{} for _ in exprs]
    idle = deque(range(cfg.nslaves))
    while any(regions) or len(idle) < cfg.nslaves:  # some worker still holds a chunk
        t0 = perf_counter_ns()
        while idle and any(regions):
            worker = idle.popleft()
            c = take(worker)
            master.send(worker, Message(MessageKind.CHUNK_ASSIGNMENT, chunk_terms(c), c.expr))
        t_distribute += perf_counter_ns() - t0
        got = None
        if mine is not None and any(regions):
            # No slave is idle here, so every slave holds a chunk.
            got = _recv(master, block=False)
            if got is None:
                # Every worker is busy: the master takes a chunk itself.
                c = take(MASTER_WORKER_ID)
                mine += _rewrite_chunk(chunk_terms(c), m, nsymbols, master_accs[c.expr])
                continue
        worker, msg = got or _recv(master)
        if msg.kind is not MessageKind.RUN_RETURN or msg.payload:
            raise EngineError(f"expected completion signal, got {msg.kind}")
        idle.append(worker)

    # Sort boundary: every worker, the master too if it computes, sorts the
    # distinct monomials it accumulated once per expression.
    t0 = perf_counter_ns()
    for w in range(cfg.nslaves):
        master.send(w, Message(MessageKind.SORT))
    t_distribute += perf_counter_ns() - t0
    runs: list[list[Expression]] = [[] for _ in exprs]
    if mine is not None:
        own, share = _sort_runs(master_accs)
        workers[MASTER_WORKER_ID] = mine + share
        runs = [[run] for run in own]
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
        terms_merged=sum(len(r) for rs in runs for r in rs) // 2,
    )
    return results, metrics


def run_program(program: Program, cfg: RunConfig) -> ProgramRunResult:
    """Execute every module in order over every local expression.

    Every expression that enters a module is canonical (the parser and the
    merge make it so), so a module with no statements runs nowhere: the
    workers hold only the others, and for it the master sends nothing,
    passes the expressions on as the same tuples and records an identity
    step, with a zero record per worker.  A program none of whose modules
    has statements starts no worker, so nothing travels.
    """
    names = [name for name, _ in program.initial]
    exprs = [e for _, e in program.initial]
    module_metrics: list[PhaseMetrics] = []
    marks: list[TransportStats] = []
    nsymbols = len(program.symtab)
    master = MasterEndpoint(cfg.backend, cfg.nslaves, nsymbols)
    try:
        active = [m for m in program.modules if m.statements]
        if active:
            master.start(_slave_loop, active, nsymbols, len(exprs))
        for m in program.modules:
            if m.statements:
                exprs, metrics = execute_parallel(master, cfg, m, exprs)
            else:
                n = sum(len(e) for e in exprs) // 2
                metrics = PhaseMetrics(t_distribute=0, t_final_merge=0, t_wall=0, master_busy=0,
                                       terms_in=n, terms_out=n, workers=_worker_records(cfg))
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
