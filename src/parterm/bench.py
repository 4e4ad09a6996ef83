"""Benchmark sweeps, speedups, and CSV/plot-data emission.

``measure`` is the one loop that times runs: whole ``run_program`` calls,
worker start and join included, over interleaved rounds.  Reported timings
are medians over the rounds after a discarded warm-up.  Every speedup is
reported both ways:

* two-processor: S(p) = t_wall(1 slave + master) / t_wall(p slaves)
* sequential:    S(p) = t_sequential / t_wall(p slaves)
"""

from __future__ import annotations

import csv
from statistics import median_low
from time import perf_counter_ns
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

from .engine import PhaseMetrics, RunConfig, run_program
from .parser import Program, parse_program

CSV_COLUMNS = [
    "program", "module_index", "nslaves", "backend", "chunk_size", "repeat",
    "t_wall_ns", "t_distribute_ns", "t_compute_max_ns", "t_local_sort_max_ns",
    "t_final_merge_ns", "terms_in", "terms_generated", "terms_out", "terms_merged",
    "messages", "serialized_bytes", "handle_transfers",
]


class SpeedupRow(NamedTuple):
    nslaves: int
    t_wall_ns: int
    t_wall_q1_ns: int
    t_wall_q3_ns: int
    t_final_merge_ns: int
    serialized_bytes: int
    speedup_two_proc: float
    speedup_vs_sequential: float


class BenchResult(NamedTuple):
    program_name: str
    csv_rows: list[dict]
    reports: dict[str, list[SpeedupRow]]  # per backend
    t_sequential_ns: int
    t_sequential_q1_ns: int
    t_sequential_q3_ns: int


_NEEDS_ONE_SLAVE = "two-processor normalization requires the one-slave timing"


def compute_speedups(timings: dict[int, int],
                     t_sequential: int) -> list[tuple[int, float, float]]:
    """(p, two-processor speedup, vs-sequential speedup) per slave count."""
    if 1 not in timings:
        raise ValueError(_NEEDS_ONE_SLAVE)
    t_two_proc = timings[1]
    return [(p, t_two_proc / t, t_sequential / t) for p, t in sorted(timings.items())]


def _quartiles(values: Iterable[int]) -> tuple[int, int, int]:
    """The low first quartile, median and third quartile: for q = 1, 2, 3 the
    sorted values' element ``q * (n - 1) // 4``, so the median is
    ``median_low``'s, and one value is all three."""
    ordered = sorted(values)
    return tuple(ordered[q * (len(ordered) - 1) // 4] for q in (1, 2, 3))


class MismatchError(Exception):
    """A run's expressions differ from the first configuration's."""


def measure(program: Program, configs: Sequence[RunConfig], repeats: int) -> list[list[tuple]]:
    """Run every config once per round, forward in even rounds and backward in
    odd ones, and drop round 0; per config, return ``repeats`` tuples
    ``(wall_ns, module_metrics, module_stats, stats)``.  A run whose
    expressions differ from the first config's raises ``MismatchError``."""
    runs: list[list[tuple]] = [[] for _ in configs]
    reference = None
    for rnd in range(repeats + 1):
        order = range(len(configs))
        for i in (reversed(order) if rnd % 2 else order):
            start = perf_counter_ns()
            res = run_program(program, configs[i])
            wall = perf_counter_ns() - start
            if reference is None:
                reference = res.expressions
            elif res.expressions != reference:
                raise MismatchError(f"{configs[i]} gave other expressions than {configs[0]}")
            if rnd:
                runs[i].append((wall, res.module_metrics, res.module_stats, res.stats))
    return runs


def run_sweep(
    text: str,
    program_name: str,
    slaves: Sequence[int],
    backends: Sequence[str],
    chunks: Sequence[int] = (RunConfig._field_defaults["chunk_size"],),
    repeats: int = 5,
    progress: Optional[TextIO] = None,
) -> BenchResult:
    """Measure the zero-worker reference and every (backend, nslaves,
    chunk_size) cell together; returns per-module median CSV rows and
    per-backend speedups of the median whole-run wall times, with their
    quartiles, at the first chunk size in ``chunks``; without 1 in
    ``slaves`` it raises ValueError before it parses or runs anything."""
    if 1 not in slaves:
        raise ValueError(_NEEDS_ONE_SLAVE)
    program: Program = parse_program(text)
    cells = [RunConfig(nslaves=p, chunk_size=chunk, backend=backend)
             for backend in backends for p in slaves for chunk in chunks]
    seq_runs, *cell_runs = measure(program, [RunConfig(nslaves=0), *cells], repeats)
    seq_q1, t_sequential, seq_q3 = _quartiles(wall for wall, *_ in seq_runs)
    notes = [f"sequential reference: {t_sequential} ns (q1 {seq_q1}, q3 {seq_q3})"]

    csv_rows: list[dict] = []
    first_chunk: dict[str, dict[int, tuple[int, ...]]] = {b: {} for b in backends}
    for cfg, results in zip(cells, cell_runs):
        walls, metrics, mstats, totals = zip(*results)
        q1, t_wall, q3 = _quartiles(walls)
        notes.append(f"backend={cfg.backend} p={cfg.nslaves} chunk={cfg.chunk_size}: "
                     f"median wall {t_wall} ns (q1 {q1}, q3 {q3})")
        for mi in range(len(program.modules)):
            row = dict(zip(CSV_COLUMNS, (program_name, mi, cfg.nslaves, cfg.backend,
                                         cfg.chunk_size, repeats)))
            # Each further column is a PhaseMetrics field (times with an _ns
            # suffix) or else a TransportStats field, as a median over the runs.
            for column in CSV_COLUMNS[len(row):]:
                field = column.removesuffix("_ns")
                records = metrics if hasattr(PhaseMetrics, field) else mstats
                row[column] = median_low(getattr(r[mi], field) for r in records)
            csv_rows.append(row)
        if cfg.chunk_size == chunks[0]:
            first_chunk[cfg.backend][cfg.nslaves] = (
                t_wall, q1, q3,
                median_low(sum(m.t_final_merge for m in ms) for ms in metrics),
                median_low(s.serialized_bytes for s in totals))
    if progress is not None:
        print(*notes, sep="\n", file=progress, flush=True)
    reports: dict[str, list[SpeedupRow]] = {}
    for backend, cols in first_chunk.items():
        speedups = compute_speedups({p: col[0] for p, col in cols.items()}, t_sequential)
        reports[backend] = [SpeedupRow(p, *cols[p], s2p, sseq) for p, s2p, sseq in speedups]
    return BenchResult(program_name, csv_rows, reports, t_sequential, seq_q1, seq_q3)


def write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def write_dat(path: str, result: BenchResult) -> None:
    """Gnuplot-friendly blocks, one per backend, double-blank separated and
    each named by its ``# backend=<name>`` line."""
    with open(path, "w") as fh:
        fh.write(f"# program: {result.program_name}\n")
        fh.write(f"# sequential reference: {result.t_sequential_ns} ns\n")
        fh.write("# columns: nslaves t_wall_ns speedup_two_proc speedup_seq\n")
        for bi, (backend, rows) in enumerate(result.reports.items()):
            if bi:
                fh.write("\n\n")
            fh.write(f"# backend={backend}\n")
            for row in rows:
                fh.write(f"{row.nslaves} {row.t_wall_ns} {row.speedup_two_proc:.4f} "
                         f"{row.speedup_vs_sequential:.4f}\n")


def format_report(result: BenchResult) -> str:
    lines = [
        f"program: {result.program_name}",
        f"sequential reference: {result.t_sequential_ns / 1e6:.3f} ms "
        f"(q1 {result.t_sequential_q1_ns / 1e6:.3f}, q3 {result.t_sequential_q3_ns / 1e6:.3f})",
        f"{'backend':>8} {'p':>3} {'t_wall_ms':>12} {'q1_ms':>10} {'q3_ms':>10} {'t_merge_ms':>12} "
        f"{'bytes':>12} {'S(two-proc)':>12} {'S(seq)':>8}",
    ]
    for backend, rows in result.reports.items():
        for r in rows:
            lines.append(
                f"{backend:>8} {r.nslaves:>3} {r.t_wall_ns / 1e6:>12.3f} "
                f"{r.t_wall_q1_ns / 1e6:>10.3f} {r.t_wall_q3_ns / 1e6:>10.3f} "
                f"{r.t_final_merge_ns / 1e6:>12.3f} {r.serialized_bytes:>12} "
                f"{r.speedup_two_proc:>12.3f} {r.speedup_vs_sequential:>8.3f}")
    return "\n".join(lines)
