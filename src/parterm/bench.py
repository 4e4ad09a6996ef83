"""Benchmark sweeps, speedups, and CSV/plot-data emission.

Reported timings are medians over the configured repeats, with one warm-up
run discarded before measurement.  Every speedup is reported both ways:

* two-processor: S(p) = t_wall(1 slave + master) / t_wall(p slaves)
* sequential:    S(p) = t_sequential / t_wall(p slaves)
"""

from __future__ import annotations

import csv
from statistics import median_low
from typing import NamedTuple, Optional, Sequence, TextIO

from .engine import ProgramRunResult, RunConfig, run_program
from .parser import Program, parse_program

CSV_COLUMNS = [
    "program", "module_index", "nslaves", "backend", "chunk_size", "repeat",
    "t_wall_ns", "t_distribute_ns", "t_compute_max_ns", "t_local_sort_max_ns",
    "t_final_merge_ns", "terms_in", "terms_generated", "terms_out", "messages",
    "serialized_bytes", "handle_transfers",
]


class SpeedupRow(NamedTuple):
    nslaves: int
    t_wall_ns: int
    t_final_merge_ns: int
    serialized_bytes: int
    speedup_two_proc: float
    speedup_vs_sequential: float


class BenchResult(NamedTuple):
    program_name: str
    csv_rows: list[dict]
    reports: dict[str, list[SpeedupRow]]  # per backend
    t_sequential_ns: int


def compute_speedups(timings: dict[int, int],
                     t_sequential: int) -> list[tuple[int, float, float]]:
    """(p, two-processor speedup, vs-sequential speedup) per slave count."""
    if 1 not in timings:
        raise ValueError("two-processor normalization requires the one-slave timing")
    t_two_proc = timings[1]
    return [(p, t_two_proc / t, t_sequential / t) for p, t in sorted(timings.items())]


def _total_wall(result: ProgramRunResult) -> int:
    return sum(m.t_wall for m in result.module_metrics)


def run_sweep(
    text: str,
    program_name: str,
    slaves: Sequence[int],
    backends: Sequence[str],
    chunks: Sequence[int] = (1000,),
    repeats: int = 5,
    progress: Optional[TextIO] = None,
) -> BenchResult:
    """Measure every (backend, nslaves, chunk_size) cell plus the sequential
    reference; returns per-module median CSV rows and per-backend speedups.

    Speedup rows use the first chunk size in ``chunks``.
    """
    program: Program = parse_program(text)
    nmodules = len(program.modules)

    def note(msg: str) -> None:
        if progress is not None:
            progress.write(msg + "\n")
            progress.flush()

    seq_walls = []
    for r in range(repeats + 1):
        seq_walls.append(_total_wall(run_program(program, RunConfig(nslaves=0))))
    t_sequential = median_low(seq_walls[1:])
    note(f"sequential reference: {t_sequential} ns")

    csv_rows: list[dict] = []
    reports: dict[str, list[SpeedupRow]] = {}
    for backend in backends:
        timings: dict[int, int] = {}
        merge_medians: dict[int, int] = {}
        bytes_medians: dict[int, int] = {}
        for p in slaves:
            for chunk in chunks:
                cfg = RunConfig(nslaves=p, chunk_size=chunk, backend=backend)
                results: list[ProgramRunResult] = []
                for r in range(repeats + 1):
                    res = run_program(program, cfg)
                    if r > 0:  # discard the warm-up run
                        results.append(res)
                note(f"backend={backend} p={p} chunk={chunk}: "
                     f"median wall {median_low(_total_wall(r) for r in results)} ns")
                for mi in range(nmodules):
                    mrows = [r.module_metrics[mi] for r in results]
                    srows = [r.module_stats[mi] for r in results]
                    csv_rows.append({
                        "program": program_name,
                        "module_index": mi,
                        "nslaves": p,
                        "backend": backend,
                        "chunk_size": chunk,
                        "repeat": repeats,
                        "t_wall_ns": median_low(m.t_wall for m in mrows),
                        "t_distribute_ns": median_low(m.t_distribute for m in mrows),
                        "t_compute_max_ns": median_low(m.t_compute_max for m in mrows),
                        "t_local_sort_max_ns": median_low(m.t_local_sort_max for m in mrows),
                        "t_final_merge_ns": median_low(m.t_final_merge for m in mrows),
                        "terms_in": median_low(m.terms_in for m in mrows),
                        "terms_generated": median_low(m.terms_generated for m in mrows),
                        "terms_out": median_low(m.terms_out for m in mrows),
                        "messages": median_low(s.messages for s in srows),
                        "serialized_bytes": median_low(s.serialized_bytes for s in srows),
                        "handle_transfers": median_low(s.handle_transfers for s in srows),
                    })
                if chunk == chunks[0]:
                    timings[p] = median_low(_total_wall(r) for r in results)
                    merge_medians[p] = median_low(
                        sum(m.t_final_merge for m in r.module_metrics) for r in results)
                    bytes_medians[p] = median_low(
                        r.stats.serialized_bytes for r in results)
        reports[backend] = [
            SpeedupRow(p, timings[p], merge_medians[p], bytes_medians[p], s2p, sseq)
            for p, s2p, sseq in compute_speedups(timings, t_sequential)
        ]
    return BenchResult(program_name, csv_rows, reports, t_sequential)


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
        f"sequential reference: {result.t_sequential_ns / 1e6:.3f} ms",
        f"{'backend':>8} {'p':>3} {'t_wall_ms':>12} {'t_merge_ms':>12} "
        f"{'bytes':>12} {'S(two-proc)':>12} {'S(seq)':>8}",
    ]
    for backend, rows in result.reports.items():
        for r in rows:
            lines.append(
                f"{backend:>8} {r.nslaves:>3} {r.t_wall_ns / 1e6:>12.3f} "
                f"{r.t_final_merge_ns / 1e6:>12.3f} {r.serialized_bytes:>12} "
                f"{r.speedup_two_proc:>12.3f} {r.speedup_vs_sequential:>8.3f}")
    return "\n".join(lines)
