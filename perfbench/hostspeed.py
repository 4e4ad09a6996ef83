"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on shared hosts whose CPUs drift in speed, each on its
own, by up to 2x in phases of seconds to minutes; process CPU time drifts
with wall time, so the program cannot tell.  Every measured child therefore
times this loop just before and just after the program, on the same
interpreter and on each of its CPUs, and ``run.py`` rescales the program's
times to a nominal host on which the loop takes ``NOMINAL_S``.  The loop is
pure Python with the same kind of work as parterm's kernels on data of a
like size (tuple monomials, big-integer coefficients, dict accumulation, a
sort), and it uses no parterm code, so a change to the program cannot
change it.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter

# Reference-loop time on the nominal host: host-normalised seconds are
# measured seconds times NOMINAL_S over the measured reference-loop time.
NOMINAL_S = 0.010

Poly = dict[tuple[int, ...], int]

_LINEAR: Poly = {(1, 0, 0, 0): 3, (0, 1, 0, 0): -2, (0, 0, 1, 0): 1, (0, 0, 0, 1): 2}


def _multiply(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return out


def _power(n: int) -> Poly:
    p: Poly = {(0, 0, 0, 0): 1}
    for _ in range(n):
        p = _multiply(p, _LINEAR)
    return p


# The 18th power has 1,330 terms with coefficients of up to 48 bits: a
# working set of the size parterm's chunks have.  It is built once, untimed.
_BASE = _power(18)


def _once() -> float:
    t0 = perf_counter()
    sorted(_multiply(_BASE, _LINEAR).items(), reverse=True)
    return perf_counter() - t0


def _timed(reps: int) -> list[float]:
    # The collector is paused so that GC settings made by the program cannot
    # change the loop's time; it is left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [_once() for _ in range(reps)]
    finally:
        if enabled:
            gc.enable()


def reference_times(reps: int = 8) -> dict[str, list[float]]:
    """Reference-loop timings on each CPU this process may run on.

    The calling thread is pinned to each allowed CPU in turn for about
    ``reps`` timings spread over them, then given its whole CPU set back.  On
    a shared host the CPUs of one machine change speed independently, so the
    benchmark needs the speed of the CPU a single-threaded run sat on, or of
    every CPU for a run with worker threads.  Without CPU affinity support
    the timings are taken wherever the thread runs, under the key ``"any"``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"any": _timed(reps)}
    allowed = sorted(os.sched_getaffinity(0))
    per_cpu = max(1, reps // len(allowed))
    times = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            times[str(cpu)] = _timed(per_cpu)
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def current_cpu() -> str | None:
    """The CPU the calling thread is on now, or None where Linux's
    ``/proc/thread-self/stat`` cannot be read."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return None
