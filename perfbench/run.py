"""parterm benchmark: seeded workloads, fixed configurations, fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload product-chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The benchmark generates the workload from ``--seed`` and runs a closed loop with
one client: one program run at a time, each (workload, configuration) run in
a fresh child interpreter (``child.py``), started one after another.  Fresh
processes are what ``parterm run`` users pay for: a cold interpreter, a cold
``rewrite`` power cache and their own peak RSS.  Configurations are
interleaved, and their order alternates from round to round, so slow phases
of a shared host fall on every configuration alike.  Rounds continue until
``--seconds`` is used up; every timing is a median over the run's samples.

The CPUs of a shared host drift in speed, each on its own, by up to 2x in
phases of seconds to minutes, which no run length averages away.  Each
child therefore also times a fixed reference loop (``hostspeed.py``) on each
CPU around the program, and ``setup_s`` and ``wall_s.*`` are
host-normalised: measured seconds times ``hostspeed.NOMINAL_S`` over the
reference loop's median time in that child, on the CPU a single-threaded
region ran on or on every CPU otherwise.  The report also prints the raw
medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
configuration traced and untraced and reports the per-layer metrics from the
traced children, plus the tracing overhead (traced minus untraced wall time).

Every child's results are checked: each configuration's printed expressions
must equal the sequential configuration's, and each must equal the
independent point-evaluation oracle in ``workloads.py``.  A run that raises,
times out or returns a wrong result counts as failed.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report, with the environment and every sample, goes to
``perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS, oracle_values, random_point, render  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

# Fixed whatever the core count, so numbers compare across commits:
# name -> (slaves, backend).  All use chunk 1000 and a master that does
# not compute.
CONFIGS = {
    "seq": (0, "sm"),
    "p1_sm": (1, "sm"),
    "p2_sm": (2, "sm"),
    "p2_mp": (2, "mp"),
}
CHUNK_SIZE = 1000
PARALLEL = ("p1_sm", "p2_sm", "p2_mp")
SM = ("p1_sm", "p2_sm")
P2 = ("p2_sm", "p2_mp")

# A run must end within 180 s even if a child hangs: no child may run past
# this many seconds after the run started.
RUN_LIMIT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s.seq", "s"),
    ("wall_s.p1_sm", "s"),
    ("wall_s.p2_sm", "s"),
    ("wall_s.p2_mp", "s"),
    ("peak_rss_mb.seq", "MB"),
    ("peak_rss_mb.p2_sm", "MB"),
]

# (metric, unit, configurations it is reported for; None = one value for
# the whole workload, the median over every traced child).
PER_LAYER = [
    ("parser.parse_s", "s", None),
    ("rewrite.apply_s", "s", tuple(CONFIGS)),
    ("rewrite.apply_cpu_s", "s", tuple(CONFIGS)),
    ("rewrite.terms_generated", "count", None),
    ("terms.normalize_s", "s", tuple(CONFIGS)),
    ("terms.normalize_terms_in", "count", tuple(CONFIGS)),
    ("terms.add_expressions_s", "s", PARALLEL),
    ("terms.accumulate_terms_walked", "count", PARALLEL),
    ("sortmerge.merge_s", "s", PARALLEL),
    ("sortmerge.merge_terms_in", "count", PARALLEL),
    ("sortmerge.merge_share", "ratio", PARALLEL),
    ("transport.encode_s", "s", ("p2_mp",)),
    ("transport.decode_s", "s", ("p2_mp",)),
    ("transport.serialized_bytes", "bytes", ("p2_mp",)),
    ("transport.messages", "count", PARALLEL),
    ("transport.handle_transfers", "count", SM),
    ("transport.send_blocked_s", "s", PARALLEL),
    ("transport.master_wait_s", "s", PARALLEL),
    ("transport.slave_wait_s", "s", PARALLEL),
    ("engine.worker_starts", "count", PARALLEL),
    ("engine.module_runs", "count", PARALLEL),
    ("engine.partition_s", "s", PARALLEL),
    ("engine.overhead_s", "s", PARALLEL),
    ("engine.worker_busy_s", "s", PARALLEL),
    ("engine.load_imbalance", "ratio", P2),
    ("engine.gil_wait_s", "s", PARALLEL),
    ("trace.overhead_s", "s", tuple(CONFIGS)),
]

SPEEDUPS = [("seq", "p2_sm"), ("p1_sm", "p2_sm"), ("p2_mp", "p2_sm")]


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for metric, unit, configs in PER_LAYER:
        if configs is None:
            names.append((metric, unit))
        else:
            names.extend((f"{metric}.{c}", unit) for c in configs)
    return names


# -- children ------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(request: dict, timeout: float) -> dict:
    """Run one configuration in a fresh interpreter; raise on any failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(request), capture_output=True, text=True,
        env=_child_env(), cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _warm_up() -> None:
    # Compile parterm's bytecode once so no measured child pays for it.
    subprocess.run([sys.executable, "-c", "import parterm"], env=_child_env(),
                   cwd=ROOT, check=True, timeout=RUN_LIMIT_S,
                   capture_output=True)


# -- environment ---------------------------------------------------------------

def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "parterm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(samples: list[dict]) -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    threads = sum(s.get("threads_started", 0) for s in samples)
    processes = sum(s.get("processes_started", 0) for s in samples)
    substrate = ("processes" if processes else "threads" if threads else "unknown")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": "enabled" if gil else "disabled",
        "cpu_count": os.cpu_count(),
        "worker_substrate": substrate,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


# -- measurement ---------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    limit = perf_counter() + RUN_LIMIT_S
    specs = WORKLOADS[workload](seed)
    texts = [render(s) for s in specs]
    point = random_point(workload, seed)
    expected = [oracle_values(s, point) for s in specs]
    OUT.mkdir(exist_ok=True)
    _warm_up()

    samples: list[dict] = []
    start = perf_counter()
    deadline = start + seconds
    # How long the last child of each (configuration, traced) took: no child
    # starts that would not end before the deadline.
    last: dict[tuple[str, bool], float] = {}
    rounds = 0
    done = False
    while not done:
        modes = (True, False) if trace else (False,)
        runs = [(name, traced) for name in CONFIGS for traced in modes]
        if rounds % 2:
            runs.reverse()
        for name, traced in runs:
            c0 = perf_counter()
            if c0 >= limit or (rounds and c0 + last[name, traced] > deadline):
                done = True
                break
            nslaves, backend = CONFIGS[name]
            request = {
                "programs": texts, "nslaves": nslaves, "backend": backend,
                "chunk_size": CHUNK_SIZE, "point": point, "trace": traced,
                "spans_out": str(OUT / f"spans-{workload}-{name}.jsonl") if traced else None,
            }
            sample = {"config": name, "traced": traced}
            try:
                sample.update(run_child(request, timeout=limit - perf_counter()))
                sample["error"] = None if sample["values"] == expected else "oracle mismatch"
                _normalise(sample)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                sample["error"] = str(exc)
            samples.append(sample)
            last[name, traced] = perf_counter() - c0
        else:
            rounds += 1

    # Every configuration must print exactly what the sequential one prints.
    reference = next((s["digest"] for s in samples
                      if s["config"] == "seq" and s["error"] is None), None)
    for s in samples:
        if s["error"] is None and s["digest"] != reference:
            s["error"] = "differs from seq"
    return {"rounds": rounds, "elapsed_s": perf_counter() - start,
            "samples": samples}


def _reference(refs: list[dict[str, list[float]]], start: str | None, end: str | None,
               single_threaded: bool) -> float:
    """Median reference-loop time that applies to one timed region.

    A single-threaded region that began and ended on one CPU is scaled by
    that CPU's speed; anything else by the speed of every CPU.
    """
    if single_threaded and start is not None and start == end \
            and all(start in r for r in refs):
        return statistics.median(t for r in refs for t in r[start])
    return statistics.median(t for r in refs for ts in r.values() for t in ts)


def _normalise(sample: dict) -> None:
    """Rescale the child's times to the nominal host; keep the raw ones.

    Setup is scaled by the reference loops timed before and after it, and the
    run by those timed before and after the run.
    """
    before, between, after = (sample.pop(k) for k in
                              ("ref_before_s", "ref_between_s", "ref_after_s"))
    cpus = sample["cpus"]
    ref_setup = _reference([before, between], cpus[0], cpus[1], True)
    ref_run = _reference([between, after], cpus[2], cpus[3], sample["run_workers"] == 0)
    sample["ref_s"] = ref_run
    sample["setup_raw_s"] = sample["setup_s"]
    sample["wall_raw_s"] = sample["wall_s"]
    sample["setup_s"] = sample["setup_raw_s"] * NOMINAL_S / ref_setup
    sample["wall_s"] = sample["wall_raw_s"] * NOMINAL_S / ref_run


def _ok(samples: list[dict], config: str | None = None, traced: bool | None = None) -> list[dict]:
    return [s for s in samples if s["error"] is None
            and (config is None or s["config"] == config)
            and (traced is None or s["traced"] == traced)]


def end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    values = {"setup_s": [s["setup_s"] for s in _ok(samples)]}
    for c in CONFIGS:
        values[f"wall_s.{c}"] = [s["wall_s"] for s in _ok(samples, c)]
    for c in ("seq", "p2_sm"):
        values[f"peak_rss_mb.{c}"] = [s["peak_rss_mb"] for s in _ok(samples, c)]
    return values


def per_layer(samples: list[dict]) -> dict[str, list[float]]:
    traced = _ok(samples, traced=True)
    values: dict[str, list[float]] = {}
    for metric, _, configs in PER_LAYER:
        for c in (configs or (None,)):
            group = _ok(traced, c)
            if metric == "trace.overhead_s":
                untraced = [s["wall_s"] for s in _ok(samples, c, traced=False)]
                got = [statistics.median([s["wall_s"] for s in group]) - statistics.median(untraced)] \
                    if group and untraced else []
            elif metric == "engine.worker_starts":
                got = [s["threads_started"] + s["processes_started"] for s in group]
            elif metric == "transport.handle_transfers":
                got = [s["handle_transfers"] for s in group]
            else:
                got = [s["layers"][metric] for s in group]
            values[metric if c is None else f"{metric}.{c}"] = got
    return values


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = measure(workload, seed, seconds, trace)
    samples = run["samples"]
    env = environment(samples)
    failed = sum(1 for s in samples if s["error"] is not None)
    attempted = len(samples)
    names = per_layer_names() if trace else END_TO_END
    values = per_layer(samples) if trace else end_to_end(samples)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)} rounds={run['rounds']} elapsed_s={run['elapsed_s']:.1f}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"configuration runs: attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.4g} (count/count)")
    for s in samples:
        if s["error"] is not None:
            print(f"  FAILED {s['config']} traced={s['traced']}: {s['error']}")

    metrics = {}
    for name, unit in names:
        vals = values.get(name, [])
        if not vals:
            print(f"{name:<40} missing (no successful run)")
            continue
        med = statistics.median(vals)
        metrics[name] = {"value": med, "unit": unit}
        spread = f"n={len(vals)} min={_fmt(min(vals))} max={_fmt(max(vals))}" if len(vals) > 1 \
            else "n=1"
        print(f"{name:<40} {_fmt(med):>12} {unit:<6} {spread}")
    if not trace:
        ok = _ok(samples)
        print(f"host reference loop: median {_fmt(statistics.median(s['ref_s'] for s in ok))} s "
              f"(nominal {NOMINAL_S} s)" if ok else "host reference loop: no successful run")
        print("raw seconds, before host normalisation (printed, not gated):")
        raw = {"setup_s": [s["setup_raw_s"] for s in ok]}
        raw.update((f"wall_s.{c}", [s["wall_raw_s"] for s in _ok(samples, c)]) for c in CONFIGS)
        for name, vals in raw.items():
            if vals:
                print(f"  {name:<38} {_fmt(statistics.median(vals)):>12} s      "
                      f"n={len(vals)} min={_fmt(min(vals))} max={_fmt(max(vals))}")
        print("speedups (printed, not gated):")
        for a, b in SPEEDUPS:
            ma, mb = metrics.get(f"wall_s.{a}"), metrics.get(f"wall_s.{b}")
            if ma and mb:
                print(f"  wall_s.{a}/wall_s.{b} = {ma['value'] / mb['value']:.4g}")

    full = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": env, "rounds": run["rounds"], "samples": [
                {k: v for k, v in s.items() if k != "values"} for s in samples],
            "metrics": metrics}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    correct = failed == 0 and len(metrics) == len(names)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "parterm" / "__init__.py").is_file():
        print(f"perfbench: no parterm sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload, end to end and traced; the last line sums the outcomes.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = report(workload, args.seed, args.seconds, trace)
            print(json.dumps(result))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
