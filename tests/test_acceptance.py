"""Acceptance gate: one test per release criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion (skipped criteria state the unmet hardware
precondition in their skip reason).

Criteria 4-6 exercise a million-generated-term workload and carry explicit
hardware preconditions (core counts); they are skipped, not weakened, on
machines below those preconditions.
"""

import math
import os
import random
from statistics import median_low

import pytest

from parterm import terms
from parterm.bench import compute_speedups, measure
from parterm.engine import RunConfig, run_program
from parterm.parser import format_expression, parse_program
from parterm.sortmerge import MERGE_COMPARISON_BOUND, merge_runs
from parterm.terms import SymbolTable, normalize
from parterm.transport import deserialize_terms, serialize_terms

from generators import grid_program
from oracles import (
    ComparisonCount,
    brute_multiply,
    brute_power,
    hand_wire_bytes,
    oracle_normalize,
    oracle_run_program,
    pack_terms,
    random_terms,
    unpack_terms,
    unwrap,
)

CORES = os.cpu_count() or 1
GRID_SLAVES = (1, 2, 4, 8)
GRID_CHUNKS = (1, 7, 1000)
GRID_BACKENDS = ("mp", "sm")
GRID_MASTER = (False, True)


def _passed(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_acceptance_1_determinism_grid():
    """100 generated programs give identical expressions across the whole
    (slaves x chunk x backend x master) grid, equal to the expression-algebra
    oracle applied module by module."""
    for seed in range(100):
        program = parse_program(grid_program(seed))
        reference = oracle_run_program(program)
        assert run_program(program, RunConfig(nslaves=0)).expressions == reference
        for nslaves in GRID_SLAVES:
            for chunk in GRID_CHUNKS:
                for backend in GRID_BACKENDS:
                    for master_computes in GRID_MASTER:
                        cfg = RunConfig(nslaves=nslaves, chunk_size=chunk,
                                        backend=backend, master_computes=master_computes)
                        got = run_program(program, cfg).expressions
                        assert got == reference, (
                            f"seed={seed} nslaves={nslaves} chunk={chunk} "
                            f"backend={backend} master={master_computes}")
    _passed(1, "determinism grid")


def test_acceptance_2_merge_oracle_and_comparison_bound():
    """merge_runs equals normalize-of-concatenation on 1000 random run sets,
    and its comparison count stays under the pinned k-way bound."""
    rng = random.Random(2024)
    nsym = 4
    for _ in range(1000):
        k = rng.randint(1, 8)
        raws = [random_terms(rng, nsym, rng.randint(0, 30)) for _ in range(k)]
        runs = [normalize(pack_terms(raw, nsym)) for raw in raws]
        counted = ComparisonCount()
        merged = unwrap(merge_runs(counted.wrap(runs)))
        assert merged == pack_terms(oracle_normalize([t for raw in raws for t in raw], nsym), nsym)
        total = sum(len(r) for r in runs) // 2  # terms, not flat elements
        if total:
            assert counted.count <= MERGE_COMPARISON_BOUND * total * math.log2(k + 1)
    _passed(2, "merge oracle and comparison bound")


GOLDEN_TEXT = "symbols x, y;\nlocal F = (x+y)^3;\nmultiply x+y;\n.sort\n.end\n"


def _golden_expected_bytes(nslaves: int, chunk_size: int) -> tuple[int, int, int]:
    """Hand-compute the mp wire traffic for the golden workload when chunk i
    goes to slave i % nslaves: (serialized_bytes, messages m->s, messages s->m).

    Each slave takes the front of its own region first, so this holds for one
    slave, whose region holds every chunk, and for as many equal chunks as
    slaves, where region i holds chunk i alone."""
    program = parse_program(GOLDEN_TEXT)
    (_, f_expr), = program.initial
    f_expr = unpack_terms(f_expr, 2)
    factor = unpack_terms(program.modules[0].statements[0].factor, 2)
    chunks = [f_expr[i:i + chunk_size] for i in range(0, len(f_expr), chunk_size)]
    # per-slave accumulated run, computed with oracle primitives only
    per_slave_raw = {s: [] for s in range(nslaves)}
    for seq, chunk in enumerate(chunks):
        for t in chunk:
            per_slave_raw[seq % nslaves].extend(brute_multiply((t,), factor, 2))
    runs = [oracle_normalize(per_slave_raw[s], 2) for s in range(nslaves)]
    empty = len(hand_wire_bytes((), 2))
    total = 0
    total += empty * nslaves              # Sort
    total += empty * nslaves              # Shutdown
    total += sum(len(hand_wire_bytes(c, 2)) for c in chunks)
    total += empty * len(chunks)          # per-chunk completion signals
    total += sum(len(hand_wire_bytes(r, 2)) for r in runs)
    m2s = nslaves * 2 + len(chunks)
    s2m = len(chunks) + nslaves
    return total, m2s, s2m


def test_acceptance_3_transport_accounting():
    """Exact byte accounting on a fixed golden workload: mp matches the
    hand-computed wire-size sum; sm moves handles, not bytes."""
    program = parse_program(GOLDEN_TEXT)

    # Frozen by-hand totals.  A payload is "(" and a u32 count, its
    # elements and a 4-byte CRC: 9 bytes on top of them.  Every coefficient
    # here and y^n (the ints n) fit an i32: "i" and 4 bytes, 5.  A monomial
    # with x is x's exponent shifted by 33 plus y's, a 34- to 36-bit int:
    # "l", a 4-byte digit count and 3 15-bit digits, 11.  So a term is 10
    # bytes if it has no x and 16 if it has.
    # One slave: 4 empty payloads (Sort, Shutdown, 2 chunk acknowledgements)
    # 4 * 9 = 36, chunks x^3+3x^2y and 3xy^2+y^3 (9 + 32) + (9 + 26) = 76,
    # and one run of (x+y)^4's 5 terms 9 + 4 * 16 + 10 = 83: 36 + 76 + 83 =
    # 195.
    expected, m2s, s2m = _golden_expected_bytes(nslaves=1, chunk_size=2)
    assert expected == 195
    res = run_program(program, RunConfig(nslaves=1, chunk_size=2, backend="mp"))
    assert res.stats.serialized_bytes == expected
    assert res.stats.handle_transfers == 0
    assert (res.stats.messages_master_to_slave, res.stats.messages_slave_to_master) \
        == (m2s, s2m)

    # Four terms in two chunks for two slaves: one chunk each, chunk i to slave i.
    # 6 empty payloads 6 * 9 = 54, the same chunks 76, and two runs of 3
    # terms, x^4+4x^3y+3x^2y^2 9 + 3 * 16 = 57 and 3x^2y^2+4xy^3+y^4
    # 9 + 2 * 16 + 10 = 51: 54 + 76 + 108 = 238.
    expected2, m2s2, s2m2 = _golden_expected_bytes(nslaves=2, chunk_size=2)
    assert expected2 == 238
    res2 = run_program(program, RunConfig(nslaves=2, chunk_size=2, backend="mp"))
    assert res2.stats.serialized_bytes == expected2
    assert (res2.stats.messages_master_to_slave, res2.stats.messages_slave_to_master) \
        == (m2s2, s2m2)

    sm = run_program(program, RunConfig(nslaves=2, chunk_size=1, backend="sm"))
    assert sm.stats.serialized_bytes == 0
    assert sm.stats.handle_transfers == sm.stats.messages
    _passed(3, "transport accounting")


# Heavy workload for criteria 4-6: nine degree-1 product modules over a
# 23k-term base generate 1.06 million raw terms while pushing tens of
# thousands of terms through the transport every module, so backend cost is
# a structural share of wall time: even with each monomial crossing as one
# to_bytes/from_bytes, 2 marshalling slaves take about twice the wall time
# of 2 shared-buffer slaves on a 2-core host, far beyond paired-run noise.
HEAVY_TEXT = (
    "symbols x, y, z, w;\n"
    "local F = (x+y+z+w)^50;\n"
    + "multiply (x+y+z+w);\n.sort\n" * 9
    + ".end\n"
)


def _heavy_program():
    return parse_program(HEAVY_TEXT)


def _medians(program, configs):
    """Median whole-run wall and summed final-merge times per config key,
    over 5 rounds of ``bench.measure`` after its warm-up round."""
    runs = dict(zip(configs, measure(program, list(configs.values()), repeats=5)))
    walls = {k: median_low(wall for wall, *_ in v) for k, v in runs.items()}
    merges = {k: median_low(sum(m.t_final_merge for m in ms) for _, ms, _, _ in v)
              for k, v in runs.items()}
    _, metrics, _, _ = next(iter(runs.values()))[0]
    assert sum(m.terms_generated for m in metrics) >= 1_000_000
    return walls, merges


@pytest.mark.skipif(CORES < 4, reason="criterion 4 precondition: >= 4 hardware cores")
def test_acceptance_4_overhead_ordering():
    """Median wall time with shared buffers stays at or below message passing
    at each slave count, in at least 4 of 5 sweep executions."""
    program = _heavy_program()
    wins = 0
    for sweep in range(5):
        configs = {(backend, p): RunConfig(nslaves=p, backend=backend)
                   for backend in GRID_BACKENDS for p in (1, 2, 4)}
        medians, _ = _medians(program, configs)
        if all(medians["sm", p] <= medians["mp", p] for p in (1, 2, 4)):
            wins += 1
    assert wins >= 4, f"sm <= mp held in only {wins}/5 sweeps"
    _passed(4, "overhead ordering sm <= mp")


@pytest.mark.skipif(CORES < 3,
                    reason="criterion 5 precondition: needs slave counts 1..cores-1, "
                           ">= 3 cores for a two-point trend")
def test_acceptance_5_final_merge_share_trend():
    """The final-merge share of wall time is nondecreasing in the slave count,
    within a 10% per-step noise tolerance."""
    program = _heavy_program()
    slave_counts = list(range(1, CORES))
    configs = {p: RunConfig(nslaves=p, backend="sm") for p in slave_counts}
    walls, merges = _medians(program, configs)
    ratios = [merges[p] / walls[p] for p in slave_counts]
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt >= prev * 0.90, f"merge share dropped: {ratios}"
    _passed(5, "final-merge share trend")


@pytest.mark.skipif(CORES < 8, reason="criterion 6 precondition: >= 8 hardware cores")
def test_acceptance_6_speedup_floor():
    """Two-processor-normalized speedup at four slaves reaches at least 2.0."""
    program = _heavy_program()
    configs = {p: RunConfig(nslaves=p, backend="sm") for p in (1, 4)}
    walls, _ = _medians(program, configs)
    rows = compute_speedups(walls, t_sequential=walls[1])
    speedup_at_4 = dict((p, s2p) for p, s2p, _ in rows)[4]
    assert speedup_at_4 >= 2.0, f"speedup_two_proc(4) = {speedup_at_4:.2f}"
    _passed(6, "speedup floor at four slaves")


def test_acceptance_7_round_trips():
    """1000 random expressions survive format->parse and the wire format."""
    rng = random.Random(777)
    tab = SymbolTable(["x", "y", "z", "w"])
    for _ in range(1000):
        e = pack_terms(oracle_normalize(random_terms(rng, 4, rng.randint(0, 10),
                                                     max_coeff=10**rng.randint(1, 12)), 4), 4)
        text = f"symbols x,y,z,w; local F = {format_expression(e, tab)}; .sort .end"
        (_, parsed), = parse_program(text).initial
        assert parsed == e
        assert deserialize_terms(serialize_terms(e, 4), 4) == e
    _passed(7, "parser and wire-format round trips")


def test_acceptance_8_combinatorial_counts():
    """Expansion term counts match closed forms via the brute-force oracle."""
    x, y, z, w = (terms.symbol(i, 4) for i in range(4))
    trinomial = terms.add_expressions(terms.add_expressions(x, y), z)
    brute = brute_power(unpack_terms(trinomial, 4), 8, 4)
    assert len(brute) == 45 == (8 + 1) * (8 + 2) // 2
    assert unpack_terms(terms.pow_expression(trinomial, 8), 4) == brute

    quad = terms.add_expressions(terms.add_expressions(x, y), terms.add_expressions(z, w))
    brute2 = brute_power(unpack_terms(quad, 4), 2, 4)
    assert len(brute2) == 10 == math.comb(5, 3)
    assert unpack_terms(terms.pow_expression(quad, 2), 4) == brute2

    # and through the engine: a bare module normalizes the expansion unchanged
    program = parse_program("symbols x,y,z,w; local F = (x+y+z+w)^2; .sort .end")
    res = run_program(program, RunConfig(nslaves=2, chunk_size=3))
    assert len(res.expressions["F"]) // 2 == 10
    _passed(8, "combinatorial counts")
