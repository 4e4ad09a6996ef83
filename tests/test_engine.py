import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parterm
from parterm import engine, rewrite, sortmerge, terms, transport
from parterm.engine import (
    MAX_SLAVES, PhaseMetrics, RunConfig, SlaveCountError, WorkerError, WorkerMetrics,
    partition_chunks, run_program)
from parterm.parser import IdSubst, Module, Multiply, Program, parse_program
from parterm.terms import SymbolTable, add_expressions, pow_expression, symbol

from oracles import (
    algebra_apply_module,
    brute_multiply,
    flat,
    oracle_normalize,
    oracle_run_program,
    pack,
    pack_terms,
    random_expression,
    random_module,
    unflat,
    unpack_terms,
)

NSYM = 4
SEQ = RunConfig(nslaves=0)


def _parse(text):
    return parse_program(text)


def _run_module(e, m, nsymbols, cfg):
    """Run one module over one local expression: (result, metrics, stats)."""
    program = Program(SymbolTable(f"s{i}" for i in range(nsymbols)), [("F", e)], [m])
    res = run_program(program, cfg)
    return res.expressions["F"], res.module_metrics[0], res.stats


# -- zero workers: the master computes every chunk ---------------------------

def test_sequential_empty_module_is_identity():
    e = pack_terms(oracle_normalize([(1, ((0, 1),)), (4, ())], NSYM), NSYM)
    assert _run_module(e, Module(()), NSYM, SEQ)[0] == e


def test_sequential_difference_of_squares():
    e = add_expressions(symbol(0, 2), symbol(1, 2))
    m = Module((Multiply(add_expressions(symbol(0, 2), terms.negate_expression(symbol(1, 2)))),))
    assert unpack_terms(_run_module(e, m, 2, SEQ)[0], 2) == ((1, ((0, 2),)), (-1, ((1, 2),)))


def test_sequential_substitution_collapses_to_nine_terms():
    # (x+y+z)^8 with x -> y+z equals (2y+2z)^8: nine terms y^a z^b, a+b=8
    program = _parse("symbols x,y,z; local F = (x+y+z)^8; id x = y+z; .sort .end")
    (_, e), = program.initial
    assert len(e) // 2 == 45
    got = _run_module(e, program.modules[0], 3, SEQ)[0]
    expected = algebra_apply_module(e, program.modules[0], 3)
    assert got == expected
    assert len(got) // 2 == 9
    assert got == pow_expression(
        add_expressions(
            terms.multiply_expressions(terms.constant(2), symbol(1, 3)),
            terms.multiply_expressions(terms.constant(2), symbol(2, 3))), 8)


# -- chunk partition ---------------------------------------------------------

def test_partition_reconstructs_input():
    rng = random.Random(97)
    for _ in range(30):
        exprs = [random_expression(rng, NSYM, rng.randint(0, 40))
                 for _ in range(rng.randint(1, 3))]
        size = rng.choice([1, 2, 7, 1000])
        # The expressions are flat; the ranges count terms.
        chunks = partition_chunks(exprs, size)
        assert [c.expr for c in chunks] == sorted(c.expr for c in chunks)
        for i, e in enumerate(exprs):
            ranges = [(c.start, c.stop) for c in chunks if c.expr == i]
            # in bounds, nonempty, at most chunk_size long
            assert all(0 <= a < b <= len(e) // 2 and b - a <= size for a, b in ranges)
            # consecutive from 0 to the term count: the ranges cover e in order
            assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
            assert (ranges[-1][1] if ranges else 0) == len(e) // 2
            assert tuple(t for a, b in ranges for t in unflat(e)[a:b]) == unflat(e)
            assert tuple(x for a, b in ranges for x in e[2 * a:2 * b]) == e


def test_chunks_and_metrics_count_terms_not_flat_elements():
    # An expression is a flat tuple, two elements a term; every range and
    # count the engine reports is in terms.  F = (x+y)^3 has 4
    # terms and G = x-y 2; times x+y they make 8 + 4 products and combine to
    # (x+y)^4's 5 terms and x^2-y^2's 2.
    program = _parse("symbols x,y; local F = (x+y)^3; local G = x-y; multiply x+y; .sort .end")
    exprs = [e for _, e in program.initial]
    assert [tuple(c) for c in partition_chunks(exprs, 3)] == [(0, 0, 3), (0, 3, 4), (1, 0, 2)]
    for cfg in (SEQ, RunConfig(nslaves=1, chunk_size=3),
                RunConfig(nslaves=2, chunk_size=1, backend="mp"),
                RunConfig(nslaves=2, chunk_size=2, master_computes=True)):
        m = run_program(program, cfg).module_metrics[0]
        assert (m.terms_in, m.terms_out, m.terms_generated) == (6, 7, 12), cfg
        # One run per expression merges into itself; more may repeat monomials.
        assert m.terms_merged == 7 or cfg.nslaves > 1 and m.terms_merged > 7, cfg
        assert sum(w.processed for w in m.workers.values()) == 6, cfg
        if cfg.nslaves == 1:
            assert {i: w.processed for i, w in m.workers.items()} == {0: 6}


# -- parallel engine ---------------------------------------------------------

def test_single_slave_equals_sequential():
    program = _parse("symbols x,y; local F = (x+y)^3; id x = y+1; .sort .end")
    (_, e), = program.initial
    m = program.modules[0]
    expected = algebra_apply_module(e, m, 2)
    result, metrics, stats = _run_module(e, m, 2, RunConfig(nslaves=1, chunk_size=2))
    assert result == expected
    assert metrics.terms_in == len(e) // 2
    assert metrics.terms_out == len(result) // 2
    assert metrics.t_wall >= metrics.t_final_merge
    assert metrics.terms_out <= metrics.terms_generated


def test_five_chunks_over_four_slaves():
    program = _parse("symbols x,y; local F = (x+y)^4; id x = x+1; .sort .end")
    (_, e), = program.initial
    assert len(e) // 2 == 5
    m = program.modules[0]
    expected = algebra_apply_module(e, m, 2)
    result, metrics, _ = _run_module(e, m, 2, RunConfig(nslaves=4, chunk_size=1, backend="sm"))
    assert result == expected
    # priming hands every slave one of the five chunks
    assert all(metrics.workers[i].processed >= 1 for i in range(4))
    assert sum(w.processed for w in metrics.workers.values()) == len(e) // 2


def _dispatch_log(program, cfg, monkeypatch):
    """Run ``program`` under ``cfg`` and return, in the order the master
    took them, ``(taker, chunk index)`` for every chunk of its one module:
    a slave's from the chunks the master sends it, the master's own
    (taker -1) from the chunks it rewrites on its own thread."""
    (_, e), = program.initial
    first = {e[2 * c.start + 1]: i for i, c in enumerate(partition_chunks([e], cfg.chunk_size))}
    master_thread = threading.get_ident()
    log = []
    real_send, real_rewrite = transport.MasterEndpoint.send, engine._rewrite_chunk

    def send(self, worker, msg):
        if msg.kind is transport.MessageKind.CHUNK_ASSIGNMENT:
            log.append((worker, first[msg.payload[1]]))
        return real_send(self, worker, msg)

    def rewrite_chunk(chunk, *args):
        if threading.get_ident() == master_thread:
            log.append((-1, first[chunk[1]]))
        return real_rewrite(chunk, *args)

    monkeypatch.setattr(transport.MasterEndpoint, "send", send)
    monkeypatch.setattr(engine, "_rewrite_chunk", rewrite_chunk)
    assert run_program(program, cfg).expressions == oracle_run_program(program)
    monkeypatch.undo()
    return log


@pytest.mark.parametrize("master_computes", [False, True], ids=["dealing", "computing"])
@pytest.mark.parametrize("nslaves", [2, 3])
def test_each_worker_deals_from_its_own_region_then_steals_from_the_back(
        nslaves, master_computes, monkeypatch):
    # 37 terms in chunks of 3: twelve of 3 and one of 1.  The regions cut the
    # chunks where their midpoints cross an equal share of the 37 terms: one
    # per slave, and the last for a computing master (taker -1).
    program = _parse("symbols x,y,z; local F = (x+y+z)^7 + 1; multiply x+y-z; .sort .end")
    cfg = RunConfig(nslaves=nslaves, chunk_size=3, master_computes=master_computes)
    chunks = partition_chunks([program.initial[0][1]], 3)
    assert [c.stop - c.start for c in chunks] == [3] * 12 + [1]
    takers = nslaves + master_computes
    for _ in range(5):
        regions = [deque() for _ in range(takers)]
        done = 0
        for i, c in enumerate(chunks):
            size = c.stop - c.start
            regions[(2 * done + size) * takers // (2 * 37)].append(i)
            done += size
        assert all(len(r) >= 3 for r in regions)
        log = _dispatch_log(program, cfg, monkeypatch)
        assert sorted(i for _, i in log) == list(range(len(chunks)))
        for taker, i in log:
            # A taker takes its own region's front while it lasts, then steals
            # the back chunk of a region with the most chunks left.
            own = regions[taker]
            if own:
                assert i == own.popleft(), log
            else:
                most = max(map(len, regions))
                victim = next((r for r in regions if len(r) == most and r[-1] == i), None)
                assert victim is not None, log
                victim.pop()
        assert {taker for taker, _ in log} >= set(range(nslaves))


def test_zero_slaves_deal_one_region_front_to_back(monkeypatch):
    program = _parse("symbols x,y,z; local F = (x+y+z)^6; multiply x+y-z; .sort .end")
    log = _dispatch_log(program, RunConfig(nslaves=0, chunk_size=3), monkeypatch)
    assert log == [(-1, i) for i in range(10)]


def test_contiguous_regions_keep_the_merge_input_near_the_output():
    # heavy.pt: nine products by x+y+z+w over (x+y+z+w)^50.  Chunks dealt
    # to whichever worker was idle made every run span the whole expression,
    # and the merge took in 1.50-1.67 times the terms it put out.  With
    # contiguous regions it reads 1.03-1.07 at 2 slaves and 1.12-1.17 at 4.
    # A computing master owns the last region, and reads 1.07-1.08 and 1.20-1.21.
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "programs", "heavy.pt")) as fh:
        program = _parse(fh.read())
    for nslaves in (2, 4):
        for master_computes in (False, True):
            cfg = RunConfig(nslaves=nslaves, master_computes=master_computes)
            metrics = run_program(program, cfg).module_metrics
            merged = sum(m.terms_merged for m in metrics)
            out = sum(m.terms_out for m in metrics)
            assert merged <= 1.25 * out, (cfg, merged / out)


@pytest.mark.parametrize("backend", ["mp", "sm"])
@pytest.mark.parametrize("master_computes", [False, True])
def test_grid_matches_sequential(backend, master_computes):
    rng = random.Random(101)
    for _ in range(10):
        e = random_expression(rng, NSYM, rng.randint(0, 30), max_exp=3)
        m = random_module(rng, NSYM)
        expected = algebra_apply_module(e, m, NSYM)
        for nslaves in (1, 2, 4):
            for chunk in (1, 7, 1000):
                cfg = RunConfig(nslaves=nslaves, chunk_size=chunk, backend=backend,
                                master_computes=master_computes)
                result, metrics, stats = _run_module(e, m, NSYM, cfg)
                assert result == expected
                processed = sum(w.processed for w in metrics.workers.values())
                if m.statements:
                    assert processed == len(e) // 2
                else:  # a module with no statements runs nowhere
                    assert processed == metrics.terms_generated == 0
                    assert stats.messages == 0  # and no worker starts


def test_empty_expression_parallel():
    m = Module((Multiply(symbol(0, 1)),))
    result, metrics, _ = _run_module((), m, 1, RunConfig(nslaves=2))
    assert result == ()
    assert metrics.terms_in == metrics.terms_generated == metrics.terms_out == 0


def test_backend_equivalence_and_stats_exclusivity():
    program = _parse("symbols x,y,z; local F = (x+y+z)^5; id y = z-1; .sort .end")
    (_, e), = program.initial
    m = program.modules[0]
    out = {}
    for backend in ("mp", "sm"):
        result, _, stats = _run_module(
            e, m, 3, RunConfig(nslaves=2, chunk_size=4, backend=backend))
        out[backend] = result
        if backend == "mp":
            assert stats.serialized_bytes > 0 and stats.handle_transfers == 0
        else:
            assert stats.serialized_bytes == 0 and stats.handle_transfers > 0
            assert stats.handle_transfers == stats.messages
    assert out["mp"] == out["sm"]


def test_worker_failure_names_the_worker(monkeypatch):
    def boom(chunk_terms, m, nsymbols, acc):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(rewrite, "apply_module_to_chunk", boom)
    e = pack_terms(((1, ((0, 1),)), (2, ((1, 1),))), 2)
    m = Module((Multiply(symbol(0, 2)),))
    with pytest.raises(WorkerError, match=r"worker \d+ failed"):
        _run_module(e, m, 2, RunConfig(nslaves=2, chunk_size=1))


def _raised_within(seconds, fn):
    """Run ``fn`` as the master on its own thread; it must finish within
    ``seconds`` and leave no thread behind.  Returns what it raised, or None."""
    before = threading.active_count()
    raised = []

    def run():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    th = threading.Thread(target=run, name="test-master", daemon=True)
    t0 = time.monotonic()
    th.start()
    th.join(timeout=seconds)
    assert not th.is_alive(), "the master hung"
    assert time.monotonic() - t0 < seconds
    assert threading.active_count() == before
    return raised[0] if raised else None


def _injected_fault(chunk_terms, m, nsymbols, acc):
    raise RuntimeError("injected fault")


# 60 one-term chunks over 2 slaves: far more than a mailbox holds.
_SIXTY = flat((1, pack(((0, i),), 1)) for i in range(60, 0, -1))


def test_worker_failure_raises_instead_of_hanging(monkeypatch):
    # A master that queued every chunk up front would block once a worker died.
    monkeypatch.setattr(rewrite, "apply_module_to_chunk", _injected_fault)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=1)
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert isinstance(exc, WorkerError) and "injected fault" in str(exc)


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_worker_fault_detail_crosses_the_backend(backend, monkeypatch):
    monkeypatch.setattr(rewrite, "apply_module_to_chunk", _injected_fault)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=7, backend=backend)
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert isinstance(exc, WorkerError)
    assert exc.worker in (0, 1)
    assert str(exc).startswith(f"worker {exc.worker} failed")
    assert "injected fault" in str(exc)
    # One line for the user; the traceback stays on the exception.
    assert str(exc) == f"worker {exc.worker} failed: RuntimeError: injected fault"
    assert exc.detail.startswith("Traceback") and "_injected_fault" in exc.detail


def test_computing_master_raises_when_every_worker_faults(monkeypatch):
    # The master's own chunks take a few ms each, so the FAILED replies reach
    # it while chunks remain: on its non-blocking check, not the final wait.
    real = rewrite.apply_module_to_chunk
    computed_by_master = []

    def workers_fail(chunk_terms, m, nsymbols, acc):
        if threading.current_thread().name.startswith("parterm-worker"):
            raise RuntimeError("injected fault")
        computed_by_master.append(len(chunk_terms))
        time.sleep(0.002)
        return real(chunk_terms, m, nsymbols, acc)

    monkeypatch.setattr(rewrite, "apply_module_to_chunk", workers_fail)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=1, master_computes=True)
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert isinstance(exc, WorkerError) and "injected fault" in str(exc)
    assert len(computed_by_master) < len(_SIXTY) // 2 - 2


def test_master_fault_shuts_down_live_workers(monkeypatch):
    # Only the master's own thread faults; the workers are alive and busy
    # (each chunk takes them a few ms), so the master computes a chunk early.
    real = rewrite.apply_module_to_chunk
    worker_chunks = []

    def master_fails(chunk_terms, m, nsymbols, acc):
        if threading.current_thread().name == "test-master":
            raise RuntimeError("master fault")
        worker_chunks.append(len(chunk_terms))
        time.sleep(0.005)
        return real(chunk_terms, m, nsymbols, acc)

    monkeypatch.setattr(rewrite, "apply_module_to_chunk", master_fails)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=1, master_computes=True)
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert type(exc) is RuntimeError and str(exc) == "master fault"
    assert worker_chunks  # the workers were serving chunks when the master failed


def _corrupt_first(monkeypatch, on_worker):
    """Flip one byte of the first nonempty payload encoded on a worker
    thread (a run) or on the master's (a chunk)."""
    real = transport.serialize_terms
    corrupted = []

    def corrupting_encode(ts, nsymbols):
        data = real(ts, nsymbols)
        worker = threading.current_thread().name.startswith("parterm-worker-")
        if ts and worker == on_worker and not corrupted:
            corrupted.append(threading.current_thread().name)
            data = data[:6] + bytes([data[6] ^ 0x40]) + data[7:]
        return data

    monkeypatch.setattr(transport, "serialize_terms", corrupting_encode)
    return corrupted


def _no_worker_thread_left():
    for th in threading.enumerate():
        if th.name.startswith("parterm-worker-"):
            th.join(timeout=5.0)
            assert not th.is_alive(), th.name


def test_corrupted_chunk_bytes_fail_the_worker_that_decodes_them(monkeypatch):
    corrupted = _corrupt_first(monkeypatch, on_worker=False)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=7, backend="mp")
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert corrupted == ["test-master"]
    # The first chunk goes to worker 0.
    assert isinstance(exc, WorkerError) and exc.worker == 0
    assert "WireError: checksum mismatch" in str(exc)
    _no_worker_thread_left()


def test_corrupted_run_bytes_fail_the_master_that_decodes_them(monkeypatch):
    corrupted = _corrupt_first(monkeypatch, on_worker=True)
    m = Module((Multiply(symbol(0, 1)),))
    cfg = RunConfig(nslaves=2, chunk_size=7, backend="mp")
    exc = _raised_within(10.0, lambda: _run_module(_SIXTY, m, 1, cfg))
    assert len(corrupted) == 1
    assert isinstance(exc, transport.WireError) and "checksum mismatch" in str(exc)
    _no_worker_thread_left()


def test_engine_quiesces_after_each_run():
    before = threading.active_count()
    program = _parse("symbols x; local F = (x+1)^4; multiply x; .sort .end")
    run_program(program, RunConfig(nslaves=4, chunk_size=1))
    assert threading.active_count() == before


def test_quiescence_after_worker_failure(monkeypatch):
    before = threading.active_count()
    test_worker_failure_names_the_worker(monkeypatch)
    # workers exited even though the run errored
    for _ in range(50):
        if threading.active_count() == before:
            break
        time.sleep(0.02)
    assert threading.active_count() == before


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(nslaves=-1)
    with pytest.raises(ValueError):
        RunConfig(chunk_size=0)
    with pytest.raises(ValueError):
        RunConfig(backend="tcp")


def test_slave_count_above_the_cap_is_rejected_before_any_thread_starts():
    assert MAX_SLAVES >= 64  # above the CLI default and every sweep here
    before = threading.active_count()
    RunConfig(nslaves=MAX_SLAVES)
    with pytest.raises(SlaveCountError, match=f"nslaves {MAX_SLAVES + 1} exceeds the cap"):
        RunConfig(nslaves=MAX_SLAVES + 1)
    with pytest.raises(ValueError):  # a SlaveCountError is a ValueError
        RunConfig(nslaves=10**9)
    assert threading.active_count() == before


def test_master_busy_counts_the_decode_of_returned_runs(monkeypatch):
    # Decoding a run is the master's work, not waiting: each decode on the
    # master's thread sleeps 20 ms, and every such sleep is busy time.  Each
    # chunk takes a worker 30 ms, and the master waits for that.
    real = transport.deserialize_terms
    real_rewrite = rewrite.apply_module_to_chunk
    slept = []

    def slow_rewrite(chunk_terms, m, nsymbols, acc):
        time.sleep(0.03)
        return real_rewrite(chunk_terms, m, nsymbols, acc)

    def slow_decode(data, nsymbols):
        if threading.current_thread() is threading.main_thread():
            t0 = time.perf_counter_ns()
            time.sleep(0.02)
            slept.append(time.perf_counter_ns() - t0)
        return real(data, nsymbols)

    monkeypatch.setattr(transport, "deserialize_terms", slow_decode)
    monkeypatch.setattr(rewrite, "apply_module_to_chunk", slow_rewrite)
    program = _parse("symbols x, y; local F = (x+y)^4; multiply x+y; .sort .end")
    res = run_program(program, RunConfig(nslaves=2, chunk_size=2, backend="mp"))
    metrics = res.module_metrics[0]
    assert len(slept) == res.stats.messages_slave_to_master
    assert metrics.master_busy >= sum(slept)
    assert metrics.t_wall - metrics.master_busy >= 30_000_000


def test_worker_busy_counts_the_decode_of_its_chunks(monkeypatch):
    # A worker's busy time starts when a message leaves its mailbox, so the
    # decode of a chunk (or of a Sort) is its work, not waiting: each decode
    # on a worker thread sleeps 20 ms, and every such sleep is busy time.
    real = transport.deserialize_terms
    slept = {}

    def slow_decode(data, nsymbols):
        name = threading.current_thread().name
        if name.startswith("parterm-worker-"):
            t0 = time.perf_counter_ns()
            time.sleep(0.02)
            slept.setdefault(int(name.rsplit("-", 1)[1]), []).append(
                time.perf_counter_ns() - t0)
        return real(data, nsymbols)

    monkeypatch.setattr(transport, "deserialize_terms", slow_decode)
    program = _parse("symbols x, y; local F = (x+y)^4; multiply x+y; .sort .end")
    res = run_program(program, RunConfig(nslaves=2, chunk_size=2, backend="mp"))
    workers = res.module_metrics[0].workers
    assert sorted(slept) == [0, 1]
    # Each worker decodes one or more chunks and the Sort; its Shutdown comes
    # after the module and is decoded by no module's clock.
    assert sum(len(s) for s in slept.values()) == res.stats.messages_master_to_slave
    for worker, sleeps in slept.items():
        assert workers[worker].busy_ns >= sum(sleeps[:-1])


def test_worker_busy_counts_the_encode_of_its_replies(monkeypatch):
    # A worker's answers are encoded before its busy time is stamped, so
    # the encode of an acknowledgement or of a run is its work: each encode
    # on a worker thread sleeps 20 ms, and every such sleep is busy time.
    real = transport.serialize_terms
    slept = {}

    def slow_encode(ts, nsymbols):
        name = threading.current_thread().name
        if name.startswith("parterm-worker-"):
            t0 = time.perf_counter_ns()
            time.sleep(0.02)
            slept.setdefault(int(name.rsplit("-", 1)[1]), []).append(
                time.perf_counter_ns() - t0)
        return real(ts, nsymbols)

    monkeypatch.setattr(transport, "serialize_terms", slow_encode)
    program = _parse("symbols x, y; local F = (x+y)^4; multiply x+y; .sort .end")
    res = run_program(program, RunConfig(nslaves=2, chunk_size=2, backend="mp"))
    workers = res.module_metrics[0].workers
    assert sorted(slept) == [0, 1]
    # Each worker encodes an acknowledgement per chunk and its one run.
    assert sum(len(s) for s in slept.values()) == res.stats.messages_slave_to_master
    for worker, sleeps in slept.items():
        assert workers[worker].busy_ns >= sum(sleeps)


@pytest.mark.parametrize("cfg", [SEQ, RunConfig(nslaves=2, chunk_size=1, master_computes=True)],
                         ids=["zero-slaves", "computing-master"])
def test_a_computing_master_is_busy_for_its_compute_and_its_sort(cfg):
    # The master decodes and encodes nothing, so its busy time is the sum
    # of its chunks' and its sort's shares, never 0 once it has sorted.
    program = _parse("symbols x, y; local F = (x+y)^8; multiply x+y; .sort .end")
    res = run_program(program, cfg)
    master = res.module_metrics[0].workers[engine.MASTER_WORKER_ID]
    assert master.busy_ns == master.compute_ns + master.sort_ns > 0
    if not cfg.nslaves:
        assert master.processed == 9 and master.compute_ns > 0


# -- whole programs ----------------------------------------------------------

def _counting_thread_starts(monkeypatch) -> list:
    starts = []
    real_start = threading.Thread.start

    def counted(self, *args, **kwargs):
        starts.append(self.name)
        return real_start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


def test_run_program_identity_module(monkeypatch):
    # A module with no statements runs nowhere: the expressions pass through
    # as the same tuples, and a program of such modules starts no worker, so
    # nothing travels.
    starts = _counting_thread_starts(monkeypatch)
    program = _parse("symbols x,y; local F = x+y; local G = (x-y)^3; .sort .end")
    for cfg in (SEQ, RunConfig(nslaves=2),
                RunConfig(nslaves=2, backend="mp", master_computes=True)):
        result = run_program(program, cfg)
        assert unpack_terms(result.expressions["F"], 2) == ((1, ((0, 1),)), (1, ((1, 1),)))
        assert all(result.expressions[name] is e for name, e in program.initial)
        first = -1 if cfg.master_computes or not cfg.nslaves else 0
        workers = {i: WorkerMetrics() for i in range(first, cfg.nslaves)}
        assert result.module_metrics == [PhaseMetrics(0, 0, 0, 0, 6, 6, workers)]
        assert result.stats == transport.TransportStats()
    assert starts == []


def test_run_program_two_module_composition():
    program = _parse("symbols x,y; local F = 1; multiply x+y; .sort multiply x-y; .sort .end")
    for backend in ("mp", "sm"):
        result = run_program(program, RunConfig(nslaves=2, chunk_size=1, backend=backend))
        assert unpack_terms(result.expressions["F"], 2) == ((1, ((0, 2),)), (-1, ((1, 2),)))
        assert len(result.module_metrics) == 2
        assert len(result.module_stats) == 2
        assert result.stats.messages == sum(s.messages for s in result.module_stats)
        # every slave's record arrived with its last run of each module
        for m in result.module_metrics:
            assert set(m.workers) == {0, 1}
            assert sum(w.processed for w in m.workers.values()) == m.terms_in


def test_program_without_locals_keeps_zero_records():
    program = _parse("symbols x; multiply x; .sort .end")
    result = run_program(program, RunConfig(nslaves=2))
    assert result.expressions == {}
    assert result.module_metrics[0].workers == {0: WorkerMetrics(), 1: WorkerMetrics()}


@pytest.mark.parametrize("backend", ["mp", "sm"])
@pytest.mark.parametrize("nslaves", [0, 2])
def test_program_without_modules_returns_its_locals(nslaves, backend, monkeypatch):
    starts = _counting_thread_starts(monkeypatch)
    program = Program(SymbolTable(["x"]), [("F", (1, 0))], [])
    result = run_program(program, RunConfig(nslaves=nslaves, backend=backend))
    assert result.expressions == {"F": (1, 0)}
    assert result.module_metrics == result.module_stats == []
    # no worker starts, so nothing travels
    assert result.stats == transport.TransportStats()
    assert starts == []


def test_run_program_sequential_sentinel():
    program = _parse("symbols x,y; local F = (x-y)^2; id x = y; .sort .end")
    seq = run_program(program, SEQ)
    par = run_program(program, RunConfig(nslaves=3, chunk_size=1))
    assert seq.expressions == par.expressions == oracle_run_program(program)
    assert seq.stats.messages == 0


def test_run_program_multiple_locals():
    program = _parse(
        "symbols a,b; local F = (a+b)^2; local G = a-b; multiply a; .sort .end")
    result = run_program(program, RunConfig(nslaves=2, chunk_size=1))
    assert result.expressions == oracle_run_program(program)
    assert set(result.expressions) == {"F", "G"}


def test_config_grid_equality_over_programs():
    rng = random.Random(107)
    texts = [
        "symbols x,y,z; local F = (x+y+z)^4; id x = y-z+2; .sort multiply x+1; .sort .end",
        "symbols a,b; local F = (a-b)^5; local G = a*b+1; id a = b+1; .sort .end",
        # Non-linear rhs, whose powers each worker builds to count them.
        "symbols x,y,z,w; local F = (x+y-z)^4; local G = 3*x^2*y-w+2; id x = y+y*z-w; .sort "
        "id y = 1+z+z^2; multiply x-w; .sort .end",
    ]
    for text in texts:
        program = _parse(text)
        reference = oracle_run_program(program)
        for _ in range(6):
            cfg = RunConfig(
                nslaves=rng.choice([1, 2, 4, 8]),
                chunk_size=rng.choice([1, 7, 1000]),
                backend=rng.choice(["mp", "sm"]),
                master_computes=rng.choice([False, True]),
            )
            assert run_program(program, cfg).expressions == reference


def test_exponent_overflow_in_a_worker_is_reported():
    top = terms.EXP_MASK
    e = (1, pack(((0, top),), 1))
    m = Module((Multiply(symbol(0, 1)),))
    with pytest.raises(terms.ExponentOverflowError):
        _run_module(e, m, 1, SEQ)
    with pytest.raises(WorkerError, match="ExponentOverflowError"):
        _run_module(e, m, 1, RunConfig(nslaves=2, chunk_size=1))


def test_symbols_after_a_local_run_like_symbols_up_front():
    late = _parse("symbols x; local F = (x+1)^4; symbols y; id x = y - 1; .sort "
                  "multiply x + y; .sort .end")
    early = _parse("symbols x, y; local F = (x+1)^4; id x = y - 1; .sort "
                   "multiply x + y; .sort .end")
    for cfg in (RunConfig(nslaves=0), RunConfig(nslaves=2, chunk_size=2, backend="mp")):
        assert run_program(late, cfg).expressions == run_program(early, cfg).expressions
    assert unpack_terms(run_program(late, RunConfig(nslaves=0)).expressions["F"], 2) == \
        ((1, ((0, 1), (1, 4))), (1, ((1, 5),)))


def test_largest_exponent_crosses_the_mp_transport():
    top = terms.EXP_MASK
    program = _parse(f"symbols x, y; local F = x^{top} + 2*y^{top - 1}; multiply y; .sort .end")
    seq = run_program(program, SEQ).expressions
    mp = run_program(program, RunConfig(nslaves=2, chunk_size=1, backend="mp"))
    assert mp.expressions == seq == oracle_run_program(program)
    assert mp.stats.serialized_bytes > 0
    assert unpack_terms(seq["F"], 2) == ((1, ((0, top), (1, 1))), (2, ((1, top),)))


@pytest.mark.parametrize("backend", ["mp", "sm"])
def test_one_run_starts_one_worker_per_slave(backend, monkeypatch):
    # Two modules over two locals: the workers serve the whole program.
    program = _parse("symbols x,y; local F = (x+y)^3; local G = x-y; multiply x+y; .sort "
                     "id x = y+1; .sort .end")
    starts = _counting_thread_starts(monkeypatch)
    for nslaves in (0, 1, 2, 4):
        del starts[:]
        cfg = RunConfig(nslaves=nslaves, chunk_size=1, backend=backend)
        res = run_program(program, cfg)
        assert len(starts) == nslaves
        assert all(name.startswith("parterm-worker") for name in starts)
        assert res.expressions == oracle_run_program(program)
        # one Sort per slave per module, one Shutdown per slave per run
        chunks = sum(m.terms_in for m in res.module_metrics) if nslaves else 0
        assert res.stats.messages_master_to_slave == chunks + nslaves * (2 + 1)
        assert res.stats.messages_slave_to_master == chunks + nslaves * 2 * 2


# -- the accumulator: like terms combine as they are generated ---------------

ACC_GRID = [RunConfig(nslaves=n, chunk_size=c, backend=b)
            for n in (0, 1, 2) for c in (1, 2, 1000) for b in ("sm", "mp")]

_XYZ = 3
_st_coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
_st_mono = st.tuples(*[st.integers(0, 2)] * _XYZ).map(
    lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e))
_st_poly = st.lists(st.tuples(_st_coeff, _st_mono), min_size=1, max_size=4).map(
    lambda ts: oracle_normalize(ts, _XYZ))
_st_linear = st.lists(st.tuples(st.sampled_from((-1, 1)), st.sampled_from(
    ((), ((0, 1),), ((1, 1),), ((2, 1),)))), min_size=1, max_size=3).map(
    lambda ts: oracle_normalize(ts, _XYZ)).filter(bool)
_st_statement = st.one_of(
    st.builds(IdSubst, st.integers(0, _XYZ - 1), _st_linear.map(lambda e: pack_terms(e, _XYZ))),
    st.builds(Multiply, _st_linear.map(lambda e: pack_terms(e, _XYZ))))

_X_MINUS_Y = ((1, ((0, 1),)), (-1, ((1, 1),)))
_X_PLUS_Y = ((1, ((0, 1),)), (1, ((1, 1),)))
# A leading statement and an input factor whose products cancel between
# terms that sit in different chunks: Q*(x-y) under x -> y is zero, and
# Q*(x+y) times x-y loses every x*y product.
_CANCELLERS = [
    (IdSubst(0, pack_terms(((1, ((1, 1),)),), _XYZ)), _X_MINUS_Y),
    (Multiply(pack_terms(_X_MINUS_Y, _XYZ)), _X_PLUS_Y),
]


@st.composite
def _cancelling_programs(draw):
    q = draw(_st_poly)
    lead = draw(st.sampled_from([None] + _CANCELLERS))
    if lead is None:
        statements = draw(st.lists(_st_statement, min_size=1, max_size=3))
        f = q
    else:
        statements = [lead[0]] + draw(st.lists(_st_statement, max_size=2))
        f = brute_multiply(q, lead[1], _XYZ)
    initial = [("F", pack_terms(f, _XYZ)), ("G", pack_terms(q, _XYZ))]
    return Program(SymbolTable(("x", "y", "z")), initial,
                   [Module(tuple(statements)), Module(())])


@given(_cancelling_programs())
@settings(max_examples=40, deadline=None)
def test_accumulator_grid_matches_the_oracle(program):
    expected = oracle_run_program(program)
    generated = set()
    for cfg in ACC_GRID:
        res = run_program(program, cfg)
        assert res.expressions == expected, cfg
        generated.add(tuple(m.terms_generated for m in res.module_metrics))
    assert len(generated) == 1


def test_products_that_all_cancel_leave_no_zero_term(monkeypatch):
    # Under x -> y, x*z and -y*z cancel completely (each in its own chunk at
    # chunk size 1), and all of H cancels; no run may carry a zero sum.
    program = _parse("symbols x,y,z; local F = x*z - y*z + z^2; local H = x - y; "
                     "id x = y; .sort .end")
    runs = []
    real_merge = sortmerge.merge_runs

    def recording(rs, *args, **kwargs):
        runs.extend(rs)
        return real_merge(rs, *args, **kwargs)

    monkeypatch.setattr(sortmerge, "merge_runs", recording)
    for cfg in ACC_GRID:
        del runs[:]
        res = run_program(program, cfg)
        assert unpack_terms(res.expressions["F"], 3) == ((1, ((2, 2),)),), cfg
        assert res.expressions["H"] == (), cfg
        assert res.module_metrics[0].terms_generated == 5
        assert runs and all(c for run in runs for c, _ in unflat(run)), cfg


def test_peak_memory_stays_far_below_one_raw_term_per_generated_term():
    # 38,760 generated terms combine to 680 as they are generated; the bare
    # .sort runs nowhere and generates none.  A raw term list costs well
    # over 100 bytes per generated term; the bound leaves room for the
    # accumulators, the runs and the chunk slices.
    program = _parse("symbols x,y,z,w; local F = (x+2*y-z+w)^14; .sort "
                     "id x = y-3*z+w+2; .sort .end")
    for nslaves in (0, 1):
        cfg = RunConfig(nslaves=nslaves)
        run_program(program, cfg)  # warm the rewriter's rhs-power cache
        tracemalloc.start()
        try:
            res = run_program(program, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        generated = sum(m.terms_generated for m in res.module_metrics)
        assert generated == 38760
        assert peak < 32 * generated, (nslaves, peak / generated)


# -- a module with no statements runs nowhere --------------------------------

_BARE_SORT = ("symbols x, y, z, w; local F = (x-y+3*z-3*w)^17; .sort "
              "id x = -2*y+z+2*w-1; .sort .end")


@pytest.mark.parametrize("backend", ["mp", "sm"])
@pytest.mark.parametrize("nslaves", [1, 2])
def test_a_bare_sort_sends_nothing(nslaves, backend):
    cfg = RunConfig(nslaves=nslaves, backend=backend)
    bare = run_program(_parse(_BARE_SORT), cfg)
    plain = run_program(_parse(_BARE_SORT.replace(".sort id", "id")), cfg)
    assert bare.expressions == plain.expressions
    assert bare.module_stats[0] == transport.TransportStats()
    assert bare.module_metrics[0] == PhaseMetrics(
        0, 0, 0, 0, 1140, 1140, {i: WorkerMetrics() for i in range(nslaves)})

    def counts(s):
        return s.messages_master_to_slave, s.messages_slave_to_master, s.handle_transfers

    assert counts(bare.stats) == counts(plain.stats)
    if nslaves == 1 and backend == "mp":
        # With two slaves the runs' bytes depend on which one got which chunk.
        assert bare.stats.serialized_bytes == plain.stats.serialized_bytes


_GRID_SAMPLE = [RunConfig(nslaves=n, chunk_size=c, backend=b, master_computes=mc)
                for n in (1, 2, 4, 8) for c in (1, 7, 1000) for b in ("mp", "sm")
                for mc in (False, True)]


@st.composite
def _padded_programs(draw):
    """A random program, and the same program with empty modules inserted."""
    initial = [(name, pack_terms(draw(_st_poly), _XYZ)) for name in ("F", "G")]
    modules = draw(st.lists(st.lists(_st_statement, min_size=1, max_size=2).map(
        lambda ss: Module(tuple(ss))), min_size=1, max_size=3))
    padded = list(modules)
    for _ in range(draw(st.integers(1, 3))):
        padded.insert(draw(st.integers(0, len(padded))), Module(()))
    symtab = SymbolTable(("x", "y", "z"))
    return Program(symtab, initial, modules), Program(symtab, initial, padded)


def _module_messages(res, nslaves):
    """Each module's messages per direction, the Shutdowns left out."""
    out = [(s.messages_master_to_slave, s.messages_slave_to_master) for s in res.module_stats]
    out[-1] = (out[-1][0] - nslaves, out[-1][1])
    return out


@given(_padded_programs(), st.sampled_from(_GRID_SAMPLE))
@settings(max_examples=40, deadline=None)
def test_empty_modules_change_nothing_but_their_own_records(programs, cfg):
    plain, padded = programs
    sorts = []
    real_send = transport.MasterEndpoint.send

    def counted(self, worker, msg):
        if msg.kind is transport.MessageKind.SORT:
            sorts.append(worker)
        return real_send(self, worker, msg)

    a = run_program(plain, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport.MasterEndpoint, "send", counted)
        b = run_program(padded, cfg)
    assert b.expressions == a.expressions == oracle_run_program(plain)
    assert len(sorts) == cfg.nslaves * len(plain.modules)
    kept = [i for i, m in enumerate(padded.modules) if m.statements]
    assert [b.module_metrics[i].terms_generated for i in kept] == \
        [m.terms_generated for m in a.module_metrics]
    messages = _module_messages(b, cfg.nslaves)
    if not cfg.master_computes:  # else the master takes a varying share of the chunks
        assert [messages[i] for i in kept] == _module_messages(a, cfg.nslaves)
    for i, m in enumerate(padded.modules):
        if not m.statements:
            assert messages[i] == (0, 0) and b.module_metrics[i].terms_generated == 0


def test_no_class_in_parterm_is_a_dataclass():
    # Every record is a NamedTuple: without bytecode each @dataclass costs
    # about 0.8 ms of setup_s, generating its methods from source at import.
    found = set()
    for info in pkgutil.iter_modules(parterm.__path__):
        module = importlib.import_module(f"parterm.{info.name}")
        found |= {name for name, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == set()


def test_import_parterm_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(parterm.__file__))
    code = ("import sys, parterm; "
            "print(sorted({'dataclasses', 'decimal', 'inspect', 'traceback'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"


def test_every_module_compiles_with_warnings_as_errors():
    # An invalid escape such as "\d" warns on each fresh compile, which a
    # run without bytecode repeats in every process; here it fails.  Every
    # module must also parse under the oldest grammar pyproject.toml admits.
    src = os.path.dirname(parterm.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh, warnings.catch_warnings():
                warnings.simplefilter("error")
                text = fh.read()
                compile(text, name, "exec", dont_inherit=True)
                ast.parse(text, name, feature_version=(3, 10))


def test_only_terms_reads_the_packed_layout():
    # Every other module calls terms' named functions, so a change of the
    # field width or the guard bits touches one module.
    layout = {"FIELD_BITS", "EXP_MASK", "field_shift", "guard_mask"}
    src = os.path.dirname(parterm.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "terms.py":
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                used = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if used in layout:
                    found.append(f"{name}:{node.lineno} {used}")
    assert not found


@pytest.mark.parametrize("cfg", [RunConfig(nslaves=2, chunk_size=1, backend="mp"),
                                 RunConfig(nslaves=1, chunk_size=1, master_computes=True),
                                 SEQ])
def test_every_record_a_run_returns_is_a_value(cfg):
    program = _parse("symbols x, y; local F = (x+y)^3; multiply x+y; .sort .end")
    res = run_program(program, cfg)
    (metrics,) = res.module_metrics
    assert metrics.workers and sum(w.processed for w in metrics.workers.values()) == 4
    for record in (res, metrics, *metrics.workers.values(), *res.module_stats, res.stats):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0)


def test_worker_metrics_add_field_by_field():
    assert WorkerMetrics(1, 2, 3, 4, 5) + WorkerMetrics(10, 20, 30, 40, 50) == \
        WorkerMetrics(11, 22, 33, 44, 55)


_BAD_CONFIGS = [
    ({"nslaves": -1}, ValueError, "nslaves must be >= 0, got -1"),
    ({"nslaves": MAX_SLAVES + 1}, SlaveCountError,
     f"nslaves {MAX_SLAVES + 1} exceeds the cap of {MAX_SLAVES} (4 per CPU, at least 64)"),
    ({"chunk_size": 0}, ValueError, "chunk_size must be >= 1, got 0"),
    ({"backend": "tcp"}, ValueError, "unknown backend 'tcp'"),
]


@pytest.mark.parametrize("bad, error, message", _BAD_CONFIGS,
                         ids=["negative-slaves", "over-cap", "zero-chunk", "backend"])
def test_run_config_rejects_a_bad_value_when_built_and_when_replaced(bad, error, message):
    for build in (lambda: RunConfig(**bad), lambda: RunConfig()._replace(**bad),
                  lambda: RunConfig._make({**RunConfig._field_defaults, **bad}.values())):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


def test_run_config_repr_is_unchanged():
    assert repr(RunConfig(nslaves=2, chunk_size=7, backend="mp", master_computes=True)) == \
        "RunConfig(nslaves=2, chunk_size=7, backend='mp', master_computes=True)"
    assert repr(RunConfig()) == \
        "RunConfig(nslaves=1, chunk_size=1000, backend='sm', master_computes=False)"
