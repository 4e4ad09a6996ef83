import random
import threading

import pytest

from parterm import rewrite, terms
from parterm.engine import (
    RunConfig,
    WorkerError,
    execute_parallel,
    execute_sequential,
    partition_chunks,
    run_program,
)
from parterm.parser import Module, Multiply, parse_program
from parterm.terms import add_expressions, pow_expression, symbol

from oracles import (
    algebra_apply_module,
    oracle_normalize,
    pack,
    pack_terms,
    random_expression,
    random_module,
    unpack_terms,
)

NSYM = 4


def _parse(text):
    return parse_program(text)


# -- sequential executor -----------------------------------------------------

def test_sequential_empty_module_is_identity():
    e = pack_terms(oracle_normalize([(1, ((0, 1),)), (4, ())], NSYM), NSYM)
    assert execute_sequential(e, Module(()), NSYM) == e


def test_sequential_difference_of_squares():
    e = add_expressions(symbol(0, 2), symbol(1, 2))
    m = Module((Multiply(add_expressions(symbol(0, 2), terms.negate_expression(symbol(1, 2)))),))
    assert unpack_terms(execute_sequential(e, m, 2), 2) == ((1, ((0, 2),)), (-1, ((1, 2),)))


def test_sequential_substitution_collapses_to_nine_terms():
    # (x+y+z)^8 with x -> y+z equals (2y+2z)^8: nine terms y^a z^b, a+b=8
    program = _parse("symbols x,y,z; local F = (x+y+z)^8; id x = y+z; .sort .end")
    (_, e), = program.initial
    assert len(e) == 45
    got = execute_sequential(e, program.modules[0], 3)
    expected = algebra_apply_module(e, program.modules[0], 3)
    assert got == expected
    assert len(got) == 9
    assert got == pow_expression(
        add_expressions(
            terms.multiply_expressions(terms.constant(2), symbol(1, 3)),
            terms.multiply_expressions(terms.constant(2), symbol(2, 3))), 8)


# -- chunk partition ---------------------------------------------------------

def test_partition_reconstructs_input():
    rng = random.Random(97)
    for _ in range(30):
        e = random_expression(rng, NSYM, rng.randint(0, 40))
        size = rng.choice([1, 2, 7, 1000])
        chunks = partition_chunks(e, size)
        assert all(c.terms for c in chunks)
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        joined = tuple(t for c in chunks for t in c.terms)
        assert joined == e


# -- parallel engine ---------------------------------------------------------

def test_single_slave_equals_sequential():
    program = _parse("symbols x,y; local F = (x+y)^3; id x = y+1; .sort .end")
    (_, e), = program.initial
    m = program.modules[0]
    expected = execute_sequential(e, m, 2)
    result, metrics, stats = execute_parallel(e, m, 2, RunConfig(nslaves=1, chunk_size=2))
    assert result == expected
    assert metrics.terms_in == len(e)
    assert metrics.terms_out == len(result)
    assert metrics.t_wall >= metrics.t_final_merge
    assert metrics.terms_out <= metrics.terms_generated


def test_five_chunks_over_four_slaves():
    program = _parse("symbols x,y; local F = (x+y)^4; id x = x+1; .sort .end")
    (_, e), = program.initial
    assert len(e) == 5
    m = program.modules[0]
    expected = execute_sequential(e, m, 2)
    result, metrics, _ = execute_parallel(
        e, m, 2, RunConfig(nslaves=4, chunk_size=1, backend="sm"))
    assert result == expected
    # priming hands every slave one of the five chunks
    assert all(metrics.terms_processed[i] >= 1 for i in range(4))
    assert sum(metrics.terms_processed.values()) == len(e)


@pytest.mark.parametrize("backend", ["mp", "sm"])
@pytest.mark.parametrize("master_computes", [False, True])
def test_grid_matches_sequential(backend, master_computes):
    rng = random.Random(101)
    for _ in range(10):
        e = random_expression(rng, NSYM, rng.randint(0, 30), max_exp=3)
        m = random_module(rng, NSYM)
        expected = execute_sequential(e, m, NSYM)
        for nslaves in (1, 2, 4):
            for chunk in (1, 7, 1000):
                cfg = RunConfig(nslaves=nslaves, chunk_size=chunk, backend=backend,
                                master_computes=master_computes)
                result, metrics, stats = execute_parallel(e, m, NSYM, cfg)
                assert result == expected
                assert sum(metrics.terms_processed.values()) == len(e)


def test_static_dispatch_gives_identical_results():
    rng = random.Random(103)
    for _ in range(10):
        e = random_expression(rng, NSYM, 25, max_exp=3)
        m = random_module(rng, NSYM)
        expected = execute_sequential(e, m, NSYM)
        cfg = RunConfig(nslaves=3, chunk_size=2, backend="sm", static_dispatch=True)
        result, _, _ = execute_parallel(e, m, NSYM, cfg)
        assert result == expected


def test_empty_expression_parallel():
    m = Module((Multiply(symbol(0, 1)),))
    result, metrics, _ = execute_parallel((), m, 1, RunConfig(nslaves=2))
    assert result == ()
    assert metrics.terms_in == metrics.terms_generated == metrics.terms_out == 0


def test_backend_equivalence_and_stats_exclusivity():
    program = _parse("symbols x,y,z; local F = (x+y+z)^5; id y = z-1; .sort .end")
    (_, e), = program.initial
    m = program.modules[0]
    out = {}
    for backend in ("mp", "sm"):
        result, _, stats = execute_parallel(
            e, m, 3, RunConfig(nslaves=2, chunk_size=4, backend=backend))
        out[backend] = result
        if backend == "mp":
            assert stats.serialized_bytes > 0 and stats.handle_transfers == 0
        else:
            assert stats.serialized_bytes == 0 and stats.handle_transfers > 0
            assert stats.handle_transfers == stats.messages
    assert out["mp"] == out["sm"]


def test_worker_failure_names_the_worker(monkeypatch):
    def boom(chunk_terms, m, nsymbols, seq):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(rewrite, "apply_module_to_chunk", boom)
    e = pack_terms(((1, ((0, 1),)), (2, ((1, 1),))), 2)
    m = Module((Multiply(symbol(0, 2)),))
    with pytest.raises(WorkerError, match=r"worker \d+ failed"):
        execute_parallel(e, m, 2, RunConfig(nslaves=2, chunk_size=1))


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
        import time
        time.sleep(0.02)
    assert threading.active_count() == before


def test_execute_parallel_rejects_sequential_sentinel():
    with pytest.raises(ValueError, match="nslaves >= 1"):
        execute_parallel((), Module(()), 1, RunConfig(nslaves=0))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(nslaves=-1)
    with pytest.raises(ValueError):
        RunConfig(chunk_size=0)
    with pytest.raises(ValueError):
        RunConfig(backend="tcp")


# -- whole programs ----------------------------------------------------------

def test_run_program_identity_module():
    program = _parse("symbols x,y; local F = x+y; .sort .end")
    result = run_program(program, RunConfig(nslaves=2))
    assert unpack_terms(result.expressions["F"], 2) == ((1, ((0, 1),)), (1, ((1, 1),)))


def test_run_program_two_module_composition():
    program = _parse("symbols x,y; local F = 1; multiply x+y; .sort multiply x-y; .sort .end")
    result = run_program(program, RunConfig(nslaves=2, chunk_size=1))
    assert unpack_terms(result.expressions["F"], 2) == ((1, ((0, 2),)), (-1, ((1, 2),)))
    assert len(result.module_metrics) == 2
    assert len(result.module_stats) == 2
    assert result.stats.messages == sum(s.messages for s in result.module_stats)


def test_run_program_sequential_sentinel():
    program = _parse("symbols x,y; local F = (x-y)^2; id x = y; .sort .end")
    seq = run_program(program, RunConfig(nslaves=0))
    par = run_program(program, RunConfig(nslaves=3, chunk_size=1))
    assert seq.expressions == par.expressions
    assert seq.stats.messages == 0


def test_run_program_multiple_locals():
    program = _parse(
        "symbols a,b; local F = (a+b)^2; local G = a-b; multiply a; .sort .end")
    result = run_program(program, RunConfig(nslaves=2, chunk_size=1))
    ref = run_program(program, RunConfig(nslaves=0))
    assert result.expressions == ref.expressions
    assert set(result.expressions) == {"F", "G"}


def test_config_grid_equality_over_programs():
    rng = random.Random(107)
    texts = [
        "symbols x,y,z; local F = (x+y+z)^4; id x = y-z+2; .sort multiply x+1; .sort .end",
        "symbols a,b; local F = (a-b)^5; local G = a*b+1; id a = b+1; .sort .end",
    ]
    for text in texts:
        program = _parse(text)
        reference = run_program(program, RunConfig(nslaves=0)).expressions
        for _ in range(6):
            cfg = RunConfig(
                nslaves=rng.choice([1, 2, 4, 8]),
                chunk_size=rng.choice([1, 7, 1000]),
                backend=rng.choice(["mp", "sm"]),
                master_computes=rng.choice([False, True]),
            )
            assert run_program(program, cfg).expressions == reference


def test_transport_must_match_the_program_symbols():
    from parterm.transport import make_transport
    with pytest.raises(ValueError, match="symbol count"):
        execute_parallel((), Module(()), 2, RunConfig(nslaves=1),
                         transport=make_transport("mp", 1, 3))


def test_exponent_overflow_in_a_worker_is_reported():
    top = terms.EXP_MASK
    e = ((1, pack(((0, top),), 1)),)
    m = Module((Multiply(symbol(0, 1)),))
    with pytest.raises(terms.ExponentOverflowError):
        execute_sequential(e, m, 1)
    with pytest.raises(WorkerError, match="ExponentOverflowError"):
        execute_parallel(e, m, 1, RunConfig(nslaves=2, chunk_size=1))


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
    seq = run_program(program, RunConfig(nslaves=0)).expressions
    mp = run_program(program, RunConfig(nslaves=2, chunk_size=1, backend="mp"))
    assert mp.expressions == seq
    assert mp.stats.serialized_bytes > 0
    assert unpack_terms(seq["F"], 2) == ((1, ((0, top), (1, 1))), (2, ((1, top),)))
