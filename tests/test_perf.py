"""Soft performance checks, excluded from correctness runs.

Run explicitly with ``pytest -m perf``.  These assert *tendencies* of the
engine (an idle master, cheaper zero-copy transport) that hold on healthy
builds but depend on machine load, so they are not part of the default gate.
"""

import marshal
from statistics import median_low
from time import perf_counter

import pytest

from parterm import rewrite
from parterm.bench import measure
from parterm.engine import RunConfig, run_program
from parterm.parser import parse_program
from parterm.rewrite import apply_module_to_chunk
from parterm.terms import (EXP_MASK, ExponentOverflowError, field_max, field_shift, guard_mask,
                          pow_expression, sorted_flat)
from parterm.transport import deserialize_terms, serialize_terms

from generators import expand
from oracles import unflat

pytestmark = pytest.mark.perf


def test_master_is_almost_idle_without_participation():
    # On a compute-heavy module the non-participating master should spend
    # under 5% of the wall time on anything besides dispatch and the merge.
    program = parse_program(expand(14, 0))
    res = run_program(program, RunConfig(nslaves=2, chunk_size=200, backend="sm"))
    metrics = res.module_metrics[1]  # the substitution module
    other = metrics.master_busy - metrics.t_distribute - metrics.t_final_merge
    assert other <= 0.05 * metrics.t_wall, (
        f"master other-busy {other} vs wall {metrics.t_wall}")


def test_zero_copy_backend_is_not_slower_at_desk_scale():
    # Product-chain workload: worker runs carry thousands of terms, so the
    # marshalling backend pays a visible structural cost.  ``measure``
    # interleaves the runs, so machine-load drift hits both backends alike.
    text = ("symbols x,y,z,w;\nlocal F = (x+y+z+w)^20;\n"
            + "multiply (x+y+z+w);\n.sort\n" * 3 + ".end\n")
    configs = [RunConfig(nslaves=2, chunk_size=200, backend=b) for b in ("mp", "sm")]
    mp, sm = measure(parse_program(text), configs, repeats=5)
    assert median_low(wall for wall, *_ in sm) <= median_low(wall for wall, *_ in mp)


def test_power_of_a_linear_form_parses_in_time_proportional_to_its_output():
    # 23,426 output terms: the multinomial expansion takes about 0.03 s,
    # repeated multiplication about 0.6 s.  Best of three.
    text = "symbols x,y,z,w;\nlocal F = (3*x-2*y+z+2*w)^50;\n.sort\n.end\n"
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        parse_program(text)
        best = min(best, perf_counter() - start)
    assert best < 0.2, f"(3x-2y+z+2w)^50 parsed in {best:.3f} s"


def test_mp_round_trip_costs_at_most_three_marshal_round_trips():
    # 5,456 terms.  The engine's flat (coeff, mono, ...) payload goes out as
    # one marshal.dumps and comes back as one marshal.loads, checked by one
    # more dumps: about 1.1x marshal's round trip of the same terms as
    # 5,456 pairs on a 2-core host.  Flattening the pairs on encode and
    # rebuilding them on decode cost 1.6-1.9x; a codec that walked the terms
    # in Python, one int.to_bytes and one int.from_bytes per monomial, 4-7x.
    # Interleaved best of five each, so a change of host speed hits both
    # alike.
    program = parse_program("symbols x,y,z,w;\nlocal F = (3*x-2*y+z+2*w)^30;\n.sort\n.end\n")
    payload = program.initial[0][1]
    pairs = unflat(payload)
    nsymbols = len(program.symtab)
    assert len(pairs) == 5456 and len(payload) == 2 * 5456

    def timed(round_trip, expected):
        start = perf_counter()
        got = round_trip()
        elapsed = perf_counter() - start
        assert got == expected
        return elapsed

    mp_s = marshal_s = float("inf")
    for _ in range(5):
        mp_s = min(mp_s, timed(
            lambda: deserialize_terms(serialize_terms(payload, nsymbols), nsymbols), payload))
        marshal_s = min(marshal_s, timed(lambda: marshal.loads(marshal.dumps(pairs)), pairs))
    assert mp_s <= 3 * marshal_s, f"mp {mp_s:.4f} s, marshal {marshal_s:.4f} s"


def test_substitution_by_horner_beats_the_per_term_expansion_twice():
    # The substitute-expand shape, one 1,140-term chunk: Horner's rule makes
    # about 20,500 products, the per-term expansion 100,947.  Both start with
    # every power of rhs built.  Interleaved best of five each.
    program = parse_program("symbols x,y,z,w;\nlocal F = (x-y+3*z-3*w)^17;\n.sort\n"
                            "id x = -2*y+z+2*w-1;\n.sort\n.end\n")
    batch = program.initial[0][1]
    chunk = unflat(batch)
    module = program.modules[-1]
    s = module.statements[0]
    shift = field_shift(s.target, 4)
    powers = [unflat(pow_expression(s.rhs, n)) for n in range(18)]

    def per_term(acc):
        get = acc.get
        for coeff, mono in chunk:
            n = (mono >> shift) & EXP_MASK
            mono -= n << shift
            for c, m in powers[n]:
                m += mono
                acc[m] = get(m, 0) + coeff * c

    expected = {}
    per_term(expected)
    expected = sorted_flat(expected)
    apply_module_to_chunk(batch, module, 4, {})

    def timed(rewrite_chunk):
        acc = {}
        start = perf_counter()
        rewrite_chunk(acc)
        elapsed = perf_counter() - start
        assert sorted_flat(acc) == expected
        return elapsed

    horner_s = per_term_s = float("inf")
    for _ in range(5):
        horner_s = min(horner_s, timed(lambda acc: apply_module_to_chunk(batch, module, 4, acc)))
        per_term_s = min(per_term_s, timed(per_term))
    assert 2 * horner_s <= per_term_s, f"Horner {horner_s:.4f} s, per term {per_term_s:.4f} s"


def test_a_cold_substitution_costs_little_more_than_a_warm_one():
    # The substitute-expand shape again.  From empty caches the rewriter
    # builds only rhs^1 and rhs^0, the powers Horner's rule multiplies by, so
    # the first rewrite of the chunk, which every fresh process pays, takes
    # about what a repeat does.  Building every power up to rhs^17 for its
    # size and guard bound made it about 1.6x.  Interleaved best of five each.
    program = parse_program("symbols x,y,z,w;\nlocal F = (x-y+3*z-3*w)^17;\n.sort\n"
                            "id x = -2*y+z+2*w-1;\n.sort\n.end\n")
    batch = program.initial[0][1]
    module = program.modules[-1]
    caches = [f for f in vars(rewrite).values() if hasattr(f, "cache_clear")]

    def timed():
        start = perf_counter()
        apply_module_to_chunk(batch, module, 4, {})
        return perf_counter() - start

    cold_s = warm_s = float("inf")
    for _ in range(5):
        for cached in caches:
            cached.cache_clear()
        cold_s = min(cold_s, timed())
        warm_s = min(warm_s, timed())
    assert cold_s <= 1.25 * warm_s, f"cold {cold_s:.4f} s, warm {warm_s:.4f} s"


def test_a_last_multiply_runs_factor_major_no_slower_than_term_major():
    # One 5,456-term chunk times a 4-term factor.  The rewriter's guard pass
    # and then one pass over the chunk per factor term run about 1.17x faster
    # than one pass over the chunk with each term's check and products inside.
    # Both read the chunk as the engine holds it, flat, two elements a term.
    # Interleaved best of five each.
    program = parse_program("symbols x,y,z,w;\nlocal F = (3*x-2*y+z+2*w)^30;\n"
                            "multiply x-3*y+2*z+w;\n.sort\n.end\n")
    batch = program.initial[0][1]
    module = program.modules[0]
    factor = module.statements[0].factor
    guard, bound = guard_mask(4), field_max(factor)
    assert len(batch) // 2 == 5456 and len(factor) // 2 == 4
    factor_terms = unflat(factor)

    def term_major(acc):
        get = acc.get
        it = iter(batch)
        for coeff, mono in zip(it, it):
            if (mono + bound) & guard:
                raise ExponentOverflowError()
            for c, m in factor_terms:
                m += mono
                acc[m] = get(m, 0) + coeff * c

    expected = {}
    term_major(expected)
    expected = sorted_flat(expected)
    apply_module_to_chunk(batch, module, 4, {})

    def timed(rewrite_chunk):
        acc = {}
        start = perf_counter()
        rewrite_chunk(acc)
        elapsed = perf_counter() - start
        assert sorted_flat(acc) == expected
        return elapsed

    factor_s = term_s = float("inf")
    for _ in range(5):
        factor_s = min(factor_s, timed(lambda acc: apply_module_to_chunk(batch, module, 4, acc)))
        term_s = min(term_s, timed(term_major))
    assert factor_s <= term_s, f"factor-major {factor_s:.4f} s, term-major {term_s:.4f} s"
