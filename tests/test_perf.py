"""Soft performance checks, excluded from correctness runs.

Run explicitly with ``pytest -m perf``.  These assert *tendencies* of the
engine (an idle master, cheaper zero-copy transport) that hold on healthy
builds but depend on machine load, so they are not part of the default gate.
"""

import marshal
from statistics import median_low
from time import perf_counter

import pytest

from parterm.engine import RunConfig, run_program
from parterm.parser import parse_program
from parterm.rewrite import apply_module_to_chunk
from parterm.terms import EXP_MASK, field_shift, pow_expression, sorted_terms
from parterm.transport import deserialize_terms, serialize_terms
from parterm.workloads import generate_workload

pytestmark = pytest.mark.perf


def test_master_is_almost_idle_without_participation():
    # On a compute-heavy module the non-participating master should spend
    # under 5% of the wall time on anything besides dispatch and the merge.
    program = parse_program(generate_workload("expand", 14, 0))
    res = run_program(program, RunConfig(nslaves=2, chunk_size=200, backend="sm"))
    metrics = res.module_metrics[1]  # the substitution module
    other = metrics.master_busy - metrics.t_distribute - metrics.t_final_merge
    assert other <= 0.05 * metrics.t_wall, (
        f"master other-busy {other} vs wall {metrics.t_wall}")


def test_zero_copy_backend_is_not_slower_at_desk_scale():
    # Product-chain workload: worker runs carry thousands of terms, so the
    # marshalling backend pays a visible structural cost.  Repeats are
    # interleaved so machine-load drift hits both backends alike.
    text = ("symbols x,y,z,w;\nlocal F = (x+y+z+w)^20;\n"
            + "multiply (x+y+z+w);\n.sort\n" * 3 + ".end\n")
    program = parse_program(text)
    walls = {"mp": [], "sm": []}
    for rep in range(6):
        for backend in ("mp", "sm"):
            res = run_program(program, RunConfig(nslaves=2, chunk_size=200, backend=backend))
            if rep:
                walls[backend].append(sum(m.t_wall for m in res.module_metrics))
    assert median_low(walls["sm"]) <= median_low(walls["mp"])


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


def test_mp_round_trip_costs_at_most_twelve_marshal_round_trips():
    # 5,456 terms.  Each monomial crosses as one int.to_bytes and one
    # int.from_bytes: about 4-7x marshal's round trip on a 2-core host, where
    # unpacking and packing (symbol id, exponent) factors cost 17-28x.
    # Interleaved best of five each, so a change of host speed hits both alike.
    program = parse_program("symbols x,y,z,w;\nlocal F = (3*x-2*y+z+2*w)^30;\n.sort\n.end\n")
    payload = program.initial[0][1]
    nsymbols = len(program.symtab)
    assert len(payload) == 5456

    def timed(round_trip):
        start = perf_counter()
        got = round_trip()
        elapsed = perf_counter() - start
        assert got == payload
        return elapsed

    mp_s = marshal_s = float("inf")
    for _ in range(5):
        mp_s = min(mp_s, timed(
            lambda: deserialize_terms(serialize_terms(payload, nsymbols), nsymbols)))
        marshal_s = min(marshal_s, timed(lambda: marshal.loads(marshal.dumps(payload))))
    assert mp_s <= 12 * marshal_s, f"mp {mp_s:.4f} s, marshal {marshal_s:.4f} s"


def test_substitution_by_horner_beats_the_per_term_expansion_twice():
    # The substitute-expand shape, one 1,140-term chunk: Horner's rule makes
    # about 20,500 products, the per-term expansion 100,947.  Both start with
    # every power of rhs built.  Interleaved best of five each.
    program = parse_program("symbols x,y,z,w;\nlocal F = (x-y+3*z-3*w)^17;\n.sort\n"
                            "id x = -2*y+z+2*w-1;\n.sort\n.end\n")
    chunk = program.initial[0][1]
    module = program.modules[-1]
    s = module.statements[0]
    shift = field_shift(s.target, 4)
    powers = [pow_expression(s.rhs, n) for n in range(18)]

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
    expected = sorted_terms(expected)
    apply_module_to_chunk(chunk, module, 4, {})

    def timed(rewrite_chunk):
        acc = {}
        start = perf_counter()
        rewrite_chunk(acc)
        elapsed = perf_counter() - start
        assert sorted_terms(acc) == expected
        return elapsed

    horner_s = per_term_s = float("inf")
    for _ in range(5):
        horner_s = min(horner_s, timed(lambda acc: apply_module_to_chunk(chunk, module, 4, acc)))
        per_term_s = min(per_term_s, timed(per_term))
    assert 2 * horner_s <= per_term_s, f"Horner {horner_s:.4f} s, per term {per_term_s:.4f} s"
