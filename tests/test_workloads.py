import math

import pytest

from parterm.engine import RunConfig, run_program
from parterm.parser import parse_program
from parterm.workloads import generate_workload

from oracles import oracle_run_program


def test_generation_is_byte_identical():
    for kind in ("expand", "substitute-chain"):
        for seed in (0, 1, 42):
            a = generate_workload(kind, 3, seed)
            b = generate_workload(kind, 3, seed)
            assert a == b


def test_seeds_vary_the_program():
    texts = {generate_workload("substitute-chain", 2, seed) for seed in range(8)}
    assert len(texts) > 1
    texts = {generate_workload("expand", 2, seed) for seed in range(8)}
    assert len(texts) > 1


def test_expand_scale_two_first_module_has_ten_terms():
    program = parse_program(generate_workload("expand", 2, 0))
    result = run_program(program, RunConfig(nslaves=2, chunk_size=3))
    assert result.module_metrics[0].terms_out == 10  # C(5,3) for (x+y+z+w)^2


def test_expand_generated_terms_follow_the_closed_form():
    # The substitution module generates C(scale+6, 6) raw terms.
    for scale in (1, 2, 3, 4):
        program = parse_program(generate_workload("expand", scale, 3))
        result = run_program(program, RunConfig(nslaves=2, chunk_size=4))
        assert result.module_metrics[1].terms_generated == math.comb(scale + 6, 6)


def test_expand_scale_for_million_term_runs():
    # documents the bench sizing: scale 28 clears a million generated terms
    assert math.comb(28 + 6, 6) == 1_344_904


def test_substitute_chain_parses_and_runs():
    for seed in range(5):
        text = generate_workload("substitute-chain", 1, seed)
        program = parse_program(text)
        assert len(program.modules) == 1
        seq = run_program(program, RunConfig(nslaves=0)).expressions
        par = run_program(program, RunConfig(nslaves=2, chunk_size=1)).expressions
        assert seq == par == oracle_run_program(program)


def test_generator_validation():
    with pytest.raises(ValueError, match="scale"):
        generate_workload("expand", 0)
    with pytest.raises(ValueError, match="unknown workload kind"):
        generate_workload("matrix", 2)
