import hashlib
import math

from parterm.engine import RunConfig, run_program
from parterm.parser import parse_program

from generators import expand, grid_program, substitute_chain
from oracles import oracle_run_program


def test_generation_is_byte_identical():
    for make in (expand, substitute_chain):
        for seed in (0, 1, 42):
            assert make(3, seed) == make(3, seed)


def test_seeds_vary_the_program():
    texts = {substitute_chain(2, seed) for seed in range(8)}
    assert len(texts) > 1
    texts = {expand(2, seed) for seed in range(8)}
    assert len(texts) > 1


def test_generators_emit_the_pinned_texts():
    # Hashes taken from the texts that criterion 1 and the perf tests ran
    # before the generators moved into the tests.
    grid = "".join(grid_program(seed) for seed in range(100))
    assert hashlib.sha256(grid.encode()).hexdigest() == \
        "a382935c7252a62ad8e6a8c815c57bea3e42f6de4973093d230f6fa326856294"
    assert hashlib.sha256(expand(14, 0).encode()).hexdigest() == \
        "41d2f3d991d045a6e1527e26b03e495f0485e30a3ef42ceff322d458ea3b9cfb"


def test_expand_scale_two_first_module_has_ten_terms():
    program = parse_program(expand(2, 0))
    result = run_program(program, RunConfig(nslaves=2, chunk_size=3))
    assert result.module_metrics[0].terms_out == 10  # C(5,3) for (x+y+z+w)^2


def test_expand_generated_terms_follow_the_closed_form():
    # The substitution module generates C(scale+6, 6) raw terms.
    for scale in (1, 2, 3, 4):
        program = parse_program(expand(scale, 3))
        result = run_program(program, RunConfig(nslaves=2, chunk_size=4))
        assert result.module_metrics[1].terms_generated == math.comb(scale + 6, 6)


def test_expand_scale_for_million_term_runs():
    # documents the bench sizing: scale 28 clears a million generated terms
    assert math.comb(28 + 6, 6) == 1_344_904


def test_substitute_chain_parses_and_runs():
    for seed in range(5):
        text = substitute_chain(1, seed)
        program = parse_program(text)
        assert len(program.modules) == 1
        seq = run_program(program, RunConfig(nslaves=0)).expressions
        par = run_program(program, RunConfig(nslaves=2, chunk_size=1)).expressions
        assert seq == par == oracle_run_program(program)

