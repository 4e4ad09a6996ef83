import random

import pytest

from parterm import terms
from parterm.parser import IdSubst, Module, Multiply
from parterm.rewrite import apply_module_to_chunk, apply_module_to_term
from parterm.terms import add_expressions, normalize, sorted_terms

from oracles import (
    algebra_apply_module,
    oracle_normalize,
    pack,
    pack_terms,
    random_expression,
    random_module,
)

NSYM = 4


def _sym_expr(nsym, *sids):
    e = terms.ZERO
    for sid in sids:
        e = add_expressions(e, terms.symbol(sid, nsym))
    return e


def _one_statement(t, s, nsym):
    """One statement on one term through the chunk rewriter: the number of
    generated terms and the accumulator they were added into."""
    acc = {}
    generated = apply_module_to_chunk((t,), Module((s,)), nsym, acc)
    return generated, acc


def test_id_subst_expands_power():
    # x -> (a+b) applied to 5x^2 over symbols (x, a, b)
    stmt = IdSubst(0, _sym_expr(3, 1, 2))
    generated, acc = _one_statement((5, pack(((0, 2),), 3)), stmt, 3)
    assert generated == 3
    assert sorted_terms(acc) == pack_terms(
        ((5, ((1, 2),)), (10, ((1, 1), (2, 1))), (5, ((2, 2),))), 3)


def test_id_subst_absent_pattern_is_identity():
    stmt = IdSubst(0, add_expressions(terms.symbol(0, 2), terms.constant(1)))
    t = (7, pack(((1, 1),), 2))
    assert _one_statement(t, stmt, 2) == (1, {t[1]: t[0]})


def test_multiply_distributes():
    stmt = Multiply(add_expressions(terms.symbol(0, 2),
                                    terms.negate_expression(terms.symbol(1, 2))))
    generated, acc = _one_statement((2, pack(((0, 1),), 2)), stmt, 2)
    assert generated == 2
    assert acc == {m: c for c, m in pack_terms([(2, ((0, 2),)), (-2, ((0, 1), (1, 1)))], 2)}


def test_id_subst_keeps_rest_of_term():
    # x -> y+1 on 3*x^2*z keeps the z factor on every generated term
    stmt = IdSubst(0, add_expressions(terms.symbol(1, 3), terms.constant(1)))
    _, acc = _one_statement((3, pack(((0, 2), (2, 1)), 3)), stmt, 3)
    assert sorted_terms(acc) == pack_terms(oracle_normalize(
        [(3, ((1, 2), (2, 1))), (6, ((1, 1), (2, 1))), (3, ((2, 1),))], 3), 3)


def test_id_subst_reads_the_largest_exponent():
    # x^(2**32 - 1) * y with x -> z: the whole top field moves to z
    top = terms.EXP_MASK
    stmt = IdSubst(0, terms.symbol(2, 3))
    got = _one_statement((1, pack(((0, top), (1, 1)), 3)), stmt, 3)
    assert got == (1, {pack(((1, 1), (2, top)), 3): 1})


def test_rewrite_overflow_raises_instead_of_wrapping():
    top = terms.EXP_MASK
    with pytest.raises(terms.ExponentOverflowError):
        _one_statement((1, pack(((1, top),), 2)),
                       Multiply(add_expressions(terms.symbol(1, 2), terms.ONE)), 2)
    with pytest.raises(terms.ExponentOverflowError):
        _one_statement((1, pack(((0, 1), (1, top)), 2)), IdSubst(0, terms.symbol(1, 2)), 2)


def test_overflow_in_an_intermediate_or_the_final_statement_raises():
    # Over symbols (x, y): y^(2**32 - 1) overflows once anything multiplies
    # it by y.  The harmless statement maps x -> x + 1.
    top = terms.EXP_MASK
    harmless = IdSubst(0, add_expressions(terms.symbol(0, 2), terms.ONE))
    overflowing = Multiply(add_expressions(terms.symbol(1, 2), terms.ONE))
    chunk = ((1, pack(((0, 1),), 2)), (1, pack(((0, 1), (1, top)), 2)))
    for m in (Module((overflowing, harmless)), Module((harmless, overflowing)),
              Module((harmless, overflowing, harmless))):
        with pytest.raises(terms.ExponentOverflowError):
            apply_module_to_chunk(chunk, m, 2, {})


def test_empty_module_is_identity():
    t = (9, pack(((0, 3), (2, 1)), 3))
    assert apply_module_to_term(t, Module(()), 3) == [t]


def test_two_step_composition():
    # {id x = a+b; multiply c;} on x gives {ac, bc}
    m = Module((IdSubst(0, _sym_expr(4, 1, 2)), Multiply(terms.symbol(3, 4))))
    got = apply_module_to_term((1, pack(((0, 1),), 4)), m, 4)
    assert len(got) == 2
    assert normalize(got) == pack_terms(((1, ((1, 1), (3, 1))), (1, ((2, 1), (3, 1)))), 4)


def test_per_term_pipeline_matches_expression_algebra():
    rng = random.Random(23)
    for _ in range(150):
        e = random_expression(rng, NSYM, rng.randint(0, 8), max_exp=3)
        m = random_module(rng, NSYM)
        raw = []
        for t in e:
            raw.extend(apply_module_to_term(t, m, NSYM))
        assert normalize(raw) == algebra_apply_module(e, m, NSYM)


def test_linearity_in_the_coefficient():
    rng = random.Random(29)
    for _ in range(50):
        mono = pack(tuple((sid, rng.randint(1, 3)) for sid in range(NSYM)
                          if rng.random() < 0.5), NSYM)
        m = random_module(rng, NSYM)
        base = apply_module_to_term((1, mono), m, NSYM)
        scaled = apply_module_to_term((-7, mono), m, NSYM)
        assert scaled == [(-7 * c, mm) for c, mm in base]


def test_chunk_application_matches_expression_algebra():
    m = Module((Multiply(_sym_expr(2, 0, 1)),))
    chunk = ((1, terms.UNIT), (2, pack(((0, 1),), 2)))
    acc = {}
    assert apply_module_to_chunk(chunk, m, 2, acc) == 4
    assert sorted_terms(acc) == algebra_apply_module(normalize(chunk), m, 2)


def test_empty_module_adds_the_chunk():
    chunk = pack_terms(((2, ((0, 1),)), (-1, ())), 2)
    acc = {pack(((0, 1),), 2): -2}
    assert apply_module_to_chunk(chunk, Module(()), 2, acc) == 2
    assert acc == {pack(((0, 1),), 2): 0, terms.UNIT: -1}
    assert sorted_terms(acc) == pack_terms(((-1, ()),), 2)


def test_chunks_accumulate_and_cancel_across_calls():
    # Chunk by chunk into one accumulator equals the whole expression at
    # once; {multiply x-y} on x+y cancels x*y between the two chunks.
    m = Module((Multiply(add_expressions(terms.symbol(0, 2),
                                         terms.negate_expression(terms.symbol(1, 2)))),))
    e = _sym_expr(2, 0, 1)
    acc = {}
    generated = sum(apply_module_to_chunk((t,), m, 2, acc) for t in e)
    assert generated == 4
    assert sorted_terms(acc) == pack_terms(((1, ((0, 2),)), (-1, ((1, 2),))), 2)
    rng = random.Random(31)
    for _ in range(100):
        e = random_expression(rng, NSYM, rng.randint(0, 8), max_exp=3)
        m = random_module(rng, NSYM)
        whole, chunked = {}, {}
        n = apply_module_to_chunk(e, m, NSYM, whole)
        size = rng.randint(1, 3)
        assert n == sum(apply_module_to_chunk(e[i:i + size], m, NSYM, chunked)
                        for i in range(0, len(e), size))
        assert sorted_terms(chunked) == sorted_terms(whole) == algebra_apply_module(e, m, NSYM)
