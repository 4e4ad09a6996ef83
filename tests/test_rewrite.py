import random

import pytest

from parterm import terms
from parterm.parser import IdSubst, Module, Multiply
from parterm.rewrite import apply_module_to_chunk, apply_module_to_term, apply_statement
from parterm.terms import add_expressions, normalize

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


def test_id_subst_expands_power():
    # x -> (a+b) applied to 5x^2 over symbols (x, a, b)
    stmt = IdSubst(0, _sym_expr(3, 1, 2))
    got = apply_statement((5, pack(((0, 2),), 3)), stmt, 3)
    assert len(got) == 3
    assert normalize(got) == pack_terms(
        ((5, ((1, 2),)), (10, ((1, 1), (2, 1))), (5, ((2, 2),))), 3)


def test_id_subst_absent_pattern_is_identity():
    stmt = IdSubst(0, add_expressions(terms.symbol(0, 2), terms.constant(1)))
    t = (7, pack(((1, 1),), 2))
    assert apply_statement(t, stmt, 2) == [t]


def test_multiply_distributes():
    stmt = Multiply(add_expressions(terms.symbol(0, 2),
                                    terms.negate_expression(terms.symbol(1, 2))))
    got = apply_statement((2, pack(((0, 1),), 2)), stmt, 2)
    assert got == list(pack_terms([(2, ((0, 2),)), (-2, ((0, 1), (1, 1)))], 2))


def test_id_subst_keeps_rest_of_term():
    # x -> y+1 on 3*x^2*z keeps the z factor on every generated term
    stmt = IdSubst(0, add_expressions(terms.symbol(1, 3), terms.constant(1)))
    got = apply_statement((3, pack(((0, 2), (2, 1)), 3)), stmt, 3)
    assert normalize(got) == pack_terms(oracle_normalize(
        [(3, ((1, 2), (2, 1))), (6, ((1, 1), (2, 1))), (3, ((2, 1),))], 3), 3)


def test_id_subst_reads_the_largest_exponent():
    # x^(2**32 - 1) * y with x -> z: the whole top field moves to z
    top = terms.EXP_MASK
    stmt = IdSubst(0, terms.symbol(2, 3))
    got = apply_statement((1, pack(((0, top), (1, 1)), 3)), stmt, 3)
    assert got == [(1, pack(((1, 1), (2, top)), 3))]


def test_rewrite_overflow_raises_instead_of_wrapping():
    top = terms.EXP_MASK
    with pytest.raises(terms.ExponentOverflowError):
        apply_statement((1, pack(((1, top),), 2)),
                        Multiply(add_expressions(terms.symbol(1, 2), terms.ONE)), 2)
    with pytest.raises(terms.ExponentOverflowError):
        apply_statement((1, pack(((0, 1), (1, top)), 2)), IdSubst(0, terms.symbol(1, 2)), 2)


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
    batch = apply_module_to_chunk(chunk, m, 2)
    assert len(batch) == 4
    assert normalize(batch) == algebra_apply_module(normalize(chunk), m, 2)
