import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parterm import rewrite, terms
from parterm.engine import RunConfig, run_program
from parterm.parser import IdSubst, Module, Multiply, parse_program
from parterm.rewrite import apply_module_to_chunk, apply_module_to_term
from parterm.terms import add_expressions, normalize, pow_expression, sorted_flat

from oracles import (
    algebra_apply_module,
    brute_power,
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


def _sym_expr(nsym, *sids):
    e = terms.ZERO
    for sid in sids:
        e = add_expressions(e, terms.symbol(sid, nsym))
    return e


def _one_statement(t, s, nsym):
    """One statement on one term, the one-term chunk ``(coeff, mono)``,
    through the chunk rewriter: the number of generated terms and the
    accumulator they were added into."""
    acc = {}
    generated = apply_module_to_chunk(t, Module((s,)), nsym, acc)
    return generated, acc

def test_id_subst_expands_power():
    # x -> (a+b) applied to 5x^2 over symbols (x, a, b)
    stmt = IdSubst(0, _sym_expr(3, 1, 2))
    generated, acc = _one_statement((5, pack(((0, 2),), 3)), stmt, 3)
    assert generated == 3
    assert sorted_flat(acc) == pack_terms(
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
    assert acc == {m: c for c, m in unflat(pack_terms([(2, ((0, 2),)), (-2, ((0, 1), (1, 1)))], 2))}


def test_id_subst_keeps_rest_of_term():
    # x -> y+1 on 3*x^2*z keeps the z factor on every generated term
    stmt = IdSubst(0, add_expressions(terms.symbol(1, 3), terms.constant(1)))
    _, acc = _one_statement((3, pack(((0, 2), (2, 1)), 3)), stmt, 3)
    assert sorted_flat(acc) == pack_terms(oracle_normalize(
        [(3, ((1, 2), (2, 1))), (6, ((1, 1), (2, 1))), (3, ((2, 1),))], 3), 3)


def _counted_products(monkeypatch):
    """Record every call of the helper that multiplies a partial sum by a
    power of rhs: (partial sum, power, target, products made)."""
    calls = []
    times = rewrite._times

    def counted(h, power, out):
        calls.append((h, power, out, len(h) * len(power) // 2))
        times(h, power, out)

    monkeypatch.setattr(rewrite, "_times", counted)
    return calls


def test_id_subst_reads_the_largest_exponent(monkeypatch):
    # x^(2**32 - 1) * y with x -> z: the whole top field moves to z
    top = terms.EXP_MASK
    stmt = IdSubst(0, terms.symbol(2, 3))
    got = _one_statement((1, pack(((0, top), (1, 1)), 3)), stmt, 3)
    assert got == (1, {pack(((1, 1), (2, top)), 3): 1})
    # With a second term at x^1, Horner's rule jumps the gap with one power,
    # rhs^(2**32 - 2), and then multiplies the sum by rhs once.
    calls = _counted_products(monkeypatch)
    chunk = (1, pack(((0, top), (1, 1)), 3), 2, pack(((0, 1),), 3))
    acc = {}
    assert apply_module_to_chunk(chunk, Module((stmt,)), 3, acc) == 2
    assert acc == {pack(((1, 1), (2, top)), 3): 1, pack(((2, 1),), 3): 2}
    assert [power for _, power, _, _ in calls] == [pow_expression(stmt.rhs, top - 1),
                                                  stmt.rhs]


# The substitute-expand shape: one 1,140-term chunk whose x-degrees run 0..17.
DENSE = parse_program("symbols x,y,z,w;\nlocal F = (x-y+3*z-3*w)^17;\n.sort\n"
                      "id x = -2*y+z+2*w-1;\n.sort\n.end\n")


def test_dense_substitution_shares_the_expansion_of_neighbouring_degrees(monkeypatch):
    chunk = DENSE.initial[0][1]
    module = DENSE.modules[-1]
    assert len(chunk) // 2 == 1140
    calls = _counted_products(monkeypatch)
    acc = {}
    assert apply_module_to_chunk(chunk, module, 4, acc) == 100947
    assert sum(made for *_, made in calls) == 20520  # the direct expansion makes 100,947
    assert sorted_flat(acc) == algebra_apply_module(chunk, module, 4)
    # The count means the direct expansion's count in every configuration.
    for cfg in (RunConfig(nslaves=0), RunConfig(nslaves=2, chunk_size=300)):
        assert run_program(DENSE, cfg).module_metrics[-1].terms_generated == 100947


def _cold_pow_calls(monkeypatch):
    """Empty the rewriter's caches and record the exponent of every power
    ``terms.pow_expression`` builds from then on."""
    for cached in (rewrite._rhs_power, rewrite._rhs_bound, rewrite._linear):
        cached.cache_clear()
    calls = []
    pow_expression = terms.pow_expression

    def counted(a, n):
        calls.append(n)
        return pow_expression(a, n)

    monkeypatch.setattr(terms, "pow_expression", counted)
    return calls


def test_dense_substitution_builds_only_the_powers_it_multiplies_by(monkeypatch):
    # Horner's rule steps by rhs^1 from x^17 down to x^0 and then multiplies
    # by rhs^0; the guard bounds and the cost model build no power of rhs.
    chunk = DENSE.initial[0][1]
    module = DENSE.modules[-1]
    built = _cold_pow_calls(monkeypatch)
    calls = _counted_products(monkeypatch)
    assert apply_module_to_chunk(chunk, module, 4, {}) == 100947
    assert sorted(built) == [0, 1]
    rhs = module.statements[0].rhs
    assert {power for _, power, _, _ in calls} == {rhs, terms.ONE}


def test_sparse_substitution_stays_within_twice_the_direct_products(monkeypatch):
    # x^n * y^(100n) for n = 1..17 share nothing: the direct expansion makes
    # sum |rhs^n| = 5,984 products, Horner's rule on every step 81,396.
    rhs = _sym_expr(4, 1, 2, 3) + terms.ONE
    chunk = tuple(x for n in range(17, 0, -1) for x in (1, pack(((0, n), (1, 100 * n)), 4)))
    module = Module((IdSubst(0, rhs),))
    calls = _counted_products(monkeypatch)
    acc = {}
    assert apply_module_to_chunk(chunk, module, 4, acc) == 5984
    assert sum(made for *_, made in calls) <= 2 * 5984
    assert sorted_flat(acc) == algebra_apply_module(chunk, module, 4)
    # No work is thrown away: each partial sum is multiplied once, and each
    # one a step built is multiplied again later, never rebuilt.
    sums = [h for h, *_ in calls]
    assert len({id(h) for h in sums}) == len(sums)
    for _, _, out, _ in calls:
        if out is not acc:
            assert sum(h is out for h in sums) == 1
    # Stepping stops at the first step that does not pay.  With rhs y + 1
    # the first step makes 2 products and leaves 3 terms for rhs^16, 2 + 51
    # products where x^17 and x^16 cost 18 + 17 directly: 170 + 53 - 35 =
    # 188 in all, where stepping on while within twice the direct count
    # makes 274.
    calls.clear()
    module = Module((IdSubst(0, _sym_expr(4, 1) + terms.ONE),))
    assert apply_module_to_chunk(chunk, module, 4, {}) == 170
    assert sum(made for *_, made in calls) == 188


def test_substitution_never_makes_more_than_twice_the_direct_products(monkeypatch):
    rng = random.Random(37)
    calls = _counted_products(monkeypatch)
    for _ in range(60):
        nsym = rng.randint(2, 4)
        e = random_expression(rng, nsym, rng.randint(0, 40), max_exp=6)
        s = IdSubst(rng.randrange(nsym),
                    random_expression(rng, nsym, rng.randint(1, 4), max_exp=2))
        shift = terms.field_shift(s.target, nsym)
        degrees = [(mono >> shift) & terms.EXP_MASK for mono in e[1::2]]
        direct = sum(len(pow_expression(s.rhs, n)) // 2 for n in degrees)
        for n in degrees:  # the guard bound is the power's own field-wise maximum
            assert rewrite._rhs_bound(s.rhs, n) == terms.field_max(pow_expression(s.rhs, n))
        calls.clear()
        acc = {}
        assert apply_module_to_chunk(e, Module((s,)), nsym, acc) == direct
        assert sum(made for *_, made in calls) <= 2 * direct
        assert sorted_flat(acc) == algebra_apply_module(e, Module((s,)), nsym)


@pytest.mark.parametrize("rhs", ["0", "3", "y"])
@pytest.mark.parametrize("last", [True, False], ids=["last", "non-last"])
def test_a_zero_constant_or_single_symbol_rhs_matches_the_oracle(rhs, last):
    # Chunks of 7 terms: the first ones hold no x-free term, so with rhs 0
    # their direct count is 0.
    after = "" if last else "multiply y+z+1;\n"
    program = parse_program("symbols x,y,z;\nlocal F = (x+y+z)^4 + x^3 - 2;\n"
                            f"id x = {rhs};\n{after}.sort\n.end\n")
    reference = oracle_run_program(program)
    for cfg in (RunConfig(nslaves=0, chunk_size=7),
                RunConfig(nslaves=2, chunk_size=7, backend="mp")):
        assert run_program(program, cfg).expressions == reference


# rhs over symbols 1..3 of (x, y, z, w): an integer or up to four terms,
# with exponents up to 3, so the dependent shapes such as 1 + y + y^2 and
# y + y*z come up alongside the linear forms.
st_rhs = st.lists(
    st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
              st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
                  lambda exps: tuple((sid + 1, e) for sid, e in enumerate(exps) if e))),
    max_size=4,
).map(lambda raw: pack_terms(oracle_normalize(raw, 4), 4))

_Y, _Z = pack(((1, 1),), 4), pack(((2, 1),), 4)


@given(st_rhs, st.integers(0, 10))
@example((1, 2 * _Y, 1, _Y, 1, terms.UNIT), 5)   # 1 + y + y^2
@example((1, _Y + _Z, 1, _Y), 4)                 # y*z + y
@example(terms.ZERO, 0)
@example(terms.ZERO, 3)
@settings(max_examples=200)
def test_the_size_and_bound_of_a_power_are_those_of_the_built_power(rhs, n):
    power = pow_expression(rhs, n)
    assert rewrite._rhs_size(rhs, n, 4) == len(power) // 2
    assert rewrite._rhs_bound(rhs, n) == terms.field_max(power)


def _rhs(text):
    """The ``rhs`` of ``id x = text`` over symbols x, y, z, w."""
    program = parse_program(f"symbols x,y,z,w;\nlocal F = x;\nid x = {text};\n.sort\n.end\n")
    return program.modules[0].statements[0].rhs


def test_the_linear_test_counts_linear_rhs_shapes_and_only_those():
    for text in ("-2*y+z+2*w-1", "y", "3"):
        assert rewrite._linear(_rhs(text), 4), text
    # Shapes that share a symbol between monomials, and dependent ones, whose
    # powers repeat monomials: each builds the powers it counts.
    dependent = ("1+y+y^2", "y+z+y*z+1", "y^2+y*z+z^2", "y^3+y^2+y")
    for text in ("y+y*z-w", "y+y^2", "y*z+z*w+w*y", "y^2*z+y*z^2+1") + dependent:
        assert not rewrite._linear(_rhs(text), 4), text
    for text in dependent:
        rhs = _rhs(text)
        k = len(rhs) // 2
        assert len(pow_expression(rhs, 4)) // 2 < math.comb(4 + k - 1, k - 1), text


# A linear rhs over symbols 1..3 of (x, y, z, w): a constant and each symbol
# to the first power, at most once each, with nonzero coefficients.
st_linear_rhs = st.lists(
    st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)),
              st.sampled_from(((), ((1, 1),), ((2, 1),), ((3, 1),)))),
    min_size=1, max_size=4, unique_by=lambda t: t[1],
).map(lambda raw: pack_terms(oracle_normalize(raw, 4), 4))


@given(st_linear_rhs, st.integers(0, 10))
@settings(max_examples=300)
def test_a_linear_rhs_has_one_monomial_per_composition(rhs, n):
    assert rewrite._linear(rhs, 4)
    k = len(rhs) // 2
    assert len(pow_expression(rhs, n)) // 2 == math.comb(n + k - 1, k - 1)


def test_a_nonlinear_rhs_builds_each_power_it_counts_once(monkeypatch):
    # substitute-expand's chunk under id x = y+y*z-w: the cost model builds
    # every rhs^n, n = 0..17, to count it, and the product loops reuse them;
    # a second chunk finds every power in the cache.
    program = parse_program("symbols x,y,z,w;\nlocal F = (x-y+3*z-3*w)^17;\n"
                            "id x = y+y*z-w;\n.sort\n.end\n")
    chunk, module = program.initial[0][1], program.modules[0]
    built = _cold_pow_calls(monkeypatch)
    acc = {}
    apply_module_to_chunk(chunk, module, 4, acc)
    assert sorted(built) == list(range(18))
    assert sorted_flat(acc) == algebra_apply_module(chunk, module, 4)
    built.clear()
    apply_module_to_chunk(chunk, module, 4, {})
    assert built == []


@given(st_rhs, st.integers(0, 3), st.booleans())
@settings(max_examples=50)
def test_a_power_past_the_exponent_range_raises_before_any_power_is_built(rhs, extra, last):
    # n * field_max(rhs) passes the largest u32 exponent in rhs's largest
    # field.  Neither the guard bound nor the rewriter builds a power first,
    # whether the id is the last statement of its module or not.
    top = max((e for _, mono in unpack_terms(rhs, 4) for _, e in mono), default=0)
    assume(top >= 2)
    n = terms.EXP_MASK // top + 1 + extra
    statements = (IdSubst(0, rhs),) + (() if last else (Multiply(terms.ONE),))
    chunk = (1, pack(((0, n),), 4), 2, pack(((0, 1),), 4))
    for cached in (rewrite._rhs_power, rewrite._rhs_bound):
        cached.cache_clear()
    acc = {}
    with mock.patch.object(terms, "pow_expression", wraps=terms.pow_expression) as built:
        with pytest.raises(terms.ExponentOverflowError):
            rewrite._rhs_bound(rhs, n)
        with pytest.raises(terms.ExponentOverflowError):
            apply_module_to_chunk(chunk, Module(statements), 4, acc)
    assert built.call_count == 0 and acc == {}


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
    chunk = (1, pack(((0, 1),), 2), 1, pack(((0, 1), (1, top)), 2))
    cases = [(chunk, m) for m in (Module((overflowing, harmless)),
                                  Module((harmless, overflowing)),
                                  Module((harmless, overflowing, harmless)))]
    # A dense chunk for id x = y + 1 last, in which only one of the three
    # x^2 terms, x^2 * y^(2**32 - 2), overflows: against (y + 1)^2.
    dense = pack_terms(((1, ((0, 3),)), (2, ((0, 2), (1, 1))), (1, ((0, 2), (1, top - 1))),
                        (-1, ((0, 2),)), (3, ((0, 1), (1, 1))), (1, ())), 2)
    cases.append((dense, Module((IdSubst(0, add_expressions(terms.symbol(1, 2), terms.ONE)),))))
    for chunk, m in cases:
        with pytest.raises(terms.ExponentOverflowError):
            apply_module_to_chunk(chunk, m, 2, {})


def test_a_chunk_that_overflows_adds_nothing():
    # Over symbols (x, y), the last term of a canonical chunk,
    # x * y^(2**32 - 1), overflows against y + 1, whether y + 1 multiplies it
    # or replaces its x, in a module's last statement or before another one.
    # Every guard check runs before the first product, so the accumulator
    # keeps exactly what it held.
    top = terms.EXP_MASK
    y_plus_1 = add_expressions(terms.symbol(1, 2), terms.ONE)
    harmless = Multiply(add_expressions(terms.symbol(0, 2), terms.ONE))
    chunk = pack_terms(((3, ((0, 3),)), (2, ((0, 2), (1, 1))), (1, ((0, 2),)),
                        (-1, ((0, 1), (1, top)))), 2)
    for s in (Multiply(y_plus_1), IdSubst(0, y_plus_1)):
        for m in (Module((s,)), Module((s, harmless))):
            acc = {pack(((0, 2),), 2): 5, terms.UNIT: -3}
            before = dict(acc)
            with pytest.raises(terms.ExponentOverflowError):
                apply_module_to_chunk(chunk, m, 2, acc)
            assert acc == before


def test_substitution_inside_a_module_matches_the_oracle():
    # id x = y + z + 1 between two products, on a chunk holding x-degrees
    # 0..5: the terms of each degree go through one power of rhs together.
    rhs = _sym_expr(4, 1, 2) + terms.ONE
    first, last = Multiply(_sym_expr(4, 1, 3)), Multiply(_sym_expr(4, 0, 2))
    module = Module((first, IdSubst(0, rhs), last))

    def factors(n, j):
        return (((0, n),) if n else ()) + ((1, j), (3, 1 + n % 2))

    chunk = pack_terms(oracle_normalize(
        [(n + j, factors(n, j)) for n in range(6) for j in range(1, 4)], 4), 4)
    acc = {}
    generated = apply_module_to_chunk(chunk, module, 4, acc)
    assert sorted_flat(acc) == algebra_apply_module(chunk, module, 4)
    # Per term: |first| products, each of x-degree n replaced by rhs^n's
    # terms, each multiplied by |last|.
    rhs_f = unpack_terms(rhs, 4)
    per_degree = [len(brute_power(rhs_f, n, 4)) for n in range(6)]
    assert generated == sum(2 * per_degree[dict(mono).get(0, 0)] * 2
                            for _, mono in unpack_terms(chunk, 4))


def test_empty_module_is_identity():
    t = (9, pack(((0, 3), (2, 1)), 3))
    assert apply_module_to_term(t, Module(()), 3) == [t]


def test_two_step_composition():
    # {id x = a+b; multiply c;} on x gives {ac, bc}
    m = Module((IdSubst(0, _sym_expr(4, 1, 2)), Multiply(terms.symbol(3, 4))))
    got = apply_module_to_term((1, pack(((0, 1),), 4)), m, 4)
    assert len(got) == 2
    assert normalize(flat(got)) == pack_terms(((1, ((1, 1), (3, 1))), (1, ((2, 1), (3, 1)))), 4)


def test_per_term_pipeline_matches_expression_algebra():
    rng = random.Random(23)
    for _ in range(150):
        e = random_expression(rng, NSYM, rng.randint(0, 8), max_exp=3)
        m = random_module(rng, NSYM)
        raw = []
        for t in unflat(e):
            raw.extend(flat(apply_module_to_term(t, m, NSYM)))
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
    chunk = (1, terms.UNIT, 2, pack(((0, 1),), 2))
    acc = {}
    assert apply_module_to_chunk(chunk, m, 2, acc) == 4
    assert sorted_flat(acc) == algebra_apply_module(normalize(chunk), m, 2)


def test_empty_module_adds_the_chunk():
    chunk = pack_terms(((2, ((0, 1),)), (-1, ())), 2)
    acc = {pack(((0, 1),), 2): -2}
    assert apply_module_to_chunk(chunk, Module(()), 2, acc) == 2
    assert acc == {pack(((0, 1),), 2): 0, terms.UNIT: -1}
    assert sorted_flat(acc) == pack_terms(((-1, ()),), 2)


def test_chunks_accumulate_and_cancel_across_calls():
    # Chunk by chunk into one accumulator equals the whole expression at
    # once; {multiply x-y} on x+y cancels x*y between the two chunks.
    m = Module((Multiply(add_expressions(terms.symbol(0, 2),
                                         terms.negate_expression(terms.symbol(1, 2)))),))
    e = _sym_expr(2, 0, 1)
    acc = {}
    generated = sum(apply_module_to_chunk(t, m, 2, acc) for t in unflat(e))
    assert generated == 4
    assert sorted_flat(acc) == pack_terms(((1, ((0, 2),)), (-1, ((1, 2),))), 2)
    rng = random.Random(31)
    for _ in range(100):
        e = random_expression(rng, NSYM, rng.randint(0, 8), max_exp=3)
        m = random_module(rng, NSYM)
        whole, chunked = {}, {}
        n = apply_module_to_chunk(e, m, NSYM, whole)
        size = rng.randint(1, 3)
        assert n == sum(apply_module_to_chunk(e[2 * i:2 * (i + size)], m, NSYM, chunked)
                        for i in range(0, len(e) // 2, size))
        assert sorted_flat(chunked) == sorted_flat(whole) == algebra_apply_module(e, m, NSYM)
