import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parterm import terms
from parterm.terms import (
    EXP_MASK,
    ExponentOverflowError,
    SymbolTable,
    add_expressions,
    multiply_expressions,
    normalize,
    pow_expression,
)

from oracles import (
    brute_multiply,
    is_canonical,
    brute_power,
    oracle_cmp,
    oracle_normalize,
    pack,
    pack_terms,
    random_expression,
    random_terms,
    unpack,
    unpack_terms,
)

NSYM = 4

# Oracle-side (factor tuple) values; production values go through pack.
st_factors = st.lists(st.integers(0, 5), min_size=0, max_size=NSYM).map(
    lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e >= 1))
st_monomial = st_factors.map(lambda f: pack(f, NSYM))
st_raw_factors = st.lists(st.tuples(st.integers(-9, 9), st_factors), max_size=10)
st_raw = st_raw_factors.map(lambda raw: list(pack_terms(raw, NSYM)))
st_expression = st_raw.map(normalize)
# Powering bases: 1-5 distinct monomials, often drawn from the constant and
# the colliding x, x^2, x*y, y, with nonzero coefficients of either sign.
st_pow_base = st.lists(
    st.tuples(st.integers(-5, 5).filter(bool),
              st.one_of(st.sampled_from(((), ((0, 1),), ((0, 2),), ((0, 1), (1, 1)), ((1, 1),))),
                        st_factors)),
    min_size=1, max_size=5, unique_by=lambda t: t[1]).map(
    lambda raw: pack_terms(oracle_normalize(raw, NSYM), NSYM))


def _x(sid, nsym=NSYM):
    return terms.symbol(sid, nsym)


# -- symbol table ------------------------------------------------------------

def test_symbol_table_dense_bijection():
    tab = SymbolTable(["x", "y"])
    assert tab.id_of("x") == 0 and tab.id_of("y") == 1
    assert tab.name_of(0) == "x" and tab.name_of(1) == "y"
    assert tab.declare("z") == 2
    assert len(tab) == 3 and tab.names == ("x", "y", "z")


def test_symbol_table_errors():
    tab = SymbolTable(["x"])
    with pytest.raises(terms.InvariantError, match="undeclared"):
        tab.id_of("q")
    with pytest.raises(terms.InvariantError, match="twice"):
        tab.declare("x")


# -- packed layout -------------------------------------------------------------

def test_layout_puts_symbol_zero_in_the_top_field():
    # x^2*y over (x, y): x's field sits 33 bits above y's
    assert pack(((0, 2), (1, 1)), 2) == (2 << 33) | 1
    assert terms.symbol(0, 2) == (1, 1 << 33)
    assert terms.symbol(1, 2) == (1, 1)
    assert terms.unpack((2 << 33) | 1, 2) == ((0, 2), (1, 1))
    assert terms.unpack(terms.UNIT, 3) == ()


@given(st_factors)
def test_unpack_inverts_the_oracle_packing(f):
    assert terms.unpack(pack(f, NSYM), NSYM) == f


def test_symbol_rejects_out_of_range_ids():
    with pytest.raises(terms.InvariantError, match="out of range"):
        terms.symbol(2, 2)


# -- monomial order ----------------------------------------------------------

# The canonical order is descending int order on packed monomials; the
# oracle compares dense exponent vectors of factor tuples.

def test_compare_examples():
    x2y = ((0, 2), (1, 1))
    xy2 = ((0, 1), (1, 2))
    assert oracle_cmp(x2y, xy2, 2) == -1 and pack(x2y, 2) > pack(xy2, 2)
    assert oracle_cmp(xy2, xy2, 2) == 0
    # unit vs x: the greater dense vector (1,) sorts earlier
    assert oracle_cmp(((0, 1),), (), 1) == -1 and pack(((0, 1),), 1) > terms.UNIT
    assert oracle_cmp((), ((0, 1),), 1) == 1


@given(st_factors, st_factors)
def test_compare_antisymmetric(a, b):
    c = oracle_cmp(a, b, NSYM)
    assert oracle_cmp(b, a, NSYM) == -c
    assert (c == 0) == (a == b) == (pack(a, NSYM) == pack(b, NSYM))


@given(st_monomial, st_monomial, st_monomial)
def test_compare_transitive(a, b, c):
    ordered = sorted([a, b, c], reverse=True)
    for earlier, later in zip(ordered, ordered[1:]):
        assert oracle_cmp(unpack(earlier, NSYM), unpack(later, NSYM), NSYM) in (-1, 0)


@given(st_factors, st_factors)
def test_sort_keys_agree_with_comparison(a, b):
    # the packed int is the sort key: descending int order is the oracle's
    # dense-vector order
    c = oracle_cmp(a, b, NSYM)
    pa, pb = pack(a, NSYM), pack(b, NSYM)
    assert (pa < pb) - (pa > pb) == c


# -- term arithmetic ---------------------------------------------------------

def test_multiply_terms_examples():
    x = pack(((0, 1),), 2)
    xy = pack(((0, 1), (1, 1)), 2)

    def times(a, b):  # one-term expressions: a term is its own flat batch
        return multiply_expressions(a, b)

    assert times((3, x), (2, xy)) == (6, pack(((0, 2), (1, 1)), 2))
    assert times((7, xy), (1, terms.UNIT)) == (7, xy)
    assert times((-2, pack(((1, 2),), 2)), (5, pack(((1, 1),), 2))) == (-10, pack(((1, 3),), 2))


@given(st_factors, st_factors)
def test_multiplying_monomials_adds_exponents(a, b):
    exps = dict(a)
    for sid, e in b:
        exps[sid] = exps.get(sid, 0) + e
    product = multiply_expressions((1, pack(a, NSYM)), (1, pack(b, NSYM)))
    assert unpack(product[1], NSYM) == tuple(sorted(exps.items()))


def test_largest_exponent_survives_multiply():
    top = EXP_MASK  # 2**32 - 1, the wire format's largest u32 exponent
    for sid in range(3):  # top, middle and bottom field
        near = pack(((sid, top - 1),), 3)
        one = pack(((sid, 1),), 3)
        got = pack(((sid, top),), 3)
        assert multiply_expressions((1, near, 2, one), (1, one)) == \
            (1, got, 2, pack(((sid, 2),), 3))
        assert pow_expression((1, one), top) == (1, got)


def test_exponent_two_to_the_32_raises_instead_of_wrapping():
    for sid in range(3):
        top = pack(((sid, EXP_MASK),), 3)
        one = pack(((sid, 1),), 3)
        with pytest.raises(ExponentOverflowError):
            multiply_expressions((1, top), (1, one))
        with pytest.raises(ExponentOverflowError):
            multiply_expressions((1, one, 1, terms.UNIT), (5, top))
        with pytest.raises(ExponentOverflowError):
            pow_expression((1, one), EXP_MASK + 1)
        with pytest.raises(ExponentOverflowError):
            pow_expression(add_expressions((1, pack(((sid, 1 << 31),), 3)), terms.ONE), 2)
    # the overflowing product y^(2**32) is not the largest one, x^3
    a = pack_terms(((1, ((0, 2),)), (1, ((1, EXP_MASK),))), 2)
    with pytest.raises(ExponentOverflowError):
        multiply_expressions(a, add_expressions(_x(0, 2), _x(1, 2)))
    assert issubclass(ExponentOverflowError, terms.InvariantError)


# -- normalize ---------------------------------------------------------------

def test_normalize_examples():
    x = pack(((0, 1),), 2)
    y = pack(((1, 1),), 2)
    assert normalize([3, x, -3, x, 2, y]) == (2, y)
    assert normalize([]) == ()
    raw = [(1, ((0, 1),)), (1, ((1, 1),)), (1, ((0, 1),))]
    assert normalize(pack_terms(raw, 2)) == pack_terms(oracle_normalize(raw, 2), 2)
    assert normalize(pack_terms(raw, 2)) == (2, x, 1, y)


def test_normalize_matches_oracle_on_random_input():
    rng = random.Random(11)
    for _ in range(200):
        raw = random_terms(rng, NSYM, rng.randint(0, 20))
        got = normalize(pack_terms(raw, NSYM))
        assert got == pack_terms(oracle_normalize(raw, NSYM), NSYM)
        assert is_canonical(got, NSYM)


@given(st_raw_factors)
def test_packed_normalize_agrees_with_oracle(raw):
    assert normalize(pack_terms(raw, NSYM)) == pack_terms(oracle_normalize(raw, NSYM), NSYM)


@given(st_raw_factors)
def test_sorted_flat_matches_the_oracle(raw):
    acc = {}
    for c, m in raw:
        m = pack(m, NSYM)
        acc[m] = acc.get(m, 0) + c
    assert terms.sorted_flat(acc) == pack_terms(oracle_normalize(raw, NSYM), NSYM)


@given(st_raw)
def test_normalize_idempotent(raw):
    once = normalize(raw)
    assert normalize(once) == once


@given(st_raw, st.randoms(use_true_random=False))
def test_normalize_permutation_invariant(raw, rng):
    shuffled = list(zip(raw[::2], raw[1::2]))
    rng.shuffle(shuffled)
    assert normalize([x for t in shuffled for x in t]) == normalize(raw)


# -- expression ring ---------------------------------------------------------

def test_difference_of_squares():
    x, y = _x(0, 2), _x(1, 2)
    xpy = add_expressions(x, y)
    xmy = add_expressions(x, terms.negate_expression(y))
    got = multiply_expressions(xpy, xmy)
    assert got == pack_terms(((1, ((0, 2),)), (-1, ((1, 2),))), 2)


def test_pow_zero_is_one():
    e = add_expressions(_x(0), _x(1))
    assert pow_expression(e, 0) == (1, terms.UNIT)
    assert pow_expression(_x(0), 0) == (1, terms.UNIT)
    assert pow_expression(terms.ZERO, 0) == (1, terms.UNIT)


def test_pow_of_zero_is_zero():
    for n in (1, 2, 7):
        assert pow_expression(terms.ZERO, n) == terms.ZERO


def test_pow_negative_rejected():
    with pytest.raises(terms.InvariantError):
        pow_expression(_x(0), -1)


def test_trinomial_eighth_power_term_count():
    e = add_expressions(add_expressions(_x(0, 3), _x(1, 3)), _x(2, 3))
    got = pow_expression(e, 8)
    f = ((1, ((0, 1),)), (1, ((1, 1),)), (1, ((2, 1),)))
    assert got == pack_terms(brute_power(f, 8, 3), 3)
    # stars and bars: (n+1)(n+2)/2 monomials for a trinomial power
    assert len(got) // 2 == (8 + 1) * (8 + 2) // 2 == 45


@given(st_pow_base, st.integers(0, 8))
def test_pow_matches_brute_power(a, n):
    assert pow_expression(a, n) == pack_terms(brute_power(unpack_terms(a, NSYM), n, NSYM), NSYM)


def _count_multiplies(monkeypatch):
    calls = []
    real = terms.multiply_expressions

    def counting(a, b):
        calls.append(1)
        return real(a, b)
    monkeypatch.setattr(terms, "multiply_expressions", counting)
    return calls


def test_pow_of_a_heavily_colliding_base_multiplies_repeatedly(monkeypatch):
    # (1+x+...+x^10)^20: about 30 M compositions for 201 output terms.
    f = tuple((1, ((0, i),) if i else ()) for i in range(11))
    a = normalize(pack_terms(f, 1))
    expected = pack_terms(brute_power(f, 20, 1), 1)
    calls = _count_multiplies(monkeypatch)
    got = pow_expression(a, 20)
    assert len(calls) == 20
    assert got == expected and len(got) // 2 == 201
    assert sum(got[::2]) == 11 ** 20


def test_pow_of_a_linear_form_expands_by_the_multinomial_theorem(monkeypatch):
    # The product-chain workload's shape: a dense 4-symbol linear form ^ 24.
    a = pack_terms(((2, ((0, 1),)), (2, ((1, 1),)), (-3, ((2, 1),)), (3, ((3, 1),))), 4)
    expected = terms.ONE
    for _ in range(24):
        expected = multiply_expressions(expected, a)
    calls = _count_multiplies(monkeypatch)
    got = pow_expression(a, 24)
    assert calls == []
    assert got == expected and len(got) // 2 == 2925  # C(27, 3) monomials


@given(st_expression, st_expression)
@settings(max_examples=50)
def test_add_commutes_and_matches_normalize_concat(a, b):
    assert add_expressions(a, b) == add_expressions(b, a)
    assert add_expressions(a, b) == normalize(a + b)


@given(st_expression, st_expression, st_expression)
@settings(max_examples=30)
def test_ring_laws(a, b, c):
    assert multiply_expressions(a, b) == multiply_expressions(b, a)
    assert add_expressions(add_expressions(a, b), c) == add_expressions(a, add_expressions(b, c))
    assert multiply_expressions(multiply_expressions(a, b), c) == \
        multiply_expressions(a, multiply_expressions(b, c))
    left = multiply_expressions(a, add_expressions(b, c))
    right = add_expressions(multiply_expressions(a, b), multiply_expressions(a, c))
    assert left == right


@given(st_raw_factors, st_raw_factors)
@settings(max_examples=50)
def test_multiply_matches_brute_oracle(raw_a, raw_b):
    a, b = oracle_normalize(raw_a, NSYM), oracle_normalize(raw_b, NSYM)
    got = multiply_expressions(pack_terms(a, NSYM), pack_terms(b, NSYM))
    assert got == pack_terms(brute_multiply(a, b, NSYM), NSYM)


# Exponents at the top of a field as well as small ones, so that some
# products overflow.
st_wide_factors = st.lists(st.sampled_from((0, 1, 2, EXP_MASK - 1, EXP_MASK)),
                           max_size=NSYM).map(
    lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e))
st_wide_expression = st.lists(st.tuples(st.integers(-9, 9), st_wide_factors), max_size=6).map(
    lambda raw: oracle_normalize(raw, NSYM))


@given(st_wide_expression, st.integers(-9, 9).filter(bool), st_wide_factors)
def test_one_term_product_matches_the_general_path_and_the_oracle(a, c, m):
    b = ((c, m),)
    pa, pb = pack_terms(a, NSYM), pack_terms(b, NSYM)
    overflows = any(dict(ma).get(sid, 0) + dict(m).get(sid, 0) > EXP_MASK
                    for _, ma in a for sid in range(NSYM))
    general: terms.Accumulator = {}
    terms.add_product(general, pa, pb)
    for x, y in ((pa, pb), (pb, pa)):
        if overflows:
            with pytest.raises(ExponentOverflowError):
                multiply_expressions(x, y)
            continue
        got = multiply_expressions(x, y)
        assert got == terms.sorted_flat(general) == pack_terms(brute_multiply(a, b, NSYM), NSYM)
        assert is_canonical(got, NSYM)


def test_a_one_term_product_neither_bounds_nor_sorts(monkeypatch):
    def unused(*args):
        raise AssertionError("the general path ran")

    monkeypatch.setattr(terms, "field_max", unused)
    monkeypatch.setattr(terms, "sorted_flat", unused)
    a = pack_terms(((2, ((0, 2),)), (-1, ((1, 1),)), (3, ())), 2)
    assert multiply_expressions(a, (-2, pack(((1, 1),), 2))) == \
        pack_terms(((-4, ((0, 2), (1, 1))), (2, ((1, 2),)), (-6, ((1, 1),))), 2)
    assert multiply_expressions((5, terms.UNIT), a) == \
        pack_terms(((10, ((0, 2),)), (-5, ((1, 1),)), (15, ())), 2)


def test_a_product_bounds_its_coefficients():
    # The bound is the operands' largest coefficient bits plus ceil(log2)
    # of the shorter operand's term count, and it is inclusive.
    bits = terms.MAX_COEFF_BITS // 2
    half = 1 << (bits - 1)  # a coefficient of bits bits
    assert multiply_expressions((half, 0), (-half, 0)) == (-half * half, 0)
    with pytest.raises(terms.CoefficientOverflowError, match="a product's"):
        multiply_expressions((2 * half, 0), (half, 0))
    # Two terms each: a coefficient of the product sums two products.
    x = pack(((0, 1),), 1)
    with pytest.raises(terms.CoefficientOverflowError):
        multiply_expressions((half, x, 1, 0), (half, x, 1, 0))
    assert multiply_expressions((half // 2, x, 1, 0), (half, x, 1, 0)) == \
        (half // 2 * half, 2 * x, half // 2 + half, x, 1, 0)
    # 3^300000 squared takes 951 kbit; a coefficient of 2 fits beside any
    # exponent.
    assert multiply_expressions((3 ** 300000, 0), (3 ** 300000, 0)) == (3 ** 600000, 0)
    assert multiply_expressions((1, EXP_MASK), (2, 0)) == (2, EXP_MASK)


_U32_EDGE = (EXP_MASK // 2, EXP_MASK // 2 + 1, EXP_MASK - 1, EXP_MASK, EXP_MASK + 1)


@given(st.one_of(st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 3)),
                 st.tuples(st.sampled_from((1, -1)), st.sampled_from(_U32_EDGE))),
       st_wide_factors)
def test_a_one_term_power_matches_the_general_loop(cn, m):
    # The general loop is field_max's pass per field, which a second term,
    # the unit, sends the base through.
    c, n = cn
    mono = pack(m, NSYM)
    assert terms.field_max((c, mono)) is mono
    assert terms.field_max((c, mono, 1, terms.UNIT)) == mono
    overflows = any(e * n > EXP_MASK for _, e in m)
    for base in ((c, mono), (c, mono, 1, terms.UNIT)):
        if overflows:
            with pytest.raises(ExponentOverflowError):
                terms.pow_field_max(base, n)
        else:
            assert terms.pow_field_max(base, n) == n * mono
    if overflows:
        with pytest.raises(ExponentOverflowError):
            pow_expression((c, mono), n)
    else:
        assert pow_expression((c, mono), n) == \
            (c ** n, pack(tuple((sid, e * n) for sid, e in m if n), NSYM))


def test_results_are_normalized_random():
    rng = random.Random(3)
    for _ in range(50):
        a = random_expression(rng, NSYM, 6)
        b = random_expression(rng, NSYM, 6)
        assert is_canonical(add_expressions(a, b), NSYM)
        assert is_canonical(multiply_expressions(a, b), NSYM)
