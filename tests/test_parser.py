import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parterm import cli, parser
from parterm.parser import (
    IdSubst,
    Multiply,
    ParseError,
    format_expression,
    parse_program,
)
from parterm import terms
from parterm.terms import SymbolTable
from parterm.transport import deserialize_terms, serialize_terms

from oracles import flat, oracle_normalize, pack_terms, random_expression, unflat, unpack_terms


def test_binomial_square_program():
    program = parse_program("symbols x,y; local F = (x+y)^2; .sort .end")
    assert program.symtab.names == ("x", "y")
    assert len(program.modules) == 1
    assert program.modules[0].statements == ()
    (name, value), = program.initial
    assert name == "F"
    # x^2 + 2xy + y^2
    assert unpack_terms(value, 2) == ((1, ((0, 2),)), (2, ((0, 1), (1, 1))), (1, ((1, 2),)))


def test_id_statement_structure():
    program = parse_program("symbols x; local F = x; id x = x + 1; .sort .end")
    assert len(program.modules) == 1
    stmt, = program.modules[0].statements
    assert isinstance(stmt, IdSubst)
    assert stmt.target == 0
    assert unpack_terms(stmt.rhs, 1) == ((1, ((0, 1),)), (1, ()))


def test_multiply_statement_structure():
    program = parse_program("symbols x,y; multiply -2*x*y; .sort .end")
    stmt, = program.modules[0].statements
    assert isinstance(stmt, Multiply)
    assert unpack_terms(stmt.factor, 2) == ((-2, ((0, 1), (1, 1))),)


def test_precedence_and_unary_minus():
    program = parse_program("symbols x,y; local F = -x^2 + 2*-3 - -y; .sort .end")
    (_, value), = program.initial
    expected = oracle_normalize([(-1, ((0, 2),)), (1, ((1, 1),)), (-6, ())], 2)
    assert unpack_terms(value, 2) == expected


def test_power_of_parenthesized_and_integer_base():
    program = parse_program("symbols x; local F = (x+1)^2 + 2^3; .sort .end")
    (_, value), = program.initial
    assert unpack_terms(value, 1) == oracle_normalize(
        [(1, ((0, 2),)), (2, ((0, 1),)), (9, ())], 1)


def test_comment_and_whitespace_insensitivity():
    text = "* leading comment\nsymbols   x ,y;\n* another\nlocal F=x \n + y;\n.sort\n.end\n"
    program = parse_program(text)
    (_, value), = program.initial
    assert unpack_terms(value, 2) == ((1, ((0, 1),)), (1, ((1, 1),)))


def test_multiple_modules_and_empty_module():
    program = parse_program("symbols x; multiply x; .sort .sort multiply x; .sort .end")
    assert [len(m.statements) for m in program.modules] == [1, 0, 1]


@pytest.mark.parametrize("text,fragment,line,col", [
    ("local F = x; .sort .end", "undeclared symbol 'x'", 1, 11),
    ("symbols x; local F = x^0; .sort .end", "must be positive", 1, 24),
    ("symbols x; local F = x^-1; .sort .end", "integer literal", 1, 24),
    ("symbols x; local F = x^y; .sort .end", "integer literal", 1, 24),
    ("symbols x; local F = x;", "missing '.end'", 1, 24),
    ("symbols x; local F = x; .end", "no module", 1, 29),
    ("symbols x; multiply x; .end", "not terminated by '.sort'", 1, 24),
    ("symbols x; local F = $;", "unexpected character '$'", 1, 22),
    ("symbols x; local F = x^\u00b2;", "unexpected character '\u00b2'", 1, 24),
    ("symbols x, x; .sort .end", "declared twice", 1, 12),
    ("symbols x; local F = x; local F = x; .sort .end", "defined twice", 1, 31),
    ("symbols id; .sort .end", "keyword", 1, 9),
    ("symbols x;\nid y = x;\n.sort .end", "undeclared symbol 'y'", 2, 4),
    ("symbols x; local F = (x; .sort .end", "expected ')'", 1, 24),
    ("symbols x; .fold .end", "unknown directive", 1, 12),
    ("symbols x; local F = x; .sort\n* done", "missing '.end'", 2, 7),
    ("symbols _x; .sort .end", "unexpected character '_'", 1, 9),
    ("symbols x; .sort2 .end", "found '2'", 1, 17),
    ("symbols x;\r\n\tlocal F = $;", "unexpected character '$'", 2, 12),
    (" * c\nsymbols x; .sort .end", "found '*'", 1, 2),
])
def test_errors_carry_position(text, fragment, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert fragment in str(err.value)
    assert err.value.line == line
    assert err.value.col == col


def test_format_examples():
    tab = SymbolTable(["x", "y"])

    def fmt(e):
        return format_expression(pack_terms(e, 2), tab)

    assert fmt(((2, ((0, 1), (1, 1))),)) == "2*x*y"
    assert fmt(()) == "0"
    assert fmt(((1, ()),)) == "1"
    assert fmt(((-1, ((0, 1),)), (-7, ()))) == "-x-7"
    assert fmt(((1, ((0, 2),)), (-3, ((1, 1),)))) == "x^2-3*y"


def test_parse_is_deterministic():
    text = "symbols x,y; local F = (x-y)^3; id x = y+1; .sort .end"
    a = parse_program(text)
    b = parse_program(text)
    assert a.symtab.names == b.symtab.names
    assert a.initial == b.initial
    assert a.modules == b.modules


NSYM = 4
_NAMES = "x,y,z,w"

st_expression = st.lists(
    st.tuples(st.integers(-9, 9),
              st.lists(st.integers(0, 5), min_size=NSYM, max_size=NSYM).map(
                  lambda exps: tuple((sid, e) for sid, e in enumerate(exps) if e))),
    max_size=8,
).map(lambda raw: pack_terms(oracle_normalize(raw, NSYM), NSYM))


@given(st_expression)
@settings(max_examples=150)
def test_format_parse_round_trip(e):
    tab = SymbolTable(_NAMES.split(","))
    text = f"symbols {_NAMES}; local F = {format_expression(e, tab)}; .sort .end"
    program = parse_program(text)
    (_, value), = program.initial
    assert value == e


def test_round_trip_on_big_random_coefficients():
    rng = random.Random(5)
    tab = SymbolTable(_NAMES.split(","))
    for _ in range(20):
        e = random_expression(rng, NSYM, 10)
        e = flat((c * rng.randint(10**15, 10**20), m) for c, m in unflat(e))
        text = f"symbols {_NAMES}; local F = {format_expression(e, tab)}; .sort .end"
        (_, value), = parse_program(text).initial
        assert value == e


def test_a_sum_is_sorted_once_whatever_its_length(monkeypatch):
    # Powers of one symbol and integers build no sorted expression of their
    # own, so every sort is the sum's.
    calls = []
    sorted_flat = terms.sorted_flat

    def counted(acc):
        calls.append(len(acc))
        return sorted_flat(acc)

    monkeypatch.setattr(terms, "sorted_flat", counted)
    for n in (10, 300):
        body = "".join(f"{'-' if i % 3 else '+'}x^{i}+{i}" for i in range(1, n + 1))
        calls.clear()
        (_, value), = parse_program(f"symbols x; local F = 7{body}; .sort .end").initial
        assert calls == [n + 1]
        assert len(value) // 2 == n + 1


def test_a_long_printed_sum_reparses_to_the_same_expression():
    program = parse_program("symbols x,y,z,w; local F = (x+y+z+w)^20; .sort .end")
    (_, e), = program.initial
    assert len(e) // 2 == 1771
    text = f"symbols {_NAMES}; local G = {format_expression(e, program.symtab)}; .sort .end"
    (_, value), = parse_program(text).initial
    assert value == e


def test_largest_exponent_parses_formats_and_crosses_the_wire():
    top = terms.EXP_MASK  # 2**32 - 1, the wire format's largest u32 exponent
    program = parse_program(f"symbols x, y; local F = 3*x^{top}*y + y^{top}; .sort .end")
    (_, value), = program.initial
    assert unpack_terms(value, 2) == ((3, ((0, top), (1, 1))), (1, ((1, top),)))
    assert format_expression(value, program.symtab) == f"3*x^{top}*y+y^{top}"
    assert deserialize_terms(serialize_terms(value, 2), 2) == value


@pytest.mark.parametrize("text,col", [
    ("symbols x; local F = x^4294967296; .sort .end", 24),
    ("symbols x; local F = (x^2147483648 + 1)^2; .sort .end", 41),
    ("symbols x; local F = x^4294967295*x; .sort .end", 34),
])
def test_exponent_overflow_is_a_parse_error(text, col):
    with pytest.raises(ParseError, match="exponent overflow") as err:
        parse_program(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_symbols_after_a_local_match_declaring_them_up_front():
    late = parse_program(
        "symbols x; local F = (x+2)^3; symbols y, z; local G = x*y - z;"
        " symbols w; multiply x + w; .sort .end")
    early = parse_program(
        "symbols x, y, z, w; local F = (x+2)^3; local G = x*y - z;"
        " multiply x + w; .sort .end")
    assert late.symtab.names == early.symtab.names
    assert late.initial == early.initial
    assert late.modules == early.modules
    assert unpack_terms(late.initial[0][1], 4) == (
        (1, ((0, 3),)), (6, ((0, 2),)), (12, ((0, 1),)), (8, ()))


def test_coefficients_past_the_int_str_digit_limit_print_and_parse(tmp_path, capsys):
    # CPython converts at most sys.get_int_max_str_digits() digits between
    # int and str, 4,300 by default; the parser and the printer have no limit.
    limit = sys.get_int_max_str_digits() or 4300
    tab = SymbolTable(["x"])
    big = 7 * 10 ** (limit + 100) + 1
    e = (-big, terms.symbol(0, 1)[1], big, terms.UNIT)
    text = f"symbols x; local F = {format_expression(e, tab)}; .sort .end"
    (_, value), = parse_program(text).initial
    assert value == e
    path = tmp_path / "big.pt"
    path.write_text("symbols x; local F = (3*x+1)^9000; .sort .end\n")
    assert cli.main(["run", str(path), "--slaves", "0"]) == 0
    out = capsys.readouterr().out
    # The largest coefficient, C(9000, 6750) * 3^6750, has 5,417 digits.
    top = Decimal(math.comb(9000, 6750) * 3 ** 6750)
    assert len(str(top)) > limit and f"+{top}*x^6750+" in out
    assert out.startswith(f"F = {Decimal(3 ** 9000)}*x^9000+") and out.endswith("+1\n")


@pytest.fixture
def digit_limit():
    """Yields a setter for CPython's int/str digit limit; restores it after."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("limit", ["default", 640])
def test_literals_and_coefficients_convert_by_pieces_under_any_digit_limit(digit_limit, limit):
    rng = random.Random(29)
    default = sys.get_int_max_str_digits()
    digit_limit(0)
    cases = [(str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=size - 1)))
             for size in (1, 639, 640, 641, 1280, 1281, 2561, 4300, 4301, 9000, 20011)]
    cases += ["1" + "0" * 5000, "9" * 3001]
    expected = [int(text) for text in cases]
    digit_limit(default if limit == "default" else limit)
    for text, n in zip(cases, expected):
        assert parser._to_int(text) == n
        assert parser._to_str(n) == text
    for bits in (2047, 2048, 2049, 4097, 30001):
        n = (1 << bits) - 1
        assert parser._to_int(parser._to_str(n)) == n


def test_an_integer_literal_past_the_coefficient_bound_is_a_parse_error(monkeypatch):
    # 315,653 digits is the most a MAX_COEFF_BITS-bit integer can have;
    # leading zeros do not count.  A longer literal is refused before it
    # converts, and one that converts past the bound is refused after.
    digits = parser._MAX_DIGITS
    assert len(parser._to_str(1 << terms.MAX_COEFF_BITS)) == digits
    near = (1 << terms.MAX_COEFF_BITS) - 1
    wide = "0" * 10 + parser._to_str(near)
    (_, value), = parse_program(f"symbols x; local F = {wide}; .sort .end").initial
    assert value == (near, terms.UNIT)

    def never(text):
        raise AssertionError(f"converted {len(text)} digits")

    for literal, convert in ((parser._to_str(near + 1), parser._to_int),
                             ("1" + "0" * digits, never)):
        monkeypatch.setattr(parser, "_to_int", convert)
        for text in (f"symbols x;\nlocal F = {literal}*x; .sort .end",
                     f"symbols x;\nlocal F = x^{literal}; .sort .end"):
            col = text.index(literal) - text.index("\n")
            with pytest.raises(ParseError, match="an integer literal exceeds 1048576 bits") as err:
                parse_program(text)
            assert (err.value.line, err.value.col) == (2, col)
