"""Parser for the mini term-rewriting language, plus expression formatting.

A program declares symbols, defines local expressions, then lists modules.
Each module is a pipeline of per-term statements ended by a ``.sort``
boundary; the program ends with ``.end``::

    symbols x, y;
    local F = (x + y)^2;
    id x = x + 1;
    .sort
    .end

Operator precedence is ``^`` above unary minus above ``*`` above binary
``+``/``-``; exponents must be positive integer literals.  A ``*`` in the
first column starts a comment that runs to end of line.

One regular expression scans the whole text into ``(kind, text, offset)``
tokens before the grammar reads any.  No token carries a line or a column:
those of a :class:`ParseError` are computed from its token's offset only
when one is raised.

Expressions, and the statements' factors, are built directly as flat
expressions of packed terms (:mod:`parterm.terms`).  A ``symbols`` statement
after a ``local`` adds fields at the low end of the layout, so once the
declarations end each local moves up by one field per symbol declared after
it.

An integer literal may take at most ``terms.MAX_COEFF_BITS`` bits, the bound
of every computed coefficient; a longer one is a parse error before it
converts.  Literals and printed coefficients convert by halves, in pieces of
at most 640 digits, the least limit ``sys.set_int_max_str_digits`` accepts:
``int`` and ``str`` refuse strings past CPython's digit limit, and take time
quadratic in the digits.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Optional, Union

from . import terms
from .terms import Expression, SymbolTable, iter_terms

KEYWORDS = frozenset({"symbols", "local", "id", "multiply"})


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class IdSubst(NamedTuple):
    """Replace every power of one symbol: x^n -> rhs^n, per term."""

    target: int
    rhs: Expression


class Multiply(NamedTuple):
    """Multiply every term by a fixed expression."""

    factor: Expression


Statement = Union[IdSubst, Multiply]


class Module(NamedTuple):
    statements: tuple[Statement, ...]


class Program(NamedTuple):
    """Symbols, named local expressions and modules, in program order.

    Every local expression is canonical: the engine passes it through a
    module with no statements untouched."""

    symtab: SymbolTable
    initial: list[tuple[str, Expression]]
    modules: list[Module]


# A token is a plain (kind, text, offset) tuple, which builds in half the
# time of a NamedTuple.  The kind is NAME, INT, EOF, or for punctuation and
# the two directives the text itself.  ``\w`` is what str.isalnum accepts
# plus '_', and ``\d`` what str.isdecimal accepts; ``[^\W\d_]`` holds every
# letter, but also numerals such as '²', which start no name.  A directive
# is '.' and the letters after it, so '.sortx' is none.
_Token = tuple[str, str, int]

_SCAN = re.compile(r"""
    [ \t\r\n]+ | ^\*.*                            # blanks; a comment line
  | (?P<NAME>[^\W\d_]\w*) | (?P<INT>\d+)
  | ([-,;=+*^()] | \.(?:sort|end)(?![^\W\d_]))
  | (?P<BAD>(?s:.+))                              # no token starts here
""", re.MULTILINE | re.VERBOSE)


def _error(text: str, message: str, pos: int) -> ParseError:
    col = pos - text.rfind("\n", 0, pos)
    return ParseError(message, text.count("\n", 0, pos) + 1, col)


def _scan_error(text: str, pos: int) -> ParseError:
    """The error for offset ``pos``, where no token starts."""
    if text[pos] == ".":
        end = pos + 1
        while end < len(text) and text[end].isalpha():
            end += 1
        if text[pos:end] not in (".sort", ".end"):
            return _error(text, f"unknown directive {text[pos:end]!r}", pos)
        pos = end  # '.sort' or '.end', then a numeral such as '²'
    return _error(text, f"unexpected character {text[pos]!r}", pos)


def _scan(text: str) -> list[_Token]:
    tokens = [(m.lastgroup or m[0], m[0], m.start())
              for m in _SCAN.finditer(text) if m.lastindex]
    if not text.isascii():
        for kind, word, pos in tokens:
            if kind == "NAME" and not word[0].isalpha():
                raise _scan_error(text, pos)
    if tokens and tokens[-1][0] == "BAD":
        raise _scan_error(text, tokens[-1][2])
    tokens.append(("EOF", "", len(text)))
    return tokens


# A literal's significant digits, at most: those of a MAX_COEFF_BITS-bit int.
_MAX_DIGITS = int(terms.MAX_COEFF_BITS * math.log10(2)) + 1
# Every digit limit admits a piece: 640 digits is the least limit that
# sys.set_int_max_str_digits accepts, and a 2048-bit int has at most 617.
_PIECE = 640
_PIECE_BITS = 2048


def _to_int(digits: str) -> int:
    """``int(digits)``, by halves: ``hi * 10**k + lo``."""
    if len(digits) <= _PIECE:
        return int(digits)
    k = len(digits) // 2
    return _to_int(digits[:-k]) * 10 ** k + _to_int(digits[-k:])


def _to_str(n: int) -> str:
    """``str(n)`` for ``n >= 0``, by halves over exact ``decimal`` arithmetic,
    ``hi * 2**k + lo``, whose multiplication is subquadratic, as CPython
    3.12's ``_pylong`` does; only past ``_PIECE_BITS`` is decimal imported."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    import decimal
    powers: dict[int, decimal.Decimal] = {}   # 2**k for each split k, built once

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits <= _PIECE_BITS:
            return decimal.Decimal(n)
        k = bits // 2
        if k not in powers:
            powers[k] = decimal.Decimal(2) ** k
        hi = n >> k
        return convert(hi, bits - k) * powers[k] + convert(n - (hi << k), k)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return str(convert(n, n.bit_length()))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0
        self.symtab = SymbolTable()

    # -- token plumbing ----------------------------------------------------

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Token]:
        """Take the next token if it is of ``kind`` and, if given, ``text``."""
        tok = self.tokens[self.i]
        if tok[0] != kind or (text is not None and tok[1] != text):
            return None
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        tok = self.accept(kind)
        if tok is None:
            raise self.fail(f"expected {what}, found {self.found()}")
        return tok[1]

    def found(self) -> str:
        text = self.tokens[self.i][1]
        return repr(text) if text else "end of input"

    def fail(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at token ``at``, by default the next one."""
        tok = self.tokens[self.i if at is None else at]
        return _error(self.text, message, tok[2])

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        # (name, value, number of symbols declared when it was defined)
        defined: list[tuple[str, Expression, int]] = []
        seen_locals: set[str] = set()
        while True:
            if self.accept("NAME", "symbols"):
                while True:
                    at = self.i
                    name = self.expect("NAME", "a symbol name")
                    if name in KEYWORDS:
                        raise self.fail(f"{name!r} is a keyword", at)
                    if name in self.symtab:
                        raise self.fail(f"symbol {name!r} declared twice", at)
                    self.symtab.declare(name)
                    if not self.accept(","):
                        break
            elif self.accept("NAME", "local"):
                at = self.i
                name = self.expect("NAME", "a local-expression name")
                if name in KEYWORDS:
                    raise self.fail(f"{name!r} is a keyword", at)
                if name in seen_locals:
                    raise self.fail(f"local {name!r} defined twice", at)
                seen_locals.add(name)
                self.expect("=", "'='")
                defined.append((name, self.expr(), len(self.symtab)))
            else:
                break
            self.expect(";", "';'")

        nsymbols = len(self.symtab)
        initial = [(name, terms.extend_layout(value, nsymbols - n)) for name, value, n in defined]

        modules: list[Module] = []
        while not self.accept(".end"):
            if self.tokens[self.i][0] == "EOF":
                raise self.fail("missing '.end'")
            modules.append(self.module())
        if not modules:
            raise self.fail("program has no module (no '.sort' boundary)")
        return Program(self.symtab, initial, modules)

    def module(self) -> Module:
        statements: list[Statement] = []
        while not self.accept(".sort"):
            if self.accept("NAME", "id"):
                sid = self.symbol_id()
                self.expect("=", "'='")
                statements.append(IdSubst(sid, self.expr()))
            elif self.accept("NAME", "multiply"):
                statements.append(Multiply(self.expr()))
            elif self.tokens[self.i][0] in ("EOF", ".end"):
                raise self.fail("module not terminated by '.sort'")
            else:
                raise self.fail(f"expected a statement or '.sort', found {self.found()}")
            self.expect(";", "';'")
        return Module(tuple(statements))

    def symbol_id(self) -> int:
        at = self.i
        name = self.expect("NAME", "a symbol name")
        if name not in self.symtab:
            raise self.fail(f"undeclared symbol {name!r}", at)
        return self.symtab.id_of(name)

    # expr, term and factor run once per operator and operand of a long sum,
    # so they compare token kinds in place.

    def expr(self) -> Expression:
        # The signed terms of a sum go into one batch, normalized once, so a
        # long sum parses in time linear in its terms.
        value = self.term()
        if self.tokens[self.i][0] not in ("+", "-"):
            return value
        raw = list(value)
        while (op := self.tokens[self.i][0]) in ("+", "-"):
            self.i += 1
            rhs = self.term()
            raw += terms.negate_expression(rhs) if op == "-" else rhs
        return terms.normalize(raw)

    def term(self) -> Expression:
        value = self.factor()
        while self.tokens[self.i][0] == "*":
            at = self.i
            self.i += 1
            rhs = self.factor()
            try:
                value = terms.multiply_expressions(value, rhs)
            except (terms.ExponentOverflowError, terms.CoefficientOverflowError) as exc:
                raise self.fail(str(exc), at) from None
        return value

    def factor(self) -> Expression:
        negate = self.tokens[self.i][0] == "-"
        if negate:
            self.i += 1
        value = self.base()
        if self.accept("^"):
            at = self.i
            if not self.accept("INT"):
                raise self.fail("exponent must be an integer literal")
            n = self.integer(at)
            if n <= 0:
                raise self.fail(f"exponent must be positive, got {n}", at)
            try:
                value = terms.pow_expression(value, n)
            except (terms.ExponentOverflowError, terms.CoefficientOverflowError) as exc:
                raise self.fail(str(exc), at) from None
        return terms.negate_expression(value) if negate else value

    def base(self) -> Expression:
        kind, text, _ = self.tokens[self.i]
        if kind == "NAME":
            if text in KEYWORDS:
                raise self.fail(f"{text!r} is a keyword")
            return terms.symbol(self.symbol_id(), len(self.symtab))
        if kind == "INT":
            self.i += 1
            return terms.constant(self.integer(self.i - 1))
        if self.accept("("):
            value = self.expr()
            self.expect(")", "')'")
            return value
        raise self.fail(f"expected a symbol, integer or '(', found {self.found()}")

    def integer(self, at: int) -> int:
        """The value of INT token ``at``, refused past ``MAX_COEFF_BITS``
        bits, and before it converts past ``_MAX_DIGITS`` digits."""
        digits = self.tokens[at][1].lstrip("0") or "0"
        n = _to_int(digits) if len(digits) <= _MAX_DIGITS else None
        if n is None or n.bit_length() > terms.MAX_COEFF_BITS:
            raise self.fail(f"coefficient overflow: an integer literal exceeds "
                            f"{terms.MAX_COEFF_BITS} bits", at)
        return n


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    try:
        return parser.program()
    except RecursionError:
        raise parser.fail("expression nested too deeply") from None


def format_expression(e: Expression, symtab: SymbolTable) -> str:
    """Deterministic text form in canonical term order; parses back to ``e``."""
    if not e:
        return "0"
    nsymbols = len(symtab)
    parts: list[str] = []
    for i, (coeff, mono) in enumerate(iter_terms(e)):
        sign = "-" if coeff < 0 else ("+" if i else "")
        mag = abs(coeff)
        factors = [f"{symtab.name_of(sid)}^{exp}" if exp > 1 else symtab.name_of(sid)
                   for sid, exp in terms.unpack(mono, nsymbols)]
        if not factors:
            body = _to_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_to_str(mag)] + factors)
        parts.append(sign + body)
    return "".join(parts)
