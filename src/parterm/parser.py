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

Expressions, and the statements' factors, are built directly as flat
expressions of packed terms (:mod:`parterm.terms`).  A ``symbols`` statement
after a ``local`` adds fields at the low end of the layout, so once the
declarations end each local moves up by one field per symbol declared after
it.

Integer literals and printed coefficients may have any number of digits:
past ``sys.get_int_max_str_digits()``, where ``int`` and ``str`` stop,
they convert through :class:`decimal.Decimal`, which is exact and has no
such limit.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from . import terms
from .terms import Expression, SymbolTable, iter_terms

KEYWORDS = frozenset({"symbols", "local", "id", "multiply"})

_PUNCT = frozenset(",;=+-*^()")


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


class _Token(NamedTuple):
    kind: str  # NAME | INT | DOTWORD | one of , ; = + - * ^ ( ) | EOF
    text: str
    line: int
    col: int


def _unlimited(convert, value):
    """``convert(value)`` for ``int`` of a literal or ``str`` of a coefficient,
    through ``Decimal`` past their digit limit; only then is decimal imported."""
    try:
        return convert(value)
    except ValueError:
        from decimal import Decimal
        return convert(Decimal(value))


def _show(tok: _Token) -> str:
    return repr(tok.text) if tok.text else "end of input"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "*" and col == 1:  # comment line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == ".":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in (".sort", ".end"):
                raise ParseError(f"unknown directive {word!r}", line, col)
            tokens.append(_Token("DOTWORD", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.symtab = SymbolTable()

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {_show(tok)}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        # (name, value, number of symbols declared when it was defined)
        defined: list[tuple[str, Expression, int]] = []
        seen_locals: set[str] = set()
        while self.peek().kind == "NAME" and self.peek().text in ("symbols", "local"):
            tok = self.advance()
            if tok.text == "symbols":
                while True:
                    name = self.expect("NAME", "a symbol name")
                    if name.text in KEYWORDS:
                        raise ParseError(f"{name.text!r} is a keyword", name.line, name.col)
                    try:
                        self.symtab.declare(name.text)
                    except terms.InvariantError:
                        raise ParseError(f"symbol {name.text!r} declared twice",
                                         name.line, name.col) from None
                    if self.peek().kind != ",":
                        break
                    self.advance()
                self.expect(";", "';'")
            else:
                name = self.expect("NAME", "a local-expression name")
                if name.text in seen_locals:
                    raise ParseError(f"local {name.text!r} defined twice", name.line, name.col)
                seen_locals.add(name.text)
                self.expect("=", "'='")
                value = self.expr()
                self.expect(";", "';'")
                defined.append((name.text, value, len(self.symtab)))

        nsymbols = len(self.symtab)
        initial = [(name, terms.extend_layout(value, nsymbols - n)) for name, value, n in defined]

        modules: list[Module] = []
        while True:
            tok = self.peek()
            if tok.kind == "DOTWORD" and tok.text == ".end":
                self.advance()
                break
            if tok.kind == "EOF":
                raise ParseError("missing '.end'", tok.line, tok.col)
            modules.append(self.module())
        if not modules:
            tok = self.peek()
            raise ParseError("program has no module (no '.sort' boundary)", tok.line, tok.col)
        return Program(self.symtab, initial, modules)

    def module(self) -> Module:
        statements: list[Statement] = []
        while True:
            tok = self.peek()
            if tok.kind == "DOTWORD" and tok.text == ".sort":
                self.advance()
                return Module(tuple(statements))
            if tok.kind == "NAME" and tok.text == "id":
                self.advance()
                name = self.expect("NAME", "a symbol name")
                sid = self.symbol_id(name)
                self.expect("=", "'='")
                rhs = self.expr()
                self.expect(";", "';'")
                statements.append(IdSubst(sid, rhs))
            elif tok.kind == "NAME" and tok.text == "multiply":
                self.advance()
                factor = self.expr()
                self.expect(";", "';'")
                statements.append(Multiply(factor))
            elif tok.kind == "EOF" or (tok.kind == "DOTWORD" and tok.text == ".end"):
                raise self.fail("module not terminated by '.sort'")
            else:
                raise self.fail(f"expected a statement or '.sort', found {_show(tok)}")

    def symbol_id(self, tok: _Token) -> int:
        try:
            return self.symtab.id_of(tok.text)
        except terms.InvariantError:
            raise ParseError(f"undeclared symbol {tok.text!r}", tok.line, tok.col) from None

    def expr(self) -> Expression:
        # The signed terms of a sum go into one batch, normalized once, so a
        # long sum parses in time linear in its terms.
        value = self.term()
        if self.peek().kind not in ("+", "-"):
            return value
        raw = list(value)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            raw += terms.negate_expression(rhs) if op.kind == "-" else rhs
        return terms.normalize(raw)

    def term(self) -> Expression:
        value = self.factor()
        while self.peek().kind == "*":
            op = self.advance()
            rhs = self.factor()
            try:
                value = terms.multiply_expressions(value, rhs)
            except terms.ExponentOverflowError as exc:
                raise ParseError(str(exc), op.line, op.col) from None
        return value

    def factor(self) -> Expression:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise ParseError("exponent must be an integer literal", tok.line, tok.col)
            self.advance()
            n = _unlimited(int, tok.text)
            if n <= 0:
                raise ParseError(f"exponent must be positive, got {n}", tok.line, tok.col)
            try:
                value = terms.pow_expression(value, n)
            except terms.ExponentOverflowError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        return terms.negate_expression(value) if negate else value

    def base(self) -> Expression:
        tok = self.peek()
        if tok.kind == "NAME":
            if tok.text in KEYWORDS:
                raise ParseError(f"{tok.text!r} is a keyword", tok.line, tok.col)
            self.advance()
            return terms.symbol(self.symbol_id(tok), len(self.symtab))
        if tok.kind == "INT":
            self.advance()
            return terms.constant(_unlimited(int, tok.text))
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")", "')'")
            return value
        raise self.fail(f"expected a symbol, integer or '(', found {_show(tok)}")


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
            body = _unlimited(str, mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_unlimited(str, mag)] + factors)
        parts.append(sign + body)
    return "".join(parts)
