"""Canonical terms, monomial order, and integer-polynomial arithmetic.

A monomial is one non-negative Python int: a packed exponent vector in the
style of Monagan and Pearce.  Every declared symbol owns a fixed
``FIELD_BITS``-bit field of 32 value bits, which hold exactly a u32
exponent, topped by one guard bit that is clear in every valid monomial.
Symbol 0 sits in the most significant field and symbol
``nsymbols - 1`` in the least significant one, so the exponent of symbol
``sid`` is ``(m >> field_shift(sid, nsymbols)) & EXP_MASK``, and the unit
monomial is ``0``.  The layout depends only on the number of declared
symbols.  :mod:`parterm.transport` sends a monomial as marshal writes this
int, so the field width is part of the wire contract.

The packing makes the two hot operations single int operations:

* Multiplying monomials is ``a + b``.  Fields never carry into each other,
  because two 32-bit values sum to less than ``2**33``.  A sum of ``2**32``
  or more sets its field's guard bit, and every multiply checks the guard
  bits and raises :class:`ExponentOverflowError`; an exponent never wraps
  into a neighbouring field.
* The canonical order compares dense exponent vectors (index = symbol id)
  lexicographically, the greater vector sorting *earlier*, so the highest
  power of the first declared symbol comes first.  On packed monomials that
  order is descending int order.

A term is a coefficient, an arbitrary-precision int, and a monomial.  An
expression is one flat tuple ``(c0, m0, c1, m1, ...)`` of its terms in
descending monomial order, with like terms combined and zero coefficients
removed.  The parser, the arithmetic here, the engine's chunks, runs and
message payloads, and a run's results all hold this one form, so no stage
builds a tuple per term and structural equality is a single ``==``.
:func:`iter_terms` is how code walks the terms one at a time.
"""

from __future__ import annotations

import functools
import math
from itertools import compress
from typing import Iterable, Iterator, Sequence

Factor = tuple[int, int]            # (symbol_id, exponent >= 1)
Monomial = int                      # packed exponent vector, see module docstring
Term = tuple[int, Monomial]         # (coefficient, monomial)
Expression = tuple[int, ...]        # c0, m0, c1, m1, ...: descending, combined, no zeros
Accumulator = dict[Monomial, int]   # monomial -> coefficient sum, unsorted

FIELD_BITS = 33                     # 32 value bits + 1 guard bit per symbol
EXP_MASK = (1 << 32) - 1            # a field's value bits; the largest exponent

UNIT: Monomial = 0
ONE: Expression = (1, UNIT)
ZERO: Expression = ()


class InvariantError(ValueError):
    """A term-level invariant was violated (e.g. a symbol id out of range)."""


class ExponentOverflowError(InvariantError):
    """A product's exponent does not fit the 32 value bits of its field."""

    def __init__(self) -> None:
        super().__init__(f"exponent overflow: a product's exponent exceeds {EXP_MASK}")


class SymbolTable:
    """Bijective name <-> dense-id mapping; ids assigned in declaration order."""

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.declare(name)

    def declare(self, name: str) -> int:
        if name in self._ids:
            raise InvariantError(f"symbol {name!r} declared twice")
        sid = len(self._names)
        self._names.append(name)
        self._ids[name] = sid
        return sid

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InvariantError(f"undeclared symbol {name!r}") from None

    def name_of(self, sid: int) -> str:
        return self._names[sid]

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)


def field_shift(sid: int, nsymbols: int) -> int:
    """Bit offset of symbol ``sid``'s field among ``nsymbols`` fields."""
    return FIELD_BITS * (nsymbols - 1 - sid)


@functools.lru_cache(maxsize=64)
def guard_mask(nfields: int) -> int:
    """The guard bit of each of the ``nfields`` low fields."""
    guard = 1 << (FIELD_BITS - 1)
    mask = 0
    for _ in range(nfields):
        mask = (mask << FIELD_BITS) | guard
    return mask


def unpack(mono: Monomial, nsymbols: int) -> tuple[Factor, ...]:
    """The ``(symbol_id, exponent)`` factors of a monomial, by increasing id."""
    out = []
    for sid in range(nsymbols):
        exp = (mono >> field_shift(sid, nsymbols)) & EXP_MASK
        if exp:
            out.append((sid, exp))
    return tuple(out)


def iter_terms(batch: Iterable[int]) -> Iterator[Term]:
    """The ``(coeff, mono)`` terms of a flat batch, one at a time; ``zip``
    hands back the same tuple while its last one is unpacked and dropped."""
    it = iter(batch)
    return zip(it, it)


def field_max(e: Expression) -> Monomial:
    """The field-wise maximum of ``e``'s monomials, itself a monomial.

    ``m + field_max(e)`` has a guard bit set exactly when ``m + mi`` does for
    some monomial ``mi`` of ``e``, so one check covers a whole distribution.
    """
    rest = e[1::2]
    out = 0
    shift = 0
    while any(rest):
        out |= max(r & EXP_MASK for r in rest) << shift
        rest = [r >> FIELD_BITS for r in rest]
        shift += FIELD_BITS
    return out


def extend_layout(e: Expression, added: int) -> Expression:
    """``e`` after ``added`` more symbols are declared: they take the low
    fields, so every monomial moves up by ``added`` fields."""
    out = list(e)
    out[1::2] = [m << (FIELD_BITS * added) for m in e[1::2]]
    return tuple(out)


def sorted_flat(acc: Accumulator) -> Expression:
    """Combined coefficients by monomial -> canonical expression.

    Drops zero sums and sorts only the distinct monomials, with no tuple made
    per term.  :func:`normalize` is the same step for a raw batch, and the
    engine's sort boundary makes a run of each accumulator the rewriter filled.
    """
    ms = sorted(acc, reverse=True)
    cs = list(map(acc.__getitem__, ms))
    if 0 in cs:
        ms = list(compress(ms, cs))
        cs = list(compress(cs, cs))
    out = cs + ms
    out[::2] = cs
    out[1::2] = ms
    return tuple(out)


def normalize(raw: Iterable[int]) -> Expression:
    """Combine the like terms of a flat batch, drop zero sums, and sort the
    distinct monomials once."""
    acc: Accumulator = {}
    get = acc.get
    for coeff, mono in iter_terms(raw):
        acc[mono] = get(mono, 0) + coeff
    return sorted_flat(acc)


def add_expressions(a: Expression, b: Expression) -> Expression:
    """Sum of two normalized expressions: :func:`normalize` of their concatenation.

    Nothing in the package calls it; it stays only because
    ``perfbench/tracing.py`` looks it up by name (ROADMAP items 1, 2 and 8).
    """
    return normalize(a + b)


def negate_expression(a: Expression) -> Expression:
    out = list(a)
    out[::2] = [-c for c in a[::2]]
    return tuple(out)


def add_product(acc: Accumulator, batch: Sequence[int], factor: Expression) -> None:
    """Add ``batch * factor`` into ``acc``, one pass over the flat ``batch``
    per term of ``factor``.  The caller has checked the guard bits."""
    get = acc.get
    for c, mm in iter_terms(factor):
        for coeff, mono in iter_terms(batch):
            mono += mm
            acc[mono] = get(mono, 0) + coeff * c


def multiply_expressions(a: Expression, b: Expression) -> Expression:
    """Distributive product; combines in a dict, then sorts canonically once.

    Multiplying monomials is adding them.  One guard pass checks the longer
    operand against the shorter one's field-wise maximum, then one pass over
    the longer operand per term of the shorter one makes every product.
    """
    if not a or not b:
        return ZERO
    if len(a) < len(b):
        a, b = b, a
    # Guard bits for every field up to the largest product's top field.
    guard = guard_mask(-(-(a[1] + b[1]).bit_length() // FIELD_BITS))
    bound = field_max(b)
    for ma in a[1::2]:
        if (ma + bound) & guard:
            raise ExponentOverflowError()
    acc: Accumulator = {}
    add_product(acc, a, b)
    return sorted_flat(acc)


def pow_field_max(a: Expression, n: int) -> Monomial:
    """``field_max(a**n)`` without building the power: ``n * field_max(a)``.

    The ``n``-th power of the terms of ``a`` that reach a field's largest
    exponent is not zero, so the power overflows exactly when some field of
    ``n * field_max(a)`` does; then this raises.
    """
    bound = field_max(a)
    rest = bound
    while rest:
        if (rest & EXP_MASK) * n > EXP_MASK:
            raise ExponentOverflowError()
        rest >>= FIELD_BITS
    return n * bound


def pow_expression(a: Expression, n: int) -> Expression:
    """a**n; a**0 is the constant 1.

    One check before any work, :func:`pow_field_max`.

    A single-term base is raised directly.  Otherwise the multinomial theorem
    gives each term of the power once per composition ``i_1+...+i_k = n``:
    coefficient ``n!/(i_1!...i_k!) * prod(c_j**i_j)``, monomial
    ``sum(i_j*m_j)``.  The products go into one dict, which is sorted once.
    When the compositions outnumber ``k*n`` times the distinct monomials the
    power can have (a bound on repeated multiplication's products), the
    base's monomials collide heavily, as in ``(1+x+...+x^10)^20``, and
    repeated multiplication by ``a`` is cheaper.
    """
    if n < 0:
        raise InvariantError(f"negative exponent {n}")
    if n == 0:
        return ONE
    if not a:
        return ZERO
    outputs = 1  # the distinct monomials the power can have, at most
    rest = pow_field_max(a, n)
    while rest:
        outputs *= (rest & EXP_MASK) + 1
        rest >>= FIELD_BITS
    k = len(a) // 2
    if k == 1:
        coeff, mono = a
        return (coeff ** n, mono * n)
    if math.comb(n + k - 1, k - 1) > k * n * outputs:
        result = ONE
        for _ in range(n):
            result = multiply_expressions(result, a)
        return result
    # Per term: c**i and i*m for i = 0..n.  The fields cannot carry, as above.
    coeff_pows, mono_pows = [], []
    for c, m in iter_terms(a):
        row = [1]
        for _ in range(n):
            row.append(row[-1] * c)
        coeff_pows.append(row)
        mono_pows.append([i * m for i in range(n + 1)])
    # Partial compositions of all but the last two terms: (the part of n
    # left, coefficient so far, monomial so far).  The coefficient carries
    # the binomial C(r, i), stepped as C(r, i+1) = C(r, i) * (r-i) / (i+1).
    partial = [(n, 1, UNIT)]
    for cs, ms in zip(coeff_pows[:-2], mono_pows[:-2]):
        step = []
        for r, c, m in partial:
            for i in range(r + 1):
                step.append((r - i, c * cs[i], m + ms[i]))
                c = c * (r - i) // (i + 1)
        partial = step
    # The last two terms share what is left: i and r - i.
    c1, c2 = coeff_pows[-2:]
    m1, m2 = mono_pows[-2:]
    acc: Accumulator = {}
    get = acc.get
    for r, c, m in partial:
        for i in range(r + 1):
            mm = m + m1[i] + m2[r - i]
            acc[mm] = get(mm, 0) + c * c1[i] * c2[r - i]
            c = c * (r - i) // (i + 1)
    return sorted_flat(acc)


def constant(c: int) -> Expression:
    return (c, UNIT) if c else ZERO


def symbol(sid: int, nsymbols: int) -> Expression:
    """The expression ``1 * symbol`` for symbol ``sid`` of ``nsymbols``."""
    if not 0 <= sid < nsymbols:
        raise InvariantError(f"symbol id {sid} out of range for nsymbols {nsymbols}")
    return (1, 1 << field_shift(sid, nsymbols))
