"""Chunk rewriting: apply one module's statement pipeline to a chunk of terms.

This is the unit of work a worker performs.  Statements apply left to right,
with no sorting in between (FORM semantics: no sort inside a module).  The
last statement adds its products straight into the caller's accumulator, one
``dict`` (monomial -> coefficient) per expression, so like terms combine as
they are generated and a sort boundary only has to order the distinct
monomials (see :func:`parterm.terms.sorted_flat`).  An accumulator may hold
zero sums until then.

A chunk, every intermediate result, a statement's factor and each power of
an ``rhs`` are flat term batches ``(c0, m0, c1, m1, ...)`` (see
:mod:`parterm.terms`): the rewriter reads the terms two at a time and builds
no tuple per term.  Every product count below counts terms, half a batch's
length.

On packed monomials (see :mod:`parterm.terms`) ``id x = rhs`` reads the
exponent ``n`` of ``x`` with one shift and mask, subtracts that field and
multiplies the rest by ``rhs^n``; ``multiply f`` multiplies by ``f``.  Each
statement first makes one guard pass over the chunk's intermediate
monomials: one check per term, against the field-wise maximum of its
factor's monomials, covers every product of the term with that factor.
Then it makes one loop over the terms per term of the factor.  No product
is made before every check has passed, so a chunk that overflows leaves the
accumulator untouched.

As a module's last statement ``id x = rhs`` groups the chunk by x-degree
into polynomials ``P_n`` without ``x`` and evaluates ``sum P_n * rhs^n`` by
Horner's rule, ``H <- H * rhs^gap + P_n``, stepping only between the degrees
the chunk holds.  Terms of neighbouring degrees then share their expansion:
on a dense chunk it makes a fifth of the direct expansion's products.  The
guard checks still come first, one per term against ``rhs^n``; a monomial of
``rhs^a`` lies field-wise below the maximum of ``rhs^b`` for ``a <= b``, so
every monomial of ``H`` lies below some checked product.  On a sparse chunk a
step can cost more than it saves, so stepping stops once a step has not paid
or could take the chunk past twice the direct count.  ``H`` then goes into
the accumulator at once, times the power of its degree, and nothing is
computed twice.  The guard bound of ``rhs^n`` and its size, which the cost
model reads, come without building it (see :func:`_rhs_size`), so only the
powers a product loop multiplies by are built.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from . import terms
from .parser import IdSubst, Module, Multiply
from .terms import Accumulator, Expression, Monomial, Term, iter_terms

Batch = Sequence[int]   # a flat (c0, m0, c1, m1, ...) tuple or list


_field_max = functools.lru_cache(maxsize=256)(terms.field_max)
_rhs_bound = functools.lru_cache(maxsize=256)(terms.pow_field_max)


@functools.lru_cache(maxsize=256)
def _rhs_power(rhs: Expression, n: int) -> Expression:
    # Called for a power a product loop multiplies by, or that _rhs_size
    # cannot count otherwise; each is built once.
    return terms.pow_expression(rhs, n)


@functools.lru_cache(maxsize=64)
def _compositions_distinct(rhs: Expression) -> bool:
    """Whether every non-unit monomial of ``rhs`` has a symbol no other one
    has, as in any linear form ``a*y + b*z + ... + c``.  Then that symbol's
    exponent in a monomial of ``rhs^n`` says how often the composition took
    the term, so distinct compositions give distinct monomials."""
    nfields = max(rhs[1::2], default=0).bit_length() // terms.FIELD_BITS + 1
    seen, shared, supports = set(), set(), []
    for m in rhs[1::2]:
        support = {sid for sid, _ in terms.unpack(m, nfields)}
        shared |= seen & support
        seen |= support
        supports.append(support)
    return all(support - shared for support in supports if support)


def _rhs_size(rhs: Expression, n: int) -> int:
    """The number of terms of ``rhs^n``.  When the compositions of ``n`` over
    the ``k`` terms of ``rhs`` are distinct, each gives its own monomial, with
    a coefficient that is not zero: ``C(n + k - 1, k - 1)`` terms, counted
    without building the power."""
    if not rhs:
        return int(n == 0)
    if _compositions_distinct(rhs):
        k = len(rhs) // 2
        return math.comb(n + k - 1, k - 1)
    return len(_rhs_power(rhs, n)) // 2


def _check(current: Batch, bound: Monomial, nsymbols: int) -> None:
    """Raise unless every term of ``current`` times ``bound`` fits its fields."""
    guard = terms.guard_mask(nsymbols)
    for mono in current[1::2]:
        if (mono + bound) & guard:
            raise terms.ExponentOverflowError()


def _degrees(current: Batch, s: IdSubst, nsymbols: int) -> dict[int, list[int]]:
    """The terms of ``current`` as flat batches by the exponent ``n`` of
    ``s``'s target, which each loses, after every term's guard check against
    ``rhs^n``."""
    shift = terms.field_shift(s.target, nsymbols)
    parts: dict[int, list[int]] = {}
    for coeff, mono in iter_terms(current):
        n = (mono >> shift) & terms.EXP_MASK
        parts.setdefault(n, []).extend((coeff, mono - (n << shift)))
    for n, part in parts.items():
        _check(part, _rhs_bound(s.rhs, n), nsymbols)
    return parts


def _times(h: Accumulator, power: Expression, out: Accumulator) -> None:
    """Add ``h * power`` into ``out``, one pass over ``h`` per term of ``power``."""
    get = out.get
    for c, m in iter_terms(power):
        for mono, coeff in h.items():
            mono += m
            out[mono] = get(mono, 0) + coeff * c


def _substitute(current: Batch, s: IdSubst, nsymbols: int, acc: Accumulator) -> int:
    """``id x = rhs`` on every term of ``current``, by Horner's rule, into
    ``acc``; returns the direct expansion's count ``sum |P_n| * |rhs^n|``."""
    rhs = s.rhs
    parts = _degrees(current, s, nsymbols)
    direct = sum(len(part) // 2 * _rhs_size(rhs, n) for n, part in parts.items())
    # made: products so far; left: the direct count of the degrees not yet
    # in h; total = made + |h| * |rhs^e| + left, the chunk's products if h
    # takes no further step.  Steps stop for the chunk once one raises
    # total, or once a step that combined nothing could take total past
    # twice the direct count.
    made, left, total, paying = 0, direct, direct, True
    h: Accumulator = {}
    e = 0
    for n in sorted(parts, reverse=True):
        part = parts[n]
        size = _rhs_size(rhs, n)
        if h and paying:
            cost = len(h) * _rhs_size(rhs, e - n)
            paying = made + cost * (1 + size) + left <= 2 * direct
            if paying:
                made += cost
                h, stepped = {}, h
                _times(stepped, _rhs_power(rhs, e - n), h)
        if h and not paying:
            made += len(h) * _rhs_size(rhs, e)
            _times(h, _rhs_power(rhs, e), acc)
            h = {}
        left -= len(part) // 2 * size
        get = h.get
        for coeff, mono in iter_terms(part):
            h[mono] = get(mono, 0) + coeff
        e = n
        now = made + len(h) * size + left
        paying, total = paying and now <= total, now
    _times(h, _rhs_power(rhs, e), acc)
    return direct


def _products(current: Batch, factor: Expression) -> list[int]:
    """The flat batch ``current * factor``, uncombined: one pass over
    ``current`` per term of ``factor``."""
    out: list[int] = []
    for c, mm in iter_terms(factor):
        for coeff, mono in iter_terms(current):
            out += coeff * c, mono + mm
    return out


def apply_module_to_chunk(chunk: Batch, m: Module, nsymbols: int, acc: Accumulator) -> int:
    """Rewrite every term of one flat chunk and add the results into ``acc``.

    Returns the direct expansion's count: the number of terms the last
    statement generates when each term is multiplied by its own factor (the
    chunk's length for an empty module), before any of them combine.
    """
    statements = m.statements
    current = chunk
    for s in statements[:-1]:
        if isinstance(s, Multiply):
            _check(current, _field_max(s.factor), nsymbols)
            current = _products(current, s.factor)
        else:
            parts = _degrees(current, s, nsymbols)
            current = []
            for n, part in parts.items():
                current += _products(part, _rhs_power(s.rhs, n))
    if not statements:
        factor = terms.ONE
    elif isinstance(statements[-1], IdSubst):
        return _substitute(current, statements[-1], nsymbols, acc)
    else:
        factor = statements[-1].factor
        _check(current, _field_max(factor), nsymbols)
    terms.add_product(acc, current, factor)
    return len(current) * len(factor) // 4


def apply_module_to_term(t: Term, m: Module, nsymbols: int) -> list[Term]:
    """One term through the module pipeline: the one-term chunk, which is
    the pair ``t`` itself.

    The result is combined but unsorted, and may hold zero coefficients.
    The engine never calls it; it stays only because ``perfbench/tracing.py``
    looks it up by name (ROADMAP items 1, 2 and 8).
    """
    acc: Accumulator = {}
    apply_module_to_chunk(t, m, nsymbols, acc)
    return [(coeff, mono) for mono, coeff in acc.items()]
