"""Chunk rewriting: apply one module's statement pipeline to a chunk of terms.

This is the unit of work a worker performs.  Statements apply left to right;
each statement maps the chunk's whole intermediate term list in one loop, with
no sorting in between (FORM semantics: no sort inside a module).  The last
statement adds its products straight into the caller's accumulator, one
``dict`` (monomial -> coefficient) per expression, so like terms combine as
they are generated and a sort boundary only has to order the distinct
monomials (see :func:`parterm.terms.sorted_terms`).  An accumulator may hold
zero sums until then.

On packed monomials (see :mod:`parterm.terms`) ``id x = rhs`` reads the
exponent ``n`` of ``x`` with one shift and mask and subtracts that field;
inside a module it multiplies the rest by ``rhs^n``, and ``multiply f``
multiplies by ``f``.  Either way one guard check per term, against the
field-wise maximum of the factor's monomials, covers every product of the
term with that factor.

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
computed twice.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from . import terms
from .parser import IdSubst, Module, Multiply, Statement
from .terms import Accumulator, Expression, Monomial, Term


@functools.lru_cache(maxsize=256)
def _bounded(factor: Expression) -> tuple[Expression, Monomial]:
    return factor, terms.field_max(factor)


@functools.lru_cache(maxsize=256)
def _rhs_power(rhs: Expression, n: int) -> tuple[Expression, Monomial]:
    # The guard checks need rhs^n for every x-degree n, and Horner's rule
    # rhs^gap for every step, so each power is built once and memoized.
    # pow_expression builds it in one pass over its multinomial compositions
    # and one sort, so building the powers costs little beside the products.
    # Once it has not raised, n * field_max(rhs) is field_max(power) exactly.
    power = terms.pow_expression(rhs, n)
    return power, n * terms.field_max(rhs)


def _factors(current: Sequence[Term], s: Statement, nsymbols: int
             ) -> Iterator[tuple[int, Monomial, Expression]]:
    """Per term of ``current``: its coefficient, its monomial without the
    statement's pattern, and the factor to distribute over them, after the
    term's guard check."""
    guard = terms.guard_mask(nsymbols)
    if isinstance(s, Multiply):
        factor, bound = _bounded(s.factor)
        for coeff, mono in current:
            if (mono + bound) & guard:
                raise terms.ExponentOverflowError()
            yield coeff, mono, factor
        return
    shift = terms.field_shift(s.target, nsymbols)
    rhs = s.rhs
    for coeff, mono in current:
        exp = (mono >> shift) & terms.EXP_MASK
        if not exp:
            yield coeff, mono, terms.ONE
            continue
        mono -= exp << shift
        factor, bound = _rhs_power(rhs, exp)
        if (mono + bound) & guard:
            raise terms.ExponentOverflowError()
        yield coeff, mono, factor


def _times(h: Accumulator, power: Expression, out: Accumulator) -> None:
    """Add ``h * power`` into ``out``: every product of a partial sum."""
    get = out.get
    for mono, coeff in h.items():
        for c, m in power:
            m += mono
            out[m] = get(m, 0) + coeff * c


def _substitute(current: Sequence[Term], s: IdSubst, nsymbols: int,
                acc: Accumulator) -> int:
    """``id x = rhs`` on every term of ``current``, by Horner's rule, into
    ``acc``; returns the direct expansion's count ``sum |P_n| * |rhs^n|``."""
    guard = terms.guard_mask(nsymbols)
    shift = terms.field_shift(s.target, nsymbols)
    rhs = s.rhs
    parts: dict[int, list[Term]] = {}
    for coeff, mono in current:
        n = (mono >> shift) & terms.EXP_MASK
        parts.setdefault(n, []).append((coeff, mono - (n << shift)))
    direct = 0
    for n, part in parts.items():
        power, bound = _rhs_power(rhs, n)
        for _, mono in part:
            if (mono + bound) & guard:
                raise terms.ExponentOverflowError()
        direct += len(part) * len(power)
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
        power = _rhs_power(rhs, n)[0]
        if h and paying:
            step = _rhs_power(rhs, e - n)[0]
            cost = len(h) * len(step)
            paying = made + cost * (1 + len(power)) + left <= 2 * direct
            if paying:
                made += cost
                h, stepped = {}, h
                _times(stepped, step, h)
        if h and not paying:
            held = _rhs_power(rhs, e)[0]
            made += len(h) * len(held)
            _times(h, held, acc)
            h = {}
        left -= len(part) * len(power)
        get = h.get
        for coeff, mono in part:
            h[mono] = get(mono, 0) + coeff
        e = n
        now = made + len(h) * len(power) + left
        paying, total = paying and now <= total, now
    _times(h, _rhs_power(rhs, e)[0], acc)
    return direct


def apply_module_to_chunk(chunk_terms: Sequence[Term], m: Module, nsymbols: int,
                          acc: Accumulator) -> int:
    """Rewrite every term of one chunk and add the results into ``acc``.

    Returns the direct expansion's count: the number of terms the last
    statement generates when each term is multiplied by its own factor (the
    chunk's length for an empty module), before any of them combine.
    """
    statements = m.statements
    current = chunk_terms
    for s in statements[:-1]:
        current = [(coeff * c, mono + mm)
                   for coeff, mono, factor in _factors(current, s, nsymbols)
                   for c, mm in factor]
    if statements and isinstance(statements[-1], IdSubst):
        return _substitute(current, statements[-1], nsymbols, acc)
    if statements:
        factored = _factors(current, statements[-1], nsymbols)
    else:
        factored = ((coeff, mono, terms.ONE) for coeff, mono in current)
    get = acc.get
    generated = 0
    for coeff, mono, factor in factored:
        generated += len(factor)
        for c, mm in factor:
            mm += mono
            acc[mm] = get(mm, 0) + coeff * c
    return generated


def apply_module_to_term(t: Term, m: Module, nsymbols: int) -> list[Term]:
    """One term through the module pipeline: the one-term chunk.

    The result is combined but unsorted, and may hold zero coefficients.
    """
    acc: Accumulator = {}
    apply_module_to_chunk((t,), m, nsymbols, acc)
    return [(coeff, mono) for mono, coeff in acc.items()]
