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
exponent ``n`` of ``x`` with one shift and mask, subtracts that field, and
multiplies the rest by ``rhs^n``; ``multiply f`` multiplies by ``f``.  Either
way one guard check per term, against the field-wise maximum of the factor's
monomials, covers every product of the term with that factor.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

from . import terms
from .parser import Module, Multiply, Statement
from .terms import Accumulator, Expression, Monomial, Term


@functools.lru_cache(maxsize=256)
def _bounded(factor: Expression) -> tuple[Expression, Monomial]:
    return factor, terms.field_max(factor)


@functools.lru_cache(maxsize=256)
def _rhs_power(rhs: Expression, n: int) -> tuple[Expression, Monomial]:
    # Every input term with x-degree n needs the same rhs^n, so each power is
    # built once and memoized.  pow_expression builds it in one pass over its
    # multinomial compositions and one sort, so building the powers costs
    # little beside the products the substitution then generates.
    power = terms.pow_expression(rhs, n)
    return power, terms.field_max(power)


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


def apply_module_to_chunk(chunk_terms: Sequence[Term], m: Module, nsymbols: int,
                          acc: Accumulator) -> int:
    """Rewrite every term of one chunk and add the results into ``acc``.

    Returns the number of terms the last statement generated (the chunk's
    length for an empty module), before any of them combine.
    """
    statements = m.statements
    current = chunk_terms
    for s in statements[:-1]:
        current = [(coeff * c, mono + mm)
                   for coeff, mono, factor in _factors(current, s, nsymbols)
                   for c, mm in factor]
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
