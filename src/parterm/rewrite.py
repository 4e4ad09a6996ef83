"""Per-term rewriting: apply one module's statement pipeline to a single term.

This is the unit of work a worker performs.  Statements apply left to right;
each statement maps the full intermediate term multiset term by term, with no
sorting in between.  Output terms are raw (unsorted, duplicates and zero
coefficients allowed) until a sort boundary normalizes them.

On packed monomials (see :mod:`parterm.terms`) ``id x = rhs`` reads the
exponent ``n`` of ``x`` with one shift and mask, subtracts that field, and
multiplies the rest by ``rhs^n``; ``multiply f`` multiplies by ``f``.  Either
way one guard check against the field-wise maximum of the factor's monomials
covers every product of the term with that factor.
"""

from __future__ import annotations

import functools
from typing import Sequence

from . import terms
from .parser import Module, Multiply, Statement
from .terms import Expression, Monomial, Term


@functools.lru_cache(maxsize=256)
def _bounded(factor: Expression) -> tuple[Expression, Monomial]:
    return factor, terms.field_max(factor)


@functools.lru_cache(maxsize=256)
def _rhs_power(rhs: Expression, n: int) -> tuple[Expression, Monomial]:
    # Substitution hits the same rhs^n for every input term with x-degree n;
    # memoizing keeps substitution workloads near-linear in generated terms.
    power = terms.pow_expression(rhs, n)
    return power, terms.field_max(power)


def apply_statement(t: Term, s: Statement, nsymbols: int) -> list[Term]:
    """One statement on one term; the result is a raw (unnormalized) batch."""
    coeff, mono = t
    if isinstance(s, Multiply):
        factor, bound = _bounded(s.factor)
    else:
        shift = terms.field_shift(s.target, nsymbols)
        exp = (mono >> shift) & terms.EXP_MASK
        if not exp:
            return [t]
        mono -= exp << shift
        factor, bound = _rhs_power(s.rhs, exp)
    if (mono + bound) & terms.guard_mask(nsymbols):
        raise terms.ExponentOverflowError()
    return [(coeff * c, mono + m) for c, m in factor]


def apply_module_to_term(t: Term, m: Module, nsymbols: int) -> list[Term]:
    """Feed one term through the module pipeline; empty module is identity."""
    current = [t]
    for s in m.statements:
        nxt: list[Term] = []
        for u in current:
            nxt.extend(apply_statement(u, s, nsymbols))
        current = nxt
    return current


def apply_module_to_chunk(chunk_terms: Sequence[Term], m: Module, nsymbols: int) -> list[Term]:
    """Rewrite every term of one chunk; the result is a raw batch."""
    out: list[Term] = []
    for t in chunk_terms:
        out.extend(apply_module_to_term(t, m, nsymbols))
    return out
