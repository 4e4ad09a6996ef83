"""The master's k-way merge of sorted runs.

A run is a worker's locally sorted, like-term-combined output stream: the
``terms.sorted_flat`` of its accumulator, a flat ``(c0, m0, c1, m1, ...)``
expression like every term batch in the engine.  The final merge merges
the runs two at a time, in rounds, as a balanced tree: each two-way
merge is one pass that takes the terms of both runs in order, sums equal
monomials and drops zero sums.  Only the band where both runs have terms
costs comparisons: a bisection finds the part of one run above the other,
and that part and the other's part below the band are copied, so runs of
contiguous regions cost little more than the copy.  It reads the flat runs
as they are, so the master builds no tuple per term, and it never sorts
from scratch: its comparison count stays within the k-way bound below.
The merge is the deliberate serial stage of the engine; its cost is what
the phase metrics expose as the final-sort share of wall time.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Sequence

from . import terms
from .terms import Expression, iter_terms


# Merging k runs holding N terms in total performs fewer than
# MERGE_COMPARISON_BOUND * N * log2(k+1) monomial comparisons.  Take a
# two-way merge of p + q terms, p of them in the run that starts higher and
# h of those above the other run's first monomial.  The first monomials'
# comparison costs 1, and the bisection that finds the h terms at most
# ceil(log2(p+1)).  In the pass each term of the walked run costs at most
# two comparisons (``>`` and ``==``), and each term of the other run taken
# before one of them one; what follows the walk costs none.  With the last
# monomials' comparison that is at most 2 * (p + q - h) + 1, and nothing
# when h = p.  So a merge costs at most 2 * (p + q - h) + 2 + ceil(log2(p+1)),
# and one of disjoint runs 1 + ceil(log2(p+1)).  As ceil(log2(p+1)) <= p
# and q >= 1, a merge costs at most 3 * (p + q) + 1.  The k - 1 merges over
# ceil(log2(k)) rounds then cost at most 3 * N * ceil(log2(k)) + k - 1, and
# k <= N, as merge_runs drops empty runs first: fewer than
# (3 * ceil(log2(k)) + 1) * N, below 4.5 * N * log2(k+1) for every k >= 2.
# A sort that ignores the runs pays N * log2(N), above the bound at bench
# sizes.
MERGE_COMPARISON_BOUND = 4.5

# The end of a run: a monomial below every valid one, since valid monomials
# are non-negative, so a two-way merge needs no test for an exhausted run.
_END = (0, -1)


def _merge_two(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Two nonempty sorted flat runs as one sorted flat list, equal monomials
    summed and zero sums dropped.

    The terms of the higher-starting run above the other run's first
    monomial are found by bisection and copied as a slice.
    Then one pass walks the run that ends higher, taking the terms of the
    other that come before each of its terms; the rest of the other, all
    below the walked run's last monomial, follows with no comparison.
    """
    if a[1] < b[1]:
        a, b = b, a
    top = b[1]
    h = bisect_left(range(len(a) // 2), True, key=lambda i: not top < a[2 * i + 1])
    out = list(a[:2 * h])
    a = a[2 * h:]
    if not (a and a[-1] < b[-1]):
        a, b = b, a
    append = out.append
    rest = chain(a, _END)
    ca, ma = next(rest), next(rest)
    for cb, mb in iter_terms(b):
        while ma > mb:
            append(ca)
            append(ma)
            ca, ma = next(rest), next(rest)
        if ma == mb:
            ca += cb
            if ca:
                append(ca)
                append(mb)
            ca, ma = next(rest), next(rest)
        else:
            append(cb)
            append(mb)
    # The rest of a, from its current term, ends with _END: drop that.
    append(ca)
    append(ma)
    out += rest
    del out[-2:]
    return out


def merge_runs(runs: Sequence[Expression]) -> Expression:
    """Merge k sorted flat runs into one: two-way merges in rounds.

    Equal monomials across runs are summed; zero sums are dropped.
    """
    merged = [r for r in runs if r]
    while len(merged) > 1:
        merged = [_merge_two(*merged[i:i + 2]) if i + 1 < len(merged) else merged[i]
                  for i in range(0, len(merged), 2)]
        merged = [r for r in merged if r]  # a merge may cancel to nothing
    return tuple(merged[0]) if merged else terms.ZERO
