"""The master's k-way merge of sorted runs.

A run is a worker's locally sorted, like-term-combined output stream: the
``terms.sorted_flat`` of its accumulator, a flat ``(c0, m0, c1, m1, ...)``
expression like every term batch in the engine.  The final merge merges
the runs two at a time, in rounds, as a balanced tree: each two-way
merge is one pass that takes the terms of both runs in order, sums equal
monomials and drops zero sums.  It reads the flat runs as they are, so the
master builds no tuple per term, and it never sorts from scratch: its
comparison count stays within the k-way bound below.  The merge is the
deliberate serial stage of the engine; its cost is what the phase metrics
expose as the final-sort share of wall time.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from . import terms
from .terms import Expression, iter_terms


# Merging k runs holding N terms in total performs fewer than
# MERGE_COMPARISON_BOUND * N * log2(k+1) monomial comparisons.  A two-way
# merge compares each term of its first run once with the next term of the
# second run, and each term of the second run at most twice (``>`` and
# ``==``), so a round of two-way merges costs at most 2 comparisons per
# term, and ceil(log2(k)) rounds at most 2 * N * ceil(log2(k)), below
# 3.3 * N * log2(k+1) for every k >= 2.  A sort that ignores the runs pays
# N * log2(N), above the bound at bench sizes.
MERGE_COMPARISON_BOUND = 4.5

# The end of a run: a monomial below every valid one, since valid monomials
# are non-negative, so a two-way merge needs no test for an exhausted run.
_END = (0, -1)


def _merge_two(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Two sorted flat runs as one sorted flat list, equal monomials summed
    and zero sums dropped: one pass over ``b``, taking the terms of ``a``
    that come before each of its terms."""
    out: list[int] = []
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
    if not merged:
        return terms.ZERO
    while len(merged) > 1:
        merged = [_merge_two(*merged[i:i + 2]) if i + 1 < len(merged) else merged[i]
                  for i in range(0, len(merged), 2)]
    return tuple(merged[0])
