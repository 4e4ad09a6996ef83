"""The master's k-way merge of sorted runs.

A run is a worker's locally sorted, like-term-combined output stream: the
``terms.sorted_flat`` of its accumulator, a flat ``(c0, m0, c1, m1, ...)``
expression like every term batch in the engine.  The final merge merges
the runs two at a time, in rounds, as a balanced tree: each two-way
merge is one pass that takes the terms of both runs in order, sums equal
monomials and drops zero sums; only the band where both runs have terms
costs comparisons, and the rest is copied, so runs of contiguous regions
cost little more than the copy.  It reads the flat runs as they are, so
the master builds no tuple per term, and it never sorts from scratch: its
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
# MERGE_COMPARISON_BOUND * N * log2(k+1) monomial comparisons.  In a
# two-way merge's pass each term of the walked run costs at most two
# comparisons (``>`` and ``==``), and each term of the other run taken
# before one of them one; what follows the walk costs none.  The first
# monomials' comparison, the search, which costs at most 2*h + 1 for the h
# terms it copies, and the last monomials' comparison add at most 3.  So a
# merge of p + q terms costs at most 2 * (p + q) + 3, and runs that overlap
# throughout pay 3 more than the pass.  The k - 1 merges over
# ceil(log2(k)) rounds then cost at most 2 * N * ceil(log2(k)) + 3 * (k - 1),
# and k <= N, as merge_runs drops empty runs first: fewer than
# (2 * ceil(log2(k)) + 3) * N, below 4.5 * N * log2(k+1) for every k >= 2.
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
    monomial are found by galloping, then bisecting, and copied as a slice.
    Then one pass walks the run that ends higher, taking the terms of the
    other that come before each of its terms; the rest of the other, all
    below the walked run's last monomial, follows with no comparison.
    """
    if a[1] < b[1]:
        a, b = b, a
    top, n = b[1], len(a) // 2
    lo, hi = -1, 0  # a's term lo is above top, or lo is -1; hi is the next probe
    while hi < n and top < a[2 * hi + 1]:
        lo, hi = hi, 2 * hi + 1
    hi = min(hi, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if top < a[2 * mid + 1]:
            lo = mid
        else:
            hi = mid
    out = list(a[:2 * hi])
    a = a[2 * hi:]
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
