"""The master's k-way merge of sorted runs.

A run is a worker's locally sorted, like-term-combined output stream: the
``terms.sorted_terms`` of its accumulator, itself an expression.  The final
merge sorts the concatenated runs once with Python's timsort, which finds each
run as a natural run and merges the runs in C, then makes one pass that sums
adjacent equal monomials and drops zero sums.  It never re-sorts from scratch:
its comparison count stays within the k-way bound below.  The merge is the
deliberate serial stage of the engine; its cost is what the phase metrics
expose as the final-sort share of wall time.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Sequence

from . import terms
from .terms import Expression, Term


# Merging k runs holding N terms in total performs fewer than
# MERGE_COMPARISON_BOUND * N * log2(k+1) monomial comparisons.  A run shorter
# than timsort's minrun (at most 64) is extended by binary insertion, at most
# 6 comparisons per term; each merge level of the found runs then costs about
# one comparison per term, and the combine pass one equality test per adjacent
# pair.  The worst ratio measured is 3.5: k=2, N=63, where the reversed sort
# meets a 2-term run first and places the other 61 terms by binary insertion.
# Random, interleaved, tied, cancelling and uneven shapes stay at about 3.0.
# A sort that ignores the runs pays N * log2(N), above the bound at bench sizes.
MERGE_COMPARISON_BOUND = 4.5


def merge_runs(runs: Sequence[Expression]) -> Expression:
    """Merge k sorted runs into one expression: one sort, one combine pass.

    Equal monomials across runs are summed; zero sums are dropped.
    """
    filled = [r for r in runs if r]
    if not filled:
        return terms.ZERO
    if len(filled) == 1:
        return filled[0]
    ordered = iter(sorted(chain.from_iterable(filled), key=itemgetter(1), reverse=True))
    out: list[Term] = []
    coeff, mono = next(ordered)
    for c, m in ordered:
        if m == mono:
            coeff += c
        else:
            if coeff:
                out.append((coeff, mono))
            coeff, mono = c, m
    if coeff:
        out.append((coeff, mono))
    return tuple(out)
