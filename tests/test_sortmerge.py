import math
import random
from itertools import chain, permutations
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from parterm.parser import parse_program
from parterm.rewrite import apply_module_to_chunk
from parterm.sortmerge import MERGE_COMPARISON_BOUND, merge_runs
from parterm.terms import add_expressions, normalize, sorted_flat

from oracles import (
    ComparisonCount,
    flat,
    is_canonical,
    oracle_normalize,
    pack,
    pack_terms,
    random_packed_terms,
    random_terms,
    unflat,
    unwrap,
)

NSYM = 4


# A worker builds its run by normalizing its raw terms once.
def _runs_from(raws):
    return [normalize(raw) for raw in raws]


def test_build_run_sorts():
    batch = [(5, ((1, 2),)), (10, ((1, 1), (2, 1))), (5, ((2, 2),))]
    run = normalize(pack_terms(batch, 3))
    assert run == pack_terms(oracle_normalize(batch, 3), 3)
    assert len(run) // 2 == 3


def test_build_run_cancellation():
    x = pack(((0, 1),), 1)
    assert normalize([1, x, -1, x]) == ()


def test_build_run_matches_normalize_on_random_batches():
    rng = random.Random(41)
    for _ in range(100):
        raw = random_terms(rng, NSYM, rng.randint(0, 25))
        assert normalize(pack_terms(raw, NSYM)) == \
            pack_terms(oracle_normalize(raw, NSYM), NSYM)


def test_merge_cross_run_cancellation():
    x, y = pack(((0, 1),), 2), pack(((1, 1),), 2)
    runs = _runs_from([[1, x, 1, y], [1, x, -1, y]])
    assert merge_runs(runs) == (2, x)


def test_merge_single_run_identity():
    rng = random.Random(43)
    raw = random_packed_terms(rng, NSYM, 12)
    run = normalize(raw)
    assert merge_runs([run]) == run


def test_merge_empty_inputs():
    assert merge_runs([]) == ()
    assert merge_runs(_runs_from([[], []])) == ()


def test_merge_equals_normalize_of_concatenation():
    # Runs of up to 15 terms, of about 200 and of about 1,000, 8 at a time:
    # three rounds of two-way merges.
    rng = random.Random(47)
    shapes = [(100, (0, 15), 5), (5, (180, 220), 9), (3, (900, 1100), 9)]
    for sets, (shortest, longest), max_exp in shapes:
        for _ in range(sets):
            raws = [random_packed_terms(rng, NSYM, rng.randint(shortest, longest), max_exp)
                    for _ in range(8)]
            runs = _runs_from(raws)
            merged = merge_runs(runs)
            assert merged == normalize([x for raw in raws for x in raw])
            assert is_canonical(merged, NSYM)


def test_merge_permutation_invariant():
    rng = random.Random(53)
    raws = [random_packed_terms(rng, NSYM, 10) for _ in range(6)]
    runs = _runs_from(raws)
    reference = merge_runs(runs)
    for _ in range(10):
        shuffled = runs[:]
        rng.shuffle(shuffled)
        assert merge_runs(shuffled) == reference


def test_merge_two_runs_equals_add_expressions():
    rng = random.Random(59)
    for _ in range(50):
        a = normalize(random_packed_terms(rng, NSYM, 10))
        b = normalize(random_packed_terms(rng, NSYM, 10))
        assert merge_runs([a, b]) == add_expressions(a, b)


def test_merge_associative_over_grouping():
    rng = random.Random(61)
    raws = [random_packed_terms(rng, NSYM, 8) for _ in range(7)]
    runs = _runs_from(raws)
    merged = merge_runs(runs)
    # left fold of pairwise merges
    acc = runs[0]
    for r in runs[1:]:
        acc = merge_runs([acc, r])
    assert acc == merged
    # balanced tree of merges
    level = runs
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(merge_runs(level[i:i + 2]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    assert level[0] == merged


def test_comparison_count_stays_under_bound():
    rng = random.Random(67)
    inputs = [_runs_from([random_packed_terms(rng, NSYM, n) for _ in range(k)])
              for k in (1, 2, 3, 4, 8, 16) for n in (1, 20, 200)]
    # A long run against a short one that precedes it, and 17 runs whose
    # terms interleave one by one: the most comparisons per term measured.
    inputs.append([flat((1, m) for m in range(61, 0, -1)), (1, 101, 1, 100)])
    inputs.append([flat((1, m) for m in range(169 - i, -1, -17)) for i in range(17)])
    for runs in inputs:
        k = len(runs)
        total = sum(len(r) for r in runs) // 2  # terms, not flat elements
        if total == 0:
            continue
        counted = ComparisonCount()
        merged = unwrap(merge_runs(counted.wrap(runs)))
        assert merged == normalize([x for r in runs for x in r])
        assert counted.count <= MERGE_COMPARISON_BOUND * total * math.log2(k + 1)


def test_comparison_count_beats_sort_from_scratch_asymptotics():
    # At bench sizes the bound sits below the N*log2(N) comparisons of a sort
    # that ignores the runs, so passing it rules such a sort out.
    rng = random.Random(71)
    k, n = 8, 20000
    raws = [flat((1, pack(((0, rng.randint(1, 10**6)),), 1)) for _ in range(n))
            for _ in range(k)]
    runs = _runs_from(raws)
    total = sum(len(r) for r in runs) // 2
    counted = ComparisonCount()
    merge_runs(counted.wrap(runs))
    bound = MERGE_COMPARISON_BOUND * total * math.log2(k + 1)
    assert counted.count <= bound
    assert bound < total * math.log2(total)


def test_disjoint_runs_merge_in_logarithmic_comparisons():
    # Runs that meet in at most one monomial: a search finds the end of the
    # higher run's part above the lower run, and the lower run follows it
    # with no comparison.
    for n in (1, 10, 1000, 100_000):
        high = flat((1, m) for m in range(2 * n, n, -1))
        low = flat((1, m) for m in range(n, 0, -1))
        touching = flat((1, m) for m in range(n + 1, 1, -1))  # meets high in n + 1
        for runs in ([high, low], [low, high], [high, touching], [touching, high]):
            counted = ComparisonCount()
            merged = unwrap(merge_runs(counted.wrap(runs)))
            assert merged == normalize(runs[0] + runs[1])
            assert counted.count <= 2 * math.log2(n) + 6, (n, counted.count)


def _derived_bound(x, y):
    """The comparisons sortmerge's derivation allows the two-way merge of
    ``x`` and ``y``: p terms in the run that starts higher, h of them above
    the other's first monomial, q in the other."""
    a, b = (y, x) if x[1] < y[1] else (x, y)
    p, q = len(a) // 2, len(b) // 2
    h = sum(m > b[1] for m in a[1::2])
    search = math.ceil(math.log2(p + 1))
    return 1 + search if h == p else 2 * (p + q - h) + 2 + search


def test_each_two_way_merge_stays_within_its_derived_bound():
    # Runs that overlap throughout: interleaved one by one, sharing every
    # monomial, or sharing every third; then disjoint runs, where only the
    # first comparison and the bisection are paid.
    shapes = []
    for n in (1, 2, 3, 10, 100, 1000):
        evens = flat((1, m) for m in range(2 * n, 0, -2))
        shapes += [(evens, flat((1, m) for m in range(2 * n - 1, 0, -2))),
                   (evens, flat((-1, m) for m in range(2 * n, 0, -2))),
                   (evens, flat((1, m) for m in range(2 * n + 1, 0, -3))),
                   (flat((1, m) for m in range(2 * n, n, -1)), flat((1, m) for m in range(n, 0, -1)))]
    rng = random.Random(73)

    def random_run(monos):
        return flat((1, m) for m in sorted(rng.sample(monos, rng.randint(1, len(monos))), reverse=True))

    for _ in range(300):
        monos = rng.sample(range(200), rng.randint(2, 60))
        shapes.append((random_run(monos), random_run(monos)))
    for x, y in shapes:
        for runs in ([x, y], [y, x]):
            counted = ComparisonCount()
            assert unwrap(merge_runs(counted.wrap(runs))) == normalize(x + y)
            assert counted.count <= _derived_bound(*runs), (runs, counted.count)


@st.composite
def _banded_runs(draw):
    """1 to 5 runs cut from one canonical expression's monomials: each a band
    of them, in which it keeps a term or skips it, with bands that overlap
    or not, and coefficients that may cancel across runs."""
    monos = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=40)), reverse=True)
    runs = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.integers(0, len(monos) - 1))
        hi = draw(st.integers(lo + 1, len(monos)))
        coeffs = draw(st.lists(st.sampled_from((-2, -1, 0, 1, 2)),
                               min_size=hi - lo, max_size=hi - lo))
        runs.append(flat((c, m) for c, m in zip(coeffs, monos[lo:hi]) if c))
    return runs


@given(_banded_runs())
@settings(max_examples=150, deadline=None)
def test_runs_in_bands_merge_in_every_order_to_normalize_of_their_concatenation(runs):
    expected = normalize([x for r in runs for x in r])
    total = sum(len(r) for r in runs) // 2
    for order in permutations(runs):
        counted = ComparisonCount()
        assert unwrap(merge_runs(counted.wrap(order))) == expected
        assert counted.count <= MERGE_COMPARISON_BOUND * total * math.log2(len(runs) + 1)


def _pair_merge(runs):
    """The merge on runs of pairs: one sort keyed on the monomial, then one
    pass summing equal neighbours and dropping zero sums."""
    out = []
    for c, m in sorted(chain.from_iterable(runs), key=itemgetter(1), reverse=True):
        if out and out[-1][1] == m:
            out[-1] = (out[-1][0] + c, m)
        else:
            out.append((c, m))
    return tuple(t for t in out if t[0])


def _cancelling_accumulator():
    """H = x - y under id x = y: one monomial whose sum is zero."""
    program = parse_program("symbols x,y,z; local H = x - y; id x = y; .sort .end")
    acc = {}
    apply_module_to_chunk(program.initial[0][1], program.modules[0], 3, acc)
    assert acc == {pack(((1, 1),), 3): 0}
    return acc


def test_flat_sort_and_merge_match_the_pair_forms_on_random_accumulators():
    # Coefficients in -2..2 leave zero sums in most accumulators; the last
    # sets cancel completely, within one accumulator and across runs.
    rng = random.Random(73)
    sets = []
    for _ in range(300):
        accs = []
        for _ in range(rng.randint(1, 5)):
            acc = {}
            for c, m in unflat(random_packed_terms(rng, NSYM, rng.randint(0, 30), 3)):
                acc[m] = acc.get(m, 0) + rng.randint(-2, 2) * c
            accs.append(acc)
        sets.append(accs)
    x = pack(((0, 1),), NSYM)
    sets += [[_cancelling_accumulator()], [{x: 1}, {x: -1}], [{x: 2, 0: 0}, {x: -2}, {}]]
    for accs in sets:
        pair_runs = [_pair_merge([[(c, m) for m, c in acc.items()]]) for acc in accs]
        runs = [sorted_flat(acc) for acc in accs]
        assert runs == [flat(r) for r in pair_runs]
        assert all(type(r) is tuple and all(r[0::2]) for r in runs)
        merged = merge_runs(runs)
        assert type(merged) is tuple and unflat(merged) == _pair_merge(pair_runs)
        # The comparison count is the production merge's own.
        counted = ComparisonCount()
        assert unwrap(merge_runs(counted.wrap(runs))) == merged
        total = sum(len(r) for r in runs) // 2
        k = len(runs)
        assert counted.count <= MERGE_COMPARISON_BOUND * total * math.log2(k + 1)
        if sum(map(bool, runs)) > 1:
            assert counted.count > 0
    assert sorted_flat(_cancelling_accumulator()) == ()
    assert merge_runs([sorted_flat({x: 1}), sorted_flat({x: -1})]) == ()
