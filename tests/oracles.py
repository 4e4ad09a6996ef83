"""Independent reference implementations the tests check production code against.

The oracles work on *factor tuples*: a monomial is a tuple of
``(symbol_id, exponent)`` pairs by increasing symbol id, every exponent >= 1,
the empty tuple is the unit, and an expression is a tuple of
``(coeff, monomial)`` pairs.  Production code packs monomials into ints and
holds an expression as one flat tuple ``(c0, m0, c1, m1, ...)``; the oracles
reach production values only through the boundary pair :func:`pack` /
:func:`unpack` and their expression-level wrappers :func:`pack_terms` /
:func:`unpack_terms`, which encode the documented layout by hand, so nothing
else here depends on the packing or the flat form.

Everything here deliberately avoids the production code paths it verifies:
normalization sorts with a three-way comparison of dense exponent vectors
instead of int order, expansion multiplies through a dict accumulator, wire
sizes come from a by-hand byte encoder and checksum, and module application
works on whole expressions of factor tuples through :func:`brute_multiply`
and :func:`brute_power` rather than the rewriter or the production product.
One helper is an instrument, not an oracle: :class:`ComparisonCount` wraps
monomials so that the production merge itself reports its comparisons.
"""

from __future__ import annotations

import functools
import random
import struct
from typing import Sequence

from parterm import terms
from parterm.parser import IdSubst, Module, Multiply

Factors = tuple[tuple[int, int], ...]   # an oracle monomial
FTerm = tuple[int, Factors]
FExpression = tuple[FTerm, ...]

# The documented packed layout: one 33-bit field per symbol (32 value bits
# and a guard bit), symbol 0 in the most significant field.
_FIELD = 33


def pack(mono: Factors, nsymbols: int) -> int:
    """Factor tuple -> production (packed) monomial."""
    assert all(0 <= sid < nsymbols and 1 <= e < 1 << 32 for sid, e in mono), mono
    return sum(e << (_FIELD * (nsymbols - 1 - sid)) for sid, e in mono)


def unpack(mono: int, nsymbols: int) -> Factors:
    """Production (packed) monomial -> factor tuple."""
    assert 0 <= mono < 1 << (_FIELD * nsymbols), mono
    out = []
    for sid in range(nsymbols):
        field = (mono >> (_FIELD * (nsymbols - 1 - sid))) % (1 << _FIELD)
        assert field < 1 << 32, f"guard bit set for symbol {sid}"
        if field:
            out.append((sid, field))
    return tuple(out)


def pack_terms(ts, nsymbols: int) -> tuple:
    """Oracle terms -> a production flat batch ``(c0, m0, c1, m1, ...)``."""
    out = []
    for c, m in ts:
        out.append(c)
        out.append(pack(m, nsymbols))
    return tuple(out)


def flat(ts) -> tuple:
    """``(coeff, monomial)`` pairs -> a flat batch ``(c0, m0, c1, m1, ...)``."""
    return tuple(x for t in ts for x in t)


def unflat(e) -> tuple:
    """A flat batch -> its ``(coeff, monomial)`` pairs."""
    return tuple(zip(e[::2], e[1::2]))


def unpack_terms(e, nsymbols: int) -> tuple:
    """A production flat batch -> its oracle terms."""
    return tuple((c, unpack(m, nsymbols)) for c, m in unflat(e))


def oracle_cmp(a: Factors, b: Factors, nsymbols: int) -> int:
    """-1 if ``a`` sorts earlier: its dense exponent vector is greater."""
    da, db = [0] * nsymbols, [0] * nsymbols
    for sid, e in a:
        da[sid] = e
    for sid, e in b:
        db[sid] = e
    return (da < db) - (da > db)


def oracle_normalize(raw: Sequence[FTerm], nsymbols: int) -> FExpression:
    """Comparison-sort on the declared order, then one combining pass."""
    key = functools.cmp_to_key(lambda a, b: oracle_cmp(a, b, nsymbols))
    ordered = sorted(raw, key=lambda t: key(t[1]))
    out: list[FTerm] = []
    for coeff, mono in ordered:
        if out and out[-1][1] == mono:
            out[-1] = (out[-1][0] + coeff, mono)
        else:
            out.append((coeff, mono))
    return tuple((c, m) for c, m in out if c != 0)


class ComparisonCount:
    """Counts the monomial comparisons a merge makes on runs it has wrapped.

    :meth:`wrap` replaces each run's monomials by :class:`CountedMonomial`
    wrappers sharing this count, so merging the wrapped runs with the
    production merge counts exactly its comparisons; :func:`unwrap` restores
    the plain monomials of the result.
    """

    def __init__(self) -> None:
        self.count = 0

    def wrap(self, runs):
        """Flat runs ``(c0, m0, ...)`` with every monomial wrapped."""
        return [_map_monomials(run, lambda m: CountedMonomial(m, self)) for run in runs]


class CountedMonomial:
    """A packed monomial whose ``<`` and ``==`` tick a shared count; ``>``
    is the reflected ``<`` and ticks it too."""

    __slots__ = ("mono", "counter")

    def __init__(self, mono: int, counter: ComparisonCount):
        self.mono = mono
        self.counter = counter

    def __lt__(self, other) -> bool:
        self.counter.count += 1
        return self.mono < _plain(other)

    def __eq__(self, other: object) -> bool:
        self.counter.count += 1
        return self.mono == _plain(other)


def _plain(mono) -> int:
    """A monomial as a plain int: a merge may also compare against a plain
    int that marks the end of a run, and that comparison counts too."""
    return mono.mono if isinstance(mono, CountedMonomial) else mono


def _map_monomials(e, fn) -> tuple:
    out = list(e)
    out[1::2] = [fn(m) for m in e[1::2]]
    return tuple(out)


def unwrap(e) -> tuple:
    """A flat batch over :class:`CountedMonomial` -> the same batch over plain monomials."""
    return _map_monomials(e, lambda m: m.mono)


def is_canonical(e, nsymbols: int) -> bool:
    """The expression invariants, checked on factor tuples: no zero
    coefficient, and monomials strictly descending in the oracle's order."""
    fe = unpack_terms(e, nsymbols)
    return (all(c != 0 for c, _ in fe)
            and all(oracle_cmp(a, b, nsymbols) < 0 for (_, a), (_, b) in zip(fe, fe[1:])))


def brute_multiply(a: FExpression, b: FExpression, nsymbols: int) -> FExpression:
    """Naive distributive product through a dict accumulator."""
    acc: dict[Factors, int] = {}
    for ca, ma in a:
        for cb, mb in b:
            exps: dict[int, int] = {}
            for sid, e in ma:
                exps[sid] = exps.get(sid, 0) + e
            for sid, e in mb:
                exps[sid] = exps.get(sid, 0) + e
            mono = tuple(sorted(exps.items()))
            acc[mono] = acc.get(mono, 0) + ca * cb
    return oracle_normalize([(c, m) for m, c in acc.items()], nsymbols)


def brute_power(a: FExpression, n: int, nsymbols: int) -> FExpression:
    result: FExpression = ((1, ()),)
    for _ in range(n):
        result = brute_multiply(result, a, nsymbols)
    return result


def algebra_apply_module(e: terms.Expression, m: Module, nsymbols: int) -> terms.Expression:
    """Apply a module to a whole (production, flat) expression with
    expression-level algebra on factor tuples: :func:`brute_multiply` for
    ``multiply``, and for ``id x = rhs`` each term without ``x`` times the
    :func:`brute_power` of ``rhs`` to its x-degree, the contributions summed
    in a dict."""
    fe = unpack_terms(e, nsymbols)
    for s in m.statements:
        if isinstance(s, Multiply):
            fe = brute_multiply(fe, unpack_terms(s.factor, nsymbols), nsymbols)
            continue
        assert isinstance(s, IdSubst)
        rhs = unpack_terms(s.rhs, nsymbols)
        powers: dict[int, FExpression] = {}
        acc: dict[Factors, int] = {}
        for coeff, mono in fe:
            k = dict(mono).get(s.target, 0)
            if k not in powers:
                powers[k] = brute_power(rhs, k, nsymbols)
            rest = tuple(f for f in mono if f[0] != s.target)
            for c, m in brute_multiply(((coeff, rest),), powers[k], nsymbols):
                acc[m] = acc.get(m, 0) + c
        fe = oracle_normalize([(c, m) for m, c in acc.items()], nsymbols)
    return pack_terms(fe, nsymbols)


def oracle_run_program(program) -> dict[str, terms.Expression]:
    """Every local expression after :func:`algebra_apply_module` of each
    module in turn: the reference a whole-program run is checked against."""
    nsymbols = len(program.symtab)
    out = {}
    for name, e in program.initial:
        for m in program.modules:
            e = algebra_apply_module(e, m, nsymbols)
        out[name] = e
    return out


def hand_crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3) bit by bit: the reflected polynomial 0xEDB88320,
    with 0xFFFFFFFF as initial value and final XOR."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _hand_marshal_int(bits: str, negative: bool) -> bytes:
    """One int of magnitude ``bits`` (a binary string) as marshal version 2
    writes it: ``i`` and an i32 if it fits, else ``l``, the i32 count of its
    15-bit digits (negated for a negative int) and the digits as u16s, cut
    from the least significant end."""
    bits = bits.lstrip("0")
    value = -int(bits or "0", 2) if negative else int(bits or "0", 2)
    if -(1 << 31) <= value < 1 << 31:
        return b"i" + struct.pack("<i", value)
    digits = [int(bits[max(0, end - 15):end], 2) for end in range(len(bits), 0, -15)]
    count = -len(digits) if negative else len(digits)
    return b"l" + struct.pack("<i", count) + b"".join(struct.pack("<H", d) for d in digits)


def hand_wire_bytes(ts: Sequence[FTerm], nsymbols: int) -> bytes:
    """By-hand encoder for the transport wire format, from the marshal
    version 2 spec and without marshal: ``(`` and the u32 count of the flat
    elements ``c0, m0, c1, m1, ...``, each element as :func:`_hand_marshal_int`
    writes it, then the CRC-32 of those bytes, little-endian.  A monomial's
    magnitude is its fields written out as bit strings, symbol 0 first, each
    a clear guard bit and its 32-bit exponent."""
    out = bytearray(b"(" + struct.pack("<I", 2 * len(ts)))
    for coeff, mono in ts:
        out += _hand_marshal_int(format(abs(coeff), "b"), coeff < 0)
        exps = dict(mono)
        out += _hand_marshal_int(
            "".join(format(exps.get(sid, 0), "033b") for sid in range(nsymbols)), False)
    return bytes(out) + struct.pack("<I", hand_crc32(out))


def random_monomial(rng: random.Random, nsymbols: int, max_exp: int = 5) -> Factors:
    return tuple((sid, rng.randint(1, max_exp))
                 for sid in range(nsymbols) if rng.random() < 0.6)


def random_terms(rng: random.Random, nsymbols: int, n: int,
                 max_exp: int = 5, max_coeff: int = 9) -> list[FTerm]:
    """Raw oracle terms: duplicates and zero coefficients allowed."""
    return [(rng.randint(-max_coeff, max_coeff), random_monomial(rng, nsymbols, max_exp))
            for _ in range(n)]


def random_packed_terms(rng: random.Random, nsymbols: int, n: int,
                        max_exp: int = 5, max_coeff: int = 9) -> list[int]:
    """:func:`random_terms`, packed for production code as a flat batch."""
    return list(pack_terms(random_terms(rng, nsymbols, n, max_exp, max_coeff), nsymbols))


def random_expression(rng: random.Random, nsymbols: int, n: int,
                      max_exp: int = 5) -> terms.Expression:
    """A production (flat) expression, normalized by the oracle."""
    raw = random_terms(rng, nsymbols, n, max_exp)
    return pack_terms(oracle_normalize(raw, nsymbols), nsymbols)


def random_module(rng: random.Random, nsymbols: int) -> Module:
    statements = []
    for _ in range(rng.randint(0, 3)):
        rhs = random_expression(rng, nsymbols, rng.randint(1, 3), max_exp=2)
        if rng.random() < 0.5:
            statements.append(IdSubst(rng.randrange(nsymbols), rhs))
        else:
            statements.append(Multiply(rhs))
    return Module(tuple(statements))
