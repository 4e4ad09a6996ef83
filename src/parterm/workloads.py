"""Deterministic benchmark program generators.

Two families:

* ``expand``: raise a dense 4-symbol linear form to ``scale``, normalize it
  in a bare first module, then run one substitution module over the expanded
  terms.  The substitution module generates C(scale+6, 6) raw terms, so
  scale 28 already clears a million generated terms.
* ``substitute-chain``: a small random expression pushed through ``scale``
  modules of mixed substitution/multiply statements with degree-1 right-hand
  sides.  Every module raises the degree and widens the coefficients, so the
  work grows much faster than the scale.  With seed 1, scale 40 generates
  10,657 raw terms and ends with coefficients of 165 bits; scale 80 generates
  419,087 (626 bits) and scale 200 8.3 M (2,418 bits).  Small scales suit
  correctness sweeps.

The emitted text is a pure function of (kind, scale, seed).
"""

from __future__ import annotations

import random

from . import terms
from .parser import format_expression
from .terms import Expression, SymbolTable

KINDS = ("expand", "substitute-chain")

_NONZERO = (-3, -2, -1, 1, 2, 3)


def _rng(kind: str, scale: int, seed: int) -> random.Random:
    # String seeding is stable across processes (unlike hash-based seeding).
    return random.Random(f"parterm:{kind}:{scale}:{seed}")


def _random_expression(rng: random.Random, nsymbols: int, max_terms: int,
                       max_exp: int) -> Expression:
    while True:
        raw: list[terms.Term] = []
        for _ in range(rng.randint(2, max_terms)):
            mono = sum(rng.randint(1, max_exp) << terms.field_shift(sid, nsymbols)
                       for sid in range(nsymbols) if rng.random() < 0.5)
            raw.append((rng.choice(_NONZERO), mono))
        e = terms.normalize(raw)
        if e:
            return e


def _linear_rhs(rng: random.Random, nsymbols: int) -> Expression:
    sid = rng.randrange(nsymbols)
    e = terms.multiply_expressions(terms.constant(rng.choice(_NONZERO)),
                                   terms.symbol(sid, nsymbols))
    return terms.add_expressions(e, terms.constant(rng.choice(_NONZERO)))


def _expand(scale: int, seed: int) -> str:
    rng = _rng("expand", scale, seed)
    c = [rng.choice(_NONZERO) for _ in range(8)]
    symtab = SymbolTable(["x", "y", "z", "w"])
    base = terms.ZERO
    for sid in range(4):
        base = terms.add_expressions(
            base, terms.multiply_expressions(terms.constant(c[sid]), terms.symbol(sid, 4)))
    rhs = terms.constant(c[7])
    for k, sid in enumerate((1, 2, 3)):
        rhs = terms.add_expressions(
            rhs, terms.multiply_expressions(terms.constant(c[4 + k]), terms.symbol(sid, 4)))
    return (
        f"* workload: expand scale={scale} seed={seed}\n"
        "symbols x, y, z, w;\n"
        f"local F = ({format_expression(base, symtab)})^{scale};\n"
        ".sort\n"
        f"id x = {format_expression(rhs, symtab)};\n"
        ".sort\n"
        ".end\n"
    )


def _substitute_chain(scale: int, seed: int) -> str:
    rng = _rng("substitute-chain", scale, seed)
    nsymbols = rng.randint(3, 5)
    names = ["a", "b", "c", "d", "e"][:nsymbols]
    symtab = SymbolTable(names)
    lines = [
        f"* workload: substitute-chain scale={scale} seed={seed}",
        f"symbols {', '.join(names)};",
        f"local F = {format_expression(_random_expression(rng, nsymbols, 6, 2), symtab)};",
    ]
    for _ in range(scale):
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.6:
                target = names[rng.randrange(nsymbols)]
                rhs = _linear_rhs(rng, nsymbols)
                lines.append(f"id {target} = {format_expression(rhs, symtab)};")
            else:
                factor = _linear_rhs(rng, nsymbols)
                lines.append(f"multiply {format_expression(factor, symtab)};")
        lines.append(".sort")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def generate_workload(kind: str, scale: int, seed: int = 0) -> str:
    """Deterministic program text for a benchmark workload."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if kind == "expand":
        return _expand(scale, seed)
    if kind == "substitute-chain":
        return _substitute_chain(scale, seed)
    raise ValueError(f"unknown workload kind {kind!r}; expected one of {KINDS}")
