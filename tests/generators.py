"""Seeded program generators for the tests.

Two families:

* ``expand(scale, seed)``: raise a dense 4-symbol linear form to ``scale``,
  normalize it in a bare first module, then run one substitution module over
  the expanded terms.  The substitution module generates C(scale+6, 6) raw
  terms.
* ``substitute_chain(scale, seed)``: a small random expression pushed through
  ``scale`` modules of mixed substitution/multiply statements with degree-1
  right-hand sides.  Every module raises the degree and widens the
  coefficients, so the work grows much faster than the scale; small scales
  suit correctness sweeps.

The emitted text is a pure function of (family, scale, seed), and
``test_workloads.py`` pins it by hash.
"""

from __future__ import annotations

import random

from parterm import terms
from parterm.parser import format_expression
from parterm.terms import Expression, SymbolTable

_NONZERO = (-3, -2, -1, 1, 2, 3)


def _rng(kind: str, scale: int, seed: int) -> random.Random:
    # String seeding is stable across processes (unlike hash-based seeding).
    return random.Random(f"parterm:{kind}:{scale}:{seed}")


def _random_expression(rng: random.Random, nsymbols: int, max_terms: int,
                       max_exp: int) -> Expression:
    while True:
        raw: list[int] = []
        for _ in range(rng.randint(2, max_terms)):
            mono = sum(rng.randint(1, max_exp) << terms.field_shift(sid, nsymbols)
                       for sid in range(nsymbols) if rng.random() < 0.5)
            raw += rng.choice(_NONZERO), mono
        e = terms.normalize(raw)
        if e:
            return e


def _linear_rhs(rng: random.Random, nsymbols: int) -> Expression:
    sid = rng.randrange(nsymbols)
    e = terms.multiply_expressions(terms.constant(rng.choice(_NONZERO)),
                                   terms.symbol(sid, nsymbols))
    return terms.add_expressions(e, terms.constant(rng.choice(_NONZERO)))


def expand(scale: int, seed: int) -> str:
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


def substitute_chain(scale: int, seed: int) -> str:
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


def grid_program(seed: int) -> str:
    """Criterion 1's program ``seed`` of its 100."""
    if seed % 2 == 0:
        return expand(2 + (seed // 2) % 2, seed)
    return substitute_chain(1 + seed % 3, seed)
