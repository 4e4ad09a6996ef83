"""Seeded benchmark programs and the point-evaluation oracle that checks them.

Each workload is first built as a plain description (symbols, local
definitions as a polynomial raised to a power, and modules of ``id`` /
``multiply`` statements); program text is rendered from that description.
The oracle evaluates the description at a seeded random point modulo a large
prime without using any parterm code, and ``eval_output`` evaluates the text
parterm prints for a result at the same point.  Equal values mean the result
is right with overwhelming probability.

The generators live here rather than in ``parterm.workloads`` so that the
benchmark's inputs stay fixed when the program's own generators change.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Union

PRIME = (1 << 61) - 1

_NONZERO = (-3, -2, -1, 1, 2, 3)

# A polynomial is a list of (coefficient, exponent vector indexed by symbol).
Poly = list[tuple[int, tuple[int, ...]]]


@dataclass(frozen=True)
class Local:
    name: str
    base: Poly
    power: int


@dataclass(frozen=True)
class Id:
    target: int
    rhs: Poly


@dataclass(frozen=True)
class Multiply:
    factor: Poly


Statement = Union[Id, Multiply]


@dataclass(frozen=True)
class ProgramSpec:
    symbols: tuple[str, ...]
    locals: tuple[Local, ...]
    modules: tuple[tuple[Statement, ...], ...]


# -- rendering -----------------------------------------------------------------

def _render_poly(p: Poly, symbols: tuple[str, ...]) -> str:
    parts = []
    for i, (coeff, exps) in enumerate(p):
        factors = [s if e == 1 else f"{s}^{e}" for s, e in zip(symbols, exps) if e]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("-" if coeff < 0 else "+" if i else "") + body)
    return "".join(parts)


def render(spec: ProgramSpec) -> str:
    lines = [f"symbols {', '.join(spec.symbols)};"]
    for loc in spec.locals:
        body = _render_poly(loc.base, spec.symbols)
        lines.append(f"local {loc.name} = ({body})" + (f"^{loc.power};" if loc.power > 1 else ";"))
    for module in spec.modules:
        for s in module:
            if isinstance(s, Id):
                lines.append(f"id {spec.symbols[s.target]} = {_render_poly(s.rhs, spec.symbols)};")
            else:
                lines.append(f"multiply {_render_poly(s.factor, spec.symbols)};")
        lines.append(".sort")
    lines.append(".end")
    return "\n".join(lines) + "\n"


# -- generators ----------------------------------------------------------------

def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(n))


def _linear_form(rng: random.Random, n: int, constant: bool) -> Poly:
    p: Poly = [(rng.choice(_NONZERO), _unit(n, i)) for i in range(n)]
    if constant:
        p.append((rng.choice(_NONZERO), (0,) * n))
    return p


def product_chain(seed: int) -> list[ProgramSpec]:
    """A dense 4-symbol linear form to the 24th power, then 6 products.

    Every module multiplies by a fresh seeded linear form, so each worker run
    is long and the final merge sees the whole output.
    """
    rng = random.Random(f"perfbench:product-chain:{seed}")
    symbols = ("x", "y", "z", "w")
    base = _linear_form(rng, 4, constant=False)
    mods = tuple((Multiply(_linear_form(rng, 4, constant=False)),) for _ in range(6))
    return [ProgramSpec(symbols, (Local("F", base, 24),), mods)]


def substitute_expand(seed: int) -> list[ProgramSpec]:
    """``(linear form)^17`` sorted once, then one substitution module.

    ``id x = c + c'*y + c''*z + c'''*w`` turns every input term into many raw
    terms that collapse to a small output.
    """
    rng = random.Random(f"perfbench:substitute-expand:{seed}")
    symbols = ("x", "y", "z", "w")
    base = _linear_form(rng, 4, constant=False)
    rhs = [(c, e) for c, e in _linear_form(rng, 4, constant=True) if e[0] == 0]
    mods = ((), (Id(0, rhs),))
    return [ProgramSpec(symbols, (Local("F", base, 17),), mods)]


def _chain_program(shape: random.Random, coeffs: random.Random) -> ProgramSpec:
    n = shape.randint(3, 5)
    symbols = ("a", "b", "c", "d", "e")[:n]
    monos = sorted({tuple(shape.randint(1, 2) if shape.random() < 0.5 else 0 for _ in range(n))
                    for _ in range(shape.randint(2, 6))}, reverse=True)
    base = [(coeffs.choice(_NONZERO), e) for e in monos]
    mods = []
    for _ in range(10):
        stmts: list[Statement] = []
        for _ in range(shape.randint(1, 2)):
            sid = shape.randrange(n)
            rhs = [(coeffs.choice(_NONZERO), _unit(n, sid)), (coeffs.choice(_NONZERO), (0,) * n)]
            if shape.random() < 0.6:
                stmts.append(Id(shape.randrange(n), rhs))
            else:
                stmts.append(Multiply(rhs))
        mods.append(tuple(stmts))
    return ProgramSpec(symbols, (Local("F", base, 1),), tuple(mods))


def module_churn(seed: int) -> list[ProgramSpec]:
    """80 programs of 10 small mixed modules each: fixed per-module costs.

    The seed draws only the coefficients; the program shapes (symbols,
    statement kinds and targets) are the same for every seed, so every seed
    generates the same number of terms and runs differ only in arithmetic.
    """
    return [_chain_program(random.Random(f"perfbench:module-churn:shape:{i}"),
                           random.Random(f"perfbench:module-churn:{seed}:{i}"))
            for i in range(80)]


WORKLOADS = {
    "product-chain": product_chain,
    "substitute-expand": substitute_expand,
    "module-churn": module_churn,
}


# -- oracle --------------------------------------------------------------------

def _eval_poly(p: Poly, point: list[int]) -> int:
    total = 0
    for coeff, exps in p:
        v = coeff
        for x, e in zip(point, exps):
            if e:
                v = v * pow(x, e, PRIME) % PRIME
        total += v
    return total % PRIME


def random_point(workload: str, seed: int) -> list[int]:
    """One coordinate per symbol; no workload declares more than five."""
    rng = random.Random(f"perfbench:point:{workload}:{seed}")
    return [rng.randrange(2, PRIME) for _ in range(5)]


def oracle_values(spec: ProgramSpec, point: list[int]) -> dict[str, int]:
    """Each local's final value at ``point`` modulo ``PRIME``.

    ``id x = r`` replaces every power ``x^n`` by ``r^n`` once, so a polynomial
    after the statement is the polynomial before it with ``x`` set to ``r``.
    Walking the statements backwards therefore moves the evaluation point
    through each substitution and collects each ``multiply`` factor, and the
    result is that product times the initial local at the final point.
    """
    q = list(point[:len(spec.symbols)])
    factor = 1
    for module in reversed(spec.modules):
        for s in reversed(module):
            if isinstance(s, Id):
                q[s.target] = _eval_poly(s.rhs, q)
            else:
                factor = factor * _eval_poly(s.factor, q) % PRIME
    return {loc.name: factor * pow(_eval_poly(loc.base, q), loc.power, PRIME) % PRIME
            for loc in spec.locals}


_TERM = re.compile(r"([+-]?)([^+-]+)")


def eval_output(text: str, symbols: tuple[str, ...], point: list[int]) -> int:
    """Value modulo ``PRIME`` of an expression as parterm prints it."""
    values = dict(zip(symbols, point))
    total = 0
    for sign, body in _TERM.findall(text):
        v = 1
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            base = int(name) if name.isdigit() else values[name]
            v = v * pow(base, int(exp) if exp else 1, PRIME) % PRIME
        total += -v if sign == "-" else v
    return total % PRIME
