"""parterm: a miniature parallel term-rewriting engine.

Programs in a small FORM-style language are executed module by module: input
terms are chunked and dispatched to workers, each worker rewrites and
pre-sorts its share, and the master k-way-merges the sorted runs at every
``.sort`` boundary.  Two interchangeable transports (serializing
message-passing vs zero-copy shared buffers) make communication cost a
measurable, swappable quantity.
"""

from .engine import (
    PhaseMetrics,
    ProgramRunResult,
    RunConfig,
    run_program,
)
from .parser import ParseError, Program, format_expression, parse_program
from .terms import Expression, Monomial, SymbolTable, Term
from .transport import TransportStats

__version__ = "0.1.0"

__all__ = [
    "Expression",
    "Monomial",
    "ParseError",
    "PhaseMetrics",
    "Program",
    "ProgramRunResult",
    "RunConfig",
    "SymbolTable",
    "Term",
    "TransportStats",
    "format_expression",
    "parse_program",
    "run_program",
    "__version__",
]
