"""Command-line front end: run programs, sweep benchmarks, verify equivalence.

``run`` makes the one run it prints; ``bench`` and ``verify`` run their
grids through ``bench.measure``, which ``verify`` calls with no timed
rounds.  An output path is checked before anything runs: a directory, or a
path in a directory that cannot be written, is refused.

Exit codes: 0 success, 1 usage (a slave count over the engine's cap, or a
bench without one slave, too), 2 parse error, 3 verification mismatch (one
``error:`` line naming both configurations), 4 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import bench
from .engine import EngineError, RunConfig, SlaveCountError, run_program
from .parser import ParseError, format_expression, parse_program
from .transport import BACKENDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_RUNTIME = 4


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _backend(text: str) -> str:
    if text not in BACKENDS:
        raise argparse.ArgumentTypeError(f"unknown backend {text!r}; expected from {BACKENDS}")
    return text


def _comma_list(item):
    """A comma-separated list of distinct values, each parsed by ``item``."""
    def parse(text: str) -> list:
        values = [item(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(f"{value} is repeated in {text!r}")
        return values
    return parse


def _default_slaves() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def _build_parser() -> _ArgumentParser:
    defaults = RunConfig._field_defaults
    parser = _ArgumentParser(prog="parterm",
                             description="parallel term-rewriting engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program and print its expressions")
    p_run.add_argument("file")
    p_run.add_argument("--slaves", type=_int_at_least(0), default=_default_slaves())
    p_run.add_argument("--backend", choices=BACKENDS, default=defaults["backend"])
    p_run.add_argument("--chunk", type=_int_at_least(1), default=defaults["chunk_size"])
    p_run.add_argument("--master-computes", action="store_true")
    p_run.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="sweep slave counts/backends; emit CSV + .dat")
    p_bench.add_argument("file")
    p_bench.add_argument("--slaves", type=_comma_list(_int_at_least(1)), required=True)
    p_bench.add_argument("--backend", type=_comma_list(_backend), required=True)
    p_bench.add_argument("--chunk", type=_int_at_least(1), default=defaults["chunk_size"])
    p_bench.add_argument("--repeat", type=_int_at_least(1), default=5)
    p_bench.add_argument("--csv", required=True)

    p_verify = sub.add_parser("verify",
                              help="check parallel results against the zero-worker run")
    p_verify.add_argument("file")
    p_verify.add_argument("--slaves", type=_comma_list(_int_at_least(1)), default=[1, 2, 4])
    p_verify.add_argument("--chunk", type=_comma_list(_int_at_least(1)), default=[1, 7, 1000])
    return parser


def _read_program(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def _check_writable(path: str) -> None:
    """Raise OSError if ``path`` is a directory or its directory is not
    writable: checked before any run, so that a bad output path loses no work."""
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")


def _cmd_run(args) -> int:
    if args.out:
        _check_writable(args.out)
    program = parse_program(_read_program(args.file))
    cfg = RunConfig(nslaves=args.slaves, chunk_size=args.chunk, backend=args.backend,
                    master_computes=args.master_computes)
    result = run_program(program, cfg)
    output = "".join(f"{name} = {format_expression(expr, program.symtab)}\n"
                     for name, expr in result.expressions.items())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return EXIT_OK


def _cmd_bench(args) -> int:
    dat_path = os.path.splitext(args.csv)[0] + ".dat"
    if dat_path == args.csv:
        raise _UsageError(f"--csv {args.csv} is the path of the .dat file; "
                          "give the CSV another extension")
    _check_writable(args.csv)
    _check_writable(dat_path)
    text = _read_program(args.file)
    result = bench.run_sweep(text, os.path.basename(args.file), args.slaves, args.backend,
                             args.chunk, repeats=args.repeat)
    bench.write_csv(args.csv, result.csv_rows)
    bench.write_dat(dat_path, result)
    print(bench.format_report(result))
    print(f"wrote {args.csv} and {dat_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    configs = [RunConfig(nslaves=p, chunk_size=chunk, backend=backend,
                         master_computes=master_computes)
               for p in args.slaves for chunk in args.chunk
               for backend in BACKENDS for master_computes in (False, True)]
    program = parse_program(_read_program(args.file))
    bench.measure(program, [RunConfig(nslaves=0), *configs], repeats=0)
    for cfg in configs:
        print(f"ok nslaves={cfg.nslaves} chunk={cfg.chunk_size} backend={cfg.backend} "
              f"master_computes={str(cfg.master_computes).lower()}")
    print(f"verified {len(configs)} configurations against the zero-worker run")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except (_UsageError, SlaveCountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except bench.MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
