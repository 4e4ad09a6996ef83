import csv
import inspect
import io
import os
import re
import subprocess
import sys
import threading
import time

import pytest

from parterm import bench, cli, transport
from parterm.bench import CSV_COLUMNS, compute_speedups, run_sweep, write_csv, write_dat
from parterm.engine import MAX_SLAVES, RunConfig, run_program
from parterm.parser import format_expression, parse_program

from generators import expand
from oracles import oracle_run_program

PROGRAMS = os.path.join(os.path.dirname(__file__), os.pardir, "programs")
BINOMIAL = os.path.join(PROGRAMS, "binomial.pt")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _oracle_output(path):
    with open(path) as fh:
        program = parse_program(fh.read())
    return "".join(f"{name} = {format_expression(e, program.symtab)}\n"
                   for name, e in oracle_run_program(program).items())


# -- speedup arithmetic --------------------------------------------------------

def test_speedup_from_definitions():
    rows = compute_speedups({1: 100, 4: 25}, t_sequential=80)
    assert rows == [(1, 1.0, 0.8), (4, 4.0, 3.2)]


def test_speedup_identity_when_sequential_equals_one_slave():
    rows = compute_speedups({1: 100}, t_sequential=100)
    assert rows == [(1, 1.0, 1.0)]


def test_twenty_percent_overhead_is_expressible():
    # a run where adding the master costs 20%: S_seq(1) = 0.8
    (p, s2p, sseq), = compute_speedups({1: 125}, t_sequential=100)
    assert p == 1 and s2p == 1.0 and sseq == pytest.approx(0.8)


def test_speedup_requires_one_slave_reference():
    with pytest.raises(ValueError, match="one-slave"):
        compute_speedups({2: 50, 4: 25}, t_sequential=100)


def test_a_sweep_without_one_slave_fails_before_it_runs(monkeypatch):
    def never(program, cfg):
        raise AssertionError(f"ran {cfg}")

    monkeypatch.setattr(bench, "run_program", never)
    with pytest.raises(ValueError, match="requires the one-slave timing"):
        run_sweep("symbols x; local F = x; .sort .end", "demo", slaves=[2], backends=["sm"])


# -- sweep + emission ----------------------------------------------------------

def test_sweep_row_count_matches_flag_grid(tmp_path):
    text = "symbols x,y; local F = (x+y)^4; id x = y+1; .sort .end"
    result = run_sweep(text, "demo", slaves=[1, 2, 4, 8], backends=["mp", "sm"],
                       repeats=5)
    assert len(result.csv_rows) == 8  # 4 slave counts x 2 backends, one module
    path = tmp_path / "bench.csv"
    write_csv(str(path), result.csv_rows)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 9  # one header row
    with open(path) as fh:
        by_name = list(csv.DictReader(fh))
    for row in by_name:
        assert row["repeat"] == "5"
        assert int(row["t_wall_ns"]) > 0
        assert int(row["terms_in"]) == 5
        assert int(row["terms_merged"]) >= int(row["terms_out"])
        if row["backend"] == "sm":
            assert row["serialized_bytes"] == "0"
            assert int(row["handle_transfers"]) == int(row["messages"])
        else:
            assert int(row["serialized_bytes"]) > 0
            assert row["handle_transfers"] == "0"


def test_sweep_reports_both_normalizations(tmp_path):
    text = "symbols x; local F = (x+1)^5; multiply x; .sort .end"
    result = run_sweep(text, "demo", slaves=[1, 2], backends=["sm"], repeats=2)
    rows = result.reports["sm"]
    assert rows[0].nslaves == 1
    assert rows[0].speedup_two_proc == 1.0
    assert rows[0].speedup_vs_sequential == pytest.approx(
        result.t_sequential_ns / rows[0].t_wall_ns)
    dat = tmp_path / "bench.dat"
    write_dat(str(dat), result)
    assert [line.split() for line in dat.read_text().splitlines()[-2:]] == [
        [str(r.nslaves), str(r.t_wall_ns), f"{r.speedup_two_proc:.4f}",
         f"{r.speedup_vs_sequential:.4f}"] for r in rows]


def test_sweep_reports_the_quartiles_beside_every_median():
    assert bench._quartiles([7]) == (7, 7, 7)
    assert bench._quartiles([4, 1, 3, 2]) == (1, 2, 3)
    assert bench._quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    text = "symbols x; local F = (x+1)^5; multiply x; .sort .end"
    result = run_sweep(text, "demo", slaves=[1, 2], backends=["sm", "mp"], repeats=3)
    assert result.t_sequential_q1_ns <= result.t_sequential_ns <= result.t_sequential_q3_ns
    rows = [(backend, r) for backend, rs in result.reports.items() for r in rs]
    assert len(rows) == 4
    lines = bench.format_report(result).splitlines()
    assert f"(q1 {result.t_sequential_q1_ns / 1e6:.3f}, q3 {result.t_sequential_q3_ns / 1e6:.3f})" \
        in lines[1]
    for line, (backend, r) in zip(lines[3:], rows):
        assert r.t_wall_q1_ns <= r.t_wall_ns <= r.t_wall_q3_ns
        assert line.split()[:5] == [backend, str(r.nslaves), f"{r.t_wall_ns / 1e6:.3f}",
                                    f"{r.t_wall_q1_ns / 1e6:.3f}", f"{r.t_wall_q3_ns / 1e6:.3f}"]


_NOTE = re.compile(r"(?:sequential reference:|backend=(\w+) p=(\d+) chunk=(\d+): median wall) "
                   r"(\d+) ns \(q1 (\d+), q3 (\d+)\)")


def test_sweep_progress_notes_give_every_cell_its_whole_run_quartiles():
    # The notes are the only place a sweep prints the whole-run medians of
    # its later chunk sizes.
    text = "symbols x; local F = (x+1)^5; multiply x; .sort .end"
    out = io.StringIO()
    result = run_sweep(text, "demo", slaves=[1, 2], backends=["sm", "mp"], chunks=[2, 5],
                       repeats=3, progress=out)
    (ref, *notes) = [_NOTE.fullmatch(line) for line in out.getvalue().splitlines()]
    assert ref and ref.group(1) is None
    assert tuple(map(int, ref.group(5, 4, 6))) == (
        result.t_sequential_q1_ns, result.t_sequential_ns, result.t_sequential_q3_ns)
    cells = {}
    for note in notes:
        backend, p, chunk, t, q1, q3 = note.groups()
        assert int(q1) <= int(t) <= int(q3)
        cells[backend, int(p), int(chunk)] = (int(t), int(q1), int(q3))
    assert len(notes) == len(cells) == 8
    assert set(cells) == {(b, p, c) for b in ("sm", "mp") for p in (1, 2) for c in (2, 5)}
    for backend, rows in result.reports.items():
        for r in rows:
            assert cells[backend, r.nslaves, 2] == (r.t_wall_ns, r.t_wall_q1_ns, r.t_wall_q3_ns)


def test_dat_blocks_are_gnuplot_indexable(tmp_path):
    # Blocks come in --backend order, double-blank separated, each named by
    # its first line, which plots/speedup.gp selects with index 'backend=..'.
    text = "symbols x; local F = x+1; .sort .end"
    result = run_sweep(text, "demo", slaves=[1, 2], backends=["sm", "mp"], repeats=1)
    dat = tmp_path / "b.dat"
    write_dat(str(dat), result)
    sm, mp = dat.read_text().split("\n\n\n")
    assert "# columns: nslaves t_wall_ns speedup_two_proc speedup_seq\n# backend=sm\n" in sm
    assert mp.startswith("# backend=mp\n")
    for block, backend in ((sm, "sm"), (mp, "mp")):
        rows = [line.split() for line in block.splitlines() if not line.startswith("#")]
        assert [len(row) for row in rows] == [4, 4]
        assert [int(row[0]) for row in rows] == [r.nslaves for r in result.reports[backend]]


def test_multi_module_programs_emit_one_row_per_module():
    text = "symbols x; local F = x+1; multiply x; .sort multiply x; .sort .end"
    result = run_sweep(text, "demo", slaves=[1], backends=["sm"], repeats=1)
    assert [r["module_index"] for r in result.csv_rows] == [0, 1]


def test_measure_alternates_the_order_and_drops_the_warm_up_round(monkeypatch):
    real = bench.run_program
    calls = []

    def numbering(program, cfg):
        calls.append(cfg)
        return real(program, cfg)._replace(stats=len(calls))

    monkeypatch.setattr(bench, "run_program", numbering)
    a, b, c = configs = [RunConfig(nslaves=0), RunConfig(nslaves=1),
                         RunConfig(nslaves=2, backend="mp")]
    runs = bench.measure(parse_program("symbols x; local F = (x+1)^3; .sort .end"),
                         configs, repeats=3)
    assert calls == [a, b, c, c, b, a, a, b, c, c, b, a]
    # calls 1-3 are round 0, the warm-up
    assert [[stats for *_, stats in r] for r in runs] == [[6, 7, 12], [5, 8, 11], [4, 9, 10]]
    assert all(wall > 0 for r in runs for wall, *_ in r)


def test_sweep_times_the_whole_run_worker_join_included(monkeypatch):
    # A run's wall time includes closing the endpoint (the Shutdowns and
    # joins); a module's does not.
    real_close = transport.MasterEndpoint.close

    def slow_close(self):
        time.sleep(0.02)
        real_close(self)

    monkeypatch.setattr(transport.MasterEndpoint, "close", slow_close)
    text = "symbols x; local F = x+1; multiply x; .sort .end"
    result = run_sweep(text, "demo", slaves=[1], backends=["sm"], repeats=1)
    (row,) = result.reports["sm"]
    assert row.t_wall_ns >= 20_000_000 and result.t_sequential_ns >= 20_000_000
    (csv_row,) = result.csv_rows
    assert csv_row["t_wall_ns"] < 20_000_000


def test_a_config_with_other_results_fails_the_sweep(monkeypatch, tmp_path, capsys):
    real = bench.run_program

    def corrupting(program, cfg):
        result = real(program, cfg)
        if cfg.nslaves == 2:
            return result._replace(
                expressions={k: v + (99, 0) for k, v in result.expressions.items()})
        return result

    monkeypatch.setattr(bench, "run_program", corrupting)
    text = "symbols x; local F = x+1; multiply x; .sort .end"
    message = ("RunConfig(nslaves=2, chunk_size=1000, backend='sm', master_computes=False) "
               "gave other expressions than "
               "RunConfig(nslaves=0, chunk_size=1000, backend='sm', master_computes=False)")
    with pytest.raises(bench.MismatchError) as info:
        run_sweep(text, "demo", slaves=[1, 2], backends=["sm"], repeats=1)
    assert str(info.value) == message
    path = tmp_path / "bench.csv"
    rc = cli.main(["bench", BINOMIAL, "--slaves", "1,2", "--backend", "sm",
                   "--repeat", "1", "--csv", str(path), "--quiet"])
    assert rc == cli.EXIT_VERIFY
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_the_cli_and_the_sweep_take_their_defaults_from_run_config():
    defaults = RunConfig._field_defaults
    parser = cli._build_parser()
    run = parser.parse_args(["run", BINOMIAL])
    assert (run.chunk, run.backend) == (defaults["chunk_size"], defaults["backend"])
    sweep = parser.parse_args(["bench", BINOMIAL, "--slaves", "1", "--backend", "sm",
                               "--csv", "x.csv"])
    assert sweep.chunk == [defaults["chunk_size"]]
    assert inspect.signature(run_sweep).parameters["chunks"].default == \
        (defaults["chunk_size"],)


# -- CLI -----------------------------------------------------------------------

def test_cli_run_prints_expressions(capsys):
    rc = cli.main(["run", BINOMIAL, "--slaves", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "F = x^2+2*x*y+y^2\n"


def test_cli_run_out_file(tmp_path, capsys):
    out = tmp_path / "result.txt"
    rc = cli.main(["run", BINOMIAL, "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "F = x^2+2*x*y+y^2\n"
    assert capsys.readouterr().out == ""


def test_cli_run_prints_nothing_for_a_program_without_locals(tmp_path, capsys):
    src = tmp_path / "nolocals.pt"
    src.write_text("symbols x; .sort .end")
    assert cli.main(["run", str(src), "--slaves", "2"]) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "result.txt"
    assert cli.main(["run", str(src), "--out", str(out)]) == 0
    assert out.read_text() == ""
    assert capsys.readouterr().out == ""


def test_cli_run_sequential_sentinel(capsys):
    rc = cli.main(["run", BINOMIAL, "--slaves", "0"])
    assert rc == 0
    assert "F = " in capsys.readouterr().out


def test_cli_run_stress_sample_matches_sequential(capsys):
    path = os.path.join(PROGRAMS, "stress.pt")
    rc = cli.main(["run", path, "--slaves", "3", "--chunk", "7", "--backend", "mp",
                   "--master-computes"])
    assert rc == 0
    assert capsys.readouterr().out == _oracle_output(path)
    rc = cli.main(["run", path, "--slaves", "0"])
    assert rc == 0
    assert capsys.readouterr().out == _oracle_output(path)


def test_cli_verify_reports_grid(capsys):
    path = os.path.join(PROGRAMS, "chain.pt")
    rc = cli.main(["verify", path, "--slaves", "1,2", "--chunk", "1,100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified 16 configurations" in out
    assert "ok nslaves=2 chunk=100 backend=sm master_computes=true" in out
    # the zero-worker run verify compares against is itself right
    with open(path) as fh:
        program = parse_program(fh.read())
    assert run_program(program, RunConfig(nslaves=0)).expressions == \
        oracle_run_program(program)


@pytest.mark.parametrize("name,flags,configs", [
    ("binomial.pt", [], 36),
    ("chain.pt", [], 36),
    ("stress.pt", [], 36),
    # The default grid takes minutes on heavy.pt; one slave count and one
    # chunk size still cover both backends and both master roles.
    ("heavy.pt", ["--slaves", "2", "--chunk", "1000"], 4),
], ids=["binomial", "chain", "stress", "heavy"])
def test_cli_verify_passes_on_the_shipped_programs(name, flags, configs, capsys):
    assert cli.main(["verify", os.path.join(PROGRAMS, name), *flags]) == 0
    assert f"verified {configs} configurations" in capsys.readouterr().out


def test_cli_verify_detects_mismatch(capsys, monkeypatch):
    real = cli.run_program

    def corrupting(program, cfg):
        result = real(program, cfg)
        if cfg.nslaves:  # corrupt only parallel runs
            return result._replace(
                expressions={k: v + (99, 0) for k, v in result.expressions.items()})
        return result

    monkeypatch.setattr(cli, "run_program", corrupting)
    rc = cli.main(["verify", BINOMIAL, "--slaves", "1"])
    assert rc == cli.EXIT_VERIFY
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_bench_writes_csv_and_dat(tmp_path, capsys):
    program = tmp_path / "expand.pt"
    program.write_text(expand(2, 1))
    path = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(program), "--slaves", "1,2",
                   "--backend", "mp,sm", "--repeat", "2", "--csv", str(path), "--quiet"])
    assert rc == 0
    assert path.exists()
    assert (tmp_path / "bench.dat").exists()
    out = capsys.readouterr().out
    assert "S(two-proc)" in out
    with open(path) as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * 2 * 2  # header + p x backend x modules


def test_cli_bench_rejects_a_csv_path_that_is_the_dat_path(tmp_path, capsys):
    program = tmp_path / "expand.pt"
    program.write_text(expand(2, 1))
    path = tmp_path / "out.dat"
    rc = cli.main(["bench", str(program), "--slaves", "1", "--backend", "sm",
                   "--repeat", "1", "--csv", str(path), "--quiet"])
    assert rc == cli.EXIT_USAGE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["expand.pt"]
    captured = capsys.readouterr()
    assert captured.out == "" and "--csv" in captured.err


def test_cli_bench_with_no_csv_directory_fails_before_it_runs(tmp_path, monkeypatch, capsys):
    def never(program, cfg):
        raise AssertionError(f"ran {cfg}")

    monkeypatch.setattr(bench, "run_program", never)
    path = tmp_path / "missing" / "x.csv"
    rc = cli.main(["bench", BINOMIAL, "--slaves", "1", "--backend", "sm",
                   "--repeat", "1", "--csv", str(path)])
    assert rc == cli.EXIT_RUNTIME
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err

@pytest.mark.parametrize("argv,code", [
    (["run", "no_such_file.pt"], cli.EXIT_RUNTIME),
    (["bench", "--slaves", "1", "--backend", "sm", "--csv", "x.csv"], cli.EXIT_USAGE),
    (["bench", BINOMIAL, "--generate", "expand:2", "--slaves", "1", "--backend", "sm",
      "--csv", "x.csv"], cli.EXIT_USAGE),
    (["bench", BINOMIAL, "--slaves", "1", "--backend", "ftp",
      "--csv", "x.csv"], cli.EXIT_USAGE),
    (["verify", "no_such_file.pt"], cli.EXIT_RUNTIME),
    (["run", BINOMIAL, "--chunk", "0"], cli.EXIT_USAGE),
    (["run", BINOMIAL, "--slaves", "-1"], cli.EXIT_USAGE),
    (["bench", BINOMIAL, "--slaves", "2", "--backend", "sm",
      "--csv", "x.csv"], cli.EXIT_USAGE),
    (["bench", BINOMIAL, "--slaves", "1", "--backend", "sm",
      "--repeat", "0", "--csv", "x.csv"], cli.EXIT_USAGE),
    (["bench", BINOMIAL, "--normalize", "sequential", "--slaves", "1", "--backend", "sm",
      "--csv", "x.csv"], cli.EXIT_USAGE),
])
def test_cli_exit_codes(argv, code, capsys):
    assert cli.main(argv) == code


@pytest.mark.parametrize("argv,value", [
    (["bench", BINOMIAL, "--slaves", "1,1", "--backend", "sm"], "1"),
    (["bench", BINOMIAL, "--slaves", "1,2", "--backend", "sm,mp,sm"], "sm"),
    (["bench", BINOMIAL, "--slaves", "1", "--backend", "sm", "--chunk", "7,100,7"], "7"),
    (["verify", BINOMIAL, "--slaves", "2,1,2"], "2"),
    (["verify", BINOMIAL, "--chunk", "1,1"], "1"),
], ids=["bench-slaves", "bench-backend", "bench-chunk", "verify-slaves", "verify-chunk"])
def test_cli_rejects_a_repeated_list_entry(argv, value, tmp_path, capsys):
    path = tmp_path / "bench.csv"
    extra = ["--repeat", "1", "--csv", str(path), "--quiet"] if argv[0] == "bench" else []
    assert cli.main(argv + extra) == cli.EXIT_USAGE
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and f"{value} is repeated in" in captured.err


@pytest.mark.parametrize("slaves", ["0", "2"])
def test_cli_reports_a_worker_failure_in_one_line(slaves, tmp_path, capsys):
    program = tmp_path / "overflow.pt"
    program.write_text("symbols x,y; local F = x^4294967295; multiply x; .sort .end")
    assert cli.main(["run", str(program), "--slaves", slaves]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exponent overflow" in captured.err
    assert "Traceback" not in captured.err
    if slaves != "0":
        assert captured.err.startswith("error: worker 0 failed: ExponentOverflowError: ")


@pytest.mark.parametrize("command", [
    ["run", BINOMIAL, "--slaves"],
    ["verify", BINOMIAL, "--slaves"],
    ["bench", BINOMIAL, "--backend", "sm", "--csv", "x.csv", "--slaves"],
])
def test_cli_rejects_a_slave_count_over_the_cap_without_starting_threads(command, capsys):
    before = threading.active_count()
    slaves = str(MAX_SLAVES + 1) if command[0] == "run" else f"1,{MAX_SLAVES + 1}"
    assert cli.main(command + [slaves]) == cli.EXIT_USAGE
    assert threading.active_count() == before
    captured = capsys.readouterr()
    assert f"nslaves {MAX_SLAVES + 1} exceeds the cap of {MAX_SLAVES}" in captured.err
    assert captured.out == ""


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pt"
    bad.write_text("symbols x; local F = y; .sort .end")
    rc = cli.main(["run", str(bad)])
    assert rc == cli.EXIT_PARSE
    assert "undeclared symbol 'y'" in capsys.readouterr().err


def test_cli_deeply_nested_parentheses_exit_parse(tmp_path, capsys):
    def nested(depth):
        path = tmp_path / f"nested{depth}.pt"
        path.write_text(f"symbols x; local F = {'(' * depth}x{')' * depth}; .sort .end")
        return str(path)

    assert cli.main(["run", "--slaves", "0", nested(50)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "F = x\n"
    assert cli.main(["run", "--slaves", "0", nested(3000)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error: expression nested too deeply at line 1" in err
    assert "Traceback" not in err


def test_cli_overflowing_power_of_a_sum_exits_at_once(tmp_path):
    # 2 * 2**31 overflows x's field, but only the last of 2**31 repeated
    # products would reach it: the check has to come before any work.  A
    # child process, so that a regression times out instead of hanging.
    bad = tmp_path / "overflow.pt"
    bad.write_text("symbols x, y; local F = (x^2+y)^2147483648; id x = y; .sort .end")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "parterm.cli", "run", str(bad)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == cli.EXIT_PARSE
    assert "exponent overflow" in proc.stderr and "line 1, column 33" in proc.stderr


@pytest.mark.parametrize("text, code, where", [
    ("symbols x; local F = 3^4294967296; .sort .end", cli.EXIT_PARSE, "at line 1, column 24"),
    ("symbols x;\nlocal F = (2*x)^4294967295; .sort .end", cli.EXIT_PARSE, "at line 2, column 17"),
    ("symbols x, y; local F = x^4294967295; id x = 2*y; .sort .end", cli.EXIT_RUNTIME,
     "worker 0 failed: CoefficientOverflowError"),
    ("symbols x; local F = 3^600000*3^600000; .sort .end", cli.EXIT_PARSE,
     "at line 1, column 30"),
    ("symbols x;\nlocal F = x + " + "7" * 315654 + "; .sort .end", cli.EXIT_PARSE,
     "an integer literal exceeds 1048576 bits at line 2, column 15"),
], ids=["integer", "one-term", "in-a-worker", "product", "literal"])
def test_cli_power_with_oversized_coefficients_exits_at_once(tmp_path, text, code, where):
    # 3^4294967296 is a 6.8-Gbit integer and (2*y)^4294967295 a 4.3-Gbit
    # coefficient, and each 3^600000 passes the bound but their product
    # would take 1.9 Mbit: the bound has to come before any multiplication.
    # A literal of 315,654 digits, one more than a 2^20-bit integer can
    # have, is refused before it converts, which is quadratic in its digits.
    # A child process, so that a regression times out instead of allocating.
    bad = tmp_path / "big.pt"
    bad.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "parterm.cli", "run", "--slaves", "1", str(bad)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == code
    assert "coefficient overflow" in proc.stderr and where in proc.stderr


def test_cli_coefficient_at_the_bound_prints_and_reparses_at_once(tmp_path):
    # 3^600000 has 286,273 digits; int and str take seconds over them.
    path = tmp_path / "big.pt"
    path.write_text("symbols x; local F = 3^300000*3^300000; .sort .end")
    code = ("import sys; from parterm import cli, parser\n"
            "path, out = sys.argv[1:]\n"
            "assert cli.main(['run', '--slaves', '0', '--out', out, path]) == 0\n"
            "text = open(out).read()\n"
            "assert text.startswith('F = ')\n"
            "program = parser.parse_program('symbols x; local F = ' + text[4:] + '; .sort .end')\n"
            "assert program.initial == [('F', (3 ** 600000, 0))]\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out.txt")],
                   check=True, env=env, timeout=10)
    assert time.perf_counter() - start < 2.0
