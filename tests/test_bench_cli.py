import csv
import os
import subprocess
import sys
import threading

import pytest

from parterm import cli
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
            result.expressions = {k: v + (99, 0) for k, v in result.expressions.items()}
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
