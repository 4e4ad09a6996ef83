import csv
import os

import pytest

from parterm import cli
from parterm.bench import CSV_COLUMNS, compute_speedups, run_sweep, write_csv, write_dat
from parterm.engine import RunConfig, run_program
from parterm.parser import format_expression, parse_program

from oracles import oracle_run_program

PROGRAMS = os.path.join(os.path.dirname(__file__), os.pardir, "programs")


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
        assert row["master_computes"] == "false"
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
    report = result.reports["sm"]
    assert report.rows[0].nslaves == 1
    assert report.rows[0].speedup_two_proc == 1.0
    assert report.rows[0].speedup_vs_sequential == pytest.approx(
        result.t_sequential_ns / report.rows[0].t_wall_ns)
    dat = tmp_path / "bench.dat"
    write_dat(str(dat), result, normalize="sequential")
    content = dat.read_text()
    assert "# backend=sm" in content
    assert "normalization: sequential" in content


def test_dat_blocks_are_gnuplot_indexable(tmp_path):
    text = "symbols x; local F = x+1; .sort .end"
    result = run_sweep(text, "demo", slaves=[1], backends=["mp", "sm"], repeats=1)
    dat = tmp_path / "b.dat"
    write_dat(str(dat), result)
    assert "\n\n\n# backend=sm\n" in dat.read_text()  # double blank separator


def test_multi_module_programs_emit_one_row_per_module():
    text = "symbols x; local F = x+1; multiply x; .sort multiply x; .sort .end"
    result = run_sweep(text, "demo", slaves=[1], backends=["sm"], repeats=1)
    assert [r["module_index"] for r in result.csv_rows] == [0, 1]


# -- CLI -----------------------------------------------------------------------

def test_cli_run_prints_expressions(capsys):
    rc = cli.main(["run", os.path.join(PROGRAMS, "binomial.pt"), "--slaves", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "F = x^2+2*x*y+y^2\n"


def test_cli_run_out_file(tmp_path, capsys):
    out = tmp_path / "result.txt"
    rc = cli.main(["run", os.path.join(PROGRAMS, "binomial.pt"), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "F = x^2+2*x*y+y^2\n"
    assert capsys.readouterr().out == ""


def test_cli_run_sequential_sentinel(capsys):
    rc = cli.main(["run", os.path.join(PROGRAMS, "binomial.pt"), "--slaves", "0"])
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


def test_cli_verify_detects_mismatch(capsys, monkeypatch):
    real = cli.run_program

    def corrupting(program, cfg):
        result = real(program, cfg)
        if cfg.nslaves:  # corrupt only parallel runs
            result.expressions = {k: v + ((99, ()),) for k, v in result.expressions.items()}
        return result

    monkeypatch.setattr(cli, "run_program", corrupting)
    rc = cli.main(["verify", os.path.join(PROGRAMS, "binomial.pt"), "--slaves", "1"])
    assert rc == cli.EXIT_VERIFY
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_bench_writes_csv_and_dat(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--generate", "expand:2:1", "--slaves", "1,2",
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
    (["bench", "--generate", "bogus", "--slaves", "1", "--backend", "sm",
      "--csv", "x.csv"], cli.EXIT_USAGE),
    (["bench", "--generate", "expand:2", "--slaves", "1", "--backend", "ftp",
      "--csv", "x.csv"], cli.EXIT_USAGE),
    (["verify", "no_such_file.pt"], cli.EXIT_RUNTIME),
    (["run", os.path.join(PROGRAMS, "binomial.pt"), "--chunk", "0"], cli.EXIT_USAGE),
    (["run", os.path.join(PROGRAMS, "binomial.pt"), "--slaves", "-1"], cli.EXIT_USAGE),
])
def test_cli_exit_codes(argv, code, capsys):
    assert cli.main(argv) == code


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pt"
    bad.write_text("symbols x; local F = y; .sort .end")
    rc = cli.main(["run", str(bad)])
    assert rc == cli.EXIT_PARSE
    assert "undeclared symbol 'y'" in capsys.readouterr().err
