"""End-to-end tests for the erp-lab command line."""

import argparse
import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import erp_lab
from erp_lab import cli, historical, timeseries
from erp_lab.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from erp_lab.errors import EmptyIntersectionError
from erp_lab.implied import implied_erp_series
from erp_lab.io import format_cell


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ERP_LAB_CONFIG", raising=False)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def read(path):
    return Path(path).read_text(encoding="utf-8")


@pytest.fixture
def implied_files(tmp_path):
    prices = write(tmp_path, "prices.csv",
                   "date,close\n2009-01-02,1000\n2009-01-03,1010\n2009-01-04,1020\n")
    eps = write(tmp_path, "eps.csv", "date,eps\n2009-01-02,40\n2009-01-04,46\n")
    yields = write(tmp_path, "yields.csv",
                   "date,rate\n2009-01-02,4.00\n2009-01-03,4.00\n2009-01-04,5.00\n")
    return prices, eps, yields


def implied_argv(prices, eps, yields, output, extra=()):
    return [
        "implied",
        "--prices", prices, "--prices-value-column", "close",
        "--eps", eps, "--eps-value-column", "eps",
        "--yields", yields, "--yields-value-column", "rate",
        "--yields-scale", "0.01",
        "--output", output,
        *extra,
    ]


class TestImplied:
    def test_three_row_pipeline_matches_hand_computation(self, implied_files, tmp_path):
        prices, eps, yields = implied_files
        out = str(tmp_path / "erp.csv")
        code = main(implied_argv(prices, eps, yields, out,
                                 extra=("--ema-period", "3")))
        assert code == EXIT_OK
        # alpha = 0.5, EPS carried forward then smoothed: 40, 40, 43
        expected = "\n".join([
            "date,price,eps_smoothed,yield,erp",
            ",".join(["2009-01-02", format_cell(1000.0), format_cell(40.0),
                      format_cell(0.04), format_cell(40.0 / 1000.0 - 0.04)]),
            ",".join(["2009-01-03", format_cell(1010.0), format_cell(40.0),
                      format_cell(0.04), format_cell(40.0 / 1010.0 - 0.04)]),
            ",".join(["2009-01-04", format_cell(1020.0), format_cell(43.0),
                      format_cell(0.05), format_cell(43.0 / 1020.0 - 0.05)]),
        ]) + "\n"
        assert read(out) == expected
        svg = tmp_path / "erp.svg"
        assert svg.exists()
        assert read(svg).startswith("<svg ")

    def test_custom_svg_path(self, implied_files, tmp_path):
        prices, eps, yields = implied_files
        out = str(tmp_path / "erp.csv")
        svg = str(tmp_path / "elsewhere.svg")
        code = main(implied_argv(prices, eps, yields, out, extra=("--svg", svg)))
        assert code == EXIT_OK
        assert read(svg).startswith("<svg ")

    def test_missing_price_file(self, implied_files, tmp_path, capsys):
        _, eps, yields = implied_files
        code = main(implied_argv(str(tmp_path / "absent.csv"), eps, yields,
                                 str(tmp_path / "erp.csv")))
        assert code == EXIT_INPUT
        assert "parsing prices" in capsys.readouterr().err

    def test_header_only_eps_file(self, implied_files, tmp_path, capsys):
        prices, _, yields = implied_files
        eps = write(tmp_path, "empty.csv", "date,eps\n")
        code = main(implied_argv(prices, eps, yields, str(tmp_path / "erp.csv")))
        assert code == EXIT_INPUT
        assert "parsing eps" in capsys.readouterr().err

    def test_header_only_prices_file_is_one_stderr_line(self, implied_files, tmp_path,
                                                         monkeypatch):
        # a program of its own, so that a library warning would print to stderr
        _, eps, yields = implied_files
        prices = write(tmp_path, "empty.csv", "date,close\n")
        argv = implied_argv(prices, eps, yields, str(tmp_path / "erp.csv"))
        monkeypatch.setenv("PYTHONPATH", str(Path(erp_lab.__file__).parents[1]),
                           prepend=os.pathsep)
        proc = subprocess.run([sys.executable, "-m", "erp_lab.cli", *argv],
                              capture_output=True, encoding="utf-8")
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == f"erp-lab: parsing prices: {prices}: no data rows\n"

    def test_eps_starting_after_prices(self, implied_files, tmp_path, capsys):
        prices, _, yields = implied_files
        late = write(tmp_path, "late.csv", "date,eps\n2009-06-01,40\n")
        code = main(implied_argv(prices, late, yields, str(tmp_path / "erp.csv")))
        assert code == EXIT_INPUT
        assert "interpolating" in capsys.readouterr().err

    def test_undecodable_prices_file_is_one_line_error(self, implied_files, tmp_path, capsys):
        _, eps, yields = implied_files
        prices = tmp_path / "binary.csv"
        prices.write_bytes(b"date,close\n2009-01-02,1000\xff\n")
        code = main(implied_argv(str(prices), eps, yields, str(tmp_path / "erp.csv")))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("erp-lab: parsing prices:")

    def test_float_overflow_is_one_line_numerical_error(self, implied_files, tmp_path, capsys):
        prices, _, yields = implied_files
        eps = write(tmp_path, "huge.csv", "date,eps\n2009-01-02,1e308\n2009-01-03,-1e308\n")
        code = main(implied_argv(prices, eps, yields, str(tmp_path / "erp.csv")))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "erp-lab: smoothing eps: overflow encountered in scalar subtract\n")

    def test_float_overflow_after_the_first_block_is_numerical_error(self, tmp_path, capsys):
        # eps -1.7e308 from the 50th last day, +1.7e308 from the 10th: the
        # smoothing overflows past its first block of floats
        n = timeseries._BLOCK + 100
        days = (np.datetime64("2000-01-01") + np.arange(n)).astype(str)
        prices = write(tmp_path, "prices.csv",
                       "date,close\n" + "".join(f"{d},1000\n" for d in days))
        eps = write(tmp_path, "eps.csv", f"date,eps\n{days[0]},40\n{days[-50]},-1.7e308\n"
                                         f"{days[-10]},1.7e308\n")
        yields = write(tmp_path, "yields.csv",
                       "date,rate\n" + "".join(f"{d},4.00\n" for d in days))
        out = tmp_path / "erp.csv"
        code = main(implied_argv(prices, eps, yields, str(out)))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "erp-lab: smoothing eps: overflow encountered in scalar subtract\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_huge_ema_period_is_one_line_input_error(self, source, implied_files, tmp_path,
                                                     capsys):
        period = "1" + "0" * 400
        out = tmp_path / "erp.csv"
        if source == "config":
            argv = ["--config", write(tmp_path, "cfg", f"ema-period = {period}\n"),
                    *implied_argv(*implied_files, str(out))]
        else:
            argv = implied_argv(*implied_files, str(out), extra=("--ema-period", period))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "erp-lab: smoothing eps: int too large to convert to float\n")
        assert not out.exists()

    @pytest.mark.parametrize("source, value, reason", [
        ("command line", "0", "must be >= 1, got '0'"),
        ("command line", "-3", "must be >= 1, got '-3'"),
        ("command line", "x", "invalid int value: 'x'"),
        ("config", "0", "must be >= 1, got '0'"),
        ("config", "x", "invalid int value: 'x'"),
    ])
    def test_ema_period_below_one_is_usage_error(self, source, value, reason, implied_files,
                                                 tmp_path, capsys, monkeypatch):
        # refused where the flag is read, before any input file is parsed
        monkeypatch.setattr(cli, "parse_series", None)
        out = tmp_path / "erp.csv"
        if source == "config":
            cfg = write(tmp_path, "cfg", f"# smoothing\nema-period = {value}\n")
            argv = ["--config", cfg, *implied_argv(*implied_files, str(out))]
            expected = f"erp-lab: {cfg} line 2: ema-period: {reason}\n"
        else:
            argv = implied_argv(*implied_files, str(out), extra=("--ema-period", value))
            expected = f"erp-lab implied: argument --ema-period: {reason}\n"
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_premium_beyond_float_range_fails_chart_not_nan(self, tmp_path, capsys):
        prices = write(tmp_path, "prices.csv", "date,close\n2009-01-02,1\n2009-01-03,1\n")
        eps = write(tmp_path, "eps.csv", "date,eps\n2009-01-02,1\n2009-01-03,1\n")
        yields = write(tmp_path, "yields.csv",
                       "date,rate\n2009-01-02,-1e308\n2009-01-03,1e308\n")
        out = tmp_path / "erp.csv"
        code = main(implied_argv(prices, eps, yields, str(out), extra=("--yields-scale", "1")))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "erp-lab: writing output: chart y range -inf to inf spans more than float range\n")
        # the chart is rendered before either file is written
        assert not out.exists()
        assert not out.with_suffix(".svg").exists()

    @pytest.mark.parametrize("rows_per_write", [1, 2])
    def test_output_written_in_chunks_is_unchanged(self, implied_files, tmp_path,
                                                   monkeypatch, rows_per_write):
        whole = str(tmp_path / "whole.csv")
        assert main(implied_argv(*implied_files, whole)) == EXIT_OK
        monkeypatch.setattr("erp_lab.timeseries._BLOCK", rows_per_write)
        chunked = str(tmp_path / "chunked.csv")
        assert main(implied_argv(*implied_files, chunked)) == EXIT_OK
        assert read(chunked) == read(whole)
        assert len(read(whole).splitlines()) == 4
        # the polyline is cut into the same blocks; at one row a block the
        # last block is a single point
        chunked_svg, whole_svg = (Path(p).with_suffix(".svg").read_bytes()
                                  for p in (chunked, whole))
        assert chunked_svg == whole_svg

    def test_nonpositive_scale_is_one_line_error(self, implied_files, tmp_path, capsys):
        code = main(implied_argv(*implied_files, str(tmp_path / "erp.csv"),
                                 extra=("--prices-scale", "0")))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"erp-lab: {implied_files[0]}: value_scale must be positive and finite, got 0.0\n")

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_one_line_error(self, scale, implied_files, tmp_path, capsys,
                                                monkeypatch):
        # rejected with the file's name before any input is read
        monkeypatch.setattr(cli, "parse_series", None)
        code = main(implied_argv(*implied_files, str(tmp_path / "erp.csv"),
                                 extra=("--yields-scale", scale)))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"erp-lab: {implied_files[2]}: value_scale must be positive and finite, "
            f"got {scale}\n")


def historical_argv(annual_paths, output, *extra):
    return [
        "historical",
        "--equity", str(annual_paths["equity"]),
        "--equity-value-column", "return",
        "--riskfree", f"tbills={annual_paths['tbills']}",
        "--riskfree-value-column", "return",
        "--output", output,
        *extra,
    ]


class TestHistorical:
    def test_bundled_grid_row(self, annual_paths, tmp_path):
        out = str(tmp_path / "report.csv")
        code = main([
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--equity-value-column", "return",
            "--riskfree", f"tbills={annual_paths['tbills']}",
            "--riskfree-value-column", "return",
            "--window", "2000-2009",
            "--method", "arithmetic", "--method", "geometric",
            "--output", out,
        ])
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "window,tbills arithmetic,tbills geometric"
        cells = lines[1].split(",")
        assert cells[0] == "2000-2009"
        assert cells[1] == "0.0210000000"

    def test_empty_window_warns_but_succeeds(self, annual_paths, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = main([
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--equity-value-column", "return",
            "--riskfree", f"tbills={annual_paths['tbills']}",
            "--riskfree-value-column", "return",
            "--window", "1990-1995", "--method", "arithmetic",
            "--output", out,
        ])
        assert code == EXIT_OK
        assert "1990-1995" in capsys.readouterr().err
        assert read(out).splitlines()[1] == "1990-1995,NA"

    def test_exp_column_overflow_is_one_line_numerical_error(self, tmp_path, capsys):
        # the weighted sum of returns near the float maximum overflows; numpy
        # names the operation by the path it takes (dot per row, or vecdot)
        years = (2000, 2001, 2002)
        equity = write(tmp_path, "eq.csv",
                       "date,value\n" + "".join(f"{y}-12-31,1.7e308\n" for y in years))
        riskfree = write(tmp_path, "rf.csv",
                         "date,value\n" + "".join(f"{y}-12-31,0.01\n" for y in years))
        out = tmp_path / "report.csv"
        code = main(["historical", "--equity", equity, "--riskfree", f"tbills={riskfree}",
                     "--window", "2000-2002", "--method", "exp:0.9", "--output", str(out)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("erp-lab: building report: overflow encountered in ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not out.exists()

    def test_price_levels_input(self, tmp_path):
        equity = write(tmp_path, "levels.csv",
                       "date,value\n2000-12-31,100\n2001-12-31,110\n")
        riskfree = write(tmp_path, "rf.csv", "date,value\n2001-12-31,0.04\n")
        out = str(tmp_path / "report.csv")
        code = main([
            "historical",
            "--equity", equity, "--equity-kind", "levels",
            "--riskfree", f"tbills={riskfree}",
            "--window", "2001-2001", "--method", "arithmetic",
            "--output", out,
        ])
        assert code == EXIT_OK
        assert read(out).splitlines()[1] == "2001-2001,0.0600000000"

    def test_unlabeled_riskfree_uses_file_stem(self, annual_paths, tmp_path):
        out = str(tmp_path / "report.csv")
        code = main([
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--equity-value-column", "return",
            "--riskfree", str(annual_paths["tbonds"]),
            "--riskfree-value-column", "return",
            "--window", "2000-2009", "--method", "arithmetic",
            "--output", out,
        ])
        assert code == EXIT_OK
        assert read(out).splitlines()[0] == "window,annual_tbonds arithmetic"

    def test_bad_method_is_usage_error(self, annual_paths, tmp_path, capsys):
        code = main([
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--riskfree", f"tbills={annual_paths['tbills']}",
            "--window", "2000-2009", "--method", "median",
            "--output", str(tmp_path / "report.csv"),
        ])
        assert code == EXIT_INPUT
        assert "erp-lab" in capsys.readouterr().err

    @pytest.mark.parametrize("method, reason", [
        ("harmonic", "unrecognized averaging method 'harmonic'"),
        ("blume:0", "blume requires an integer horizon >= 1"),
        ("exp:2", "exp_weighted requires decay in (0, 1]"),
        ("blume:x", "blume requires an integer horizon >= 1"),
        ("blume:2.5", "blume requires an integer horizon >= 1"),
    ], ids=["harmonic", "blume:0", "exp:2", "blume:x", "blume:2.5"])
    def test_bad_method_names_its_reason(self, method, reason, annual_paths, tmp_path,
                                         capsys):
        out = tmp_path / "report.csv"
        code = main(historical_argv(annual_paths, str(out),
                                    "--window", "2000-2009", "--method", method))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"erp-lab historical: argument --method: {reason}\n")
        assert not out.exists()

    def test_reversed_window_is_usage_error(self, annual_paths, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(historical_argv(annual_paths, str(out),
                                    "--window", "2010-1990", "--method", "arithmetic"))
        assert code == EXIT_INPUT
        assert "2010-1990" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_csv_field_is_one_line_error(self, annual_paths, tmp_path, capsys):
        equity = write(tmp_path, "big.csv", "date,return\n2001-12-31," + "1" * 140_000 + "\n")
        code = main(historical_argv({**annual_paths, "equity": equity},
                                    str(tmp_path / "report.csv"),
                                    "--window", "2000-2009", "--method", "arithmetic"))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"erp-lab: parsing equity: {equity} line 2: field larger than field limit (131072)"]

    def test_blume_horizon_beyond_window_is_na_cell(self, annual_paths, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        code = main(historical_argv(annual_paths, out, "--window", "2000-2002",
                                    "--window", "1990-2009", "--method", "blume:5"))
        assert code == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "erp-lab: warning: 2000-2002 tbills blume(5): horizon 5 exceeds sample length 3"]
        rows = read(out).splitlines()
        assert rows[1] == "2000-2002,NA"
        assert rows[2].startswith("1990-2009,") and rows[2] != "1990-2009,NA"

    @pytest.mark.parametrize("extra", [
        ("--riskfree", "tbills={tbonds}", "--method", "arithmetic"),
        ("--method", "arithmetic", "--method", "arithmetic"),
        ("--method", "exp:0.95", "--method", "exp:0.950"),
    ], ids=["riskfree label", "method", "method label"])
    def test_repeated_report_column_is_input_error(self, extra, annual_paths, tmp_path,
                                                   capsys, monkeypatch):
        # the report's files are never read: the check precedes parsing
        monkeypatch.setattr(cli, "parse_series", None)
        out = tmp_path / "report.csv"
        argv = historical_argv(annual_paths, str(out), "--window", "2000-2009",
                               *(w.format(tbonds=annual_paths["tbonds"]) for w in extra))
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        column = "tbills arithmetic" if "arithmetic" in extra else "tbills exp(0.95)"
        assert f"report column {column!r}" in err
        assert not out.exists()

    def test_gap_warnings_are_window_major(self, annual_paths, tmp_path, capsys):
        later = write(tmp_path, "later.csv", "date,return\n2030-12-31,0.01\n2031-12-31,0.02\n")
        out = tmp_path / "report.csv"
        code = main(historical_argv(annual_paths, str(out), "--riskfree", f"later={later}",
                                    "--window", "2000-2002", "--window", "1990-1995",
                                    "--window", "2000-2009",
                                    "--method", "arithmetic", "--method", "blume:5"))
        assert code == EXIT_OK
        disjoint = "series share no common dates"
        assert capsys.readouterr().err.splitlines() == [f"erp-lab: warning: {line}" for line in [
            "2000-2002 tbills blume(5): horizon 5 exceeds sample length 3",
            f"2000-2002 later arithmetic: {disjoint}",
            f"2000-2002 later blume(5): {disjoint}",
            "1990-1995 tbills arithmetic: no aligned observations in 1990-1995",
            "1990-1995 tbills blume(5): no aligned observations in 1990-1995",
            f"1990-1995 later arithmetic: {disjoint}",
            f"1990-1995 later blume(5): {disjoint}",
            f"2000-2009 later arithmetic: {disjoint}",
            f"2000-2009 later blume(5): {disjoint}",
        ]]
        rows = read(out).splitlines()
        assert rows[1].startswith("2000-2002,") and rows[1].endswith(",NA,NA,NA")
        assert rows[2] == "1990-1995,NA,NA,NA,NA"
        assert rows[3].count("NA") == 2

    def test_report_builds_no_cell_objects(self, annual_paths, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a report cell object")

        monkeypatch.setattr(historical, "ErpEstimate", refuse)
        monkeypatch.setattr(historical, "ReportCell", refuse)
        out = tmp_path / "report.csv"
        code = main(historical_argv(annual_paths, str(out), "--window", "2000-2009",
                                    "--window", "1990-1995", "--window", "2000-2002",
                                    "--method", "arithmetic", "--method", "blume:5"))
        assert code == EXIT_OK
        rows = read(out).splitlines()
        assert rows[1].startswith("2000-2009,0.0210000000,")
        assert rows[2] == "1990-1995,NA,NA"
        assert rows[3].startswith("2000-2002,") and rows[3].endswith(",NA")

    def test_report_is_utf_8(self, annual_paths, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--equity-value-column", "return",
            "--riskfree", f"bund\u20ac={annual_paths['tbills']}",
            "--riskfree-value-column", "return",
            "--window", "2000-2009", "--method", "arithmetic",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes().startswith(b"window,bund\xe2\x82\xac arithmetic\n")

    def test_riskfree_labels_are_quoted_in_the_header(self, annual_paths, tmp_path, capsys):
        labels = ["a,b", 'say "hi"', "two\nlines", "bare\rreturn"]
        methods = ["arithmetic", "geometric"]
        out = tmp_path / "report.csv"
        argv = historical_argv(annual_paths, str(out), "--window", "2000-2004",
                               "--window", "2005-2009", "--window", "1850-1859")
        for label in labels:
            argv += ["--riskfree", f"{label}={annual_paths['tbills']}"]
        for method in methods:
            argv += ["--method", method]
        assert main(argv) == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        columns = [f"{label} {method}" for label in ["tbills", *labels] for method in methods]
        assert header == ["window", *columns]
        assert [len(row) for row in rows] == [1 + len(columns)] * 3
        # the window outside the data: one warning line per column
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == len(columns)
        assert all(line.startswith("erp-lab: warning: 1850-1859 ") for line in warned)
        assert any(" two\\nlines arithmetic: " in line for line in warned)
        assert any(" bare\\rreturn geometric: " in line for line in warned)

    def test_one_row_window_of_negative_zero_reads_zero_in_every_column(self, tmp_path):
        # an excess return of -0.0 over one year: every mean sums from +0.0
        equity = write(tmp_path, "eq.csv", "date,value\n1999-12-31,0.1\n2000-12-31,-0.0\n")
        riskfree = write(tmp_path, "rf.csv", "date,value\n1999-12-31,0.01\n2000-12-31,0.0\n")
        out = tmp_path / "report.csv"
        argv = ["historical", "--equity", equity, "--riskfree", f"rf={riskfree}",
                "--window", "2000-2000", "--output", str(out)]
        for method in ("arithmetic", "geometric", "blume:1", "exp:0.5"):
            argv += ["--method", method]
        assert main(argv) == EXIT_OK
        assert read(out).splitlines()[1] == "2000-2000" + ",0.0000000000" * 4


class TestCalendarStaysDays:
    """On ISO-dated inputs every series is built from a ``datetime64[D]``
    array: no pipeline turns its calendar into ``datetime.date`` objects
    and back, and no series copies the values array it is handed."""

    @pytest.mark.parametrize("command", ["implied", "historical"])
    def test_every_series_keeps_the_values_it_is_handed(self, command, daily_paths,
                                                        annual_paths, tmp_path, built_series):
        out = str(tmp_path / "out.csv")
        if command == "implied":
            argv = implied_argv(*map(str, daily_paths.values()), out)
        else:
            argv = historical_argv(annual_paths, out, "--window", "2000-2009",
                                   "--method", "arithmetic")
        assert main(argv) == EXIT_OK
        assert built_series
        assert [name for name, kept in built_series if not kept] == []

    @pytest.mark.parametrize("command", ["implied", "historical"])
    def test_no_series_is_built_from_date_objects(self, command, implied_files, annual_paths,
                                                  tmp_path, monkeypatch):
        received = []
        as_days = timeseries._as_days

        def recorded(dates):
            received.append(dates)
            return as_days(dates)

        monkeypatch.setattr(timeseries, "_as_days", recorded)
        out = str(tmp_path / "out.csv")
        if command == "implied":
            argv = implied_argv(*implied_files, out)
        else:
            argv = historical_argv(annual_paths, out, "--window", "2000-2009",
                                   "--method", "arithmetic")
        assert main(argv) == EXIT_OK
        assert received
        assert [type(dates).__name__ for dates in received
                if not (isinstance(dates, np.ndarray) and dates.dtype == "datetime64[D]")] == []

    def test_smoothed_eps_holds_the_prices_calendar(self, implied_files, tmp_path,
                                                    monkeypatch):
        # _inputs_on picks prices and smoothed EPS through one mask
        calls = []

        def recorded(prices, eps_smooth, yields):
            calls.append((prices, eps_smooth))
            return implied_erp_series(prices, eps_smooth, yields)

        monkeypatch.setattr(cli, "implied_erp_series", recorded)
        assert main(implied_argv(*implied_files, str(tmp_path / "out.csv"))) == EXIT_OK
        [(prices, eps_smooth)] = calls
        assert eps_smooth.days is prices.days


class TestWriterLookup:
    """erp.csv takes each input's values on the premium's days through one
    membership mask per calendar; it must pick what a search would."""

    @given(base=st.sampled_from([date(1, 1, 1), date(1969, 12, 20), date(9999, 10, 1)]),
           price_days=st.sets(st.integers(0, 60), min_size=1, max_size=45),
           yield_days=st.sets(st.integers(0, 60), min_size=1, max_size=45),
           eps_days=st.sets(st.integers(0, 60), min_size=1, max_size=5),
           period=st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_matches_search(self, base, price_days, yield_days, eps_days, period):
        def series(offsets, scale):
            offsets = sorted(offsets)
            return timeseries.DatedSeries([base + timedelta(days=k) for k in offsets],
                                          scale + np.arange(len(offsets)))

        prices, yields = series(price_days, 100.0), series(yield_days, 0.01)
        eps = series({min(price_days)} | {k for k in eps_days if k > min(price_days)}, 5.0)
        eps_smooth = timeseries.ema(timeseries.step_interpolate(eps, prices.days), period)
        try:
            erp = implied_erp_series(prices, eps_smooth, yields)
        except EmptyIntersectionError:
            return
        got = cli._inputs_on(erp.days, prices, eps_smooth, yields)
        expected = [s.values[np.searchsorted(s.days, erp.days)]
                    for s in (prices, eps_smooth, yields)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


class TestCapm:
    def test_double_beta_asset(self, tmp_path, capsys):
        market = write(tmp_path, "market.csv",
                       "date,value\n2020-01-01,0.01\n2020-01-02,0.03\n2020-01-03,0.02\n")
        asset = write(tmp_path, "asset.csv",
                      "date,value\n2020-01-01,0.02\n2020-01-02,0.06\n2020-01-03,0.04\n")
        code = main(["capm", "--asset", asset, "--market", market])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n_obs           3" in out
        assert "beta            2.0000000000" in out
        assert "residual_sigma  0.0000000000" in out

    def test_constant_market_is_numerical_failure(self, tmp_path, capsys):
        market = write(tmp_path, "market.csv",
                       "date,value\n2020-01-01,0.01\n2020-01-02,0.01\n")
        asset = write(tmp_path, "asset.csv",
                      "date,value\n2020-01-01,0.02\n2020-01-02,0.05\n")
        code = main(["capm", "--asset", asset, "--market", market])
        assert code == EXIT_NUMERICAL
        assert "fitting market model" in capsys.readouterr().err

    def test_market_constant_up_to_float_rounding_is_numerical_failure(self, tmp_path, capsys):
        # the float mean of three 0.1 returns is 0.10000000000000002
        market = write(tmp_path, "market.csv",
                       "date,value\n2020-01-01,0.1\n2020-01-02,0.1\n2020-01-03,0.1\n")
        asset = write(tmp_path, "asset.csv",
                      "date,value\n2020-01-01,0.2\n2020-01-02,0.1\n2020-01-03,0.3\n")
        code = main(["capm", "--asset", asset, "--market", market])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err == "erp-lab: fitting market model: market returns have zero variance\n"


class TestSimulate:
    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--n-assets", "16", "--n-periods", "2000", "--seed", "5"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert "n_assets        16" in first

    def test_invalid_parameters_are_input_errors(self, capsys):
        code = main(["simulate", "--n-assets", "4", "--n-periods", "10"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "erp-lab simulate: argument --n-periods: must be >= 30, got '10'\n"

    def test_no_assets_names_its_flag(self, capsys):
        code = main(["simulate", "--n-assets", "0", "--n-periods", "30"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "erp-lab simulate: argument --n-assets: must be >= 1, got '0'\n"

    def test_float_overflow_is_one_line_numerical_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--n-assets", "3", "--sigma-m", "1e200",
                         "--n-periods", "30"])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "erp-lab: simulating: overflow encountered in square\n"

    @pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf"),
                                             ("--beta", "-inf"), ("--sigma-m", "nan"),
                                             ("--sigma-m", "inf"), ("--sigma-eps", "nan"),
                                             ("--sigma-eps", "inf")])
    def test_non_finite_parameter_is_one_line_input_error(self, flag, value, capsys):
        code = main(["simulate", "--n-assets", "3", "--n-periods", "30", f"{flag}={value}"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "erp-lab: simulating: need n_assets >= 1, n_periods >= 30, a finite beta, "
            "and finite non-negative sigmas\n")

    @pytest.mark.parametrize("source", ["command line", "config"])
    def test_negative_seed_names_its_flag(self, source, tmp_path, capsys):
        argv = ["simulate", "--n-assets", "3", "--n-periods", "30"]
        if source == "config":
            cfg = write(tmp_path, "cfg", "seed = -1\n")
            argv = ["--config", cfg, *argv]
            expected = f"erp-lab: {cfg} line 1: seed: must be >= 0, got '-1'\n"
        else:
            argv += ["--seed", "-1"]
            expected = "erp-lab simulate: argument --seed: must be >= 0, got '-1'\n"
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == expected

    @pytest.mark.parametrize("beta, sigma_m", [("1e308", "10"), ("1e200", "1e150")])
    def test_systematic_overflow_is_one_line_numerical_error(self, beta, sigma_m, capsys):
        # |beta| * sigma_m overflows though each factor is finite; numpy
        # names the overflow differently from version to version
        code = main(["simulate", "--n-assets", "3", "--n-periods", "30",
                     "--beta", beta, "--sigma-m", sigma_m])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("erp-lab: simulating: overflow encountered in ")

    def test_impossible_size_is_one_line_input_error(self, capsys):
        # 10**17 residuals: far beyond any address space, so the request
        # fails at allocation without touching memory
        code = main(["simulate", "--n-assets", "1000000000000", "--n-periods", "100000"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("erp-lab: simulating: Unable to allocate")
        assert "Traceback" not in captured.err


class TestConfig:
    def test_config_fills_missing_flag(self, implied_files, tmp_path):
        prices, eps, yields = implied_files
        cfg = write(tmp_path, "cfg", "# pipeline defaults\nema-period = 3\n")
        explicit = str(tmp_path / "explicit.csv")
        via_config = str(tmp_path / "config.csv")
        assert main(implied_argv(prices, eps, yields, explicit,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert main(["--config", cfg] +
                    implied_argv(prices, eps, yields, via_config)) == EXIT_OK
        assert read(via_config) == read(explicit)

    def test_config_with_byte_order_mark_fills_its_flag(self, implied_files, tmp_path):
        prices, eps, yields = implied_files
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xef\xbb\xbfema-period = 3\n")
        explicit = str(tmp_path / "explicit.csv")
        via_config = str(tmp_path / "config.csv")
        assert main(implied_argv(prices, eps, yields, explicit,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert main(["--config", str(cfg)] +
                    implied_argv(prices, eps, yields, via_config)) == EXIT_OK
        assert read(via_config) == read(explicit)

    def test_explicit_flag_beats_config(self, implied_files, tmp_path):
        prices, eps, yields = implied_files
        cfg = write(tmp_path, "cfg", "ema-period = 7\n")
        explicit = str(tmp_path / "explicit.csv")
        overridden = str(tmp_path / "overridden.csv")
        assert main(implied_argv(prices, eps, yields, explicit,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert main(["--config", cfg] +
                    implied_argv(prices, eps, yields, overridden,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert read(overridden) == read(explicit)

    def test_env_var_names_config(self, implied_files, tmp_path, monkeypatch):
        prices, eps, yields = implied_files
        cfg = write(tmp_path, "cfg", "ema-period = 3\n")
        monkeypatch.setenv("ERP_LAB_CONFIG", cfg)
        via_env = str(tmp_path / "env.csv")
        explicit = str(tmp_path / "explicit.csv")
        assert main(implied_argv(prices, eps, yields, via_env)) == EXIT_OK
        monkeypatch.delenv("ERP_LAB_CONFIG")
        assert main(implied_argv(prices, eps, yields, explicit,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert read(via_env) == read(explicit)

    def test_config_can_supply_repeatable_flags(self, annual_paths, tmp_path):
        cfg = write(tmp_path, "cfg",
                    "window = 2000-2004, 2000-2009\nmethod = arithmetic, geometric\n")
        out = str(tmp_path / "report.csv")
        code = main([
            "--config", cfg,
            "historical",
            "--equity", str(annual_paths["equity"]),
            "--equity-value-column", "return",
            "--riskfree", f"tbills={annual_paths['tbills']}",
            "--riskfree-value-column", "return",
            "--output", out,
        ])
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "window,tbills arithmetic,tbills geometric"
        assert [line.split(",")[0] for line in lines[1:]] == ["2000-2004", "2000-2009"]

    def test_config_fills_per_file_flags(self, annual_paths, tmp_path):
        # each file flag's companions are config keys, --riskfree's included
        cfg = write(tmp_path, "cfg", "equity-value-column = return\n"
                    "riskfree_value_column = return\nriskfree-scale = 0.5\n")
        outs = [str(tmp_path / name) for name in ("explicit.csv", "config.csv")]
        argv = ["historical", "--equity", str(annual_paths["equity"]),
                "--riskfree", f"tbills={annual_paths['tbills']}",
                "--window", "2000-2009", "--method", "arithmetic", "--output"]
        assert main(argv + [outs[0], "--equity-value-column", "return",
                            "--riskfree-value-column", "return",
                            "--riskfree-scale", "0.5"]) == EXIT_OK
        assert main(["--config", cfg] + argv + [outs[1]]) == EXIT_OK
        assert read(outs[1]) == read(outs[0])

    def test_explicit_repeatable_flag_replaces_config_list(self, annual_paths, tmp_path):
        cfg = write(tmp_path, "cfg", "window = 2000-2004\nmethod = arithmetic\n")
        out = str(tmp_path / "report.csv")
        code = main(["--config", cfg] +
                    historical_argv(annual_paths, out, "--window", "2000-2009"))
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "window,tbills arithmetic"
        assert [line.split(",")[0] for line in lines[1:]] == ["2000-2009"]

    def test_unknown_config_key(self, implied_files, tmp_path, capsys):
        prices, eps, yields = implied_files
        cfg = write(tmp_path, "cfg", "# typo below\nema-perod = 3\n")
        out = tmp_path / "x.csv"
        code = main(["--config", cfg] + implied_argv(prices, eps, yields, str(out)))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{cfg} line 2" in err
        assert "ema-perod" in err
        assert not out.exists()

    def test_reversed_window_in_config(self, annual_paths, tmp_path, capsys):
        cfg = write(tmp_path, "cfg", "window = 2010-1990\n")
        code = main(["--config", cfg] +
                    historical_argv(annual_paths, str(tmp_path / "report.csv"),
                                    "--method", "arithmetic"))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{cfg} line 1" in err
        assert "Traceback" not in err

    def test_config_value_outside_choices(self, annual_paths, tmp_path, capsys):
        cfg = write(tmp_path, "cfg", "equity-kind = foo\n")
        out = tmp_path / "report.csv"
        code = main(["--config", cfg] +
                    historical_argv(annual_paths, str(out), "--method", "arithmetic"))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{cfg} line 1" in err
        assert "equity-kind" in err
        assert not out.exists()

    def test_help_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg", "help = yes\n")
        code = main(["--config", cfg, "simulate", "--n-assets", "3", "--n-periods", "30"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"erp-lab: {cfg} line 1: help: not a flag of any subcommand\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, line", [
        ("window = 2000-2005\nwindow = 2001-2003\n", "line 2: window"),
        ("seed=1\n# again\n\nseed=2\n", "line 4: seed"),
        ("ema-period = 3\nseed = 1\nema_period = 3\n", "line 3: ema_period"),
    ], ids=["window", "seed", "dash and underscore"])
    def test_repeated_config_key(self, text, line, annual_paths, tmp_path, capsys):
        cfg = write(tmp_path, "cfg", text)
        out = tmp_path / "report.csv"
        code = main(["--config", cfg] + historical_argv(annual_paths, str(out),
                                                        "--method", "arithmetic"))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"erp-lab: {cfg} {line}: repeats line 1\n"
        assert not out.exists()

    def test_config_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "u16.cfg"
        cfg.write_bytes("seed = 4\n".encode("utf-16"))  # starts with b"\xff\xfe"
        assert main(["--config", str(cfg), "simulate", "--n-assets", "2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith(f"erp-lab: {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("line, other", [
        ("method =", ("--window", "2000-2009")),
        ("window = , ,", ("--method", "arithmetic")),
    ], ids=["method", "commas only"])
    def test_empty_repeatable_value(self, line, other, annual_paths, tmp_path, capsys,
                                    monkeypatch):
        # a config error, raised before any input file is read
        monkeypatch.setattr(cli, "parse_series", None)
        cfg = write(tmp_path, "cfg", f"# no values\n{line}\n")
        out = tmp_path / "report.csv"
        code = main(["--config", cfg] + historical_argv(annual_paths, str(out), *other))
        assert code == EXIT_INPUT
        key = line.partition(" ")[0]
        assert capsys.readouterr().err == (
            f"erp-lab: {cfg} line 2: {key}: needs at least one value\n")
        assert not out.exists()

    def test_malformed_config_line(self, implied_files, tmp_path, capsys):
        prices, eps, yields = implied_files
        cfg = write(tmp_path, "cfg", "ema-period 3\n")
        code = main(["--config", cfg] +
                    implied_argv(prices, eps, yields, str(tmp_path / "x.csv")))
        assert code == EXIT_INPUT
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--c", "{cfg}"), ("--conf={cfg}",)])
    def test_abbreviated_config_flag(self, flag, implied_files, tmp_path):
        cfg = write(tmp_path, "cfg", "ema-period = 3\n")
        explicit = str(tmp_path / "explicit.csv")
        via_config = str(tmp_path / "config.csv")
        assert main(implied_argv(*implied_files, explicit,
                                 extra=("--ema-period", "3"))) == EXIT_OK
        assert main([word.format(cfg=cfg) for word in flag] +
                    implied_argv(*implied_files, via_config)) == EXIT_OK
        assert read(via_config) == read(explicit)

    def test_bare_equals_names_config(self, implied_files, tmp_path, capsys):
        # the pre-parse reads --=PATH as --config PATH and loads it before
        # the full parser finds the flag ambiguous with --help
        missing = str(tmp_path / "missing.cfg")
        code = main([f"--={missing}"] + implied_argv(*implied_files, str(tmp_path / "x.csv")))
        assert code == EXIT_INPUT
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--config", ""], ["--config="]])
    def test_empty_config_path_is_refused(self, flag, implied_files, tmp_path, monkeypatch,
                                          capsys):
        # refused as every empty path is, not read as "no --config"
        monkeypatch.setenv("ERP_LAB_CONFIG", write(tmp_path, "env.cfg", "ema-period = 3\n"))
        monkeypatch.setattr(cli, "_load_config", lambda path: pytest.fail(f"{path} read"))
        code = main(flag + implied_argv(*implied_files, str(tmp_path / "x.csv")))
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "erp-lab: argument --config: the path is empty\n"

    @pytest.mark.parametrize("exists", [False, True])
    def test_config_after_the_subcommand_is_not_read(self, exists, tmp_path, monkeypatch,
                                                     capsys):
        # only the top-level parser has --config: after the subcommand it is
        # a usage error, and the file is not opened
        cfg = str(tmp_path / "x.cfg")
        if exists:
            write(tmp_path, "x.cfg", "seed = 3\n")
        monkeypatch.setattr(cli, "_load_config", lambda path: pytest.fail(f"{path} read"))
        assert main(["simulate", "--n-assets", "3", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"erp-lab: unrecognized arguments: --config {cfg}\n"

    def test_no_config_token_skips_the_pre_parse(self, annual_paths, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pre-parse ran")

        argv = historical_argv(annual_paths, str(tmp_path / "r.csv"), "--method", "arithmetic",
                               "--window=2000-2004", "-c")
        monkeypatch.setattr(cli._Parser, "parse_known_args", refuse)
        assert cli._top_level(argv) == (None, "historical", 1)
        monkeypatch.setenv("ERP_LAB_CONFIG", "from-env.cfg")
        assert cli._top_level(argv) == ("from-env.cfg", "historical", 1)

    @given(argv=st.lists(st.one_of(
        st.sampled_from(["--config", "--c", "--conf=a", "--=b", "--", "--co", "-c", "-",
                         "--configs", "---config", "--window", "historical", "x=--c",
                         "--bogus", "--bogus=1", "-1", "x y", "2000-2004", "--config="]),
        st.text(alphabet="-=cofnigx", max_size=9)), max_size=10),
        env=st.sampled_from([None, "from-env.cfg"]))
    @example(argv=["--", "historical", "--c", "x"], env=None)
    @example(argv=["-1", "historical"], env=None)
    @example(argv=["--config", "historical", "--", "historical"], env=None)
    @example(argv=["--config", "x", "--", "x"], env=None)
    @settings(max_examples=300, deadline=None)
    def test_config_path_matches_an_unconditional_pre_parse(self, argv, env):
        # argparse's own top-level shape, with every token of the line a
        # subcommand, so that no line stops at an invalid choice; the
        # subcommand's parser records the tokens it is given
        received = []

        class Subcommand(cli._Parser):
            def parse_known_args(self, args=None, namespace=None):
                received.append(args)
                return super().parse_known_args(args, namespace)

        def top_level():
            top = cli._Parser(add_help=False)
            top.add_argument("--config", type=cli._path)
            commands = top.add_subparsers(dest="command", parser_class=Subcommand)
            for token in dict.fromkeys(argv):
                commands.add_parser(token, add_help=False)
            known = top.parse_known_args(argv)[0]
            start = len(argv) - len(received[0]) if known.command == "historical" else None
            return known.config or env, known.command, start

        with pytest.MonkeyPatch.context() as mp:
            if env is not None:
                mp.setenv("ERP_LAB_CONFIG", env)
            try:
                expected = top_level()
            except cli._UsageError as exc:
                with pytest.raises(cli._UsageError, match=re.escape(str(exc))):
                    cli._top_level(argv)
                return
            config, command, start = cli._top_level(argv)
        assert config == expected[0]
        if (command, start) != expected[1:]:
            # argparse up to 3.13.0 reads a "--" before the subcommand as
            # the subcommand (later releases skip it); the full parse then
            # refuses it
            assert expected[1:] == ("--", None)
            if command == "historical":  # its tokens start after it
                assert argv[start - 1] == command and "--" in argv[:start - 1]
            else:
                assert start is None and command in argv[argv.index("--") + 1:]


# command, flag, value, why it is refused
EMPTY_CASES = [
    ("implied", "output", "", "the path is empty"),
    ("implied", "svg", "", "the path is empty"),
    ("historical", "output", "", "the path is empty"),
    ("implied", "prices", "", "the path is empty"),
    ("implied", "eps", "", "the path is empty"),
    ("implied", "yields", "", "the path is empty"),
    ("historical", "equity", "", "the path is empty"),
    ("capm", "asset", "", "the path is empty"),
    ("capm", "market", "", "the path is empty"),
    ("historical", "riskfree", "", "the path is empty"),
    ("historical", "riskfree", "tbonds=", "the path is empty"),
    ("historical", "riskfree", "=", "the path is empty"),
    ("historical", "riskfree", "=tbills.csv", "the label is empty"),
]


class TestEmptyPath:
    """An empty path or riskfree label is refused before any input is read."""

    @pytest.mark.parametrize("command, flag, value, reason", EMPTY_CASES,
                             ids=["-".join(filter(None, case[:3])) for case in EMPTY_CASES])
    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_empty_path_is_refused(self, command, flag, value, reason, source, implied_files,
                                   annual_paths, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_series", None)
        out = str(tmp_path / "out.csv")
        argv = {
            "implied": implied_argv(*implied_files, out),
            "historical": historical_argv(annual_paths, out, "--window", "2000-2009",
                                          "--method", "arithmetic"),
            "capm": ["capm", "--asset", implied_files[0], "--market", implied_files[1]],
        }[command]
        if f"--{flag}" in argv:
            at = argv.index(f"--{flag}")
            del argv[at:at + 2]
        if source == "config":
            cfg = write(tmp_path, "cfg", f"{flag} = {value}\n")
            argv = ["--config", cfg, *argv]
            if flag == "riskfree" and not value:
                # a repeatable key drops empty list items: none are left
                reason = "needs at least one value"
            expected = f"erp-lab: {cfg} line 1: {flag}: {reason}\n"
        else:
            argv += [f"--{flag}", value]
            expected = f"erp-lab {command}: argument --{flag}: {reason}\n"
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == expected
        assert sorted(os.listdir(tmp_path)) == before


# --output and --svg whose chart path resolves to the output file
COLLISIONS = [("erp.svg", None), ("a.csv", "a.csv"), ("a.csv", "./a.csv")]


class TestChartOverwritesOutput:
    """A chart path that is the output file is refused before any input is read."""

    @pytest.mark.parametrize("output, svg", COLLISIONS,
                             ids=["default-svg", "same-name", "dot-slash"])
    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_collision_is_refused(self, output, svg, source, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "parse_series", None)
        monkeypatch.chdir(tmp_path)
        flags = {"output": output, **({"svg": svg} if svg else {})}
        argv = ["implied", "--prices", "p.csv", "--eps", "e.csv", "--yields", "y.csv"]
        if source == "config":
            cfg = write(tmp_path, "cfg", "".join(f"{k} = {v}\n" for k, v in flags.items()))
            argv = ["--config", cfg, *argv]
        else:
            argv += [item for k, v in flags.items() for item in (f"--{k}", v)]
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"erp-lab: the chart path {svg or output} is the output file {output}; "
            "give --svg another path\n")
        assert sorted(os.listdir(tmp_path)) == before


# each run's inputs, as bare file names in the working directory
OUTPUT_RUNS = {
    "implied": {"prices": "p.csv", "eps": "e.csv", "yields": "y.csv", "output": "erp.csv"},
    "historical": {"equity": "eq.csv", "riskfree": "bills=rf.csv", "window": "2000-2005",
                   "method": "arithmetic", "output": "report.csv"},
}
# (command, input flag, output flag): the output flag names the input's file
OVERWRITES = [
    *(("implied", name, out) for name in ("prices", "eps", "yields") for out in ("output", "svg")),
    ("historical", "equity", "output"),
    ("historical", "riskfree", "output"),
]
INPUT_NAMES = {"riskfree": "riskfree 'bills'"}
OUTPUT_ROLES = {"output": "output", "svg": "chart"}


class TestOutputPaths:
    """An output path that is an input file or a directory, or whose
    directory does not exist, is refused before any input is read, and no
    file changes."""

    def refused(self, command, flags, source, tmp_path, monkeypatch, capsys):
        """Run ``command`` with ``flags`` in ``tmp_path``; its stderr, after
        checking that it exits 1 and leaves every file as it was."""
        monkeypatch.setattr(cli, "parse_series", None)
        monkeypatch.chdir(tmp_path)
        for name in ("p.csv", "e.csv", "y.csv", "eq.csv", "rf.csv"):
            write(tmp_path, name, f"date,value\n2000-01-03,{len(name)}\n")
        argv = [command]
        if source == "command line":
            argv += [item for k, v in flags.items() for item in (f"--{k}", v)]
        else:
            write(tmp_path, "cfg", "".join(f"{k} = {v}\n" for k, v in flags.items()))
            if source == "config":
                argv = ["--config", "cfg", *argv]
            else:
                monkeypatch.setenv("ERP_LAB_CONFIG", "cfg")

        def contents():
            return {p.name: p.read_bytes() if p.is_file() else sorted(os.listdir(p))
                    for p in tmp_path.iterdir()}

        before = contents()
        code, err = main(argv), capsys.readouterr().err
        assert code == EXIT_INPUT, err
        assert contents() == before
        return err

    @pytest.mark.parametrize("command, name, out", OVERWRITES,
                             ids=["-".join(case) for case in OVERWRITES])
    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_output_naming_an_input_is_refused(self, command, name, out, source, tmp_path,
                                               monkeypatch, capsys):
        flags = dict(OUTPUT_RUNS[command])
        file = flags[name].partition("=")[2] or flags[name]
        flags[out] = f"./{file}"
        assert self.refused(command, flags, source, tmp_path, monkeypatch, capsys) == (
            f"erp-lab: the {OUTPUT_ROLES[out]} path ./{file} is the "
            f"{INPUT_NAMES.get(name, name)} file {file}; give --{out} another path\n")

    @pytest.mark.parametrize("command, out", [("implied", "output"), ("implied", "svg"),
                                              ("historical", "output")])
    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_output_in_a_missing_directory_is_refused(self, command, out, source, tmp_path,
                                                      monkeypatch, capsys):
        flags = {**OUTPUT_RUNS[command], out: "nodir/out.txt"}
        assert self.refused(command, flags, source, tmp_path, monkeypatch, capsys) == (
            f"erp-lab: the directory of the {OUTPUT_ROLES[out]} path nodir/out.txt "
            "does not exist\n")

    @pytest.mark.parametrize("command, out", [("implied", "output"), ("implied", "svg"),
                                              ("historical", "output")])
    @pytest.mark.parametrize("source", ["config", "command line"])
    def test_output_that_is_a_directory_is_refused(self, command, out, source, tmp_path,
                                                   monkeypatch, capsys):
        (tmp_path / "outdir").mkdir()
        flags = {**OUTPUT_RUNS[command], out: "outdir"}
        assert self.refused(command, flags, source, tmp_path, monkeypatch, capsys) == (
            f"erp-lab: the {OUTPUT_ROLES[out]} path outdir is a directory\n")

    @pytest.mark.parametrize("command, out", [("implied", "output"), ("implied", "svg"),
                                              ("historical", "output")])
    @pytest.mark.parametrize("source", ["config", "environment"])
    def test_output_naming_the_config_file_is_refused(self, command, out, source, tmp_path,
                                                      monkeypatch, capsys):
        flags = {**OUTPUT_RUNS[command], out: "./cfg"}
        assert self.refused(command, flags, source, tmp_path, monkeypatch, capsys) == (
            f"erp-lab: the {OUTPUT_ROLES[out]} path ./cfg is the config file cfg; "
            f"give --{out} another path\n")


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--n-assets", "4", "--bogus"]) == EXIT_INPUT
        assert "erp-lab" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == EXIT_INPUT

    def test_missing_required_flag(self, capsys):
        assert main(["simulate"]) == EXIT_INPUT
        assert "--n-assets" in capsys.readouterr().err

    def test_config_pre_parse_is_named_erp_lab(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["cli.py"])
        assert main(["--config"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "erp-lab: argument --config: expected one argument\n")


# -- the repeated historical flags, read before argparse ------------------------

# each repeatable flag's values: four it accepts, then two it refuses
REPEATED_VALUES = {
    "--window": ["2000-2004", "2000-2009", "2003-2003", "2001-2008", "2005-2001", "20x0-2004"],
    "--method": ["arithmetic", "geometric", "blume:2", "exp:0.9", "harmonic", "blume:x"],
    "--riskfree": ["bills=rf.csv", "bonds=rb.csv", "rf.csv", "x=y=z.csv", "=rf.csv", "bills="],
}
ODD_VALUES = ["", "-1", "--output", "-", "--window"]
OTHER_TOKENS = [["--"], ["--", "stray"], ["stray"], ["--bogus"], ["--bogus=1"], ["--equity-kind"],
                ["--equity-kind", "levels"], ["--riskfree-kind=levels"], ["--equity-scale", "-1"],
                ["--output", "other.csv"], ["-h"], ["--he"], ["--=x"], ["--config", "{cfg}"]]
REPEATED_CONFIGS = ["window = 2000-2004, 2000-2009\n", "method = geometric\n",
                    "window = 2001-2002\nmethod = arithmetic, exp:0.5\n",
                    "riskfree = notes=rn.csv\n", "window = 2009-2000\n"]
# the tokens before the flags; {cfg} is the config file
HISTORICAL_PREFIXES = [["historical"], ["--config", "{cfg}", "historical"],
                       ["--config={cfg}", "historical"], ["--c", "{cfg}", "historical"],
                       ["--config", "{cfg}", "--", "historical"],
                       ["--config", "other.cfg", "--config={cfg}", "historical"],
                       ["--conf", "{cfg}", "historical"], ["--bogus", "--c={cfg}", "historical"],
                       ["-1", "--config", "{cfg}", "historical"], ["--", "historical"],
                       ["simulate", "--n-assets", "2"]]


@st.composite
def flag_uses(draw, flag):
    """Uses of a repeatable ``flag``: accepted values after the exact flag,
    as the next token or after ``=``, and often one odd use among them:
    abbreviated, with a value the flag refuses or an odd one, or alone."""
    values = REPEATED_VALUES[flag]

    def use(name, value):
        return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))

    uses = [use(flag, draw(st.sampled_from(values[:4])))
            for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3])))]
    odd = draw(st.sampled_from([None] * 4 + ["abbreviated", "refused", "odd", "alone"]))
    if odd:
        name = draw(st.sampled_from([flag[:-2], flag[:3]])) if odd == "abbreviated" else flag
        value = draw(st.sampled_from({"abbreviated": values[:4], "refused": values[4:],
                                      "odd": ODD_VALUES, "alone": [None]}[odd]))
        uses.insert(draw(st.integers(0, len(uses))), [name] if value is None else use(name, value))
    return uses


@st.composite
def use_after_waiting_option(draw):
    """An accepted flag use right after an option still waiting for its
    value, then a token that option could take."""
    flag = draw(st.sampled_from(sorted(REPEATED_VALUES)))
    value = draw(st.sampled_from(REPEATED_VALUES[flag][:4]))
    option = draw(st.sampled_from(["--output", "--equity-kind", "--riskfree", "--method",
                                   "--bogus", "-1"]))
    return [option, *draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])),
            draw(st.sampled_from(["levels", "o.csv"]))]


@st.composite
def historical_line(draw):
    """A historical command line and the config file text it may name."""
    chunks = [["--equity", "eq.csv"], ["--output", "out.csv"]]
    for flag in REPEATED_VALUES:
        chunks += draw(flag_uses(flag))
    chunks += draw(st.lists(st.one_of(st.sampled_from(OTHER_TOKENS),
                                      use_after_waiting_option()), max_size=2))
    config = draw(st.one_of(st.none(), st.sampled_from(REPEATED_CONFIGS)))
    prefix = draw(st.sampled_from(HISTORICAL_PREFIXES[:1] * 3 + HISTORICAL_PREFIXES))
    tokens = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    return prefix + tokens, config


class TestRepeatedFlags:
    """``main`` reads a historical line's ``--window`` uses, the flag a
    report repeats by the hundred, in one pass before argparse sees the
    rest; argparse alone must give the same result."""

    @staticmethod
    def outcome(argv, prepass):
        """Exit code, stdout, stderr and parsed flags of ``main(argv)``, with
        the historical command only recording its flags."""
        parsed, out, err = [], io.StringIO(), io.StringIO()

        def record(args):
            parsed.append({k: v for k, v in vars(args).items() if k != "func"})
            return EXIT_OK

        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.setattr(cli, "run_historical", record)
            if not prepass:
                mp.setattr(cli, "_take_repeated", lambda argv, flags: argv)
            try:
                code = main(argv)
            except SystemExit as exc:  # help
                code = f"exit {exc.code}"
        return code, out.getvalue(), err.getvalue(), parsed

    @given(line=historical_line())
    @settings(max_examples=300, deadline=None)
    def test_matches_argparse_alone(self, line):
        argv, config = line
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg")
            if config is not None:
                Path(cfg).write_text(config, encoding="utf-8")
            argv = [token.format(cfg=cfg) for token in argv]
            assert self.outcome(argv, True) == self.outcome(argv, False)

    # lines whose difference only a rare drawn line would show: help lists
    # required flags unbracketed, and a flag after ``--`` is no flag
    @pytest.mark.parametrize("tail", [["-h"], ["--he"], ["--", "stray", "--window", "2000-2004"],
                                      ["--window"], ["--window", "--window", "2000-2004"],
                                      ["--window="], ["--output", "--window", "2000-2004"],
                                      ["--w", "2000-2004", "--window", "-1-2"]])
    def test_edge_lines_match_argparse_alone(self, tail):
        argv = ["historical", "--equity", "eq.csv", "--output", "out.csv", "--riskfree", "rf.csv",
                "--method", "arithmetic", "--window=2000-2009", *tail]
        assert self.outcome(argv, True) == self.outcome(argv, False)

    def test_abbreviated_windows_bypass_argparse(self, monkeypatch):
        # argparse reads --win and --w as --window, and so does the pre-pass
        argv = ["historical", "--equity", "eq.csv", "--output", "out.csv", "--riskfree",
                "rf.csv", "--win", "2000-2004", "--w=2001-2002"]
        seen = []
        parse_args = cli._Parser.parse_args

        def recording(parser, args=None, namespace=None):
            seen.append(list(args))
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        assert self.outcome(argv, True) == self.outcome(argv, False)
        assert seen == [argv[:7], argv]

    def test_many_windows_bypass_argparse(self, annual_paths, tmp_path, monkeypatch, capsys):
        # hundreds of windows, some outside the data (NA cells and warnings)
        windows = [f"{start}-{end}" for start in range(1990, 2010) for end in range(start, 2013)]

        def argv(out, windows=windows):
            line = ["historical", "--equity", str(annual_paths["equity"]),
                    "--equity-value-column", "return",
                    "--riskfree", f"tbills={annual_paths['tbills']}",
                    f"--riskfree=tbonds={annual_paths['tbonds']}",
                    "--riskfree-value-column", "return",
                    "--method", "arithmetic", "--method=geometric", "--output", out]
            for i, window in enumerate(windows):
                line += ["--window", window] if i % 2 else [f"--window={window}"]
            return line

        seen = []
        parse_args = cli._Parser.parse_args

        def recording(parser, args=None, namespace=None):
            seen.append(args)
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        assert main(argv(str(fast))) == EXIT_OK
        fast_err = capsys.readouterr().err
        assert len(windows) > 250 and fast_err.count("warning") > 0
        # argparse reads every token but the windows, --method and
        # --riskfree uses unchanged and in order
        assert seen[0] == argv(str(fast), windows=[])
        monkeypatch.setattr(cli, "_take_repeated", lambda argv, flags: argv)
        assert main(argv(str(slow))) == EXIT_OK
        assert seen[1] == argv(str(slow))
        assert capsys.readouterr().err == fast_err
        assert fast.read_bytes() == slow.read_bytes()

    def test_many_windows_after_config_bypass_argparse(self, annual_paths, tmp_path, capsys):
        # a leading --config, in any spelling: the pre-parse reads no token
        # after the subcommand, and the full parse none of the windows, so
        # neither runs in quadratic time
        cfg = write(tmp_path, "cfg", "riskfree-value-column = return\n")
        line = ["historical", "--equity", str(annual_paths["equity"]),
                "--equity-value-column", "return", "--riskfree", str(annual_paths["tbills"]),
                "--method", "arithmetic", "--output", str(tmp_path / "r.csv")]
        windows = [f"--window={start}-{end}" for start in range(1990, 2010)
                   for end in range(start, 2013)]
        for prefix in (["--config", cfg], ["--c", cfg], [f"--conf={cfg}"]):
            seen = {"parse_args": [], "parse_known_args": []}
            with pytest.MonkeyPatch.context() as mp:
                for name, calls in seen.items():
                    def recording(parser, args=None, namespace=None, calls=calls,
                                  method=getattr(cli._Parser, name)):
                        calls.append(args)
                        return method(parser, args, namespace)

                    mp.setattr(cli._Parser, name, recording)
                assert main(prefix + line + windows) == EXIT_OK
            assert "warning" in capsys.readouterr().err
            assert seen["parse_known_args"][0] == [*prefix, "historical"]
            # --riskfree and --method reach it unchanged and in order
            assert seen["parse_args"][0] == prefix + line


# -- fuzzing main() on malformed series files ---------------------------------

# Most files are well-formed (unique parseable dates, mostly positive
# values), so that runs reach the later stages; the rest are arbitrary
# bytes or CSV text with random headers and cells.  Every size is small.
GOOD_DATES = st.sampled_from(["2000-12-29", "2000-12-31", "2001-01-02", "2001-06-29",
                              "2001-12-31", "2002-06-28", "2002-12-31", "2003-12-31"])
POSITIVE = st.floats(1e-3, 1e4).map(repr)
GOOD_VALUES = st.one_of(POSITIVE, POSITIVE, POSITIVE,
                        st.sampled_from(["0", "-0.5", "-1", "1e-300", "1e308", "-1e308"]))
FUZZ_CELLS = st.one_of(
    GOOD_DATES, GOOD_VALUES,
    st.sampled_from(["2001-02-29", "12/31/2001", "", " ", "nan", "inf", "abc", '"',
                     "date", "value"]),
    st.text(max_size=6),
)
FUZZ_HEADERS = st.lists(
    st.one_of(st.sampled_from(["date", "value", "close", "eps", "rate", "return", ""]),
              st.text(max_size=4)),
    max_size=4)


@st.composite
def series_file(draw):
    """Bytes of one series file."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=300))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if kind >= 3:
        rows = draw(st.lists(st.tuples(GOOD_DATES, GOOD_VALUES), min_size=1, max_size=8,
                             unique_by=lambda row: row[0]))
        return newline.join(",".join(cells) for cells in [("date", "value"), *rows]).encode()
    header = draw(FUZZ_HEADERS)
    rows = draw(st.lists(st.lists(FUZZ_CELLS, max_size=4), max_size=40))
    text = newline.join(",".join(cells) for cells in [header, *rows]) + newline
    return text.encode("utf-8") + draw(st.binary(max_size=3))


def flag_choices(*pairs):
    return st.lists(st.sampled_from(pairs), max_size=4).map(
        lambda chosen: [word for pair in chosen for word in pair])


IMPLIED_FLAGS = flag_choices(
    ("--ema-period", "1"), ("--ema-period", "3"), ("--ema-period", "0"),
    ("--ema-period", "x"),
    ("--yields-scale", "0.01"), ("--yields-scale", "0"), ("--yields-scale", "-1"),
    ("--yields-scale", "nan"), ("--yields-scale", "inf"), ("--prices-scale", "0"),
    ("--eps-value-column", "eps"), ("--prices-date-format", "%m/%d/%Y"),
)
HISTORICAL_FLAGS = flag_choices(
    ("--equity-kind", "levels"), ("--riskfree-kind", "levels"), ("--equity-kind", "x"),
    ("--riskfree-value-column", "return"), ("--equity-scale", "0"),
    ("--equity-scale", "nan"), ("--riskfree-scale", "-1"),
    ("--equity-date-format", "%m/%d/%Y"), ("--window", "2003-2000"),
    ("--window", "20x1-2002"), ("--method", "median"),
)
CAPM_FLAGS = flag_choices(
    ("--kind", "levels"), ("--kind", "x"), ("--asset-scale", "0"), ("--asset-scale", "nan"),
    ("--market-value-column", "return"),
)
WINDOWS = st.lists(st.sampled_from(["2000-2003", "2001-2001", "2002-2002", "1990-2020"]),
                   min_size=1, max_size=3)
METHODS = st.lists(st.sampled_from(["arithmetic", "geometric", "blume:2", "blume:50",
                                    "exp:0.5"]), min_size=1, max_size=3)


@st.composite
def implied_run(draw):
    """Series files by name, and an argv naming each file and the output by
    ``str.format`` field (``{prices}``, ``{out}``)."""
    files = {name: draw(series_file()) for name in ("prices", "eps", "yields")}
    argv = ["implied", *(w for name in files for w in (f"--{name}", f"{{{name}}}")),
            "--output", "{out}", *draw(IMPLIED_FLAGS)]
    return files, argv


@st.composite
def historical_run(draw):
    files = {"equity": draw(series_file()), "riskfree": draw(series_file())}
    # a label may hold a line break: report.csv quotes it, a warning escapes it
    label = draw(st.sampled_from(["rf", "two\nlines", "bare\rreturn"]))
    argv = ["historical", "--equity", "{equity}", "--riskfree", f"{label}={{riskfree}}",
            *(w for window in draw(WINDOWS) for w in ("--window", window)),
            *(w for method in draw(METHODS) for w in ("--method", method)),
            "--output", "{out}", *draw(HISTORICAL_FLAGS)]
    return files, argv


@st.composite
def capm_run(draw):
    files = {"asset": draw(series_file()), "market": draw(series_file())}
    return files, ["capm", "--asset", "{asset}", "--market", "{market}", *draw(CAPM_FLAGS)]


@st.composite
def simulate_run(draw):
    """Small simulations (at most 20 assets and 200 periods) with extreme or
    invalid parameters; no files."""
    numbers = st.sampled_from(["0", "-1", "0.15", "1e-300", "1e200", "1e308", "nan", "inf"])
    argv = ["simulate",
            "--n-assets", draw(st.sampled_from(["1", "3", "20", "20", "0", "x"])),
            "--n-periods", draw(st.sampled_from(["30", "200", "200", "29", "1.5"]))]
    for flag in ("--beta", "--sigma-m", "--sigma-eps"):
        if draw(st.integers(0, 3)):
            argv += [flag, draw(numbers)]
    return {}, argv


# Config file lines: valid keys of each subcommand, ``help``, an unknown
# key, bad windows and choices, a line with no ``=``, and empty values for
# repeatable keys.  ``ema-period`` and ``ema_period`` are one key.
CONFIG_LINES = st.sampled_from([
    "ema-period = 3", "ema_period=1", "yields-scale = 0.01", "seed = 4", "n-periods = 30",
    "window = 2000-2003, 2001-2001", "method = arithmetic, geometric",
    "equity-kind = levels", "riskfree-value-column = return",
    "help = yes", "no-such-flag = 1", "window = 2003-2000", "window = 20x1-2002",
    "equity-kind = x", "kind = neither", "ema-period 3", "method =", "window = ,",
    "# comment", "",
])


@st.composite
def maybe_config(draw, runs):
    """A run from ``runs``, in one case of three with a ``--config`` file,
    whose lines sometimes repeat a key, and which is sometimes UTF-16, not
    UTF-8."""
    files, argv = draw(runs)
    if draw(st.integers(0, 2)):
        return files, argv
    lines = draw(st.lists(CONFIG_LINES, max_size=5))
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    data = "\n".join(lines).encode(draw(st.sampled_from(["utf-8"] * 4 + ["utf-16"])))
    return {**files, "config": data}, ["--config", "{config}", *argv]


class TestMalformedInputFuzz:
    """Malformed files, flags and config files end in exit 1 or 2 with one
    stderr line."""

    @given(run=maybe_config(st.one_of(implied_run(), historical_run(), capm_run(),
                                      simulate_run())))
    @settings(max_examples=200, deadline=None)
    def test_main_never_tracebacks(self, run):
        files, argv = run
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"out": os.path.join(tmp, "out.csv")}
            for name, data in files.items():
                paths[name] = os.path.join(tmp, f"{name}.csv")
                with open(paths[name], "wb") as fh:
                    fh.write(data)
            argv = [word.format(**paths) for word in argv]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()
        # a warning prints its own stderr lines, and on exit 0 flags a
        # result computed past float range
        assert [str(w.message) for w in caught] == []
        if code != EXIT_OK:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        else:
            assert all(line.startswith("erp-lab: warning: ")
                       for line in err.getvalue().splitlines()), err.getvalue()


# -- the parser built for the one subcommand a line runs ---------------------

SUBCOMMANDS = ("implied", "historical", "capm", "simulate")


@st.composite
def any_command_line(draw):
    """A command line of any subcommand, with placeholders for the files it
    names, those files' bytes, and the ``$ERP_LAB_CONFIG`` value (or None).
    The config file is named by ``--config`` or by the environment;
    top-level tokens (``-``, ``-1``, ``--``, help) may precede the
    subcommand and a help token follow it, or the subcommand is dropped or
    unknown."""
    files, argv = draw(st.one_of(
        maybe_config(st.one_of(implied_run(), historical_run(), capm_run(), simulate_run())),
        historical_line().map(
            lambda line: ({} if line[1] is None else {"cfg": line[1].encode()}, line[0]))))
    env = draw(st.sampled_from([None] * 4 + ["{cfg}"]))
    if argv[:2] == ["--config", "{config}"] and draw(st.booleans()):
        argv, env = argv[2:], "{config}"
    at = next((i for i, token in enumerate(argv) if token in SUBCOMMANDS), len(argv))
    head, tail = argv[:at], argv[at:]
    change = draw(st.sampled_from([None, None, None, "drop", "unknown"]))
    if tail and change:
        tail = tail[1:] if change == "drop" else ["bogus", *tail[1:]]
    help_at = draw(st.integers(min(1, len(tail)), len(tail)))
    tail[help_at:help_at] = draw(st.sampled_from([[]] * 6 + [["-h"], ["--he"]]))
    top = draw(st.sampled_from([[]] * 6 + [["-"], ["-1"], ["--"], ["-h"], ["--he"], ["--bogus"],
                                           ["--", "-1"]]))
    return files, head + top + tail, env


class TestLazyParser:
    """``main`` gives only the subcommand a line runs its flags, unless a
    config file is read or the line names no subcommand; the parser with
    every subcommand's flags (``build_parser()``) must give the same
    result."""

    @staticmethod
    def outcome(argv, env, full):
        """Exit code, stdout, stderr and parsed flags of ``main(argv)``, with
        every command only recording its flags; ``full`` builds every
        subcommand's flags whatever the line runs."""
        parsed, out, err = [], io.StringIO(), io.StringIO()

        def record(args):
            # repr, so that a nan flag value equals itself
            parsed.append(repr({k: v for k, v in vars(args).items() if k != "func"}))
            return EXIT_OK

        build = cli.build_parser
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for name in SUBCOMMANDS:
                mp.setattr(cli, f"run_{name}", record)
            if env is not None:
                mp.setenv("ERP_LAB_CONFIG", env)
            if full:
                mp.setattr(cli, "build_parser", lambda command=None: build())
            try:
                code = main(argv)
            except SystemExit as exc:  # help
                code = f"exit {exc.code}"
        return code, out.getvalue(), err.getvalue(), parsed

    @given(line=any_command_line())
    @example(line=({}, ["--", "historical", "--window", "2000-2004"], None))
    @example(line=({}, ["-1", "simulate", "--n-assets", "2"], None))
    @example(line=({}, ["-h", "capm"], None))
    @example(line=({}, ["implied", "--he"], None))
    @example(line=({"cfg": b"seed = 4\n"}, ["simulate", "--n-assets", "2"], "{cfg}"))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_parser(self, line):
        files, argv, env = line
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: os.path.join(tmp, name)
                     for name in ("out", "cfg", "config", "prices", "eps", "yields", "equity",
                                  "riskfree", "asset", "market")}
            for name, data in files.items():
                with open(paths[name], "wb") as fh:
                    fh.write(data)
            argv = [token.format(**paths) for token in argv]
            env = env and env.format(**paths)
            assert self.outcome(argv, env, False) == self.outcome(argv, env, True)

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
    def test_help_is_unchanged(self, command, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        argv = ["--help"] if command is None else [command, "--help"]
        lazy = self.outcome(argv, None, False)
        assert lazy[0] == "exit 0" and lazy[1].startswith("usage: erp-lab")
        assert lazy == self.outcome(argv, None, True)

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_width_read_once_gives_the_default_formatters_help(self, columns, monkeypatch):
        """``build_parser`` hands every parser a formatter whose width is
        read from the terminal once; each help text must be what argparse's
        own formatter, reading the width itself, writes."""
        monkeypatch.setenv("COLUMNS", columns)
        parser, _ = cli.build_parser()
        subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert tuple(subparsers.choices) == SUBCOMMANDS
        for each in (parser, *subparsers.choices.values()):
            assert each.formatter_class is not argparse.HelpFormatter
            text = each.format_help()
            each.formatter_class = argparse.HelpFormatter
            assert text == each.format_help()

    def test_builds_only_the_subcommand_that_runs(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or build(command))
        cfg = write(tmp_path, "cfg", "seed = 4\n")
        lines = [["simulate", "--n-assets", "2"], ["--config", cfg, "simulate", "--n-assets", "2"],
                 ["-1", "simulate"], []]
        for argv in lines:
            self.outcome(argv, None, False)
        monkeypatch.setenv("ERP_LAB_CONFIG", cfg)
        self.outcome(lines[0], None, False)
        assert built == ["simulate", None, "-1", None, None]
        assert build("-1")[1] == {}  # the top-level parse refuses the line
        _, flags = build("historical")
        assert {dest for dest in flags if dest.startswith("equity")} == {
            "equity", "equity_date_column", "equity_value_column", "equity_date_format",
            "equity_scale", "equity_kind"}
        assert all(sub.prog == "erp-lab historical" for pairs in flags.values()
                   for sub, _ in pairs)
        assert len(flags) < len(build()[1])


def test_module_entry_point_prints_the_golden_simulate_report(monkeypatch):
    # python -m runs the module's own sys.exit(main()) line
    monkeypatch.setenv("PYTHONPATH", str(Path(erp_lab.__file__).parents[1]),
                       prepend=os.pathsep)
    proc = subprocess.run([sys.executable, "-m", "erp_lab.cli", "simulate", "--n-assets", "7",
                           "--n-periods", "500", "--seed", "3"], capture_output=True)
    golden = Path(__file__).parent / "data" / "golden" / "simulate" / "stdout"
    assert proc.returncode == 0
    assert proc.stdout == golden.read_bytes()


def test_console_script_entry_point(erp_lab_on_path):
    proc = subprocess.run(
        ["erp-lab", "simulate", "--n-assets", "4", "--n-periods", "100", "--seed", "1"],
        capture_output=True, encoding="utf-8")
    assert proc.returncode == 0
    assert "unsystematic" in proc.stdout
