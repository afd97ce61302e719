"""The benchmark's per-layer probes against the command line.

``benches/run.py`` times each layer by wrapping the module global its
caller looks it up through; a layer renamed or no longer called through
that global would read 0.  ``traced_layers`` is imported from
``benches/``, so the probes checked here are the ones the benchmark uses.
"""

import csv
import importlib.util
import shutil
from pathlib import Path

from erp_lab.cli import EXIT_OK, main

BENCHES = Path(__file__).resolve().parents[1] / "benches"
DATA = Path(__file__).resolve().parent / "data"
# the CLI calls neither: the report reads its cells, and writes its own bytes
NEVER_CALLED = {"historical.historical_erp", "historical.to_csv"}


class NamesRecorder:
    """Stands in for ``spans.SpanRecorder``: notes each probe it wraps,
    and each that is called, and runs each call's counter."""

    def __init__(self):
        self.wrapped, self.fired = set(), set()

    def wrap(self, fn, name, count=None):
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            self.fired.add(name)
            result = fn(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        return traced


def load_run(monkeypatch):
    # run.py imports its siblings (generate, oracle, spans, ...) by name
    monkeypatch.syspath_prepend(str(BENCHES))
    spec = importlib.util.spec_from_file_location("bench_run", BENCHES / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def write_levels(returns_path: Path, levels_path: Path) -> None:
    """Price levels from 100 a year before the first return, one a row."""
    with open(returns_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    first_year = int(rows[0]["date"][:4]) - 1
    level = 100.0
    lines = [f"date,close\n{first_year}-12-31,{level!r}\n"]
    for row in rows:
        level *= 1.0 + float(row["return"])
        lines.append(f"{row['date']},{level!r}\n")
    levels_path.write_text("".join(lines))


def test_every_probe_the_cli_calls_fires(tmp_path, monkeypatch):
    run = load_run(monkeypatch)
    for name in ("daily_prices.csv", "quarterly_eps.csv", "daily_yields.csv",
                 "annual_tbills.csv"):
        shutil.copyfile(DATA / name, tmp_path / name)
    write_levels(DATA / "annual_equity.csv", tmp_path / "equity_levels.csv")
    monkeypatch.chdir(tmp_path)
    recorder = NamesRecorder()
    with run.traced_layers(recorder):
        assert main(["implied",
                     "--prices", "daily_prices.csv", "--prices-value-column", "close",
                     "--eps", "quarterly_eps.csv", "--eps-value-column", "eps",
                     "--yields", "daily_yields.csv", "--yields-value-column", "rate",
                     "--yields-scale", "0.01", "--output", "erp.csv"]) == EXIT_OK
        assert main(["historical",
                     "--equity", "equity_levels.csv", "--equity-value-column", "close",
                     "--equity-kind", "levels",
                     "--riskfree", "bills=annual_tbills.csv", "--riskfree-value-column", "return",
                     "--window", "2001-2009", "--method", "arithmetic",
                     "--output", "report.csv"]) == EXIT_OK
    assert recorder.wrapped - recorder.fired == NEVER_CALLED
