"""Every byte the command line emits, pinned against ``tests/data/golden/``.

Each case copies the bundled input files it reads into an empty
directory, runs ``main(argv)`` there (so that messages name bare file
names), and compares the exit code, stdout, stderr and every file the
run wrote with ``golden/<case>/``: ``exit_code``, ``stdout``, ``stderr``
and ``files/``.  Each case is run once more through the ``erp-lab``
console script on PATH, in a child process, and compared the same way.

``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``) rewrites
the golden directory from the code it imports.  Do that only on a commit
whose outputs are known to be right, never to make a failing case pass.
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from erp_lab import cli, implied, timeseries
from erp_lab.cli import main
from erp_lab.timeseries import align_many

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
ANNUAL = ("annual_equity.csv", "annual_tbills.csv", "annual_tbonds.csv")
DAILY = ("daily_prices.csv", "quarterly_eps.csv", "daily_yields.csv")
IMPLIED = [
    "implied",
    "--prices", "daily_prices.csv", "--prices-value-column", "close",
    "--eps", "quarterly_eps.csv", "--eps-value-column", "eps",
    "--yields", "daily_yields.csv", "--yields-value-column", "rate",
    "--output", "erp.csv",
]

# case name -> (input files, argv)
CASES = {
    "implied": (DAILY, [*IMPLIED, "--yields-scale", "0.01"]),
    "historical": (ANNUAL, [
        "historical",
        "--equity", "annual_equity.csv", "--equity-value-column", "return",
        "--riskfree", 'bills, "3m"=annual_tbills.csv', "--riskfree", "tbonds=annual_tbonds.csv",
        "--riskfree-value-column", "return",
        # 1990-1995 lies outside the data; 2008-2009 is shorter than blume:3
        "--window", "2000-2009", "--window", "1990-1995", "--window", "2003-2005",
        "--window", "2008-2009",
        "--method", "arithmetic", "--method", "geometric", "--method", "blume:3",
        "--method", "exp:0.9",
        "--output", "report.csv",
    ]),
    "capm": (ANNUAL, [
        "capm",
        "--asset", "annual_equity.csv", "--asset-value-column", "return",
        "--market", "annual_tbonds.csv", "--market-value-column", "return",
    ]),
    "simulate": ((), ["simulate", "--n-assets", "7", "--n-periods", "500", "--seed", "3"]),
    "yields-scale-nan": (DAILY, [*IMPLIED, "--yields-scale", "nan"]),
}


def run_case(name: str, workdir: Path, script: bool = False) -> dict[str, bytes]:
    """Run one case in ``workdir``, in this process or, given ``script``,
    through the ``erp-lab`` on PATH; its exit code, stdout and stderr, and
    the files it wrote, keyed as in the golden directory."""
    inputs, argv = CASES[name]
    for input_name in inputs:
        shutil.copyfile(DATA / input_name, workdir / input_name)
    if script:
        proc = subprocess.run(["erp-lab", *argv], cwd=workdir, capture_output=True)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        out_text, err_text = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
                code = main(argv)
        finally:
            os.chdir(cwd)
        out, err = out_text.getvalue().encode(), err_text.getvalue().encode()
    result = {"exit_code": f"{code}\n".encode(), "stdout": out, "stderr": err}
    for path in sorted(workdir.iterdir()):
        if path.name not in inputs:
            result[f"files/{path.name}"] = path.read_bytes()
    return result


def read_golden(name: str) -> dict[str, bytes]:
    root = GOLDEN / name
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def assert_matches_golden(name: str, got: dict[str, bytes]) -> None:
    want = read_golden(name)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{name}/{key} differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ERP_LAB_CONFIG", raising=False)
    assert_matches_golden(name, run_case(name, tmp_path))


@pytest.mark.parametrize("name", sorted(CASES))
def test_console_script_matches_golden(name, tmp_path, monkeypatch, erp_lab_on_path):
    monkeypatch.delenv("ERP_LAB_CONFIG", raising=False)
    assert_matches_golden(name, run_case(name, tmp_path, script=True))


def test_implied_intersects_its_inputs_once(tmp_path, monkeypatch):
    # erp.csv is written from the inputs the premium carries on its own days
    calls = []

    def counted(series):
        calls.append(len(series))
        return align_many(series)

    monkeypatch.delenv("ERP_LAB_CONFIG", raising=False)
    monkeypatch.setattr(implied, "align_many", counted)
    monkeypatch.setattr(cli, "align_many", counted, raising=False)
    assert run_case("implied", tmp_path)["exit_code"] == b"0\n"
    assert calls == [3]


def test_capm_intersects_its_inputs_once(tmp_path, monkeypatch):
    # the fit carries the market sigma it was fit on; nothing aligns again
    calls = []

    def counted(series):
        calls.append(len(series))
        return align_many(series)

    monkeypatch.delenv("ERP_LAB_CONFIG", raising=False)
    monkeypatch.setattr(timeseries, "align_many", counted)
    assert run_case("capm", tmp_path)["exit_code"] == b"0\n"
    assert calls == [2]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("ERP_LAB_CONFIG", None)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for key, data in run_case(case, Path(tmp)).items():
                target = GOLDEN / case / key
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
    sys.exit(0)
