"""Smoke test: every demo script, and the README's library tour, runs to
completion.

The demos and the tour are the only callers of the public API outside the
library and its tests.  Each runs in process (``runpy``), so numpy is
imported once, with a temporary working directory for the files some
demos write.
"""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no python block under 'Library tour'"
    tour = tmp_path / "tour.py"
    tour.write_text(block.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(tour), run_name="__main__")
    # each ``print(...)  # value`` line shows its output to the digits given
    shown = re.findall(r"^print\(.*#\s*(\S+)$", block.group(1), re.M)
    printed = capsys.readouterr().out.split()
    assert len(printed) == len(shown) > 0
    for out, value in zip(printed, shown):
        decimals = len(value.partition(".")[2])
        assert float(out) == pytest.approx(float(value), abs=0.5 * 10.0 ** -decimals)
