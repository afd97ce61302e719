"""Shared fixtures: paths to the bundled synthetic datasets, a record of
the series built, and an ``erp-lab`` console script on PATH."""

import os
import shutil
import sys
from pathlib import Path

import pytest

import erp_lab
from erp_lab import timeseries

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def annual_paths(data_dir):
    return {
        "equity": data_dir / "annual_equity.csv",
        "tbills": data_dir / "annual_tbills.csv",
        "tbonds": data_dir / "annual_tbonds.csv",
    }


@pytest.fixture(scope="session")
def daily_paths(data_dir):
    return {
        "prices": data_dir / "daily_prices.csv",
        "eps": data_dir / "quarterly_eps.csv",
        "yields": data_dir / "daily_yields.csv",
    }


@pytest.fixture
def built_series(monkeypatch):
    """``(class name, kept)`` for each series built from here on: ``kept``
    where it stores the values array it was handed rather than a copy."""
    built = []
    post_init = timeseries.DatedSeries.__post_init__

    def recorded(series):
        given = series.values
        post_init(series)
        built.append((type(series).__name__, series.values is given))

    monkeypatch.setattr(timeseries.DatedSeries, "__post_init__", recorded)
    return built


def declared_console_script(name):
    """The ``module:function`` target that pyproject.toml declares for ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


# The wrapper pip writes into bin/ for a console script (distlib's template).
CONSOLE_SCRIPT_TEMPLATE = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {function}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({function}())
"""


@pytest.fixture
def erp_lab_on_path(tmp_path_factory, monkeypatch):
    """Put an ``erp-lab`` console script on PATH.

    Where the package is installed, PATH already holds the script pip wrote
    and nothing changes. Run from the source tree, it does not; then write
    the script pip would install for the ``[project.scripts]`` target in
    pyproject.toml, for this interpreter, into a fresh bin directory put
    first on PATH, and point PYTHONPATH at the package under test.
    """
    if shutil.which("erp-lab") is not None:
        return
    module, _, function = declared_console_script("erp-lab").partition(":")
    bindir = tmp_path_factory.mktemp("bin")
    script = bindir / "erp-lab"
    script.write_text(CONSOLE_SCRIPT_TEMPLATE.format(
        python=sys.executable, module=module, function=function), encoding="utf-8")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(Path(erp_lab.__file__).parents[1]),
                       prepend=os.pathsep)
