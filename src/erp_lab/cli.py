"""Command-line front end.

Subcommands: ``implied`` (daily implied-premium pipeline), ``historical``
(windowed premium report), ``capm`` (market-model regression), and
``simulate`` (diversification experiment).  Exit status: 0 success
(possibly with warnings), 1 input/parse error, 2 numerical failure.
Each ``run_<subcommand>(args)`` takes the parsed namespace and raises on
failure; :func:`main` prints the error as one line and returns the status.

A plain ``key=value`` config file can pre-fill any flag (``--config`` or
the ERP_LAB_CONFIG environment variable); explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import charts
from .averaging import AveragingMethod
from .capm import fit_market_model, risk_decomposition, simulate_diversification
from .errors import DataError, ErpLabError, NumericalError
from .historical import erp_report, report_columns
from .implied import implied_erp_series
from .io import ISO_DATE, SeriesFileSpec, format_cell, parse_series, write_rows, write_text
from .timeseries import ReturnSeries, ema, simple_returns, step_interpolate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
_CAUGHT = (ErpLabError, OSError, ValueError, FloatingPointError, MemoryError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # named erp-lab, not after sys.argv[0]; subparsers pass their own name
    def __init__(self, prog="erp-lab", **kwargs):
        super().__init__(prog=prog, **kwargs)

    # surface usage problems as exit status 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@contextmanager
def _stage(name: str):
    """Re-raise pipeline errors with the failing stage named, as a
    NumericalError or DataError: not every exception type can be rebuilt
    from one message (``UnicodeDecodeError`` cannot).  numpy's float
    overflow, invalid and divide errors raise inside a stage, so that an
    extreme input fails as a NumericalError instead of printing a warning
    and writing ``inf`` or ``nan``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except _CAUGHT as exc:
        numerical = isinstance(exc, (NumericalError, FloatingPointError))
        raise (NumericalError if numerical else DataError)(f"{name}: {exc}") from exc


def _check_outputs(outputs, inputs) -> None:
    """Refuse an output ``(flag, role, path)`` whose directory does not exist,
    that is a directory, or that is an input ``(name, path)`` or an earlier
    output."""
    taken = [(name, path, Path(path).resolve()) for name, path in inputs]
    for flag, role, path in outputs:
        resolved = Path(path).resolve()
        if not resolved.parent.is_dir():
            raise DataError(f"the directory of the {role} path {path} does not exist")
        if resolved.is_dir():
            raise DataError(f"the {role} path {path} is a directory")
        for name, other, other_resolved in taken:
            if resolved == other_resolved:
                raise DataError(f"the {role} path {path} is the {name} file {other}; "
                                f"give {flag} another path")
        taken.append((role, path, resolved))


def _read(name: str, spec: SeriesFileSpec, kind: str | None = None):
    """Parse one file in the stage ``parsing {name}``; given a ``kind``, as
    returns, differencing ``levels`` first."""
    with _stage(f"parsing {name}"):
        series = parse_series(spec)
        if kind == "levels":
            return simple_returns(series)
        return series if kind is None else ReturnSeries(series.days, series.values)


# -- commands -----------------------------------------------------------------

def run_implied(args) -> int:
    """Daily pipeline: parse, carry EPS to the price calendar, smooth,
    compute eps/price - yield, write CSV and SVG."""
    svg = args.svg or Path(args.output).with_suffix(".svg")
    names = ("prices", "eps", "yields")
    _check_outputs([("--output", "output", args.output), ("--svg", "chart", svg)],
                   [(name, getattr(args, name)) for name in names])
    prices_spec, eps_spec, yields_spec = (_spec_from(args, name) for name in names)
    prices = _read("prices", prices_spec)
    eps_sparse = _read("eps", eps_spec)
    yields = _read("yields", yields_spec)
    with _stage("interpolating eps to the price calendar"):
        eps_daily = step_interpolate(eps_sparse, prices.days)
    with _stage("smoothing eps"):
        eps_smooth = ema(eps_daily, args.ema_period)
    with _stage("computing the premium"):
        erp = implied_erp_series(prices, eps_smooth, yields)
    with _stage("writing output"):
        # the chart is the step that can still fail: render it before
        # writing either file, so that a failure leaves neither
        chart = charts.line_chart_svg(erp)
        # erp.days already is the inputs' intersection: look it up in each
        inputs = [s.values[np.searchsorted(s.days, erp.days)]
                  for s in (prices, eps_smooth, yields)]
        write_rows(args.output, ("date", "price", "eps_smoothed", "yield", "erp"),
                   erp.days, [*inputs, erp.values])
        write_text(svg, chart)
    return EXIT_OK


def run_historical(args) -> int:
    """Windowed premium report across riskfree instruments and averaging
    methods, written as CSV (windows down, instrument x method across)."""
    riskfree_specs = [(label, _spec_from(args, "riskfree", path))
                      for label, path in args.riskfree]
    equity_spec = _spec_from(args, "equity")
    _check_outputs([("--output", "output", args.output)],
                   [("equity", args.equity)]
                   + [(f"riskfree {label!r}", path) for label, path in args.riskfree])
    report_columns([label for label, _ in args.riskfree], args.method)
    equity = _read("equity", equity_spec, args.equity_kind)
    variants = [(label, _read(f"riskfree {label!r}", spec, args.riskfree_kind))
                for label, spec in riskfree_specs]
    with _stage("building report"):
        report = erp_report(equity, variants, args.window, args.method)
    windows, labels = report.window_labels(), report.column_labels()
    for (i, j), gap in sorted(report.gaps.items()):
        print(f"erp-lab: warning: {windows[i]} {labels[j]}: {gap}", file=sys.stderr)
    with _stage("writing output"):
        write_text(args.output, report.to_csv())
    return EXIT_OK


def run_capm(args) -> int:
    """Fit the market model and print the estimate and risk split."""
    asset_spec, market_spec = _spec_from(args, "asset"), _spec_from(args, "market")
    asset = _read("asset", asset_spec, args.kind)
    market = _read("market", market_spec, args.kind)
    with _stage("fitting market model"):
        fit = fit_market_model(asset, market)
        systematic, unsystematic = risk_decomposition(fit)
    print(f"n_obs           {fit.n_obs}")
    print(f"beta            {format_cell(fit.beta)}")
    print(f"intercept       {format_cell(fit.intercept)}")
    print(f"residual_sigma  {format_cell(fit.residual_sigma)}")
    print(f"sigma_m         {format_cell(fit.market_sigma)}")
    print(f"systematic      {format_cell(systematic)}")
    print(f"unsystematic    {format_cell(unsystematic)}")
    return EXIT_OK


def run_simulate(args) -> int:
    """Print sample systematic/unsystematic risk of an equal-weight portfolio."""
    with _stage("simulating"):
        systematic, unsystematic = simulate_diversification(
            args.n_assets, args.beta, args.sigma_m, args.sigma_eps, args.n_periods, args.seed)
    print(f"n_assets        {args.n_assets}")
    print(f"systematic      {format_cell(systematic)}")
    print(f"unsystematic    {format_cell(unsystematic)}")
    return EXIT_OK


# -- argument plumbing --------------------------------------------------------

def _add_series_flags(flag, sub, prefix: str, **main) -> None:
    """Declare ``--{prefix}`` (``main`` overrides its keywords) and its file flags."""
    flag(sub, f"--{prefix}", **{"required": True, "type": _path, "help": f"{prefix} CSV file",
                                **main})
    flag(sub, f"--{prefix}-date-column", default="date")
    flag(sub, f"--{prefix}-value-column", default="value")
    flag(sub, f"--{prefix}-date-format", default=ISO_DATE)
    flag(sub, f"--{prefix}-scale", type=float, default=1.0,
         help="multiplier applied to values (0.01 for percent quotes)")


def _spec_from(args, prefix: str, path: str | None = None) -> SeriesFileSpec:
    """The file spec of ``--{prefix}`` and its companions; ``path``, if given,
    replaces the flag's value (a riskfree flag's value is a label and path)."""
    return SeriesFileSpec(
        path=getattr(args, prefix) if path is None else path,
        date_column=getattr(args, f"{prefix}_date_column"),
        value_column=getattr(args, f"{prefix}_value_column"),
        date_format=getattr(args, f"{prefix}_date_format"),
        value_scale=getattr(args, f"{prefix}_scale"),
    )


def _parse_window(text: str) -> tuple[int, int]:
    start, _, end = text.partition("-")
    try:
        window = int(start), int(end)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like 1928-2008, got {text!r}")
    if window[0] > window[1]:
        raise argparse.ArgumentTypeError(f"window {text!r} starts after it ends")
    return window


def _parse_method(text: str) -> AveragingMethod:
    # argparse shows an ArgumentTypeError's message; for a ValueError only
    # "invalid from_string value"
    try:
        return AveragingMethod.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the path is empty")
    return text


def _parse_riskfree(text: str) -> tuple[str, str]:
    """``LABEL=PATH``, or ``PATH`` labelled with its file name's stem."""
    label, sep, path = text.partition("=")
    if not sep:
        label, path = Path(text).stem, text
    _path(path)
    if not label:
        raise argparse.ArgumentTypeError("the label is empty")
    return label, path


class _Repeatable(argparse.Action):
    """Repeatable flag whose first command-line use replaces a config list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        if items is self.default:
            items = []
        setattr(namespace, self.dest, [*items, values])


def build_parser() -> tuple[_Parser, dict]:
    """The parser, and each flag's ``dest`` mapped to its ``(subparser, action)`` pairs."""
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value file pre-filling flags "
                        "(default: $ERP_LAB_CONFIG); explicit flags win")
    commands = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, list[tuple[_Parser, argparse.Action]]] = {}

    def flag(sub, *names, **kwargs) -> None:
        action = sub.add_argument(*names, **kwargs)
        flags.setdefault(action.dest, []).append((sub, action))

    implied = commands.add_parser(
        "implied", help="daily implied-premium pipeline from prices, EPS, and yields")
    for prefix in ("prices", "eps", "yields"):
        _add_series_flags(flag, implied, prefix)
    flag(implied, "--ema-period", type=int, default=50,
         help="EPS smoothing period in days (default 50)")
    flag(implied, "--output", required=True, type=_path, help="output CSV path")
    flag(implied, "--svg", type=_path, help="output SVG path (default: output with .svg)")
    implied.set_defaults(func=run_implied)

    historical = commands.add_parser(
        "historical", help="windowed historical premium report")
    _add_series_flags(flag, historical, "equity")
    flag(historical, "--equity-kind", choices=("returns", "levels"), default="returns",
         help="whether the equity file holds returns or price levels")
    _add_series_flags(flag, historical, "riskfree", action=_Repeatable,
                      type=_parse_riskfree, metavar="LABEL=PATH",
                      help="riskfree instrument file; repeatable")
    flag(historical, "--riskfree-kind", choices=("returns", "levels"), default="returns")
    flag(historical, "--window", action=_Repeatable, required=True,
         type=_parse_window, metavar="START-END",
         help="inclusive year window, e.g. 1928-2008; repeatable")
    flag(historical, "--method", action=_Repeatable, required=True,
         type=_parse_method, metavar="METHOD",
         help="arithmetic | geometric | blume:N | exp:DECAY; repeatable")
    flag(historical, "--output", required=True, type=_path, help="output CSV path")
    historical.set_defaults(func=run_historical)

    capm = commands.add_parser("capm", help="market-model regression of asset on market")
    _add_series_flags(flag, capm, "asset")
    _add_series_flags(flag, capm, "market")
    flag(capm, "--kind", choices=("returns", "levels"), default="returns",
         help="whether both files hold returns or price levels")
    capm.set_defaults(func=run_capm)

    simulate = commands.add_parser(
        "simulate", help="diversification experiment for an equal-weight portfolio")
    flag(simulate, "--n-assets", type=int, required=True)
    flag(simulate, "--beta", type=float, default=1.0)
    flag(simulate, "--sigma-m", type=float, default=0.15)
    flag(simulate, "--sigma-eps", type=float, default=0.30)
    flag(simulate, "--n-periods", type=int, default=10000)
    flag(simulate, "--seed", type=int, default=0)
    simulate.set_defaults(func=run_simulate)

    return parser, flags


def _load_config(path: str) -> dict[str, tuple[str, str]]:
    """Map each flag dest to ``(where, value)``; ``where`` names file, line
    and key.  A key given twice is an error, not a silent override."""
    config: dict[str, tuple[str, str]] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path} line {lineno}: expected key=value, got {line!r}")
            key = key.strip()
            dest, where = key.replace("-", "_"), f"{path} line {lineno}: {key}"
            if dest in first_line:
                raise ValueError(f"{where}: repeats line {first_line[dest]}")
            first_line[dest] = lineno
            config[dest] = (where, value.strip())
    return config


def _apply_config(flags: dict, config: dict[str, tuple[str, str]]) -> None:
    """Make each config entry the default of every flag in ``flags`` it names."""
    for dest, (where, raw) in config.items():
        if dest not in flags:
            raise ValueError(f"{where}: not a flag of any subcommand")
        for sub, action in flags[dest]:
            convert = action.type or str
            repeatable = isinstance(action, _Repeatable)
            parts = [p for p in (s.strip() for s in raw.split(",")) if p] if repeatable else [raw]
            if not parts:
                raise ValueError(f"{where}: needs at least one value")
            try:
                values = [convert(p) for p in parts]
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
            for value in values:
                if action.choices is not None and value not in action.choices:
                    choices = ", ".join(map(repr, action.choices))
                    raise ValueError(f"{where}: invalid choice {value!r} (choose from {choices})")
            sub.set_defaults(**{dest: values if repeatable else values[0]})
            action.required = False


def _may_name(flag: str, token: str) -> bool:
    """Whether argparse could read ``token`` as the long ``flag``: it takes
    any prefix of a long flag, also before ``=`` (``--c PATH``,
    ``--conf=PATH``, even ``--=PATH``).  A single-dash token never matches
    a long flag."""
    return token.startswith("--") and flag.startswith(token.partition("=")[0])


def _config_path(argv: list[str]) -> str | None:
    """The ``--config`` argument, else ``$ERP_LAB_CONFIG``.  The pre-parse
    scans every token, so it runs only when some token can name the flag;
    without one it could neither match nor fail."""
    config = None
    if any(_may_name("--config", token) for token in argv):
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv)[0].config
    return config or os.environ.get("ERP_LAB_CONFIG")


def _historical_start(argv: list[str]) -> int | None:
    """Where ``historical``'s own flags start, if ``historical`` surely is
    the subcommand: the first token, or the one after a leading exact
    ``--config PATH`` or ``--config=PATH``."""
    if argv[:1] == ["historical"]:
        return 1
    if argv[1:2] == ["historical"] and argv[0].startswith("--config="):
        return 2
    if argv[:1] == ["--config"] and argv[2:3] == ["historical"]:
        return 3
    return None


def _flag_values(tokens: list[str], flag: str, convert):
    """The converted values of the exact ``flag VALUE`` and ``flag=VALUE``
    uses in ``tokens``, and the indices of their tokens.  None where there
    is no use, or where argparse must read the flag: a token could
    abbreviate it (``--`` and ``--=X`` could), the token before a use is an
    option still waiting for its value, or a value is missing, starts with
    ``-`` or does not convert."""
    values, indices = [], []
    for i, token in enumerate(tokens):
        if not _may_name(flag, token):
            continue
        name, sep, value = token.partition("=")
        before = tokens[i - 1] if i else ""
        if name != flag or (before.startswith("-") and "=" not in before):
            return None
        if not sep:
            if i + 1 == len(tokens):
                return None
            value = tokens[i + 1]
            indices.append(i + 1)
        indices.append(i)
        if value.startswith("-"):
            return None
        try:
            values.append(convert(value))
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    return (values, indices) if values else None


def _take_repeated(argv: list[str], flags: dict) -> list[str]:
    """``argv`` less the ``--window``, ``--method`` and ``--riskfree`` uses of
    a ``historical`` command line, whose values become the flags' defaults,
    as a config file's do, so they replace a config list.  Before Python
    3.13, argparse scans the positions of all options once per option, so a
    line of hundreds of repeated flags parses in quadratic time; this reads
    them in one pass.  Each flag is taken whole or left whole to argparse
    (see :func:`_flag_values`); none is taken where a token could ask for
    help, whose usage line shows which flags are required."""
    start = _historical_start(argv)
    if start is None:
        return argv
    tokens = argv[start:]
    if any(t.startswith("-h") or _may_name("--help", t) for t in tokens):
        return argv
    taken: set[int] = set()
    for dest in ("window", "method", "riskfree"):
        for sub, action in flags[dest]:
            found = _flag_values(tokens, f"--{dest}", action.type)
            if found:
                sub.set_defaults(**{dest: found[0]})
                action.required = False
                taken.update(found[1])
    return argv[:start] + [t for i, t in enumerate(tokens) if i not in taken]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_path = _config_path(argv)
        parser, flags = build_parser()
        if config_path:
            _apply_config(flags, _load_config(config_path))
        args = parser.parse_args(_take_repeated(argv, flags))
        return args.func(args)
    except (_UsageError, *_CAUGHT) as exc:
        # a usage error already starts with its parser's name
        print(exc if isinstance(exc, _UsageError) else f"erp-lab: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
