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
import functools
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import charts
from .averaging import AveragingMethod
from .capm import fit_market_model, risk_decomposition, simulate_diversification
from .errors import DataError, ErpLabError, NumericalError
from .historical import _window_label, erp_report, report_columns
from .implied import implied_erp_series
from .io import SeriesFileSpec, format_cell, parse_series, write_bytes, write_rows
from .timeseries import DatedSeries, ReturnSeries, ema, simple_returns, step_interpolate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
_CAUGHT = (ErpLabError, OSError, ValueError, OverflowError, FloatingPointError, MemoryError)


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
    that is a directory, or that is an input ``(name, path)`` (the config
    file among them, if any) or an earlier output."""
    taken = [(name, path, Path(path).resolve()) for name, path in inputs if path]
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

def _inputs_on(days: np.ndarray, prices: DatedSeries, eps_smooth: DatedSeries,
               yields: DatedSeries) -> list[np.ndarray]:
    """Each input's values on ``days``, the inputs' intersection, so every
    calendar holds each of them.  ``eps_smooth`` holds the prices calendar
    array itself: one membership mask serves both, and one more the yields."""
    on_prices, on_yields = (np.isin(s.days.view(np.int64), days.view(np.int64))
                            for s in (prices, yields))
    return [prices.values[on_prices], eps_smooth.values[on_prices], yields.values[on_yields]]


def run_implied(args) -> int:
    """Daily pipeline: parse, carry EPS to the price calendar, smooth,
    compute eps/price - yield, write CSV and SVG."""
    svg = args.svg or Path(args.output).with_suffix(".svg")
    names = ("prices", "eps", "yields")
    _check_outputs([("--output", "output", args.output), ("--svg", "chart", svg)],
                   [(name, getattr(args, name)) for name in (*names, "config")])
    prices_spec, eps_spec, yields_spec = (_spec_from(args, name) for name in names)
    prices = _read("prices", prices_spec)
    eps_sparse = _read("eps", eps_spec)
    yields = _read("yields", yields_spec)
    with _stage("interpolating eps to the price calendar"):
        eps_daily = step_interpolate(eps_sparse, prices.days)
    with _stage("smoothing eps"):
        eps_smooth = ema(eps_daily, args.ema_period)
    del eps_sparse, eps_daily  # each stage holds only what a later one reads
    with _stage("computing the premium"):
        erp = implied_erp_series(prices, eps_smooth, yields)
    with _stage("writing output"):
        columns = [*_inputs_on(erp.days, prices, eps_smooth, yields), erp.values]
        del prices, eps_smooth, yields
        # the chart is the step that can still fail: render it before
        # writing either file, so that a failure leaves neither; and write
        # it first, so that its bytes are not held while erp.csv is formatted
        write_bytes(svg, [charts.line_chart_svg(erp)])
        write_rows(args.output, ("date", "price", "eps_smoothed", "yield", "erp"),
                   erp.days, columns)
    return EXIT_OK


def run_historical(args) -> int:
    """Windowed premium report across riskfree instruments and averaging
    methods, written as CSV (windows down, instrument x method across)."""
    riskfree_specs = [(label, _spec_from(args, "riskfree", path))
                      for label, path in args.riskfree]
    equity_spec = _spec_from(args, "equity")
    _check_outputs([("--output", "output", args.output)],
                   [("equity", args.equity), ("config", args.config)]
                   + [(f"riskfree {label!r}", path) for label, path in args.riskfree])
    report_columns([label for label, _ in args.riskfree], args.method)
    equity = _read("equity", equity_spec, args.equity_kind)
    variants = [(label, _read(f"riskfree {label!r}", spec, args.riskfree_kind))
                for label, spec in riskfree_specs]
    with _stage("building report"):
        report = erp_report(equity, variants, args.window, args.method)
    labels = report.column_labels()
    for (i, j), gap in sorted(report.gaps.items()):
        label = labels[j].replace("\r", "\\r").replace("\n", "\\n")  # one line per warning
        print(f"erp-lab: warning: {_window_label(report.windows[i])} {label}: {gap}",
              file=sys.stderr)
    with _stage("writing output"):
        write_bytes(args.output, [report.csv_bytes()])
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
    flag(sub, f"--{prefix}-date-column", default=SeriesFileSpec.date_column)
    flag(sub, f"--{prefix}-value-column", default=SeriesFileSpec.value_column)
    flag(sub, f"--{prefix}-date-format", default=SeriesFileSpec.date_format)
    flag(sub, f"--{prefix}-scale", type=float, default=SeriesFileSpec.value_scale,
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


def _int_at_least(floor: int):
    """An argparse type: an integer of at least ``floor``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {text!r}")
        return value
    return convert


class _Repeatable(argparse.Action):
    """Repeatable flag whose first command-line use replaces a config list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        if items is self.default:
            items = []
        setattr(namespace, self.dest, [*items, values])


def build_parser(command: str | None = None) -> tuple[_Parser, dict]:
    """The parser, and each flag's ``dest`` mapped to its ``(subparser, action)``
    pairs.  Given a ``command``, only the subcommand it names gets flags
    (none, if it names none: the top-level parse refuses the line first),
    since argparse builds a help formatter for each flag."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(description=__doc__.splitlines()[0], formatter_class=formatter)
    parser.add_argument("--config", type=_path, help="key=value file pre-filling flags "
                        "(default: $ERP_LAB_CONFIG); explicit flags win")
    commands = parser.add_subparsers(dest="command", required=True)
    flags: dict[str, list[tuple[_Parser, argparse.Action]]] = {}

    def sub(name, text) -> _Parser | None:  # the parser, if it gets flags
        added = commands.add_parser(name, help=text, formatter_class=formatter)
        return added if command in (None, name) else None

    def flag(sub, *names, **kwargs) -> None:
        action = sub.add_argument(*names, **kwargs)
        flags.setdefault(action.dest, []).append((sub, action))

    if implied := sub("implied", "daily implied-premium pipeline from prices, EPS, and yields"):
        for prefix in ("prices", "eps", "yields"):
            _add_series_flags(flag, implied, prefix)
        flag(implied, "--ema-period", type=_int_at_least(1), default=50,
             help="EPS smoothing period in days (default 50)")
        flag(implied, "--output", required=True, type=_path, help="output CSV path")
        flag(implied, "--svg", type=_path, help="output SVG path (default: output with .svg)")
        implied.set_defaults(func=run_implied)

    if historical := sub("historical", "windowed historical premium report"):
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

    if capm := sub("capm", "market-model regression of asset on market"):
        _add_series_flags(flag, capm, "asset")
        _add_series_flags(flag, capm, "market")
        flag(capm, "--kind", choices=("returns", "levels"), default="returns",
             help="whether both files hold returns or price levels")
        capm.set_defaults(func=run_capm)

    if simulate := sub("simulate", "diversification experiment for an equal-weight portfolio"):
        flag(simulate, "--n-assets", type=_int_at_least(1), required=True)
        flag(simulate, "--beta", type=float, default=1.0)
        flag(simulate, "--sigma-m", type=float, default=0.15)
        flag(simulate, "--sigma-eps", type=float, default=0.30)
        flag(simulate, "--n-periods", type=_int_at_least(30), default=10000)
        flag(simulate, "--seed", type=_int_at_least(0), default=0)
        simulate.set_defaults(func=run_simulate)

    return parser, flags


def _load_config(path: str) -> dict[str, tuple[int, str, str]]:
    """Map each flag dest to ``(line number, where, value)``; ``where`` names
    file, line and key.  A key given twice is an error, not a silent override."""
    config: dict[str, tuple[int, str, str]] = {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"{path} line {lineno}: expected key=value, got {line!r}")
                key = key.strip()
                dest, where = key.replace("-", "_"), f"{path} line {lineno}: {key}"
                if dest in config:
                    raise ValueError(f"{where}: repeats line {config[dest][0]}")
                config[dest] = (lineno, where, value.strip())
        except UnicodeDecodeError as exc:  # the decoder reads ahead: no line is known
            raise ValueError(f"{path}: {exc}") from exc
    return config


def _apply_config(flags: dict, config: dict[str, tuple[int, str, str]]) -> None:
    """Make each config entry the default of every flag in ``flags`` it names."""
    for dest, (_, where, raw) in config.items():
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


def _top_level(argv: list[str]) -> tuple[str | None, str | None, int | None]:
    """The ``--config`` argument, else ``$ERP_LAB_CONFIG``, the subcommand and
    where a ``historical`` one's tokens start, read as the top-level parser
    reads them: up to the first token that neither starts with ``-`` nor is
    the value of a ``--config`` use without ``=`` (``--c PATH``, not
    ``--conf=PATH``).  argparse's option scan is quadratic, so only those
    tokens are pre-parsed, none if the line starts with its subcommand; the
    pre-parser's ``command`` and ``rest`` read a plain ``-1``, or what
    follows ``--``, as the top-level parser does."""
    stop, waiting = len(argv), False
    for i, token in enumerate(argv):
        if not (waiting or token.startswith("-")):
            stop = i
            break
        waiting = not waiting and len(token) > 2 and "--config".startswith(token)
    config, command = None, argv[0] if argv else None
    if stop:
        pre = _Parser(add_help=False)
        pre.add_argument("--config", type=_path)
        pre.add_argument("command", nargs="?")
        pre.add_argument("rest", nargs=argparse.REMAINDER)
        known = pre.parse_known_args(argv[:stop + 1])[0]
        config, command = known.config, known.command
    start = stop + 1 if command == "historical" else None
    return config or os.environ.get("ERP_LAB_CONFIG"), command, start


def _take_repeated(tokens: list[str], flags: dict) -> list[str]:
    """The tokens of a ``historical`` subcommand less their ``--window``
    uses, whose values become the flag's default, as a config file's do,
    so they replace a config list.  Before Python 3.13, argparse scans the
    positions of all options once per option, so hundreds of windows parse
    in quadratic time; this reads them in one pass, keeping the other
    tokens as it goes.  An abbreviation (``--win``) is a use, as argparse
    reads it while no other flag starts with ``--w``.  None is taken if a
    token could ask for help (``-h``, ``--he``, even ``--``: the usage line
    shows which flags are required), or if a use follows an option still
    waiting for its value or has no value that converts (none starting
    with ``-``, an option to argparse, does)."""
    kept, windows, i = [], [], 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--window":  # the common spelling needs no check below
            sep = ""
        elif not token.startswith("-"):
            kept.append(token)
            continue
        else:
            name, sep, value = token.partition("=")
            if token.startswith("-h") or (token.startswith("--") and "--help".startswith(name)):
                return tokens
            if not (token.startswith("--") and "--window".startswith(name)):
                kept.append(token)
                continue
        before = tokens[i - 2] if i > 1 else ""
        if before.startswith("-") and "=" not in before:
            return tokens
        if not sep:
            value = tokens[i] if i < len(tokens) else ""
            i += 1
        try:
            windows.append(_parse_window(value))
        except argparse.ArgumentTypeError:
            return tokens
    if windows:
        (sub, action), = flags["window"]
        sub.set_defaults(window=windows)
        action.required = False
    return kept


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_path, command, start = _top_level(argv)
        # a config file may fill the flags of any subcommand
        parser, flags = build_parser(None if config_path else command)
        if config_path:
            # args.config names the file also when $ERP_LAB_CONFIG does
            parser.set_defaults(config=config_path)
            _apply_config(flags, _load_config(config_path))
        if start is not None:
            argv[start:] = _take_repeated(argv[start:], flags)
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, *_CAUGHT) as exc:
        # a usage error already starts with its parser's name
        print(exc if isinstance(exc, _UsageError) else f"erp-lab: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
