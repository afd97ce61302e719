"""erp-lab benchmark: the ``implied`` and ``historical`` commands end to end
and layer by layer.

Each run generates one workload's inputs from the seed, calls
``erp_lab.cli.main(argv)`` in this process in a closed loop (the next
call starts when the previous one returns) for ``--seconds``, and checks
every call's outputs against an independent plain-Python oracle.  It runs
as one process with no threads; the fresh interpreters it needs for
set-up time and peak memory run one at a time.

    python3 benches/run.py --workload implied-daily --seed 1 --seconds 40 --trace 0
    python3 benches/run.py --workload all --seed 1 --seconds 40

``--trace 0`` reports the end-to-end metrics.  Their times are given at
a fixed reference speed (see reference.py) so that the host's speed
drift cancels; raw wall-time medians are printed beside them.
``--trace 1`` alternates untraced calls with calls whose layer functions
are wrapped in spans, and reports per-layer self times, counts and the
tracing overhead.
``--workload all`` runs every workload both ways.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Generated inputs, outputs and spans go to ``.bench_work/``
at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate
import oracle
from metrics import END_TO_END, PER_LAYER
from reference import at_reference_speed, reference_s
from spans import SpanRecorder, per_run_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_CALLS = 3
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120
CHILD = str(Path(__file__).resolve().parent / "child.py")


def import_cli():
    if not (SRC / "erp_lab" / "cli.py").is_file():
        sys.exit(f"benchmark: no erp_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from erp_lab import cli
    return cli


def cli_argv(manifest: dict, out: Path) -> list[str]:
    files = {name: info["path"] for name, info in manifest["files"].items()}
    if manifest["workload"] == "implied-daily":
        return ["implied",
                "--prices", files["prices"], "--prices-value-column", "close",
                "--eps", files["eps"], "--eps-value-column", "eps",
                "--yields", files["yields"], "--yields-value-column", "rate",
                "--yields-scale", str(manifest["yields_scale"]),
                "--ema-period", str(manifest["ema_period"]),
                "--output", str(out / "erp.csv")]
    argv = ["historical",
            "--equity", files["equity"],
            "--equity-value-column", "level", "--equity-kind", "levels",
            "--riskfree", f"tbills={files['tbills']}",
            "--riskfree", f"tbonds={files['tbonds']}",
            "--riskfree-value-column", "return",
            "--output", str(out / "report.csv")]
    for start, end in manifest["windows"]:
        argv += ["--window", f"{start}-{end}"]
    for method in manifest["methods"]:
        argv += ["--method", method]
    return argv


class Harness:
    """Calls cli.main on one workload and checks every call's outputs:
    in full against the oracle, or by equality with outputs that passed."""

    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.work = work
        self.implied = manifest["workload"] == "implied-daily"
        self.outputs = ["erp.csv", "erp.svg"] if self.implied else ["report.csv"]
        self.expected = (oracle.expected_implied(manifest) if self.implied
                         else oracle.expected_historical(manifest))
        self.passed = None
        self.attempted = 0
        self.failed = 0

    def argv(self, out: Path) -> list[str]:
        """The workload's argv writing into ``out``, old outputs removed."""
        out.mkdir(parents=True, exist_ok=True)
        for name in self.outputs:
            (out / name).unlink(missing_ok=True)
        return cli_argv(self.manifest, out)

    def call(self, main) -> float:
        """One checked call of ``main``; returns its wall time in seconds."""
        argv = self.argv(self.work / "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # a crash is a failed call, not a failed benchmark
                code = repr(exc)
            seconds = time.perf_counter() - start
        self.check(self.work / "out", code, err.getvalue())
        return seconds

    def check(self, out: Path, code, stderr_text: str) -> None:
        self.attempted += 1
        problems = self.problems(out, code, stderr_text)
        if problems:
            self.failed += 1
            print(f"benchmark: call {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)

    def problems(self, out: Path, code, stderr_text: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {stderr_text.strip()[-300:]}"]
        try:
            texts = [(out / name).read_text(encoding="utf-8") for name in self.outputs]
        except OSError as exc:
            return [f"output not readable: {exc}"]
        outcome = (texts, stderr_text)
        if outcome == self.passed:
            return []
        problems = (oracle.check_implied(self.expected, *texts) if self.implied
                    else oracle.check_historical(self.expected, texts[0], stderr_text))
        if not problems:
            self.passed = outcome
        return problems

    def output_bytes(self) -> int:
        return sum((self.work / "out" / name).stat().st_size for name in self.outputs)

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter that imports erp_lab and runs once."""
        out = self.work / "out_rss"
        argv_file = self.work / "argv.json"
        argv_file.write_text(json.dumps(self.argv(out)), encoding="utf-8")
        child = fresh_python(CHILD, "run", str(argv_file))
        result = json.loads(child.stdout.splitlines()[-1])
        self.check(out, result["exit"], child.stderr)
        return result["peak_rss_kb"] / 1024.0


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def import_implied_s() -> float:
    """Cumulative import time of erp_lab.implied, from -X importtime."""
    stderr = fresh_python("-X", "importtime", "-c", "import erp_lab.implied").stderr
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "erp_lab.implied":
            return int(fields[1]) / 1e6
    raise RuntimeError("erp_lab.implied is missing from the -X importtime report")


def closed_loop(seconds: float, step) -> None:
    start = time.perf_counter()
    calls = 0
    while calls < MIN_CALLS or time.perf_counter() - start < seconds:
        step()
        calls += 1


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder):
    """Wrap each layer's public functions where their callers look them up."""
    from erp_lab import averaging, charts, cli, historical, implied

    def aligned(args, result):
        rows_in = len(args[0]) + len(args[1])
        return {"rows_in": rows_in, "dates_dropped": rows_in - 2 * len(result[0])}

    def aligned_many(args, result):
        rows_in = sum(len(s) for s in args[0])
        return {"rows_in": rows_in, "dates_dropped": rows_in - len(args[0]) * len(result[0])}

    def cells(args, report):
        row_cells = [cell for row in report.cells for cell in row]
        return {"cells_attempted": len(row_cells),
                "cells_filled": sum(not cell.missing for cell in row_cells)}

    probes = [
        (cli, "parse_series", "io.parse_series", lambda a, r: {"rows": len(r)}),
        (cli, "step_interpolate", "timeseries.step_interpolate", None),
        (cli, "ema", "timeseries.ema", None),
        (cli, "simple_returns", "timeseries.simple_returns", None),
        (cli, "implied_erp_series", "implied.implied_erp_series",
         lambda a, r: {"rows_out": len(r)}),
        (cli, "erp_report", "historical.erp_report", cells),
        (historical, "historical_erp", "historical.historical_erp", None),
        (historical, "align", "timeseries.align", aligned),
        (implied, "align_many", "timeseries.align_many", aligned_many),
        (charts, "line_chart_svg", "charts.line_chart_svg", lambda a, r: {"points": len(a[0])}),
        (averaging.AveragingMethod, "apply", "averaging.apply", lambda a, r: {"values": len(a[1])}),
        (historical.ErpReport, "to_csv", "historical.to_csv", None),
    ]
    saved = []
    try:
        for owner, attr, name, count in probes:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, recorder.wrap(saved[-1][2], name, count))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def layer_values(totals: dict) -> dict[str, float]:
    """One traced call's per-layer metrics, from its span totals."""
    flat = {f"{span}.{field}": value
            for span, fields in totals.items() for field, value in fields.items()}
    attempted = flat.get("historical.erp_report.cells_attempted", 0.0)
    flat["historical.cells_attempted"] = attempted
    flat["historical.cells_filled_ratio"] = (
        flat.get("historical.erp_report.cells_filled", 0.0) / attempted if attempted else 0.0)
    return flat


def end_to_end(cli, harness: Harness, seconds: float) -> tuple[dict, dict]:
    imports = [json.loads(fresh_python(CHILD, "import").stdout) for _ in range(SETUP_SAMPLES)]
    setup = [at_reference_speed(i["import_s"], i["before"], i["after"]) for i in imports]
    durations, scaled = [], []
    before = reference_s()

    def step():
        nonlocal before
        duration = harness.call(cli.main)
        after = reference_s()
        durations.append(duration)
        scaled.append(at_reference_speed(duration, before, after))
        before = after

    closed_loop(seconds, step)
    rss = harness.peak_rss_mb()
    run_p50 = statistics.median(scaled)
    rows = sum(info["rows"] for info in harness.manifest["files"].values())
    values = {"setup_s": statistics.median(setup), "run_s.p50": run_p50,
              "rows_per_s": rows / run_p50, "peak_rss_mb": rss}
    samples = {"setup_s": len(setup), "run_s.p50": len(durations),
               "rows_per_s": len(durations), "peak_rss_mb": 1}
    print(f"raw wall time: setup_s {statistics.median(i['import_s'] for i in imports):.6f} s, "
          f"run_s.p50 {statistics.median(durations):.6f} s")
    return values, samples


def per_layer(cli, harness: Harness, seconds: float) -> tuple[dict, dict]:
    recorder = SpanRecorder()
    traced_main = recorder.wrap(cli.main, "cli.main")
    plain, traced = [], []

    def pair():
        plain.append(harness.call(cli.main))
        recorder.run += 1
        with traced_layers(recorder):
            traced.append(harness.call(traced_main))

    closed_loop(seconds, pair)
    recorder.dump(harness.work / "spans.jsonl")
    per_call = [layer_values(totals) for totals in per_run_totals(recorder.spans).values()]
    values = {name: statistics.median(v.get(name, 0.0) for v in per_call)
              for name, *_ in PER_LAYER}
    values["setup.import_implied_s"] = statistics.median(
        import_implied_s() for _ in range(IMPORT_SAMPLES))
    values["cli.output_bytes"] = harness.output_bytes()
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {name: len(per_call) for name, *_ in PER_LAYER}
    samples["setup.import_implied_s"] = IMPORT_SAMPLES
    samples["cli.output_bytes"] = 1
    samples["trace.overhead_s"] = len(plain) + len(traced)
    print(f"untraced run_s.p50 {statistics.median(plain):.6f} s (n={len(plain)}), "
          f"traced {statistics.median(traced):.6f} s (n={len(traced)})")
    return values, samples


def run_workload(cli, workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    manifest = generate.generate(workload, seed, work / "in")
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, info in manifest["files"].items():
        print(f"input {name}: {info['rows']} rows, {info['bytes']} bytes")
    harness = Harness(manifest, work)
    harness.call(cli.main)  # warm-up: caches fill and lazy set-up finishes
    table = PER_LAYER if trace else END_TO_END
    values, samples = (per_layer if trace else end_to_end)(cli, harness, seconds)
    for name, unit, _, note in table:
        print(f"{name:38s} {values[name]:>14.6g} {unit:7s} n={samples[name]:<4d} {note}")
    print(f"fail_ratio {harness.failed / harness.attempted:g} "
          f"({harness.failed} of {harness.attempted} calls failed)")
    return {"correct": harness.failed == 0, "attempted": harness.attempted,
            "failed": harness.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, *_ in table}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*generate.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "erp_lab").glob("*.py")))
    print(f"src lines {src_lines} (information only, not a gated metric)")
    if args.workload != "all":
        result = run_workload(cli, args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in generate.WORKLOADS:
            for trace in (0, 1):
                one = run_workload(cli, workload, args.seed, args.seconds, trace)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update((f"{workload}/{name}", metric)
                                         for name, metric in one["metrics"].items())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
