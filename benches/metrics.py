"""Every metric the benchmark reports: name, unit, better direction, and
what it measures or which end-to-end metric it should move on which
workload.  BENCHMARK.json lists the same names, units and directions.

End-to-end times are wall times rescaled to the reference speed (see
reference.py); per-layer times are raw wall times.

Self times (``*.self_s``) are per ``cli.main`` call, medians over the
traced calls; counts are per call and repeat exactly for a given seed.
"""

END_TO_END = [
    ("setup_s", "s", "lower",
     "fresh interpreter importing erp_lab.cli, at reference speed, median of the samples"),
    ("run_s.p50", "s", "lower",
     "median time of one cli.main(argv) call at reference speed, imports warm"),
    ("rows_per_s", "rows/s", "higher",
     "input CSV rows parsed per call divided by run_s.p50"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of a fresh process that imports erp_lab.cli and runs once"),
]

PER_LAYER = [
    ("io.parse_series.self_s", "s", "lower", "run_s.p50, rows_per_s on implied-daily"),
    ("io.parse_series.calls", "count", "lower", "exact count"),
    ("io.parse_series.rows", "count", "lower", "exact count; the numerator of rows_per_s"),
    ("timeseries.align.self_s", "s", "lower", "run_s.p50 on historical-annual"),
    ("timeseries.align.calls", "count", "lower",
     "exact count; one per report cell exposes redundant realignment"),
    ("timeseries.align.rows_in", "count", "lower", "exact count of rows fed to align"),
    ("timeseries.align.dates_dropped", "count", "lower",
     "exact count of input dates missing from the intersection"),
    ("timeseries.align_many.self_s", "s", "lower", "run_s.p50 on implied-daily"),
    ("timeseries.align_many.dates_dropped", "count", "lower",
     "exact count of input dates missing from the intersection, implied-daily"),
    ("timeseries.step_interpolate.self_s", "s", "lower", "run_s.p50 on implied-daily"),
    ("timeseries.ema.self_s", "s", "lower", "run_s.p50 on implied-daily"),
    ("timeseries.simple_returns.self_s", "s", "lower", "run_s.p50 on historical-annual"),
    ("implied.implied_erp_series.self_s", "s", "lower", "run_s.p50 on implied-daily"),
    ("implied.implied_erp_series.rows_out", "count", "higher", "exact count, implied-daily"),
    ("setup.import_implied_s", "s", "lower",
     "setup_s on every workload; cumulative -X importtime of erp_lab.implied"),
    ("historical.historical_erp.self_s", "s", "lower",
     "run_s.p50 on historical-annual, through the per-cell year mask"),
    ("historical.historical_erp.calls", "count", "lower", "exact count"),
    ("historical.historical_erp.errors", "count", "lower",
     "exact count of calls that raised (EmptyWindowError on these inputs)"),
    ("historical.cells_filled_ratio", "ratio", "higher",
     "filled report cells divided by historical.cells_attempted"),
    ("historical.cells_attempted", "count", "higher", "exact count; base of cells_filled_ratio"),
    ("historical.erp_report.self_s", "s", "lower", "run_s.p50 on historical-annual"),
    ("historical.to_csv.self_s", "s", "lower", "run_s.p50 on historical-annual"),
    ("averaging.apply.self_s", "s", "lower",
     "run_s.p50 on historical-annual, about 9k calls on short arrays"),
    ("averaging.apply.calls", "count", "lower", "exact count"),
    ("averaging.apply.values", "count", "lower", "exact count of returns averaged"),
    ("charts.line_chart_svg.self_s", "s", "lower", "run_s.p50 on implied-daily"),
    ("charts.line_chart_svg.points", "count", "lower", "exact count, implied-daily"),
    ("cli.main.self_s", "s", "lower",
     "run_s.p50 on implied-daily and historical-annual; argparse, CSV row formatting, "
     "warnings and file writes that no child span covers"),
    ("cli.output_bytes", "bytes", "lower", "exact count of bytes written per call"),
    ("trace.overhead_s", "s", "lower",
     "traced minus untraced run_s.p50 in the same process; not a program cost"),
]
