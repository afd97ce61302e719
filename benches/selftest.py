"""Self-tests of the benchmark's own code: generator determinism, the
oracle accepting real CLI output and rejecting perturbed output, and the
span recorder's self-time arithmetic.

    python3 -m pytest benches/selftest.py

(The file name keeps it out of the library's own test collection.)
"""

import json
import sys
from pathlib import Path

import pytest

import generate
import oracle
import run
from metrics import END_TO_END, PER_LAYER
from reference import REFERENCE_S, at_reference_speed, reference_s
from spans import Span, SpanRecorder, per_run_totals, self_times

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = generate.generate(workload, 5, tmp_path / "a")
    again = generate.generate(workload, 5, tmp_path / "b")
    other = generate.generate(workload, 6, tmp_path / "c")
    for name, info in first["files"].items():
        data = Path(info["path"]).read_bytes()
        assert data == Path(again["files"][name]["path"]).read_bytes()
        assert len(data) == info["bytes"]
        assert data.count(b"\n") == info["rows"] + 1
    assert any(Path(info["path"]).read_bytes() != Path(other["files"][name]["path"]).read_bytes()
               for name, info in first["files"].items())


def test_generated_inputs_have_the_promised_shape(tmp_path):
    implied = generate.generate("implied-daily", 1, tmp_path / "i")["files"]
    assert implied["prices"]["rows"] == 40177
    assert implied["eps"]["rows"] == 440
    assert 0.02 < 1 - implied["yields"]["rows"] / implied["prices"]["rows"] < 0.04
    annual = generate.generate("historical-annual", 1, tmp_path / "a")
    assert annual["files"]["equity"]["rows"] == 110
    assert len(annual["windows"]) == 561 + 2


@pytest.fixture(scope="module")
def real_outputs(tmp_path_factory):
    """Each workload's manifest, harness and one real CLI run's outputs."""
    cli = run.import_cli()
    out = {}
    for workload in generate.WORKLOADS:
        work = tmp_path_factory.mktemp(workload)
        harness = run.Harness(generate.generate(workload, 3, work / "in"), work)
        harness.call(cli.main)
        assert (harness.attempted, harness.failed) == (1, 0)
        texts = [(work / "out" / name).read_text(encoding="utf-8") for name in harness.outputs]
        out[workload] = (harness, texts, harness.passed[1])
    return out


def test_oracle_rejects_a_perturbed_implied_cell_and_a_missing_date(real_outputs):
    harness, (csv_text, svg_text), _ = real_outputs["implied-daily"]
    assert oracle.check_implied(harness.expected, csv_text, svg_text) == []
    lines = csv_text.splitlines(keepends=True)

    fields = lines[100].split(",")
    fields[4] = f"{float(fields[4]) + 2e-9:.10f}"
    perturbed = "".join(lines[:100] + [",".join(fields)] + lines[101:])
    assert oracle.check_implied(harness.expected, perturbed, svg_text)

    missing = "".join(lines[:100] + lines[101:])
    assert oracle.check_implied(harness.expected, missing, svg_text)
    assert oracle.check_implied(harness.expected, csv_text, svg_text.replace(
        oracle.SVG_FORMAT_COMMENT, "<!-- other -->"))


def test_oracle_rejects_a_perturbed_report_cell(real_outputs):
    harness, (csv_text,), stderr_text = real_outputs["historical-annual"]
    assert oracle.check_historical(harness.expected, csv_text, stderr_text) == []
    lines = csv_text.splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[2] = f"{float(fields[2]) + 2e-9:.10f}"
    perturbed = "".join(lines[:1] + [",".join(fields)] + lines[2:])
    assert oracle.check_historical(harness.expected, perturbed, stderr_text)
    fields[2] = "NA"
    as_na = "".join(lines[:1] + [",".join(fields)] + lines[2:])
    assert oracle.check_historical(harness.expected, as_na, stderr_text)
    dropped_window = "".join(lines[:1] + lines[2:])
    assert oracle.check_historical(harness.expected, dropped_window, stderr_text)


def test_oracle_requires_na_and_warnings_exactly_on_empty_windows(real_outputs):
    harness, (csv_text,), stderr_text = real_outputs["historical-annual"]
    na_rows = [line for line in csv_text.splitlines() if ",NA" in line]
    assert [row.split(",")[0] for row in na_rows] == ["1850-1859", "2050-2059"]
    filled = csv_text.replace(na_rows[0], na_rows[0].replace("NA", "0.0000000000"))
    assert oracle.check_historical(harness.expected, filled, stderr_text)
    assert oracle.check_historical(harness.expected, csv_text, "")


def test_harness_counts_a_failing_call(real_outputs):
    harness = real_outputs["historical-annual"][0]
    before = (harness.attempted, harness.failed)
    harness.call(lambda argv: 1)
    assert (harness.attempted, harness.failed) == (before[0] + 1, before[1] + 1)


def test_reference_scaling_cancels_a_uniform_slowdown():
    fast = at_reference_speed(1.0, REFERENCE_S, REFERENCE_S)
    slow = at_reference_speed(1.5, 1.5 * REFERENCE_S, 1.5 * REFERENCE_S)
    assert fast == pytest.approx(1.0) and slow == pytest.approx(1.0)
    assert reference_s() > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, 1, "root", 0.0, 10.0),
        Span(1, 0, 1, "a", 1.0, 4.0),
        Span(2, 1, 1, "a1", 2.0, 3.0),
        Span(3, 0, 1, "b", 5.0, 9.0),
        Span(4, 3, 1, "b1", 5.0, 7.0),
        Span(5, 3, 1, "b2", 6.0, 8.0),    # overlaps b1: b's children cover 5..8
        Span(6, 0, 1, "c", 9.5, 11.0),    # runs past root's end: only 9.5..10 counts
    ]
    assert self_times(spans) == {0: 2.5, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0, 6: 1.5}


def test_recorder_nests_spans_counts_and_errors(tmp_path):
    recorder = SpanRecorder()

    def leaf(n):
        if n < 0:
            raise ValueError("negative")
        return list(range(n))

    traced_leaf = recorder.wrap(leaf, "leaf", lambda args, result: {"items": len(result)})

    def outer():
        traced_leaf(3)
        traced_leaf(4)
        with pytest.raises(ValueError):
            traced_leaf(-1)

    recorder.run = 7
    recorder.wrap(outer, "outer")()
    parent = {s.name: s.parent for s in recorder.spans}
    assert parent == {"outer": None, "leaf": 0}
    totals = per_run_totals(recorder.spans)[7]
    assert totals["leaf"]["calls"] == 3
    assert totals["leaf"]["items"] == 7
    assert totals["leaf"]["errors"] == 1
    own = totals["outer"]["self_s"] + totals["leaf"]["self_s"]
    whole = recorder.spans[0].end - recorder.spans[0].start
    assert own == pytest.approx(whole, abs=1e-9)

    recorder.dump(tmp_path / "spans.jsonl")
    header, *rows = (json.loads(line) for line in
                     (tmp_path / "spans.jsonl").read_text(encoding="utf-8").splitlines())
    assert [dict(zip(header, row))["name"] for row in rows] == ["outer", "leaf", "leaf", "leaf"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [row[:3] for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in PER_LAYER]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
