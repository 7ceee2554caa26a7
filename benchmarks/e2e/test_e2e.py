"""Tests for the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Not part of tier-1: the smoke runs train small networks and take a few
seconds per workload.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from spans import read_jsonl, self_times

HERE = Path(__file__).resolve().parent
CATALOGUE = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]


def run_benchmark(tmp_path, *args):
    out = tmp_path / "record.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--smoke",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


def assert_metrics(metrics, listed):
    assert set(metrics) == {m["name"] for m in listed}
    for spec in listed:
        metric = metrics[spec["name"]]
        assert math.isfinite(metric["value"]), spec["name"]
        assert metric["unit"] == spec["unit"], spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(tmp_path, workload):
    last, record = run_benchmark(tmp_path, "--workload", workload, "--trace", "0")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and all(record["checks"].values())
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert_metrics(last["metrics"], CATALOGUE["end_to_end"])
    assert all(m["value"] > 0 for m in last["metrics"].values())
    # The record keeps the end-to-end metrics BENCHMARK.json leaves out.
    assert set(record["metrics"]) == {"setup_s", "p50_ms", "throughput_per_s", "peak_rss_mb"}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in record["metrics"].values())
    expected = {"mae", "ihm_mae"} if workload == "nmr_monitor" else {"mae"}
    assert set(record["quality"]) == expected
    assert all(math.isfinite(q["value"]) and q["unit"] == "conc"
               for q in record["quality"].values())
    assert record["host"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_traced_run_writes_consistent_spans(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    last, _ = run_benchmark(tmp_path, "--workload", "serve_closed", "--trace", "1",
                            "--trace-out", str(spans_path))
    assert_metrics(last["metrics"], CATALOGUE["per_layer"])
    spans = read_jsonl(spans_path)
    by_id = {span["span_id"]: span for span in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        parent = span["parent_id"]
        assert parent is None or parent in by_id
        if parent is not None:
            assert by_id[parent]["trace_id"] == span["trace_id"]
    requests = [span for span in spans if span["name"] == "request"]
    assert requests
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    # Every request's model call (made on a service worker thread) joins
    # the request's trace.
    for request in requests:
        kids = children.get(request["span_id"], [])
        assert [kid["name"] for kid in kids] == ["nn.predict"]
        assert all(kid["trace_id"] == request["trace_id"] for kid in kids)
    assert all(value >= 0.0 for value in self_times(spans).values())


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"span_id": "a", "parent_id": None, "start": 0.0, "end": 10.0},
        {"span_id": "b", "parent_id": "a", "start": 1.0, "end": 4.0},
        {"span_id": "c", "parent_id": "a", "start": 3.0, "end": 6.0},  # overlaps b
        {"span_id": "d", "parent_id": "c", "start": 3.5, "end": 4.0},
    ]
    assert self_times(spans) == {"a": 5.0, "b": 3.0, "c": 2.5, "d": 0.5}


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92]
LOOSE = [10.0, 10.4, 9.6, 10.2, 9.8, 10.3, 9.7, 10.1, 9.9, 10.0]
WIDE = [10, 14, 6, 12, 8, 13, 7, 11, 9, 10]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # 10/10 wins, gap far beyond the parent's IQR.
    (STEADY, scaled(STEADY, 0.8), "lower", 0.1, "improved"),
    (STEADY, scaled(STEADY, 1.2), "higher", 0.1, "improved"),
    # Worse by 20 % against a 10 % bound.
    (STEADY, scaled(STEADY, 1.2), "lower", 0.1, "regressed"),
    # Worse by 5 %: inside the bound, and no gain to claim.
    (STEADY, scaled(STEADY, 1.05), "lower", 0.1, "unchanged"),
    # Better by a hair: wins every pair but the gap is inside the IQR.
    (LOOSE, [v - 0.05 for v in LOOSE], "lower", 0.1, "unchanged"),
    # Spread (IQR/median ~ 40 %) wider than the bound.
    (WIDE, [v - 1 for v in WIDE], "lower", 0.1, "unresolved"),
    # ...unless every change run beats every parent run,
    (WIDE, scaled(WIDE, 0.2), "lower", 0.1, "improved"),
    # ...or loses to every one by more than the bound.
    (WIDE, scaled(WIDE, 3.0), "lower", 0.1, "regressed"),
    # Fewer than ten pairs: no verdict, however clear.
    (STEADY[:5], scaled(STEADY[:5], 0.8), "lower", 0.1, "unresolved"),
    (STEADY[:5], scaled(STEADY[:5], 1.5), "lower", 0.1, "unresolved"),
    # Unequal run counts do not pair up.
    (STEADY, scaled(STEADY, 0.8)[:9], "lower", 0.1, "unresolved"),
    (STEADY[:9] + [10.0, 10.0], scaled(STEADY, 0.8), "lower", 0.1, "unresolved"),
])
def test_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected


def test_no_gain_counts_when_the_change_fails_more():
    faster = scaled(STEADY, 0.8)
    assert compare.verdict(STEADY, faster, "lower", 0.1, 0.0, 0.0) == "improved"
    assert compare.verdict(STEADY, faster, "lower", 0.1, 0.0, 0.01) == "unchanged"
    assert compare.verdict(STEADY, faster, "lower", 0.1, 0.02, 0.01) == "improved"
    wide_faster = scaled(WIDE, 0.2)
    assert compare.verdict(WIDE, wide_faster, "lower", 0.1, 0.0, 0.01) == "unresolved"


def _run(workload, seed, value, failed=0, mae=0.02, rss=300.0):
    return {"workload": workload, "trace": 0, "seed": seed, "attempted": 100, "failed": failed,
            "metrics": {"p50_ms": {"value": value, "unit": "ms"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "quality": {"mae": {"value": mae, "unit": "conc"}}}


def test_compare_reports_failed_share_and_wins():
    rows = compare.compare(
        [_run("w", 0, 10.0), _run("w", 1, 10.2)],
        [_run("w", 0, 9.0, failed=1), _run("w", 1, 10.4)], CATALOGUE,
    )
    row = next(r for r in rows if r["metric"] == "p50_ms")
    assert row["win_share"] == 0.5
    assert row["parent_failed_share"] == 0.0
    assert row["change_failed_share"] == 0.005
    assert row["parent"]["median"] == pytest.approx(10.1)
    # Two pairs are too few for any verdict.
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "p50_ms": "reported", "peak_rss_mb": "unresolved", "mae": "unresolved"}


def test_compare_gates_bounded_metrics_and_accuracy_at_one_seed():
    seeds = range(compare.MIN_PAIRS)
    parent = [_run("w", s, 10.0 + 0.01 * s, mae=0.02 + 0.001 * s) for s in seeds]
    same = [_run("w", s, 20.0 + 0.01 * s, mae=0.02 + 0.001 * s) for s in seeds]
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(parent, same, CATALOGUE)}
    # p50_ms has no bound: twice as slow is reported, not judged.
    assert verdicts == {"p50_ms": "reported", "peak_rss_mb": "unchanged", "mae": "unchanged"}
    # 2 % less accurate at every seed is beyond the 1 % bound, although
    # the change's spread across seeds is far wider than 1 %.
    lossy = [_run("w", s, 10.0, mae=1.02 * (0.02 + 0.001 * s), rss=330.0) for s in seeds]
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(parent, lossy, CATALOGUE)}
    assert verdicts["mae"] == "regressed" and verdicts["peak_rss_mb"] == "regressed"
    # Accuracy moves with the seed, so runs at other seeds do not compare.
    shifted = [_run("w", s + 1, 10.0 + 0.01 * s) for s in seeds]
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(parent, shifted, CATALOGUE)}
    assert verdicts["mae"] == "unresolved"
