"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT... --change CHANGE... [--json out.json]
    python3 benchmarks/e2e/compare.py RUNS...        # one side: medians and spread

Each argument is a record written by ``run.py --out`` (one workload, or
``{"runs": [...]}`` for all four) or a directory of them.  Runs pair up
in the order given, per workload, so pass both sides in the order they
were run.  For every (workload, metric) the report gives each side's
median and quartiles, the share of pairs the change wins, the share of
operations each side failed, and a verdict against the metric's bound:
``BENCHMARK.json``'s for its end-to-end metrics, :data:`ACCURACY_BOUND`
for accuracy.

* ``improved``   -- the change wins at least 9/10 of the pairs (ties count
  for neither), the medians differ by more than the parent's IQR, and the
  change fails no larger share of operations than the parent;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- fewer than :data:`MIN_PAIRS` pairs, unequal run
  counts, pairs at different seeds for a same-seed metric, or either
  side's IQR wider than the bound (as a share of its median) unless every
  change run beats every parent run, or loses to every parent run by
  more than the bound;
* ``unchanged``  -- anything else;
* ``reported``   -- the metric has no bound (``p50_ms`` and
  ``throughput_per_s``: see the README's "Gates").

Accuracy (``mae``, ``ihm_mae``) repeats exactly at a seed but not across
seeds, so each change run is divided by the parent run of its seed and
the ratios are judged against a parent of all ones.  Per-layer metrics
(traced runs) are reported, never gated.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

CATALOGUE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10

# Accuracy repeats exactly at one seed, so it is gated tightly there.
ACCURACY_BOUND = 0.01
# Which way is better for the end-to-end and accuracy metrics a run
# records; the per-layer ones say so in BENCHMARK.json.
BETTER = {"setup_s": "lower", "p50_ms": "lower", "throughput_per_s": "higher",
          "peak_rss_mb": "lower", "mae": "lower", "ihm_mae": "lower"}
# Accuracy (the record's "quality" section) compares only at one seed.
SAME_SEED = ("mae", "ihm_mae")


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median's magnitude."""
    q1, q3 = quartiles(values)
    median = abs(statistics.median(values))
    return (q3 - q1) / median if median else 0.0


def win_share(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against {len(change)} change runs")
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0) / len(parent)


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float,
            parent_failed: float = 0.0, change_failed: float = 0.0) -> str:
    """One (workload, metric) verdict; ``*_failed`` are failed-operation shares."""
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    gain = sign * (c_med - p_med)
    # A gain does not count when the change fails more operations.
    may_improve = change_failed <= parent_failed
    if max(spread(parent), spread(change)) > bound:
        if may_improve and all(sign * (c - p) > 0 for c in change for p in parent):
            return "improved"
        if -gain > bound * abs(p_med) and all(sign * (c - p) < 0 for c in change for p in parent):
            return "regressed"
        return "unresolved"
    if may_improve and win_share(parent, change, better) >= 0.9 and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    return "unchanged"


def _run_order(path: Path) -> list:
    """Natural order, so ``run-10.json`` pairs after ``run-9.json``."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", path.name)]


def load_runs(paths: Sequence[str]) -> List[dict]:
    runs = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.glob("*.json"), key=_run_order) if path.is_dir() else [path]
        for file in files:
            payload = json.loads(file.read_text())
            runs.extend(payload["runs"] if "runs" in payload else [payload])
    return runs


def by_workload(runs: Sequence[dict]) -> Dict[tuple, List[dict]]:
    groups: Dict[tuple, List[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], int(run["trace"])), []).append(run)
    return groups


def failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def summary(values: Sequence[float]) -> dict:
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _better(catalogue: dict) -> Dict[str, str]:
    return {**{m["name"]: m["better"] for m in catalogue["per_layer"]}, **BETTER}


def _entries(run: dict) -> Dict[str, dict]:
    """A record's metrics and accuracy, each ``{"value": ..., "unit": ...}``."""
    return {**run["metrics"], **run.get("quality", {})}


def _values(runs: Sequence[dict], name: str) -> List[float]:
    return [_entries(run)[name]["value"] for run in runs]


def bounds(catalogue: dict) -> Dict[str, float]:
    """The gated end-to-end metrics and their bounds; the rest are reported."""
    return {**{m["name"]: m["bound"] for m in catalogue["end_to_end"]},
            **{name: ACCURACY_BOUND for name in SAME_SEED}}


def compare(parent_runs: Sequence[dict], change_runs: Sequence[dict], catalogue: dict) -> List[dict]:
    better, gated = _better(catalogue), bounds(catalogue)
    parents, changes = by_workload(parent_runs), by_workload(change_runs)
    rows = []
    for key in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[key], changes[key]
        p_failed, c_failed = failed_share(p_runs), failed_share(c_runs)
        paired = len(p_runs) == len(c_runs)
        same_seeds = paired and all(p["seed"] == c["seed"] for p, c in zip(p_runs, c_runs))
        for name, entry in _entries(p_runs[0]).items():
            p, c = _values(p_runs, name), _values(c_runs, name)
            bound = gated.get(name) if key[1] == 0 else None
            if bound is None:
                outcome = "reported"
            elif name in SAME_SEED:
                # Each change run against the parent run at its seed.
                outcome = verdict([1.0] * len(p), [b / a for a, b in zip(p, c)],
                                  better[name], bound, p_failed, c_failed
                                  ) if same_seeds else "unresolved"
            else:
                outcome = verdict(p, c, better[name], bound, p_failed, c_failed)
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": entry["unit"], "better": better[name], "bound": bound,
                "parent": summary(p), "change": summary(c),
                "win_share": win_share(p, c, better[name]) if paired else None,
                "parent_failed_share": p_failed, "change_failed_share": c_failed,
                "verdict": outcome,
            })
    return rows


def describe(runs: Sequence[dict], catalogue: dict) -> List[dict]:
    """One side only: medians, quartiles and IQR/median against the bound."""
    gated = bounds(catalogue)
    rows = []
    for (workload, trace), group in sorted(by_workload(runs).items()):
        for name, entry in _entries(group[0]).items():
            values = _values(group, name)
            rows.append({
                "workload": workload, "trace": trace, "metric": name,
                "unit": entry["unit"], **summary(values),
                "spread": spread(values), "bound": gated.get(name) if trace == 0 else None,
                "failed_share": failed_share(group),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="+", help="parent run records or directories")
    parser.add_argument("--change", nargs="+", help="change run records or directories")
    parser.add_argument("--json", type=Path, help="also write the rows as JSON")
    args = parser.parse_args(argv)
    catalogue = json.loads(CATALOGUE.read_text())
    parent = load_runs(args.parent)
    if args.change is None:
        rows = describe(parent, catalogue)
        print(f"{'workload':13s} {'metric':30s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s} unit")
        for r in rows:
            bound = f"{r['bound']:.2f}" if r["bound"] is not None else "-"
            print(f"{r['workload']:13s} {r['metric']:30s} {r['n']:3d} {r['median']:12.5g} "
                  f"{r['q1']:12.5g} {r['q3']:12.5g} {r['spread']:8.2%} {bound:>6s} {r['unit']}")
    else:
        rows = compare(parent, load_runs(args.change), catalogue)
        print(f"{'workload':13s} {'metric':30s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'wins':>5s} {'failed p/c':>11s} verdict")
        for r in rows:
            p, c = r["parent"], r["change"]
            wins = f"{r['win_share']:5.0%}" if r["win_share"] is not None else "    -"
            print(f"{r['workload']:13s} {r['metric']:30s} "
                  f"{p['median']:12.5g} [{p['q1']:9.4g}, {p['q3']:9.4g}] "
                  f"{c['median']:12.5g} [{c['q1']:9.4g}, {c['q3']:9.4g}] "
                  f"{wins} {r['parent_failed_share']:5.1%}/{r['change_failed_share']:<5.1%} "
                  f"{r['verdict']}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
