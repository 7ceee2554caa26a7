"""End-to-end benchmark of the repro package: four fixed-work workloads.

One workload, as a harness runs it (prints one JSON result as its last line)::

    python3 benchmarks/e2e/run.py --workload serve_closed --seed 0 --seconds 10 --trace 0

All four, each in its own fresh subprocess, with the full records saved::

    python3 benchmarks/e2e/run.py --seed 0 --out run.json [--trace] [--smoke]

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
is a separate run that wraps the program's public calls in spans, prints
the per-layer metrics and writes the spans as JSONL under ``.bench_e2e/``.
BLAS threads are pinned to 1 in every workload process.  A failed
correctness check still prints the metrics, then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e"
WORKLOADS = ("serve_closed", "serve_open", "nmr_monitor", "ms_campaign")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Every untraced run measures these.  The last line carries the ones
# BENCHMARK.json lists; the record keeps all of them for compare.py.
END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# Mole fractions for the MS workloads, mol/L for nmr_monitor.
QUALITY_UNIT = "conc"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="sizes the fixed timed work (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few seconds per workload")
    parser.add_argument("--out", type=Path, help="write the full run record(s) as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="spans JSONL path (default: .bench_e2e/spans-<workload>-<seed>.jsonl)")
    return parser.parse_args(argv)


def read_cpu_times():
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def git_sha(root: Path):
    """The checkout's commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
    }


def load_catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Recorder

    catalogue = load_catalogue()
    seconds = args.seconds if args.seconds is not None else int(catalogue["run_seconds"])
    recorder = Recorder() if args.trace else None
    cpu_before = read_cpu_times()
    started = time.perf_counter()
    result = workloads.WORKLOADS[args.workload](args.seed, seconds, args.smoke, recorder)
    wall = time.perf_counter() - started
    cpu_after = read_cpu_times()
    steal = 0.0
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal = (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        measured = dict(result.layers)
        measured["host.steal_frac"] = steal
        measured["trace.overhead_frac"] = recorder.cost_s() / wall
        # A layer this workload never calls reads 0.
        metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in catalogue["per_layer"]}
        printed = metrics
    else:
        measured = {
            "setup_s": statistics.median(result.setup_s),
            "p50_ms": result.p50_ms,
            "throughput_per_s": result.throughput_per_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": float(measured[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        printed = {m["name"]: metrics[m["name"]] for m in catalogue["end_to_end"]}
    quality = {name: {"value": value, "unit": QUALITY_UNIT}
               for name, value in result.quality.items()}
    correct = all(result.checks.values())
    host = host_record()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "checks": result.checks, "metrics": metrics, "quality": quality,
        "reported": {**result.reported, "setup_s_each": result.setup_s,
                     "peak_rss_mb": peak_rss_mb, "host.steal_frac": steal, "wall_s": wall},
        "host": host,
    }

    print(f"host nproc={host['nproc']} blas={host['blas']} "
          + " ".join(f"{k}={v}" for k, v in host["blas_threads"].items())
          + f" python={host['python']} numpy={host['numpy']} scipy={host['scipy']}"
          + f" git={host['git_sha']} steal_frac={steal:.4f}")
    for name, check in result.checks.items():
        print(f"{args.workload} check {name} {'ok' if check else 'FAILED'}")
    print(f"{args.workload} ops {result.attempted}")
    print(f"{args.workload} failed {result.failed}")
    for name, metric in {**metrics, **quality}.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        trace_out = args.trace_out or WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(trace_out)
        record["spans_jsonl"] = os.path.relpath(trace_out, ROOT)
        print(f"{args.workload} spans {len(recorder.spans)} -> {record['spans_jsonl']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": printed}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; merge their records."""
    records, status = [], 0
    for name in WORKLOADS:
        part = WORK / f"record-{name}-{args.seed}-{os.getpid()}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(part)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        code = subprocess.run(command, check=False).returncode
        status = status or code
        if part.is_file():
            records.append(json.loads(part.read_text()))
            part.unlink()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": records}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": status == 0 and len(records) == len(WORKLOADS),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{name}": metric
                    for r in records for name, metric in {**r["metrics"], **r["quality"]}.items()},
    }))
    return status or (0 if len(records) == len(WORKLOADS) else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS before numpy is imported here or in any workload process:
    # with program defaults, 2 pool workers x 2 OpenBLAS threads
    # oversubscribe a 2-vCPU host and the campaign spread reached 2.7x.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    # Temporary files (campaign caches and journals) stay in the checkout.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
