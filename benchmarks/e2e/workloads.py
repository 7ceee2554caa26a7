"""The four benchmark workloads.

Each workload builds its inputs from the seed outside any timed region,
then repeats the real preparation flow ``SETUP_REPS`` times (setup time
is the median), then runs a fixed amount of timed work that depends only
on ``seconds``, never on the clock.  Timed phases are split into
``WINDOWS`` equal windows and report the median of the per-window p50
or throughput, which keeps one host stall from moving the result.

With a :class:`~spans.Recorder` the same workload also wraps the public
calls it makes into the program, and returns per-layer metrics computed
from those spans.  Without one it records nothing.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro import nn
from repro.compute import ArtifactCache, ParallelExecutor
from repro.core import (
    MSToolchain,
    ann_analyzer,
    measurements_to_arrays,
    mlp_topology,
    nmr_conv_topology,
)
from repro.ms import MassFlowControllerRig, MassSpectrometerSimulator, MzAxis
from repro.ms import VirtualMassSpectrometer, default_library
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS
from repro.ms.mixtures import default_mixture_plan
from repro.nmr import (
    DoEPlan,
    FlowReactorExperiment,
    IHMAnalysis,
    NMRSpectrumSimulator,
    ReactionKinetics,
    VirtualNMRSpectrometer,
    mndpa_reaction_models,
)
from repro.observability import MetricsRegistry, Tracer
from repro.orchestration import CampaignSpec, SweepOrchestrator, report_json
from repro.serving import AnalysisService, BatchingPolicy, Completed
from repro.serving import batch_analyzer_from_model

WINDOWS = 10
SETUP_REPS = 3
TASK = tuple(DEFAULT_TASK_COMPOUNDS)
# serve_open: the offered open-loop rate, the share of ``seconds`` it
# runs for, the batcher's cap and the requests kept in flight when
# measuring capacity.  A 2 ms hold expects 0.6 arrivals at 300/s, so
# most batches close on the timer with one to three rows.  At 600/s the
# single worker sat near its knee: the p50 doubled (4.1 to 8.6 ms) in a
# run with 9 % CPU steal.
OPEN_RATE = 300.0
OPEN_SHARE = 0.8
MAX_BATCH = 32
OUTSTANDING = 64

# Sanity bounds on answer error, about twice the worst of seeds 0-12, so
# any seed passes.  The error itself is gated by compare.py, at 1 %
# against the parent's run at the same seed.
MAE_BOUNDS = {
    "serve_closed": 0.06,
    "serve_open": 0.15,
    "nmr_monitor": 0.06,
    "nmr_monitor.ihm": 0.02,
    "ms_campaign": 0.04,
}
SMOKE_MAE_BOUNDS = {
    "serve_closed": 0.2,
    "serve_open": 0.3,
    "nmr_monitor": 0.5,
    "nmr_monitor.ihm": 0.05,
    "ms_campaign": 0.3,
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    setup_s: List[float]
    p50_ms: float
    throughput_per_s: float
    checks: Dict[str, bool]
    # Answer error against the inputs' ground truth: ``mae``, and
    # ``ihm_mae`` for nmr_monitor's IHM estimates.
    quality: Dict[str, float]
    # Reported, never gated: tails, counts and window values.
    reported: Dict[str, object] = field(default_factory=dict)
    # Per-layer metrics; filled only in a traced run.
    layers: Dict[str, float] = field(default_factory=dict)


# -- helpers -----------------------------------------------------------------


def _span(rec, name: str, **attributes):
    return rec.span(name, **attributes) if rec is not None else contextlib.nullcontext()


def _patched(rec, owner, attribute: str, name: str):
    if rec is None:
        return contextlib.nullcontext()
    return rec.patched(owner, attribute, name)


def _wrapped(rec, fn, name: str):
    return rec.wrap(fn, name) if rec is not None else fn


def _window_bounds(n: int) -> List[tuple]:
    edges = np.linspace(0, n, WINDOWS + 1).round().astype(int)
    return list(zip(edges[:-1], edges[1:]))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def _repeat_setup(build: Callable[[], object], close: Callable):
    """Run ``build`` ``SETUP_REPS`` times; keep the last state, time each."""
    times, state = [], None
    for _ in range(SETUP_REPS):
        if state is not None:
            close(state)
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, times


def _weights_digest(model) -> str:
    digest = hashlib.sha256()
    for array in model.get_weights():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _accounted(stats: dict) -> bool:
    """Exactly-once: every submitted request has one terminal outcome."""
    terminal = stats["completed"] + sum(stats["rejections"].values()) + stats["abstained"]
    return stats["submitted"] == terminal


def _queue_wait_us(service: AnalysisService) -> float:
    waits = [s.duration for s in service.tracer.finished_spans()
             if s.name == "serving.queue" and s.duration is not None]
    return 1e6 * _median(waits) if waits else 0.0


def _spans_per_request(service: AnalysisService) -> float:
    """Mean serving spans per request trace, over complete traces only."""
    traces: Dict[str, List[str]] = {}
    for span in service.tracer.finished_spans():
        if span.name.startswith("serving."):
            traces.setdefault(span.trace_id, []).append(span.name)
    counts = [len(names) for names in traces.values()
              if "serving.submit" in names and "serving.resolve" in names]
    return float(np.mean(counts)) if counts else 0.0


def _ms_device(axis: MzAxis, seed: int, n_heldout_mixtures: int, heldout_samples: int):
    """Seeded calibration measurements and held-out device spectra."""
    device = VirtualMassSpectrometer(
        contamination={"H2O": 0.03}, library=default_library(), axis=axis,
        drift_per_hour=0.003, seed=seed,
    )
    rig = MassFlowControllerRig(device, seed=seed)
    calibration = rig.measure_plan(default_mixture_plan(TASK, 14, seed=2021 + seed), 5)
    heldout = rig.measure_plan(
        default_mixture_plan(TASK, n_heldout_mixtures, seed=7919 + seed), heldout_samples
    )
    x_eval, y_eval = measurements_to_arrays(heldout, TASK, axis)
    return calibration, x_eval, y_eval


def _train_ms_model(rec, axis, calibration, n_train, topology, epochs, seed):
    """The Fig-3 flow: characterize, simulate, train."""
    toolchain = MSToolchain(TASK, axis=axis)
    measurements_id = toolchain.provenance.record(
        "measurement_series", {"samples": len(calibration), "task": list(TASK)}
    )
    with _span(rec, "ms.build_simulator"):
        simulator, _, simulator_id = toolchain.build_simulator(calibration, measurements_id)
    with _span(rec, "ms.generate_training_data", n=n_train):
        dataset, dataset_id = toolchain.generate_training_data(
            simulator, n_train, seed=seed, simulator_artifact=simulator_id
        )
    with _span(rec, "core.train_network"), _patched(rec, nn.Sequential, "fit", "nn.fit"):
        model, _, _, _ = toolchain.train_network(
            dataset, topology=topology, epochs=epochs, seed=seed,
            dataset_artifact=dataset_id, patience=None,
        )
    return model


def _setup_layers(rec, n_generated: int, fit_samples: int) -> Dict[str, float]:
    """Setup-side layer metrics, medians over the setup repetitions."""
    fit_s = _median(rec.durations("nn.fit"))
    return {
        "ms.characterize_s": _median(rec.durations("ms.build_simulator")),
        "ms.generate_us_per_spectrum":
            1e6 * _median(rec.durations("ms.generate_training_data")) / n_generated,
        "nn.fit_s": fit_s,
        "nn.fit_samples_per_s": fit_samples / fit_s,
    }


def _in_interval(spans, start: float, end: float):
    return [s for s in spans if start <= s[4] and s[5] <= end]


# -- serve_closed ------------------------------------------------------------


def serve_closed(seed: int, seconds: int, smoke: bool, rec=None) -> Result:
    """MS gas analysis served to one closed-loop client (submit, then wait).

    The model call is ~0.06 ms, so admission, queue handoff and telemetry
    in the serving layer do most of the per-request work; batching and
    the frozen inference engine are bypassed.
    """
    axis = MzAxis(1.0, 50.0, 0.2)
    n_train, epochs = (2000, 2) if smoke else (20_000, 10)
    n_requests = 2000 if smoke else 4000 * seconds
    calibration, x_eval, y_eval = _ms_device(axis, seed, 64, 8)
    n_rows = len(x_eval)
    digests = []

    def build():
        with _span(rec, "setup"):
            model = _train_ms_model(
                rec, axis, calibration, n_train, mlp_topology(len(TASK), (32,)), epochs, seed
            )
            service = AnalysisService(ann_analyzer(model), expected_length=axis.size).start()
            for row in x_eval[:200]:
                service.submit(row).result()
        digests.append(_weights_digest(model))
        return model, service

    (model, service), setup_s = _repeat_setup(build, lambda state: state[1].stop())
    # A single-row predict is the analyzer's own path (gemv), so served
    # answers must match it byte for byte.
    reference = np.stack([model.predict(row[None, :])[0] for row in x_eval])

    latency = np.empty(n_requests)
    results: list = [None] * n_requests
    marks = []
    clock = time.perf_counter
    with _patched(rec, model, "predict", "nn.predict"):
        for lo, hi in _window_bounds(n_requests):
            marks.append(clock())
            if rec is None:
                for i in range(lo, hi):
                    started = clock()
                    results[i] = service.submit(x_eval[i % n_rows]).result()
                    latency[i] = clock() - started
            else:
                for i in range(lo, hi):
                    with rec.span("request", request=i) as ids:
                        rec.context = ids
                        started = clock()
                        results[i] = service.submit(x_eval[i % n_rows]).result()
                        latency[i] = clock() - started
                    rec.context = None
        marks.append(clock())
    stats = service.stats()
    queue_wait_us = _queue_wait_us(service)
    spans_per_request = _spans_per_request(service)
    service.stop()

    bounds = _window_bounds(n_requests)
    window_p50 = [1e3 * _median(latency[lo:hi]) for lo, hi in bounds]
    # One closed-loop client sustains 1 / (request time), so this rate
    # restates p50_ms; the measured requests per window wall are in the
    # record.
    window_rate = [1e3 / p50 for p50 in window_p50]
    wall_rate = [(hi - lo) / (marks[w + 1] - marks[w]) for w, (lo, hi) in enumerate(bounds)]
    completed = [r for r in results if isinstance(r, Completed)]
    values = np.stack([r.value for r in completed]) if completed else np.empty((0, len(TASK)))
    rows = np.arange(n_requests) % n_rows
    mae = float(np.mean(np.abs(values - y_eval[rows]))) if len(completed) == n_requests else float("inf")
    bounds_mae = SMOKE_MAE_BOUNDS if smoke else MAE_BOUNDS
    checks = {
        "all_completed": len(completed) == n_requests,
        "byte_identical_to_predict": len(completed) == n_requests and all(
            r.value.tobytes() == reference[i % n_rows].tobytes() for i, r in enumerate(results)
        ),
        "exactly_once": _accounted(stats),
        "mae_within_bound": mae <= bounds_mae["serve_closed"],
        "setup_deterministic": len(set(digests)) == 1,
    }
    result = Result(
        attempted=n_requests,
        failed=n_requests - len(completed),
        setup_s=setup_s,
        p50_ms=_median(window_p50),
        throughput_per_s=_median(window_rate),
        checks=checks,
        quality={"mae": mae},
        reported={
            "tail.p99_ms": 1e3 * float(np.percentile(latency, 99)),
            "window_p50_ms": window_p50,
            "window_wall_throughput_per_s": wall_rate,
        },
    )
    if rec is not None:
        predict_s = rec.durations("nn.predict")
        analyzer_s = np.array([getattr(r, "analyzer_seconds", np.nan) for r in results])
        wall = marks[-1] - marks[0]
        traced_p50_us = 1e6 * _median(latency)
        layers = _setup_layers(rec, n_train, int(round(0.8 * n_train)) * epochs)
        layers.update({
            "nn.predict_us": 1e6 * _median(predict_s),
            "serving.overhead_us": 1e6 * float(np.nanmedian(latency - analyzer_s)),
            "serving.queue_wait_us": queue_wait_us,
            "serving.batches": float(len(predict_s)),
            "serving.batch_rows_mean": n_requests / len(predict_s),
            "serving.worker_busy_frac": sum(predict_s) / (service.workers * wall),
            "serving.spans_per_request": spans_per_request,
            "observability.overhead_frac": _observability_overhead(model, x_eval, axis.size, smoke),
            "tail.p99_ms": result.reported["tail.p99_ms"],
            "quality.mae": mae,
        })
        layers["trace.explained_frac"] = (
            layers["nn.predict_us"] + layers["serving.overhead_us"]
        ) / traced_p50_us
        result.layers = layers
    return result


def _observability_overhead(model, rows, length: int, smoke: bool) -> float:
    """Closed-loop p50 with default telemetry over p50 with it disabled, minus 1."""
    n = 300 if smoke else 2000
    services = {
        "on": AnalysisService(ann_analyzer(model), expected_length=length, name="obs_on"),
        "off": AnalysisService(
            ann_analyzer(model), expected_length=length, name="obs_off",
            registry=MetricsRegistry(enabled=False), tracer=Tracer(enabled=False),
        ),
    }
    p50 = {"on": [], "off": []}
    clock = time.perf_counter
    for service in services.values():
        service.start()
    try:
        for _ in range(3):  # alternate so drift hits both sides alike
            for key, service in services.items():
                latency = np.empty(n)
                for i in range(n):
                    started = clock()
                    service.submit(rows[i % len(rows)]).result()
                    latency[i] = clock() - started
                p50[key].append(_median(latency))
    finally:
        for service in services.values():
            service.stop()
    return _median(p50["on"]) / _median(p50["off"]) - 1.0


# -- serve_open --------------------------------------------------------------


def serve_open(seed: int, seconds: int, smoke: bool, rec=None) -> Result:
    """Independent instruments on the batched frozen path: open loop, then capacity.

    Phase A sends seeded Poisson arrivals at ``OPEN_RATE`` from one
    generator thread and times each request from its due time: the p50.
    The batcher mostly waits out ``max_wait_s`` and dispatches partial
    batches.  Phase B keeps ``OUTSTANDING`` requests in flight (the
    queue never sheds) and counts answers per second: the capacity, in
    full batches.  Coalescing and the frozen InferenceEngine do most of
    the work.
    """
    axis = MzAxis(1.0, 50.9, 0.1)  # 500 points
    n_train = 128 if smoke else 512
    n_a = 300 if smoke else int(OPEN_RATE * OPEN_SHARE * seconds)
    n_b = 600 if smoke else 800 * seconds
    calibration, x_eval, y_eval = _ms_device(axis, seed, 64, 8)
    n_rows = len(x_eval)
    schedule = np.random.default_rng(seed + 2)
    due = np.cumsum(schedule.exponential(1.0 / OPEN_RATE, size=n_a))
    rows_a = schedule.integers(0, n_rows, size=n_a)
    rows_b = schedule.integers(0, n_rows, size=n_b)
    digests = []

    def build():
        with _span(rec, "setup"):
            model = _train_ms_model(rec, axis, calibration, n_train, None, 1, seed)
            with _span(rec, "inference.freeze"):
                batch = batch_analyzer_from_model(model, frozen="float32")
            traced_batch = _wrapped(rec, batch, "inference.batch")
            service = AnalysisService(
                lambda row: traced_batch(row[None, :])[0],
                batching=BatchingPolicy(max_batch=MAX_BATCH, max_wait_s=0.002),
                batch_analyzer=traced_batch,
                workers=1, queue_size=256, expected_length=axis.size,
            ).start()
            size = 1
            while size <= MAX_BATCH:  # allocate every engine workspace capacity
                batch(x_eval[:size])
                size *= 2
            for pending in [service.submit(row) for row in x_eval[:OUTSTANDING]]:
                pending.result()
        digests.append(_weights_digest(model))
        return model, batch, service

    (model, batch, service), setup_s = _repeat_setup(build, lambda state: state[2].stop())
    # Small batches bound the reference path's im2col buffers (~600 MB at 256).
    reference = model.predict(x_eval, batch_size=32)
    clock = time.perf_counter
    before = service.stats()["batching"]

    # Phase A: open loop at a fixed rate, one generator thread.
    late = np.empty(n_a)
    pending_a = []
    start_a = clock()
    for i in range(n_a):
        target = start_a + due[i]
        delay = target - clock()
        if delay > 0:
            time.sleep(delay)
        late[i] = clock() - target
        pending_a.append(service.submit(x_eval[rows_a[i]]))
    results_a = [p.result() for p in pending_a]
    end_a = clock()
    latency_a = late + np.array([p.latency() for p in pending_a])
    queue_wait_us = _queue_wait_us(service)
    spans_per_request = _spans_per_request(service)
    after_a = service.stats()["batching"]

    # Phase B: OUTSTANDING requests in flight; each answer frees one slot.
    results_b: list = [None] * n_b
    answered = np.empty(n_b)
    in_flight: collections.deque = collections.deque()
    start_b = clock()
    for i in range(n_b + OUTSTANDING):
        if len(in_flight) == OUTSTANDING or i >= n_b:
            j, pending = in_flight.popleft()
            results_b[j] = pending.result()
            answered[j] = clock()
        if i < n_b:
            in_flight.append((i, service.submit(x_eval[rows_b[i]])))
    stats = service.stats()
    service.stop()

    open_edges = np.linspace(0.0, due[-1], WINDOWS + 1)
    open_window = np.clip(np.searchsorted(open_edges, due, side="right") - 1, 0, WINDOWS - 1)
    window_p50 = [1e3 * _median(latency_a[open_window == w]) for w in range(WINDOWS)
                  if np.any(open_window == w)]
    bounds = _window_bounds(n_b)
    window_rate = [(hi - lo) / (answered[hi - 1] - (answered[lo - 1] if lo else start_b))
                   for lo, hi in bounds]
    open_batches = after_a["batches"] - before["batches"]
    open_rows = after_a["batched_requests"] - before["batched_requests"]
    results = results_a + results_b
    rows = np.concatenate([rows_a, rows_b])
    completed = [r for r in results if isinstance(r, Completed)]
    all_done = len(completed) == len(results)
    values = np.stack([r.value for r in results]) if all_done else None
    mae = float(np.mean(np.abs(values - y_eval[rows]))) if all_done else float("inf")
    frozen_mae = float(np.mean(np.abs(values - reference[rows]))) if all_done else float("inf")
    bounds_mae = SMOKE_MAE_BOUNDS if smoke else MAE_BOUNDS
    checks = {
        "all_completed": all_done,
        "frozen_within_plan_contract": frozen_mae <= batch.engine.plan.contract,
        "exactly_once": _accounted(stats),
        "mae_within_bound": mae <= bounds_mae["serve_open"],
        "setup_deterministic": len(set(digests)) == 1,
    }
    result = Result(
        attempted=len(results),
        failed=len(results) - len(completed),
        setup_s=setup_s,
        p50_ms=_median(window_p50),
        throughput_per_s=_median(window_rate),
        checks=checks,
        quality={"mae": mae},
        reported={
            "frozen_mae": frozen_mae,
            "open_loop.offered_per_s": OPEN_RATE,
            "open_loop.batch_rows_mean": open_rows / open_batches,
            "tail.p99_ms": 1e3 * float(np.percentile(latency_a, 99)),
            "loadgen.late_us_p99": 1e6 * float(np.percentile(late, 99)),
            "window_p50_ms": window_p50,
            "window_throughput_per_s": window_rate,
        },
    )
    if rec is not None:
        batches = rec.named("inference.batch")
        engine_a = [s[5] - s[4] for s in _in_interval(batches, start_a, end_a)]
        engine_b = [s[5] - s[4] for s in _in_interval(batches, start_b, answered[-1])]
        for i in range(n_a):
            rec.record("request", start_a + due[i], start_a + due[i] + latency_a[i], request=i)
        layers = _setup_layers(rec, n_train, int(round(0.8 * n_train)))
        wall_b = answered[-1] - start_b
        layers.update({
            "inference.freeze_s": _median(rec.durations("inference.freeze")),
            "inference.batch_us": 1e6 * _median(engine_a),
            "inference.us_per_row": 1e6 * sum(engine_b) / n_b,
            "inference.scratch_allocations": float(batch.engine.stats()["scratch_allocations"]),
            # Capacity time per answer that the engine does not account for.
            "serving.overhead_us": 1e6 * (wall_b - sum(engine_b)) / n_b,
            "serving.queue_wait_us": queue_wait_us,
            "serving.batches": float(stats["batching"]["batches"] - after_a["batches"]),
            "serving.batch_rows_mean":
                n_b / (stats["batching"]["batches"] - after_a["batches"]),
            "serving.worker_busy_frac": sum(engine_a) / (end_a - start_a),
            "serving.spans_per_request": spans_per_request,
            "tail.p99_ms": result.reported["tail.p99_ms"],
            "loadgen.late_us_p99": result.reported["loadgen.late_us_p99"],
            "quality.mae": mae,
            "trace.explained_frac": sum(engine_b) / wall_b,
        })
        result.layers = layers
    return result


# -- nmr_monitor -------------------------------------------------------------


def nmr_monitor(seed: int, seconds: int, smoke: bool, rec=None) -> Result:
    """The paper's §III.B.3 comparison run online: ANN then IHM per spectrum.

    The NMR simulator and LocallyConnected training dominate setup; the
    iterative IHM fit dominates the timed phase.
    """
    # Adam at 3e-3 for 6 epochs kept the ANN MAE under 0.031 mol/L on
    # seeds 1-12; 1e-3 for 4 epochs reached 0.10 on one of them.
    n_train, epochs = (200, 1) if smoke else (800, 6)
    per_plateau = 1 if smoke else max(1, round(seconds / 2.5))
    models = mndpa_reaction_models()

    def experiment(run_seed: int, spectra_per_plateau: int):
        return FlowReactorExperiment(
            ReactionKinetics(), VirtualNMRSpectrometer.benchtop(models, seed=run_seed),
            seed=run_seed,
        ).run(DoEPlan.full_factorial(), spectra_per_plateau)

    campaign = experiment(seed, 2 if smoke else 11)
    stream = experiment(seed + 1, per_plateau)
    # Shuffled, so every window mixes operating points: IHM cost depends
    # on the plateau, and DoE order would make window medians differ.
    order = np.random.default_rng(seed + 3).permutation(len(stream.spectra))
    if smoke:
        order = order[:6]
    spectra, truth = stream.spectra[order], stream.true_labels[order]
    names = list(stream.component_names)
    digests = []

    def build():
        with _span(rec, "setup"):
            with _span(rec, "nmr.from_dataset"):
                simulator = NMRSpectrumSimulator.from_dataset(models, campaign)
            with _span(rec, "nmr.generate_dataset", n=n_train):
                x, y = simulator.generate_dataset(n_train, np.random.default_rng(seed))
            model = nmr_conv_topology().build((x.shape[1],), seed=seed)
            model.compile(nn.Adam(0.003), "mse")
            with _span(rec, "nn.fit"):
                model.fit(x, y, epochs=epochs, batch_size=64, seed=seed)
            ihm = IHMAnalysis(models)
            analyzer = ann_analyzer(model)
            analyzer(spectra[0])
            ihm.analyze(spectra[0])
        digests.append(_weights_digest(model))
        return model, analyzer, ihm

    (model, analyzer, ihm), setup_s = _repeat_setup(build, lambda state: None)
    n = len(spectra)
    latency = np.empty(n)
    ann = np.empty((n, len(names)))
    fitted = np.empty((n, len(names)))
    nfev = np.empty(n, dtype=np.int64)
    clock = time.perf_counter
    marks = []
    with _patched(rec, model, "predict", "nn.predict"), _patched(rec, ihm, "analyze", "nmr.ihm"):
        for lo, hi in _window_bounds(n):
            marks.append(clock())
            for i in range(lo, hi):
                with _span(rec, "spectrum", index=i):
                    started = clock()
                    ann[i] = analyzer(spectra[i])[0]
                    outcome = ihm.analyze(spectra[i])
                    latency[i] = clock() - started
                fitted[i] = outcome.concentration_vector(names)
                nfev[i] = outcome.n_function_evaluations
        marks.append(clock())

    bounds = _window_bounds(n)
    window_p50 = [1e3 * _median(latency[lo:hi]) for lo, hi in bounds if hi > lo]
    window_rate = [(hi - lo) / (marks[w + 1] - marks[w])
                   for w, (lo, hi) in enumerate(bounds) if hi > lo]
    finite = bool(np.isfinite(ann).all() and np.isfinite(fitted).all())
    mae = float(np.mean(np.abs(ann - truth)))
    ihm_mae = float(np.mean(np.abs(fitted - truth)))
    bounds_mae = SMOKE_MAE_BOUNDS if smoke else MAE_BOUNDS
    checks = {
        "estimates_finite": finite,
        "mae_within_bound": mae <= bounds_mae["nmr_monitor"],
        "ihm_mae_within_bound": ihm_mae <= bounds_mae["nmr_monitor.ihm"],
        "setup_deterministic": len(set(digests)) == 1,
    }
    failed = int(np.sum(~(np.isfinite(ann).all(axis=1) & np.isfinite(fitted).all(axis=1))))
    result = Result(
        attempted=n,
        failed=failed,
        setup_s=setup_s,
        p50_ms=_median(window_p50),
        throughput_per_s=_median(window_rate),
        checks=checks,
        quality={"mae": mae, "ihm_mae": ihm_mae},
        reported={
            "ihm_nfev": int(nfev.sum()),
            "tail.p90_ms": 1e3 * float(np.percentile(latency, 90)),
            "window_p50_ms": window_p50,
            "window_throughput_per_s": window_rate,
        },
    )
    if rec is not None:
        ihm_s = rec.durations("nmr.ihm")
        predict_s = rec.durations("nn.predict")
        layers = {
            "nn.fit_s": _median(rec.durations("nn.fit")),
            "nmr.simulate_us_per_spectrum": 1e6 * _median(rec.durations("nmr.generate_dataset")) / n_train,
            "nn.predict_us": 1e6 * _median(predict_s),
            "nmr.ihm_ms": 1e3 * _median(ihm_s),
            "nmr.ihm_nfev": float(nfev.sum()),
            "nmr.ihm_us_per_nfev": 1e6 * sum(ihm_s) / float(nfev.sum()),
            "tail.p90_ms": result.reported["tail.p90_ms"],
            "quality.mae": mae,
            "quality.ihm_mae": ihm_mae,
            "trace.explained_frac": (sum(ihm_s) + sum(predict_s)) / (marks[-1] - marks[0]),
        }
        layers["nn.fit_samples_per_s"] = n_train * epochs / layers["nn.fit_s"]
        result.layers = layers
    return result


# -- ms_campaign -------------------------------------------------------------

ACTIVATION_PAIRS = (
    ("relu", "softmax"), ("relu", "linear"), ("selu", "softmax"), ("selu", "linear"),
)


def ms_campaign(seed: int, seconds: int, smoke: bool, rec=None) -> Result:
    """The Fig-5/Fig-6 grid as the CLI runs it, on two worker processes.

    Setup is construction, ``prewarm_datasets()`` and the first wave (one
    cell per worker, which also starts the pool); the timed ``run()``
    resumes the campaign and computes the remaining cells.  ``nn``
    training, ``compute`` dispatch and cache writes do most of the work;
    no serving code runs.
    """
    if smoke:
        spec = CampaignSpec(compounds=TASK, activations=ACTIVATION_PAIRS[:2],
                            sample_sizes=(200, 400), topologies=((8,),),
                            n_eval=128, epochs=1, seed=seed)
    else:
        spec = CampaignSpec(compounds=TASK, activations=ACTIVATION_PAIRS,
                            sample_sizes=(1000, 4000),
                            topologies=((32,), (64, 32), (128,)),
                            epochs=max(1, round(1.6 * seconds)), seed=seed)
    workdir = Path(tempfile.mkdtemp(prefix="campaign-"))
    waves: List[dict] = []

    def build():
        directory = Path(tempfile.mkdtemp(dir=workdir))  # a cold cache each time
        executor = ParallelExecutor("process", max_workers=2)
        orchestrator = SweepOrchestrator(
            spec, ArtifactCache(directory / "cache"),
            journal_path=str(directory / "journal.wal"), executor=executor,
            on_cell=lambda *_: _note_wave(executor, waves),
        )
        with _span(rec, "orchestration.prewarm"), _patched(
            rec, MassSpectrometerSimulator, "generate_dataset", "ms.generate_dataset"
        ):
            orchestrator.prewarm_datasets()
        with _span(rec, "orchestration.first_wave"):
            orchestrator.run(max_cells=executor.max_workers)
        return orchestrator

    def close(orchestrator):
        orchestrator.executor.close()

    orchestrator, setup_s = _repeat_setup(build, close)
    executor = orchestrator.executor
    first_wave = executor.max_workers
    waves.clear()
    try:
        with _patched(rec, executor, "map_tasks", "compute.map_tasks"):
            with _span(rec, "orchestration.run"):
                started = time.perf_counter()
                cold = orchestrator.run(resume=True)
                wall = time.perf_counter() - started
        with _span(rec, "orchestration.replay"):
            started = time.perf_counter()
            replay = orchestrator.run()
            replay_s = time.perf_counter() - started
        cache_stats = orchestrator.cache.stats()
    finally:
        close(orchestrator)
        shutil.rmtree(workdir, ignore_errors=True)
    cells = len(spec.cells())
    complete = cold.report is not None and cold.failed == 0
    mae = float(np.mean([row["mae"] for row in cold.report.rows])) if complete else float("inf")
    bounds_mae = SMOKE_MAE_BOUNDS if smoke else MAE_BOUNDS
    checks = {
        "all_cells_computed": complete and cold.cached == first_wave
        and cold.computed == cells - first_wave,
        "replay_byte_identical": complete and replay.report is not None
        and report_json(replay.report) == report_json(cold.report),
        "replay_all_cached": replay.cached == cells,
        "mae_within_bound": mae <= bounds_mae["ms_campaign"],
    }
    phases = {key: sum(float(w[key]) for w in waves)
              for key in ("pool_startup_s", "dispatch_s", "task_compute_s",
                          "result_wait_s", "wall_s")}
    result = Result(
        attempted=cells - first_wave,
        failed=cold.failed,
        setup_s=setup_s,
        p50_ms=1e3 * _median([w["wall_s"] for w in waves]),
        throughput_per_s=cold.computed / wall,
        checks=checks,
        quality={"mae": mae},
        reported={"run_s": wall, "replay_s": replay_s, "waves": len(waves),
                  **{f"compute.{key}": value for key, value in phases.items()}},
    )
    if rec is not None:
        spectra = sum(spec.sample_sizes) + spec.n_eval
        layers = {f"compute.{key}": phases[key] for key in
                  ("pool_startup_s", "dispatch_s", "task_compute_s", "result_wait_s")}
        layers.update({
            "compute.parallel_efficiency": phases["task_compute_s"] / (executor.max_workers * phases["wall_s"]),
            "compute.cache_entries": float(cache_stats["entries"]),
            "compute.cache_bytes": float(cache_stats["total_bytes"]),
            "orchestration.cells_computed": float(cold.computed),
            "orchestration.replay_s": replay_s,
            # Every setup starts cold, so each generates every dataset once.
            "ms.generate_us_per_spectrum":
                1e6 * sum(rec.durations("ms.generate_dataset")) / (SETUP_REPS * spectra),
            "quality.mae": mae,
            "trace.explained_frac": (phases["pool_startup_s"] + phases["dispatch_s"]
                                     + phases["result_wait_s"]) / wall,
        })
        result.layers = layers
    return result


def _note_wave(executor: ParallelExecutor, waves: List[dict]) -> None:
    """Keep each wave's phase stats; ``on_cell`` fires once per cell."""
    stats = executor.last_map_stats
    if not waves or waves[-1] is not stats:
        waves.append(stats)


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "serve_closed": serve_closed,
    "serve_open": serve_open,
    "nmr_monitor": nmr_monitor,
    "ms_campaign": ms_campaign,
}
