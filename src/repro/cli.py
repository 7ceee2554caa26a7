"""Command-line tools for the toolchain.

The paper packages its flow as tools an operator runs without touching
source code; this module is that surface:

* ``ms-generate``  — Tools 1+3: generate a labelled simulated MS dataset;
* ``train``        — Tool 4: train a topology on a dataset file;
* ``evaluate``     — Tool 4 backend: score a trained model on a dataset;
* ``table2``       — predict embedded execution costs for a trained model;
* ``freeze``       — compile a checkpoint into a frozen inference plan
  envelope (float32 or calibrated int8), or inspect/verify one;
* ``nmr-campaign`` — run the virtual NMR DoE campaign and save its spectra;
* ``telemetry``    — render exported span/metric JSONL files (or a live
  instrumented demo workload) as a human-readable report;
* ``cache``        — inspect, verify or clear a content-addressed
  artifact cache directory (``repro cache stats --dir <path>``);
* ``sweep``        — plan, run (``--resume``-able) and report the
  Fig-5/Fig-6 campaign grid through the sweep orchestrator.

Datasets are ``.npz`` files with arrays ``x``, ``y`` and a JSON-encoded
``meta`` record.  Run ``python -m repro.cli <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _save_dataset(path: str, x: np.ndarray, y: np.ndarray, meta: dict) -> None:
    meta_blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, x=x, y=y, meta=meta_blob)


def _load_dataset(path: str):
    with np.load(path) as data:
        x, y = data["x"], data["y"]
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    return x, y, meta


def _cmd_ms_generate(args: argparse.Namespace) -> int:
    from repro.ms import (
        InstrumentCharacteristics,
        MassSpectrometerSimulator,
        MzAxis,
        default_library,
    )

    compounds = [c.strip() for c in args.compounds.split(",") if c.strip()]
    axis = MzAxis(args.mz_start, args.mz_stop, args.mz_step)
    simulator = MassSpectrometerSimulator(
        InstrumentCharacteristics(), axis, default_library()
    )
    rng = np.random.default_rng(args.seed)
    x, y = simulator.generate_dataset(compounds, args.n, rng)
    meta = {
        "kind": "ms_simulated",
        "compounds": compounds,
        "axis": [axis.start, axis.stop, axis.step],
        "seed": args.seed,
    }
    _save_dataset(args.out, x, y, meta)
    print(f"wrote {args.n} spectra x {axis.size} points to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro import nn
    from repro.core import (
        mlp_topology,
        nmr_conv_topology,
        table1_topology,
    )

    x, y, meta = _load_dataset(args.data)
    n_outputs = y.shape[1]
    if args.topology == "table1":
        topology = table1_topology(n_outputs)
    elif args.topology == "nmr_conv":
        topology = nmr_conv_topology(n_outputs)
    elif args.topology == "mlp":
        topology = mlp_topology(n_outputs)
    else:
        raise SystemExit(f"unknown topology {args.topology!r}")

    model = topology.build(x.shape[1:], seed=args.seed)
    model.compile(nn.Adam(args.learning_rate), args.loss)
    split = int(0.8 * x.shape[0])
    history = model.fit(
        x[:split], y[:split],
        epochs=args.epochs, batch_size=args.batch_size,
        validation_data=(x[split:], y[split:]),
        seed=args.seed, verbose=args.verbose,
    )
    val = history["val_loss"][-1]
    path = nn.save_model(model, args.out)
    print(f"trained {topology.name}: final val_{args.loss} {val:.6f}; "
          f"saved to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro import nn

    model = nn.load_model(args.model)
    x, y, meta = _load_dataset(args.data)
    predictions = model.predict(x)
    mae = nn.mean_absolute_error(predictions, y)
    mse = nn.mean_squared_error(predictions, y)
    r2 = nn.r2_score(predictions, y)
    names = meta.get("compounds") or meta.get("components") or [
        f"output{i}" for i in range(y.shape[1])
    ]
    print(f"samples: {x.shape[0]}  MAE: {mae:.6f}  MSE: {mse:.6e}  R2: {r2:.4f}")
    for j, name in enumerate(names):
        per = float(np.mean(np.abs(predictions[:, j] - y[:, j])))
        print(f"  {name:14s} MAE {per:.6f}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro import nn
    from repro.embedded import TABLE2_PLATFORMS
    from repro.embedded.cost_model import InferenceCostModel

    model = nn.load_model(args.model)
    print(f"{'platform':22s}{'time/s':>10}{'power/W':>10}{'energy/J':>10}")
    for key, spec in TABLE2_PLATFORMS.items():
        estimate = InferenceCostModel(spec).estimate(
            model, args.samples, args.batch_size
        )
        print(f"{spec.name:22s}{estimate.execution_time_s:10.2f}"
              f"{estimate.power_w:10.2f}{estimate.energy_j:10.2f}")
    return 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    from repro.storage.integrity import StorageError

    if args.inspect or args.verify:
        from repro.inference import inspect_plan, verify_plan

        try:
            if args.verify:
                report = verify_plan(args.model)
                print(
                    f"plan OK: {report['name']} [{report['dtype']}] "
                    f"{report['fused_op_count']} fused ops, "
                    f"{report['weight_bytes']:,} weight bytes, "
                    f"contract MAE <= {report['contract_mae']:g}"
                )
            else:
                print(json.dumps(inspect_plan(args.model), indent=2,
                                 sort_keys=True))
        except StorageError as error:
            print(f"plan check FAILED: {error}", file=sys.stderr)
            return 1
        return 0

    from repro import nn
    from repro.inference import UnsupportedLayerError, freeze, save_plan

    model = nn.load_model(args.model)
    calibration = None
    if args.calibrate:
        x, _, _ = _load_dataset(args.calibrate)
        calibration = x[: args.calibrate_samples]
    try:
        plan = freeze(
            model,
            dtype=args.dtype,
            per_channel=args.per_channel,
            calibration=calibration,
            contract=args.contract,
        )
    except UnsupportedLayerError as error:
        print(f"cannot freeze: {error}", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        stem = args.model[:-4] if args.model.endswith(".npz") else args.model
        out = stem + ".plan"
    path = save_plan(plan, out)
    print(plan.describe())
    if plan.calibration:
        print(
            f"calibrated on {plan.calibration['n_samples']} samples: "
            f"MAE delta {plan.calibration['mae_delta']:.3e}, "
            f"max {plan.calibration['max_abs_delta']:.3e}"
        )
    print(f"saved plan envelope to {path}")
    return 0


def _cmd_nmr_campaign(args: argparse.Namespace) -> int:
    from repro.nmr import (
        DoEPlan,
        FlowReactorExperiment,
        ReactionKinetics,
        VirtualNMRSpectrometer,
        mndpa_reaction_models,
    )

    models = mndpa_reaction_models()
    experiment = FlowReactorExperiment(
        ReactionKinetics(),
        VirtualNMRSpectrometer.benchtop(models, seed=args.seed),
        seed=args.seed,
    )
    dataset = experiment.run(
        DoEPlan.full_factorial(), args.spectra_per_plateau
    )
    meta = {
        "kind": "nmr_campaign",
        "components": list(dataset.component_names),
        "plateaus": int(dataset.plateau_ids.max()) + 1,
        "seed": args.seed,
    }
    _save_dataset(args.out, dataset.spectra, dataset.reference_labels, meta)
    print(f"wrote {len(dataset)} spectra "
          f"({meta['plateaus']} plateaus) to {args.out}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.observability import (
        format_metric_dicts,
        format_span_dicts,
        read_jsonl,
        text_dump,
    )

    shown = False
    if args.metrics:
        print(format_metric_dicts(read_jsonl(args.metrics)))
        shown = True
    if args.spans:
        if shown:
            print()
        print(format_span_dicts(read_jsonl(args.spans)))
        shown = True
    if shown:
        return 0

    if args.demo:
        import numpy as np

        from repro.serving import AnalysisService

        rng = np.random.default_rng(0)
        service = AnalysisService(
            lambda data: np.array([float(np.mean(data))]),
            workers=2,
            queue_size=8,
            expected_length=32,
        )
        with service:
            for _ in range(16):
                service.analyze(rng.random(32))
            service.analyze(rng.random(7))  # refused: wrong length
    # With neither files nor --demo this dumps whatever the process has
    # collected so far (typically empty — telemetry is per-process).
    print(text_dump())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.compute import ArtifactCache

    cache = ArtifactCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"entries: {stats['entries']}  "
              f"total bytes: {stats['total_bytes']}  "
              f"quarantined: {stats['quarantined']}")
        for row in cache.entries():
            print(f"  {row['key'][:16]}...  {row['bytes']:>12} bytes")
        return 0
    if args.action == "verify":
        report = cache.verify()
        corrupt = 0
        for key, status in sorted(report.items()):
            print(f"  {key[:16]}...  {status}")
            if status != "ok":
                corrupt += 1
        print(f"verified {len(report)} entries, {corrupt} corrupt "
              f"({'quarantined' if corrupt else 'nothing quarantined'})")
        return 1 if corrupt else 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.ms.simulator import MassSpectrometerSimulator
    from repro.uncertainty import (
        AbstentionPolicy,
        ConformalCalibrator,
        EnsembleSpec,
        UncertaintyGate,
        train_ensemble,
    )

    compounds = tuple(c for c in args.compounds.split(",") if c)
    spec = EnsembleSpec(
        compounds=compounds,
        axis=(1.0, 50.0, 0.5),
        n_train=args.n,
        epochs=args.epochs,
        hidden_units=(16,),
        n_members=args.members,
        seed=args.seed,
    )
    predictor = train_ensemble(spec)
    simulator = MassSpectrometerSimulator.from_spec(
        spec.axis, spec.characteristics
    )
    cal_x, cal_y = simulator.generate_dataset(
        compounds, max(64, args.n // 4), np.random.default_rng(args.seed + 1)
    )
    test_x, test_y = simulator.generate_dataset(
        compounds, max(64, args.n // 4), np.random.default_rng(args.seed + 2)
    )
    calibrator = ConformalCalibrator(alpha=args.alpha)
    calibrator.calibrate(predictor.predict(cal_x), cal_y)
    report = calibrator.report()
    prediction = predictor.predict(test_x)
    coverage = calibrator.coverage(prediction, test_y)
    widths = calibrator.width(prediction)

    print(f"ensemble: {spec.n_members} members x {spec.epochs} epochs "
          f"on {spec.n_train} spectra ({','.join(compounds)})")
    print("calibration:")
    print(f"  alpha:            {report['alpha']:.3f}  "
          f"(nominal coverage {report['nominal_coverage']:.0%})")
    print(f"  q_hat:            {report['q_hat']:.4f}")
    print(f"  calibration rows: {report['n_calibration']}")
    print(f"held-out ({len(test_x)} rows):")
    print(f"  empirical coverage: {coverage:.1%}")
    print(f"  interval width p50: {float(np.median(widths)):.4f}  "
          f"p95: {float(np.percentile(widths, 95)):.4f}")

    if not args.demo:
        return 0

    print()
    print("-- OOD abstention walkthrough "
          "(in-distribution vs noise spectra) --")
    from repro.serving import AnalysisService

    policy = AbstentionPolicy(
        max_width=4.0 * float(np.percentile(widths, 95))
    )
    gate = UncertaintyGate(predictor, calibrator, policy)
    service = AnalysisService(
        analyzer=lambda data: predictor.predict_mean(data[np.newaxis, :])[0],
        workers=2,
        queue_size=32,
        expected_length=test_x.shape[1],
        uncertainty=gate,
    )
    rng = np.random.default_rng(args.seed + 3)
    with service:
        for row in test_x[:8]:
            result = service.analyze(row)
            label = type(result).__name__
            print(f"  in-dist  -> {label}")
        for _ in range(8):
            noise = rng.random(test_x.shape[1])
            noise /= noise.max()
            result = service.analyze(noise)
            label = type(result).__name__
            extra = (
                f" (reason={result.reason}, width={result.width:.3f})"
                if label == "Abstained" else ""
            )
            print(f"  noise    -> {label}{extra}")
    stats = service.stats()
    print(f"served: {stats['completed']}  abstained: {stats['abstained']} "
          f"{stats['abstentions']}  abstention rate: "
          f"{stats['abstention_rate']:.1%}")
    return 0


def _sweep_spec(args: argparse.Namespace):
    """Build the CampaignSpec a ``sweep`` invocation describes."""
    from repro.orchestration import CampaignSpec

    compounds = tuple(c.strip() for c in args.compounds.split(",") if c.strip())
    activations = tuple(
        tuple(part.strip() for part in pair.split(":"))
        for pair in args.activations.split(",") if pair.strip()
    )
    sample_sizes = tuple(
        int(n) for n in args.sample_sizes.split(",") if n.strip()
    )
    topologies = tuple(
        tuple(int(units) for units in stack.split("x") if units.strip())
        for stack in args.topologies.split(",") if stack.strip()
    )
    return CampaignSpec(
        compounds=compounds,
        activations=activations,
        sample_sizes=sample_sizes,
        topologies=topologies,
        axis=(args.mz_start, args.mz_stop, args.mz_step),
        n_eval=args.n_eval,
        epochs=args.epochs,
        seed=args.seed,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.compute import ArtifactCache, ParallelExecutor
    from repro.orchestration import (
        CampaignInProgressError,
        IncompleteCampaignError,
        SweepOrchestrator,
        report_json,
    )

    spec = _sweep_spec(args)
    cache = ArtifactCache(args.cache_dir)
    orchestrator = SweepOrchestrator(
        spec, cache, journal_path=args.journal
    )

    if args.sweep_action == "plan":
        status = orchestrator.to_status()
        print(f"campaign {status['campaign_key'][:16]}...  "
              f"{status['cells']} cells "
              f"({status['cached']} cached, {status['pending']} pending)")
        for entry in status["plan"]:
            state = "cached " if entry["cached"] else "pending"
            print(f"  {state}  {entry['cell_id']}")
        return 0

    if args.sweep_action == "run":
        with ParallelExecutor(
            backend=args.backend, max_workers=args.workers
        ) as executor:
            orchestrator.executor = executor
            orchestrator.prewarm_datasets()
            try:
                result = orchestrator.run(
                    resume=args.resume, max_cells=args.max_cells
                )
            except CampaignInProgressError as error:
                print(f"refused: {error}")
                return 1
        print(f"computed {result.computed}  cached {result.cached}  "
              f"failed {result.failed}")
        if result.paused:
            print("paused with cells pending; continue with "
                  "`repro sweep run --resume`")
            return 0
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report_json(result.report))
            print(f"wrote campaign report to {args.out}")
        best = result.report.best_cell() if result.report.rows else None
        if best is not None:
            print(f"best cell: {best['cell_id']}  mae {best['mae']:.6f}")
        return 1 if result.failed else 0

    if args.sweep_action == "report":
        try:
            report = orchestrator.report(strict=not args.partial)
        except IncompleteCampaignError as error:
            print(f"incomplete: {error}")
            return 1
        payload = report.to_payload()
        print(f"campaign {payload['campaign_key'][:16]}...  "
              f"{payload['cells_completed']}/{payload['cells_total']} cells")
        sizes = payload["sample_sizes"]
        header = "".join(f"{f'n={n}':>12}" for n in sizes)
        print(f"{'activation (mean mae)':26s}{header}")
        for activation_id, row in sorted(
            payload["accuracy_vs_samples"].items()
        ):
            cells = "".join(
                f"{value:12.6f}" if value is not None else f"{'-':>12}"
                for value in row
            )
            print(f"  {activation_id:24s}{cells}")
        print(f"{'topology (mean mae)':26s}{header}")
        for topology_id, row in sorted(payload["topology_surface"].items()):
            cells = "".join(
                f"{value:12.6f}" if value is not None else f"{'-':>12}"
                for value in row
            )
            print(f"  {topology_id:24s}{cells}")
        if report.rows:
            best = report.best_cell()
            print(f"best cell: {best['cell_id']}  mae {best['mae']:.6f}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report_json(report))
            print(f"wrote campaign report to {args.out}")
        return 0

    raise SystemExit(f"unknown sweep action {args.sweep_action!r}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MS/NMR AI toolchain commands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("ms-generate", help="generate simulated MS spectra")
    gen.add_argument("--compounds", default="N2,O2,Ar,CO2")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--mz-start", type=float, default=1.0)
    gen.add_argument("--mz-stop", type=float, default=50.0)
    gen.add_argument("--mz-step", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_ms_generate)

    train = sub.add_parser("train", help="train a topology on a dataset")
    train.add_argument("--data", required=True)
    train.add_argument("--topology", default="table1",
                       choices=["table1", "nmr_conv", "mlp"])
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=64)
    train.add_argument("--learning-rate", type=float, default=0.003)
    train.add_argument("--loss", default="mae", choices=["mae", "mse"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--verbose", action="store_true")
    train.add_argument("--out", required=True)
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="score a model on a dataset")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.set_defaults(func=_cmd_evaluate)

    table2 = sub.add_parser("table2", help="embedded cost prediction")
    table2.add_argument("--model", required=True)
    table2.add_argument("--samples", type=int, default=21_600)
    table2.add_argument("--batch-size", type=int, default=128)
    table2.set_defaults(func=_cmd_table2)

    frz = sub.add_parser(
        "freeze",
        help="compile a checkpoint into a frozen inference plan "
        "(or --inspect/--verify an existing plan envelope)",
    )
    frz.add_argument(
        "model",
        help="model checkpoint (.npz) to freeze; with --inspect/--verify, "
        "an existing .plan envelope",
    )
    frz.add_argument(
        "--out", default=None, help="plan output path (default: <model>.plan)"
    )
    frz.add_argument("--dtype", choices=["float32", "int8"], default="float32")
    frz.add_argument(
        "--per-channel", dest="per_channel", action="store_true",
        help="per-output-channel int8 scales instead of per-tensor",
    )
    frz.add_argument(
        "--calibrate", default=None,
        help="dataset .npz; measures the frozen-vs-reference delta at freeze "
        "time and records it on the plan",
    )
    frz.add_argument("--calibrate-samples", type=int, default=256)
    frz.add_argument(
        "--contract", type=float, default=None,
        help="override the pinned per-dtype MAE contract",
    )
    frz.add_argument(
        "--inspect", action="store_true",
        help="print a JSON summary of an existing plan envelope",
    )
    frz.add_argument(
        "--verify", action="store_true",
        help="integrity-check an existing plan envelope (exit 1 on damage)",
    )
    frz.set_defaults(func=_cmd_freeze)

    campaign = sub.add_parser("nmr-campaign", help="run the virtual NMR DoE")
    campaign.add_argument("--spectra-per-plateau", type=int, default=11)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--out", required=True)
    campaign.set_defaults(func=_cmd_nmr_campaign)

    telemetry = sub.add_parser(
        "telemetry", help="dump collected telemetry as a readable report"
    )
    telemetry.add_argument(
        "--spans", help="span JSONL file written by export_spans_jsonl"
    )
    telemetry.add_argument(
        "--metrics", help="metrics JSONL file written by export_metrics_jsonl"
    )
    telemetry.add_argument(
        "--demo", action="store_true",
        help="run a small instrumented serving workload, then dump it",
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    cache = sub.add_parser(
        "cache", help="inspect, verify or clear an artifact cache directory"
    )
    cache.add_argument(
        "action", choices=["stats", "verify", "clear"],
        help="stats: list entries and counters; verify: checksum every "
             "entry (quarantines failures, exit 1 if any); clear: remove "
             "all live entries (quarantine is kept)",
    )
    cache.add_argument(
        "--dir", required=True, help="cache root directory"
    )
    cache.set_defaults(func=_cmd_cache)

    uncertainty = sub.add_parser(
        "uncertainty",
        help="train a small ensemble, render its conformal calibration "
             "table; --demo walks an OOD abstention scenario",
    )
    uncertainty.add_argument("--compounds", default="H2,N2,O2")
    uncertainty.add_argument("--members", type=int, default=3)
    uncertainty.add_argument("--alpha", type=float, default=0.1)
    uncertainty.add_argument("--n", type=int, default=256)
    uncertainty.add_argument("--epochs", type=int, default=3)
    uncertainty.add_argument("--seed", type=int, default=0)
    uncertainty.add_argument(
        "--demo", action="store_true",
        help="serve in-distribution and noise spectra through a gated "
             "AnalysisService and show Completed vs Abstained outcomes",
    )
    uncertainty.set_defaults(func=_cmd_uncertainty)

    sweep = sub.add_parser(
        "sweep",
        help="plan, run (--resume-able) or report the Fig-5/Fig-6 "
             "campaign grid",
    )
    sweep.add_argument(
        "sweep_action", choices=["plan", "run", "report"],
        help="plan: list cells and cached/pending state; run: execute "
             "pending cells (journaled; --resume continues an "
             "interrupted run); report: render the aggregated surface",
    )
    sweep.add_argument("--cache-dir", required=True,
                       help="artifact cache root (cells + datasets)")
    sweep.add_argument("--journal",
                       help="campaign journal path (enables kill/resume)")
    sweep.add_argument("--compounds", default="N2,O2,CO2")
    sweep.add_argument(
        "--activations", default="relu:softmax,selu:softmax",
        help="comma-separated hidden:output activation pairs",
    )
    sweep.add_argument(
        "--sample-sizes", default="256,1024",
        help="comma-separated training-set sizes",
    )
    sweep.add_argument(
        "--topologies", default="32,64x32",
        help="comma-separated hidden stacks, units joined by 'x' "
             "(e.g. 32,64x32)",
    )
    sweep.add_argument("--mz-start", type=float, default=1.0)
    sweep.add_argument("--mz-stop", type=float, default=50.0)
    sweep.add_argument("--mz-step", type=float, default=0.5)
    sweep.add_argument("--n-eval", type=int, default=256)
    sweep.add_argument("--epochs", type=int, default=4)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--backend", default="serial",
                       choices=["serial", "thread", "process"])
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--resume", action="store_true",
                       help="continue a journal-recorded unfinished run")
    sweep.add_argument("--max-cells", type=int, default=None,
                       help="pause after computing this many new cells")
    sweep.add_argument("--partial", action="store_true",
                       help="report: allow summarizing an incomplete "
                            "campaign")
    sweep.add_argument("--out", help="write the report JSON here")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
