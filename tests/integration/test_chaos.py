"""Chaos integration: every reliability mechanism under injected faults.

With all fault classes active at well above 5% per scan, the MS toolchain
must still characterize/train end to end, a 50-step closed NMR control
loop must finish with blind periods holding the actuator, and a
killed training sweep must resume to the same metrics — no unhandled
exception anywhere.
"""

import numpy as np
import pytest

from repro.core.closed_loop import ClosedLoopSimulation, ihm_analyzer
from repro.core.pipeline import MSToolchain
from repro.core.topologies import mlp_topology
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import VirtualMassSpectrometer
from repro.ms.mixtures import MassFlowControllerRig, default_mixture_plan
from repro.ms.spectrum import MzAxis
from repro.nmr import (
    IHMAnalysis,
    ReactionKinetics,
    VirtualNMRSpectrometer,
    mndpa_reaction_models,
)
from repro.reliability import (
    FaultConfig,
    FaultInjector,
    RetryPolicy,
    acquire_with_retry,
    finite_intensities,
)

TASK = DEFAULT_TASK_COMPOUNDS
FAULT_PROBABILITY = 0.08  # well above the 5% acceptance floor


def _policy(max_attempts=10):
    return RetryPolicy(
        max_attempts=max_attempts, base_delay=0.0, sleep=lambda s: None
    )


@pytest.fixture(scope="module")
def chaotic_toolchain_run():
    axis = MzAxis(1.0, 50.0, 0.2)
    instrument = VirtualMassSpectrometer(
        contamination={"H2O": 0.03}, library=default_library(), seed=1, axis=axis
    )
    injector = FaultInjector(
        instrument, FaultConfig.all_faults(FAULT_PROBABILITY), seed=11
    )
    rig = MassFlowControllerRig(injector, seed=1)
    chain = MSToolchain(TASK, axis=axis)

    measurements, m_id = chain.collect_reference_measurements(
        rig, samples_per_mixture=15, retry_policy=_policy()
    )
    simulator, characterization, s_id = chain.build_simulator(measurements, m_id)
    dataset, d_id = chain.generate_training_data(
        simulator, 3000, np.random.default_rng(0), s_id
    )
    model, history, val_mae, _ = chain.train_network(
        dataset,
        topology=mlp_topology(len(TASK), hidden_units=(32,)),
        epochs=6,
        dataset_artifact=d_id,
        seed=0,
    )
    eval_plan = default_mixture_plan(TASK, 8, seed=77)
    eval_measurements = [
        acquire_with_retry(
            rig.measure_mixture, mixture,
            policy=_policy(), validate=finite_intensities,
        )
        for mixture in eval_plan.mixtures
        for _ in range(3)
    ]
    report = chain.evaluate_on_measurements(model, eval_measurements)
    return {
        "injector": injector,
        "measurements": measurements,
        "val_mae": val_mae,
        "report": report,
    }


class TestChaoticMSToolchain:
    def test_all_fault_classes_fired(self, chaotic_toolchain_run):
        counts = chaotic_toolchain_run["injector"].fault_counts
        for kind in ("dropped_scan", "saturation", "dead_channels",
                     "spike", "baseline_jump"):
            assert counts.get(kind, 0) > 0, f"{kind} never fired"

    def test_retries_replaced_every_lost_scan(self, chaotic_toolchain_run):
        injector = chaotic_toolchain_run["injector"]
        assert len(chaotic_toolchain_run["measurements"]) == 14 * 15
        # Drops and NaN scans forced re-acquisition, so the instrument saw
        # more scans than the series needed.
        assert injector.scans > 14 * 15

    def test_no_nan_reached_characterization(self, chaotic_toolchain_run):
        for spectrum, _ in chaotic_toolchain_run["measurements"]:
            assert np.isfinite(spectrum.intensities).all()

    def test_network_still_trains_to_useful_accuracy(self, chaotic_toolchain_run):
        assert np.isfinite(chaotic_toolchain_run["val_mae"])
        assert chaotic_toolchain_run["val_mae"] < 0.05

    def test_measured_evaluation_completes(self, chaotic_toolchain_run):
        report = chaotic_toolchain_run["report"]
        assert np.isfinite(report["mean"])
        assert 0.0 < report["mean"] < 0.25


class TestChaoticClosedLoop:
    def test_fifty_steps_complete_with_degradation(self):
        models = mndpa_reaction_models()
        spectrometer = VirtualNMRSpectrometer(
            models, noise_sigma=0.002, shift_jitter=0.001,
            broadening_jitter=0.01, baseline_amplitude=0.001,
            phase_error_sigma=0.005, peak_jitter=0.0005,
            matrix_shift_coeff=0.0, seed=0,
        )
        injector = FaultInjector(
            spectrometer, FaultConfig.all_faults(FAULT_PROBABILITY), seed=5
        )
        ihm = IHMAnalysis(models, fit_shifts=False, fit_broadening=False)
        target = 0.15
        simulation = ClosedLoopSimulation(
            ReactionKinetics(), injector, ihm_analyzer(ihm),
            target_product=target, retry_policy=_policy(max_attempts=4),
        )
        trajectory = simulation.run(50, np.random.default_rng(0))

        assert len(trajectory) == 50
        assert sum(step.degraded for step in trajectory) > 0
        assert injector.fault_counts.get("dropped_scan", 0) > 0
        # Despite the chaos the loop still holds the setpoint loosely.
        final = np.mean([s.true_product for s in trajectory[-10:]])
        assert final == pytest.approx(target, rel=0.25)
        # Every estimate the controller saw was finite.
        assert all(np.isfinite(s.estimated_product) for s in trajectory)


class TestChaoticSweepResume:
    def test_killed_sweep_resumes_to_same_metrics(self, tmp_path):
        from repro.core.datasets import SpectraDataset
        from repro.core.training_service import TrainingConfig, TrainingService
        from repro.compute import ArtifactCache

        rng = np.random.default_rng(0)
        x = rng.random((120, 12))
        y = x @ rng.random((12, 3))
        y = y / y.sum(axis=1, keepdims=True)
        dataset = SpectraDataset(x, y, ("a", "b", "c"))
        specs = [
            mlp_topology(3, hidden_units=(16,)),
            mlp_topology(3, hidden_units=(8, 8)),
        ]
        config = TrainingConfig(epochs=3, batch_size=32, patience=None)

        baseline = TrainingService(config).train_all(specs, dataset)

        cache = ArtifactCache(tmp_path)

        class Killed(RuntimeError):
            pass

        def kill(message):
            if "mlp_8x8" in message:
                raise Killed(message)

        with pytest.raises(Killed):
            TrainingService(config, cache=cache).train_all(
                specs, dataset, progress=kill
            )
        resumed = TrainingService(config, cache=cache).train_all(
            specs, dataset
        )
        assert [run.resumed for run in resumed] == [True, False]
        assert [run.metrics for run in resumed] == [
            run.metrics for run in baseline
        ]
