"""Integration: commissioning -> guard -> drift alarm -> recalibration."""

import numpy as np
import pytest

from repro.core import MSToolchain, mlp_topology
from repro.core.lifecycle import DriftMonitor
from repro.ms import (
    MassFlowControllerRig,
    PlausibilityChecker,
    VirtualMassSpectrometer,
    default_library,
)
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS
from repro.ms.mixtures import default_mixture_plan
from repro.ms.spectrum import MzAxis

TASK = DEFAULT_TASK_COMPOUNDS
AXIS = MzAxis(1.0, 50.0, 0.25)


@pytest.fixture(scope="module")
def commissioned():
    instrument = VirtualMassSpectrometer(
        library=default_library(), axis=AXIS, drift_per_hour=0.01, seed=2
    )
    rig = MassFlowControllerRig(instrument, seed=2)
    chain = MSToolchain(TASK, axis=AXIS)
    measurements, m_id = chain.collect_reference_measurements(rig, 10)
    simulator, _, s_id = chain.build_simulator(measurements, m_id)
    dataset, d_id = chain.generate_training_data(
        simulator, 800, np.random.default_rng(0), s_id
    )
    model, _, _, _ = chain.train_network(
        dataset, topology=mlp_topology(len(TASK), hidden_units=(32,)),
        epochs=4, dataset_artifact=d_id,
    )
    return instrument, rig, chain, simulator, model


class TestGuardedOperation:
    def test_plausibility_guard_accepts_production_samples(self, commissioned):
        instrument, rig, chain, simulator, model = commissioned
        checker = PlausibilityChecker(simulator, TASK)
        plan = default_mixture_plan(TASK, len(TASK), seed=5)
        accepted = 0
        for mixture in plan.mixtures:
            spectrum = instrument.measure(mixture).normalized("max")
            if checker.check(spectrum).plausible:
                accepted += 1
        assert accepted >= len(plan.mixtures) - 1

    def test_guard_rejects_foreign_substance(self, commissioned):
        instrument, _, _, simulator, _ = commissioned
        checker = PlausibilityChecker(simulator, TASK)
        spectrum = instrument.measure({"N2": 0.5, "H2S": 0.5}).normalized("max")
        assert not checker.check(spectrum).plausible


class TestDriftAndRecalibration:
    def test_drift_alarm_fires_and_recalibration_clears_it(self, commissioned):
        instrument, rig, chain, simulator, _ = commissioned
        monitor = DriftMonitor(
            simulator, TASK, alarm_factor=2.0, smoothing=0.4, warmup=3,
            baseline_samples=80, rng=np.random.default_rng(0),
        )
        plan = default_mixture_plan(TASK, len(TASK), seed=9)

        # Nominal stream: no alarm.
        status = None
        for mixture in plan.mixtures:
            spectrum = instrument.measure(mixture).normalized("max")
            status = monitor.observe(spectrum)
        assert status is not None and not status.drifted

        # Heavy ageing: the alarm must fire within a few observations.
        instrument.advance_time(300.0)
        drifted = False
        for mixture in plan.mixtures * 3:
            spectrum = instrument.measure(mixture).normalized("max")
            drifted = monitor.observe(spectrum).drifted
            if drifted:
                break
        assert drifted

        # Recalibrate against the drifted device; the fresh monitor's
        # baseline reflects the new state and stays quiet.
        eval_measurements = rig.measure_plan(
            default_mixture_plan(TASK, len(TASK), seed=11), 2
        )
        result = chain.run(
            rig, eval_measurements, samples_per_mixture=10,
            n_training_spectra=800, epochs=4,
            topology=mlp_topology(len(TASK), hidden_units=(32,)),
        )
        fresh = DriftMonitor(
            result.simulator, TASK, alarm_factor=2.0, smoothing=0.4,
            warmup=3, baseline_samples=80, rng=np.random.default_rng(1),
        )
        for mixture in plan.mixtures:
            spectrum = instrument.measure(mixture).normalized("max")
            status = fresh.observe(spectrum)
        assert not status.drifted
