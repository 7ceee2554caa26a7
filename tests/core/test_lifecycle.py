"""Unit tests for drift monitoring and recalibration."""

import numpy as np
import pytest

from repro.core.lifecycle import DriftMonitor, DriftStatus
from repro.observability import scoped
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import InstrumentCharacteristics, VirtualMassSpectrometer
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis

TASK = DEFAULT_TASK_COMPOUNDS
AXIS = MzAxis(1.0, 50.0, 0.2)


@pytest.fixture(scope="module")
def simulator():
    return MassSpectrometerSimulator(
        InstrumentCharacteristics(), AXIS, default_library()
    )


def _monitor(simulator, **kwargs):
    defaults = dict(alarm_factor=2.5, smoothing=0.3, warmup=3,
                    baseline_samples=60, rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return DriftMonitor(simulator, TASK, **defaults)


class TestBaseline:
    def test_baseline_established_from_simulated_spectra(self, simulator):
        monitor = _monitor(simulator)
        assert 0.0 <= monitor.baseline_residual < 0.2

    def test_constructor_validation(self, simulator):
        with pytest.raises(ValueError):
            _monitor(simulator, alarm_factor=1.0)
        with pytest.raises(ValueError):
            _monitor(simulator, alarm_factor=float("nan"))
        with pytest.raises(ValueError):
            _monitor(simulator, smoothing=0.0)
        with pytest.raises(ValueError):
            _monitor(simulator, warmup=0)


class TestObservation:
    def test_nominal_spectra_do_not_alarm(self, simulator):
        monitor = _monitor(simulator)
        x, _ = simulator.generate_dataset(TASK, 15, np.random.default_rng(1))
        statuses = [monitor.observe(row) for row in x]
        assert not any(s.drifted for s in statuses)
        assert statuses[-1].observations == 15

    def test_unknown_compound_stream_alarms(self, simulator):
        monitor = _monitor(simulator)
        rng = np.random.default_rng(2)
        drifted = False
        for _ in range(12):
            spectrum = simulator.simulate(
                {"N2": 0.4, "H2S": 0.6}, rng=rng
            ).normalized("max")
            status = monitor.observe(spectrum)
            drifted = drifted or status.drifted
        assert drifted

    def test_no_alarm_during_warmup(self, simulator):
        monitor = _monitor(simulator, warmup=10)
        rng = np.random.default_rng(3)
        for _ in range(5):
            spectrum = simulator.simulate({"EtOH": 1.0}, rng=rng).normalized("max")
            status = monitor.observe(spectrum)
        assert not status.drifted
        assert status.severity > 1.0  # residual already elevated

    def test_reset_clears_state(self, simulator):
        monitor = _monitor(simulator)
        x, _ = simulator.generate_dataset(TASK, 3, np.random.default_rng(4))
        for row in x:
            monitor.observe(row)
        monitor.reset()
        status = monitor.observe(x[0])
        assert status.observations == 1

    def test_severity_is_relative_to_baseline(self, simulator):
        monitor = _monitor(simulator)
        x, _ = simulator.generate_dataset(TASK, 5, np.random.default_rng(5))
        for row in x:
            status = monitor.observe(row)
        assert status.severity == pytest.approx(
            status.ewma_residual / status.baseline_residual
        )


class TestRecalibrate:
    def test_recalibration_returns_fresh_toolchain_result(self, simulator):
        from repro.core.pipeline import MSToolchain
        from repro.core.topologies import mlp_topology
        from repro.ms.mixtures import MassFlowControllerRig, default_mixture_plan

        instrument = VirtualMassSpectrometer(
            library=default_library(), axis=AXIS, seed=3
        )
        rig = MassFlowControllerRig(instrument, seed=3)
        chain = MSToolchain(TASK, axis=AXIS)
        eval_measurements = rig.measure_plan(
            default_mixture_plan(TASK, len(TASK), seed=4), 2
        )
        result = chain.run(
            rig, eval_measurements,
            samples_per_mixture=5, n_training_spectra=400, epochs=2,
            topology=mlp_topology(len(TASK), hidden_units=(16,)),
        )
        assert result.validation_mae < 0.25
        assert set(result.artifact_ids) == {
            "measurements", "simulator", "dataset", "network",
        }
        # The recalibrated network has a complete provenance chain.
        ancestors = chain.provenance.ancestors(result.artifact_ids["network"])
        assert result.artifact_ids["measurements"] in ancestors


class TestDriftStatus:
    def test_infinite_severity_on_zero_baseline(self):
        status = DriftStatus(
            drifted=True, ewma_residual=0.5, baseline_residual=0.0, observations=5
        )
        assert status.severity == float("inf")

    def test_unit_severity_when_both_zero(self):
        status = DriftStatus(
            drifted=False, ewma_residual=0.0, baseline_residual=0.0, observations=1
        )
        assert status.severity == 1.0

    def test_negative_baseline_treated_as_degenerate(self):
        # A negative baseline is as degenerate as a zero one (documented
        # in the severity docstring): any positive residual is infinitely
        # anomalous, no residual is nominal.
        anomalous = DriftStatus(
            drifted=True, ewma_residual=0.1, baseline_residual=-0.5, observations=3
        )
        assert anomalous.severity == float("inf")
        nominal = DriftStatus(
            drifted=False, ewma_residual=0.0, baseline_residual=-0.5, observations=3
        )
        assert nominal.severity == 1.0

    def test_nominal_severity_is_the_plain_ratio(self):
        status = DriftStatus(
            drifted=False, ewma_residual=0.3, baseline_residual=0.2, observations=9
        )
        assert status.severity == pytest.approx(1.5)


class TestNonFiniteGuard:
    def test_nan_spectrum_skipped_and_counted(self, simulator):
        monitor = _monitor(simulator)
        x, _ = simulator.generate_dataset(TASK, 5, np.random.default_rng(7))
        for row in x:
            status = monitor.observe(row)
        before = status.ewma_residual

        bad = x[0].copy()
        bad[10] = np.nan
        status = monitor.observe(bad)
        assert monitor.skipped_nonfinite == 1
        assert status.observations == 5  # unchanged
        assert status.ewma_residual == pytest.approx(before)

    def test_inf_spectrum_skipped(self, simulator):
        monitor = _monitor(simulator)
        bad = np.full(AXIS.size, np.inf)
        status = monitor.observe(bad)
        assert monitor.skipped_nonfinite == 1
        assert status.observations == 0
        # EWMA never initialised, so status reports the baseline.
        assert status.ewma_residual == pytest.approx(monitor.baseline_residual)

    def test_skip_before_warmup_never_alarms(self, simulator):
        monitor = _monitor(simulator)
        for _ in range(10):
            status = monitor.observe(np.full(AXIS.size, np.nan))
        assert monitor.skipped_nonfinite == 10
        assert not status.drifted

    def test_reset_clears_skip_counter(self, simulator):
        monitor = _monitor(simulator)
        monitor.observe(np.full(AXIS.size, np.nan))
        monitor.reset()
        assert monitor.skipped_nonfinite == 0


class TestTelemetry:
    def _drifted_spectrum(self, simulator, rng):
        return simulator.simulate(
            {"N2": 0.4, "H2S": 0.6}, rng=rng
        ).normalized("max")

    def test_alarm_counter_counts_onsets_not_refires(self, simulator):
        with scoped() as (registry, _):
            monitor = _monitor(
                simulator, name="telemetry", smoothing=1.0, alarm_factor=2.0
            )
            rng = np.random.default_rng(8)
            for _ in range(8):
                status = monitor.observe(
                    self._drifted_spectrum(simulator, rng)
                )
            assert status.drifted
            # A sustained excursion is ONE alarm, not eight.
            assert registry.counter("drift_alarms_total").value(
                monitor="telemetry"
            ) == 1

            x, _ = simulator.generate_dataset(TASK, 6, rng)
            for row in x:
                status = monitor.observe(row)
            assert not status.drifted

            for _ in range(4):
                status = monitor.observe(
                    self._drifted_spectrum(simulator, rng)
                )
            assert status.drifted
            assert registry.counter("drift_alarms_total").value(
                monitor="telemetry"
            ) == 2

    def test_severity_gauge_tracks_the_latest_status(self, simulator):
        with scoped() as (registry, _):
            monitor = _monitor(simulator, name="gauge")
            x, _ = simulator.generate_dataset(
                TASK, 3, np.random.default_rng(9)
            )
            for row in x:
                status = monitor.observe(row)
            assert registry.gauge("drift_severity").value(
                monitor="gauge"
            ) == pytest.approx(status.severity)
