"""Unit tests for the input-plausibility checker."""

import numpy as np
import pytest

from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import InstrumentCharacteristics
from repro.ms.plausibility import PlausibilityChecker
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MzAxis
from repro.reliability.validation import NonFiniteError

TASK = DEFAULT_TASK_COMPOUNDS


@pytest.fixture(scope="module")
def simulator():
    return MassSpectrometerSimulator(
        InstrumentCharacteristics(), MzAxis(1.0, 50.0, 0.2), default_library()
    )


@pytest.fixture(scope="module")
def checker(simulator):
    return PlausibilityChecker(simulator, TASK)


class TestPlausibleInputs:
    def test_in_task_spectra_pass(self, simulator, checker):
        x, _ = simulator.generate_dataset(TASK, 20, np.random.default_rng(0))
        reports = checker.check_batch(x)
        passed = sum(1 for r in reports if r.plausible)
        assert passed >= 18  # tolerate rare noise flukes

    def test_report_is_truthy_when_plausible(self, simulator, checker):
        spectrum = simulator.simulate({"N2": 0.7, "O2": 0.3}, with_noise=False)
        report = checker.check(spectrum)
        assert report
        assert report.residual_fraction < 0.05

    def test_fitted_concentrations_track_truth(self, simulator, checker):
        spectrum = simulator.simulate({"Ar": 1.0}, with_noise=False)
        report = checker.check(spectrum.normalized("max"))
        ar_index = TASK.index("Ar")
        fitted = report.fitted_concentrations
        assert np.argmax(fitted) == ar_index


class TestImplausibleInputs:
    def test_unknown_compound_flagged(self, simulator, checker):
        """A compound outside the task (H2S, strong line at m/z 34) must
        trigger the unknown-substance guard the paper calls for."""
        spectrum = simulator.simulate(
            {"N2": 0.5, "H2S": 0.5}, with_noise=False
        )
        report = checker.check(spectrum)
        assert not report.plausible
        assert report.largest_unexplained_mz == pytest.approx(34.0, abs=1.0)

    def test_garbage_input_flagged(self, checker, simulator):
        rng = np.random.default_rng(1)
        garbage = rng.random(simulator.axis.size)
        assert not checker.check(garbage).plausible

    def test_empty_spectrum_flagged(self, checker, simulator):
        report = checker.check(np.zeros(simulator.axis.size))
        assert not report.plausible
        assert report.residual_fraction == 1.0

    def test_completely_different_substance(self, simulator, checker):
        spectrum = simulator.simulate({"EtOH": 1.0}, with_noise=False)
        assert not checker.check(spectrum).plausible


class TestValidation:
    def test_wrong_length_rejected(self, checker):
        with pytest.raises(ValueError, match="expected"):
            checker.check(np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_rejected(self, checker, simulator, bad):
        spectrum = np.ones(simulator.axis.size)
        spectrum[3] = bad
        with pytest.raises(NonFiniteError):
            checker.check(spectrum)

    def test_batch_must_be_2d(self, checker, simulator):
        with pytest.raises(ValueError, match="2-D"):
            checker.check_batch(np.zeros(simulator.axis.size))

    def test_constructor_validation(self, simulator):
        with pytest.raises(ValueError):
            PlausibilityChecker(simulator, [])
        with pytest.raises(ValueError):
            PlausibilityChecker(simulator, TASK, residual_threshold=0.0)
