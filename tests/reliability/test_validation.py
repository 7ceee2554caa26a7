"""Tests for the reusable validation gates and their error taxonomy."""

import numpy as np
import pytest

from repro.reliability.validation import (
    DtypeError,
    MonotonicityError,
    NonFiniteError,
    RangeError,
    ShapeError,
    ValidationError,
    ensure_array,
    ensure_finite,
    ensure_monotonic,
    ensure_range,
    ensure_shape,
    validate_batch,
    validate_spectrum,
)


class TestTaxonomy:
    def test_all_errors_are_validation_errors_and_value_errors(self):
        for cls in (ShapeError, DtypeError, NonFiniteError,
                    MonotonicityError, RangeError):
            assert issubclass(cls, ValidationError)
            assert issubclass(cls, ValueError)

    def test_error_carries_field_and_detail(self):
        err = ShapeError("wrong rank", field="spectrum", detail={"ndim": 3})
        assert err.field == "spectrum"
        assert err.detail == {"ndim": 3}
        assert "spectrum" in str(err)


class TestEnsureArray:
    def test_converts_lists_to_float64(self):
        out = ensure_array([1, 2, 3], field="x")
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_non_numeric(self):
        with pytest.raises(DtypeError):
            ensure_array(["a", "b"], field="x")

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(DtypeError):
            ensure_array(object(), field="x")


class TestEnsureShape:
    def test_ndim_mismatch(self):
        with pytest.raises(ShapeError):
            ensure_shape(np.zeros((3, 3)), ndim=1, field="x")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ensure_shape(np.zeros(5), shape=(6,), field="x")

    def test_none_entries_are_wildcards(self):
        out = ensure_shape(np.zeros((4, 7)), shape=(None, 7), field="x")
        assert out.shape == (4, 7)


class TestEnsureFinite:
    def test_reports_count_and_first_index(self):
        data = np.array([1.0, np.nan, np.inf])
        with pytest.raises(NonFiniteError) as excinfo:
            ensure_finite(data, field="spec")
        assert excinfo.value.detail["count"] == 2
        assert excinfo.value.detail["first_index"] == (1,)

    def test_passes_finite(self):
        data = np.ones(4)
        assert ensure_finite(data, field="x") is data


class TestEnsureMonotonic:
    def test_rejects_non_increasing_axis(self):
        with pytest.raises(MonotonicityError):
            ensure_monotonic(np.array([1.0, 2.0, 2.0]), field="mz")

    def test_accepts_strictly_increasing(self):
        axis = np.array([1.0, 2.0, 5.0])
        assert ensure_monotonic(axis, field="mz") is axis


class TestEnsureRange:
    def test_min_violation(self):
        with pytest.raises(RangeError):
            ensure_range(np.array([-0.1, 0.5]), min_value=0.0, field="x")

    def test_max_violation(self):
        with pytest.raises(RangeError):
            ensure_range(np.array([0.5, 1.5]), max_value=1.0, field="x")

    def test_in_range_passes(self):
        data = np.array([0.0, 1.0])
        out = ensure_range(data, min_value=0.0, max_value=1.0, field="x")
        assert out is data


class TestValidateSpectrum:
    def test_accepts_spectrum_objects(self):
        from repro.ms.spectrum import MassSpectrum, MzAxis

        axis = MzAxis()
        spectrum = MassSpectrum(axis, np.ones(axis.size))
        out = validate_spectrum(spectrum, length=axis.size, field="s")
        assert out.shape == (axis.size,)

    def test_rejects_nan_spectrum(self):
        with pytest.raises(NonFiniteError):
            validate_spectrum(np.array([1.0, np.nan, 2.0]), field="s")

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            validate_spectrum(np.ones(5), length=6, field="s")

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            validate_spectrum(np.ones((2, 5)), field="s")

    def test_axis_must_match_length_and_monotonicity(self):
        with pytest.raises(MonotonicityError):
            validate_spectrum(
                np.ones(3), axis=np.array([3.0, 2.0, 1.0]), field="s"
            )

    def test_range_gate(self):
        with pytest.raises(RangeError):
            validate_spectrum(np.array([-1.0, 0.5]), min_value=0.0, field="s")


class TestValidateBatch:
    def test_batch_axis_is_free(self):
        out = validate_batch(np.ones((7, 4)), feature_shape=(4,), field="x")
        assert out.shape == (7, 4)

    def test_feature_shape_enforced(self):
        with pytest.raises(ShapeError):
            validate_batch(np.ones((7, 5)), feature_shape=(4,), field="x")

    def test_nan_batch_rejected(self):
        batch = np.ones((3, 4))
        batch[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            validate_batch(batch, feature_shape=(4,), field="x")


class TestGatesAreWiredIn:
    def test_model_predict_rejects_nan_input(self):
        from repro import nn

        model = nn.Sequential([nn.Dense(2)])
        model.build((4,), seed=0)
        model.compile(nn.Adam(0.01), "mse")
        bad = np.ones((3, 4))
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            model.predict(bad)
        # And the gate can be bypassed explicitly.
        out = model.predict(bad, validate=False)
        assert out.shape == (3, 2)

    def test_model_predict_rejects_wrong_feature_shape(self):
        from repro import nn

        model = nn.Sequential([nn.Dense(2)])
        model.build((4,), seed=0)
        model.compile(nn.Adam(0.01), "mse")
        with pytest.raises(ShapeError):
            model.predict(np.ones((3, 5)))

    def test_toolchain_ingestion_rejects_bad_measurement(self):
        from repro.core.pipeline import MSToolchain
        from repro.ms.spectrum import MassSpectrum

        chain = MSToolchain(["N2", "O2"])
        good = MassSpectrum(chain.axis, np.ones(chain.axis.size))
        bad_data = np.ones(chain.axis.size)
        bad_data[10] = np.nan
        bad = MassSpectrum(chain.axis, bad_data)
        measurements = [
            (good, {"N2": 0.5, "O2": 0.5}),
            (bad, {"N2": 0.5, "O2": 0.5}),
        ]
        with pytest.raises(NonFiniteError) as excinfo:
            chain.build_simulator(measurements, measurements_artifact=0)
        assert "measurement[1]" in str(excinfo.value)

