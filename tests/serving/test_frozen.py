"""Frozen inference through AnalysisService: wiring, validation, soak.

A frozen service is an ordinary batched service whose ``batch_analyzer``
comes from ``batch_analyzer_from_model(model, frozen=...)``.  Covers that
wiring, automatic fallback for plan-unsupported models and its
``stats()["frozen"]`` report, the one per-row validation gate at drain,
and the exactly-once / finiteness / accuracy contracts under burst
overload.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.topologies import table1_topology
from repro.observability import MetricsRegistry
from repro.reliability.validation import validate_spectrum
from repro.serving import (
    AnalysisService,
    BatchingPolicy,
    Completed,
    Rejected,
    batch_analyzer_from_model,
)

LENGTH = 60
OUTPUTS = 3


def _model(seed=0):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="selu"),
            nn.Flatten(),
            nn.Dense(OUTPUTS, activation="softmax"),
        ]
    )
    model.build((LENGTH,), seed=seed)
    return model


def _service(model, frozen="float32", **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 64)
    kwargs.setdefault("default_deadline_s", 30.0)
    kwargs.setdefault("registry", MetricsRegistry())
    batched = batch_analyzer_from_model(model, frozen=frozen)
    return AnalysisService(
        lambda row: batched(row[None, :])[0],
        batch_analyzer=batched,
        expected_length=LENGTH,
        **kwargs,
    )


class TestFrozenWiring:
    def test_frozen_service_serves_within_contract(self):
        model = _model()
        rng = np.random.default_rng(0)
        spectra = rng.random((40, LENGTH))
        reference = model.predict(spectra, validate=False)
        with _service(model) as service:
            results = [service.analyze(row) for row in spectra]
            stats = service.stats()
        assert all(isinstance(r, Completed) for r in results)
        served = np.stack([r.value for r in results])
        assert float(np.mean(np.abs(served - reference))) <= 1e-5
        assert stats["frozen"] == "float32"
        assert stats["completed"] == 40

    def test_frozen_int8_within_pinned_budget(self):
        model = _model()
        rng = np.random.default_rng(1)
        spectra = rng.random((20, LENGTH))
        reference = model.predict(spectra, validate=False)
        with _service(model, frozen="int8") as service:
            results = [service.analyze(row) for row in spectra]
            assert service.stats()["frozen"] == "int8"
        served = np.stack([r.value for r in results])
        assert float(np.mean(np.abs(served - reference))) <= 2e-2

    def test_frozen_requires_built_model(self):
        with pytest.raises(ValueError, match="built"):
            batch_analyzer_from_model(nn.Sequential([nn.Dense(OUTPUTS)]),
                                      frozen="float32")

    def test_unsupported_model_falls_back(self):
        model = nn.Sequential(
            [nn.Reshape((-1, 1)), nn.LSTM(8), nn.Dense(OUTPUTS)]
        )
        model.build((LENGTH,), seed=0)
        rng = np.random.default_rng(2)
        spectra = rng.random((6, LENGTH))
        reference = model.predict(spectra, validate=False)
        with _service(model) as service:
            results = [service.analyze(row) for row in spectra]
            assert service.stats()["frozen"] is None
        # Fallback path is the reference analyzer: byte-identical.
        for row_result, expected in zip(results, reference):
            np.testing.assert_array_equal(row_result.value, expected)


class TestFrozenCoalescing:
    def test_row_alone_and_in_batch_agree_within_contract(self):
        """On the frozen path a row's answer can depend on how many rows
        share its batch, so the promise is the plan's contract, not
        byte-identity.  Which bytes move depends on the BLAS build, so
        none are asserted."""
        model = table1_topology(4).build((500,), seed=0)
        batched = batch_analyzer_from_model(model, frozen="float32")
        rows = np.random.default_rng(6).random((32, 500))
        alone = np.stack([batched(row[None, :])[0] for row in rows])
        together = batched(rows)
        contract = batched.engine.plan.contract
        assert float(np.max(np.abs(alone - together))) <= contract


class TestDrainValidation:
    def test_invalid_rows_caught_exactly_once(self, monkeypatch):
        model = _model()
        calls = []

        def counting_validator(data, **kwargs):
            calls.append(1)
            return validate_spectrum(data, **kwargs)

        monkeypatch.setattr(
            "repro.serving.service.validate_spectrum", counting_validator
        )

        rng = np.random.default_rng(3)
        good = rng.random((10, LENGTH))
        bad = np.full(LENGTH, np.nan)
        with _service(
            model,
            batching=BatchingPolicy(max_batch=8, max_wait_s=0.0005),
        ) as service:
            results = [service.analyze(row) for row in good]
            bad_result = service.analyze(bad)
        assert all(r.ok for r in results)
        assert isinstance(bad_result, Rejected)
        assert bad_result.reason == "invalid_input"
        # Every row — valid or not — passed the drain gate exactly once.
        assert len(calls) == 11


class TestFrozenOverloadSoak:
    def test_burst_keeps_exactly_once_and_accuracy_contracts(self):
        model = _model()
        rng = np.random.default_rng(5)
        n_burst = 300
        spectra = rng.random((n_burst, LENGTH))
        reference = model.predict(spectra, validate=False)
        service = _service(
            model,
            workers=2,
            queue_size=8,
            batching=BatchingPolicy(max_batch=16, max_wait_s=0.0005),
        )
        with service:
            pending = [service.submit(row) for row in spectra]
            results = [p.result(timeout=30.0) for p in pending]
            stats = service.stats()
        # Exactly one terminal result per request, no hangs.
        assert all(r is not None for r in results)
        completed = [i for i, r in enumerate(results) if r.ok]
        shed = [i for i, r in enumerate(results) if not r.ok]
        assert len(completed) + len(shed) == n_burst
        assert len(completed) > 0
        for i in shed:
            assert results[i].reason in ("queue_full", "deadline_exceeded")
        assert stats["completed"] == len(completed)
        # Every served answer is finite and within the float32 contract.
        served = np.stack([results[i].value for i in completed])
        assert np.isfinite(served).all()
        assert float(
            np.mean(np.abs(served - reference[completed]))
        ) <= 1e-5
