"""Integration-leaning unit tests for the MS toolchain orchestration."""

import numpy as np
import pytest

from repro.core.pipeline import MSToolchain
from repro.core.topologies import mlp_topology
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library
from repro.ms.instrument import VirtualMassSpectrometer
from repro.ms.mixtures import MassFlowControllerRig, default_mixture_plan

TASK = DEFAULT_TASK_COMPOUNDS


@pytest.fixture(scope="module")
def rig():
    instrument = VirtualMassSpectrometer(
        contamination={"H2O": 0.01}, library=default_library(), seed=0
    )
    return MassFlowControllerRig(instrument, seed=0)


@pytest.fixture(scope="module")
def chain():
    return MSToolchain(TASK)


@pytest.fixture(scope="module")
def reference(chain, rig):
    return chain.collect_reference_measurements(rig, samples_per_mixture=8)


class TestSteps:
    def test_unknown_task_compound_rejected(self):
        with pytest.raises(KeyError):
            MSToolchain(["N2", "Unobtanium"])

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            MSToolchain([])

    def test_reference_measurements_count(self, reference):
        measurements, artifact = reference
        assert len(measurements) == 14 * 8
        assert artifact >= 1

    def test_simulator_built_with_lineage(self, chain, reference):
        measurements, m_id = reference
        simulator, result, s_id = chain.build_simulator(measurements, m_id)
        assert result.n_measurements == len(measurements)
        assert chain.provenance.ancestors(s_id) == [m_id]
        assert simulator.axis.size == chain.axis.size

    def test_training_data_generated(self, chain, reference):
        measurements, m_id = reference
        simulator, _, s_id = chain.build_simulator(measurements, m_id)
        dataset, d_id = chain.generate_training_data(
            simulator, 256, np.random.default_rng(0), s_id
        )
        assert len(dataset) == 256
        assert dataset.output_names == TASK
        assert m_id in chain.provenance.ancestors(d_id)

    def test_train_and_evaluate_small_network(self, chain, reference, rig):
        measurements, m_id = reference
        simulator, _, s_id = chain.build_simulator(measurements, m_id)
        dataset, d_id = chain.generate_training_data(
            simulator, 512, np.random.default_rng(0), s_id
        )
        # A tiny MLP keeps this integration test fast; Table 1 is the
        # default in real runs and exercised by the benchmarks.
        model, history, val_mae, n_id = chain.train_network(
            dataset,
            topology=mlp_topology(len(TASK), hidden_units=(32,)),
            epochs=4,
            dataset_artifact=d_id,
        )
        assert val_mae < 0.2  # far better than random guessing (~0.21)
        report = chain.evaluate_on_measurements(model, measurements[:20])
        assert set(report) == set(TASK) | {"mean"}
        # Full lineage network -> dataset -> simulator -> measurements.
        assert chain.provenance.ancestors(n_id) == [d_id, s_id, m_id]

    @pytest.mark.parametrize("patience", [None, 1, 8])
    def test_validation_mae_is_the_final_weights_loss(
        self, chain, reference, patience
    ):
        """The reported MAE is what evaluating the returned model gives,
        taken from fit's own per-epoch validation pass.  At this rate the
        best epoch (8) is not the last (10), so patience restores it."""
        measurements, m_id = reference
        simulator, _, s_id = chain.build_simulator(measurements, m_id)
        dataset, _ = chain.generate_training_data(
            simulator, 256, np.random.default_rng(1), s_id
        )
        model, history, val_mae, _ = chain.train_network(
            dataset,
            topology=mlp_topology(len(TASK), hidden_units=(16,)),
            epochs=10,
            seed=3,
            patience=patience,
            learning_rate=0.1,
        )
        _, validation = dataset.split_rows(0.8, np.random.default_rng(3))
        assert val_mae == model.evaluate(dataset.x[validation], dataset.y[validation])
        if patience is None:
            assert val_mae == history["val_loss"][-1]
        else:
            assert val_mae == min(history["val_loss"]) != history["val_loss"][-1]

    def test_empty_validation_split_rejected(self, chain, reference):
        measurements, m_id = reference
        simulator, _, s_id = chain.build_simulator(measurements, m_id)
        dataset, _ = chain.generate_training_data(
            simulator, 2, np.random.default_rng(0), s_id
        )
        with pytest.raises(ValueError, match="empty side"):
            chain.train_network(dataset, epochs=1)

    def test_lineage_report_readable(self, chain, reference):
        measurements, m_id = reference
        report = chain.provenance.lineage_report(m_id)
        assert "measurement_series" in report
