"""The four-tool MS toolchain (the paper's Fig. 3), end to end.

Step 1 — ideal line spectra (Tool 1, :mod:`repro.ms.line_spectra`);
Step 2 — simulator generation from reference measurements (Tool 2,
:mod:`repro.ms.characterization`);
Step 3 — continuous-spectrum simulation and bulk dataset generation
(Tool 3, :mod:`repro.ms.simulator`);
Step 4 — automated ANN training and evaluation (Tool 4, :mod:`repro.nn`
via :mod:`repro.core.topologies`).

Every intermediate artifact is recorded in the provenance database so "it
is possible to trace the basis on which the respective data was generated".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.datasets import SpectraDataset
from repro.core.evaluation import evaluate_per_compound, measurements_to_arrays
from repro.core.topologies import TopologySpec, table1_topology
from repro.db.provenance import ProvenanceTracker
from repro.ms.characterization import CharacterizationResult, characterize_instrument
from repro.ms.compounds import CompoundLibrary, default_library
from repro.ms.mixtures import MassFlowControllerRig, MixturePlan, default_mixture_plan
from repro.ms.simulator import MassSpectrometerSimulator
from repro.ms.spectrum import MassSpectrum, MzAxis
from repro.nn.model import Sequential
from repro.nn.training import EarlyStopping, History
from repro.reliability.retry import RetryPolicy, finite_intensities
from repro.reliability.validation import validate_spectrum

__all__ = ["MSToolchain", "ToolchainResult"]

Measurement = Tuple[MassSpectrum, Mapping[str, float]]


@dataclass
class ToolchainResult:
    """Everything a full toolchain run produces."""

    model: Sequential
    history: History
    characterization: CharacterizationResult
    simulator: MassSpectrometerSimulator
    validation_mae: float
    measured_report: Dict[str, float]
    artifact_ids: Dict[str, int] = field(default_factory=dict)

    @property
    def measured_mae(self) -> float:
        return self.measured_report["mean"]


class MSToolchain:
    """Orchestrates Tools 1-4 for one measurement task."""

    def __init__(
        self,
        task_compounds: Sequence[str],
        axis: MzAxis = MzAxis(),
        library: Optional[CompoundLibrary] = None,
        provenance: Optional[ProvenanceTracker] = None,
    ):
        if not task_compounds:
            raise ValueError("task_compounds must be non-empty")
        self.task_compounds = tuple(task_compounds)
        self.axis = axis
        self.library = library if library is not None else default_library()
        for name in self.task_compounds:
            self.library.get(name)  # validate early
        self.provenance = provenance if provenance is not None else ProvenanceTracker()

    # -- step 2: reference measurements + characterization --------------------

    def collect_reference_measurements(
        self,
        rig: MassFlowControllerRig,
        samples_per_mixture: int,
        plan: Optional[MixturePlan] = None,
        n_mixtures: int = 14,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> Tuple[List[Measurement], int]:
        """Measure a calibration plan on the (real) device.

        With a ``retry_policy``, each sample is acquired individually and a
        dropped scan (:class:`~repro.reliability.faults.AcquisitionError`)
        or a scan with non-finite intensities — e.g. dead detector channels
        injected by a :class:`~repro.reliability.faults.FaultInjector` — is
        re-acquired instead of poisoning the characterization fit.

        Returns the measurements and their provenance artifact id.
        """
        plan = plan if plan is not None else default_mixture_plan(
            self.task_compounds, n_mixtures
        )
        if retry_policy is None:
            measurements = rig.measure_plan(plan, samples_per_mixture)
        else:
            measurements = []
            for mixture in plan.mixtures:
                for _ in range(samples_per_mixture):
                    measurements.append(
                        retry_policy.call(
                            self._checked_measurement, rig, mixture
                        )
                    )
        artifact = self.provenance.record(
            "measurement_series",
            {
                "mixtures": len(plan),
                "samples_per_mixture": samples_per_mixture,
                "task": list(self.task_compounds),
            },
        )
        return measurements, artifact

    @staticmethod
    def _checked_measurement(
        rig: MassFlowControllerRig, mixture: Mapping[str, float]
    ) -> Measurement:
        """One sample; non-finite scans are failed acquisitions (retried)."""
        from repro.reliability.faults import AcquisitionError

        measurement = rig.measure_mixture(mixture)
        if not finite_intensities(measurement):
            raise AcquisitionError("scan contains non-finite intensities")
        return measurement

    def build_simulator(
        self, measurements: Sequence[Measurement], measurements_artifact: int
    ) -> Tuple[MassSpectrometerSimulator, CharacterizationResult, int]:
        """Tool 2 + Tool 3: characterize, then construct the simulator.

        Ingestion gate: every reference spectrum is validated (1-D, finite,
        matching this toolchain's m/z axis) before it can reach the
        characterization fit — one NaN scan admitted here would otherwise
        poison the fitted peak characteristics and, through the simulator,
        every training spectrum derived from them.  Invalid scans raise a
        :class:`~repro.reliability.validation.ValidationError` subclass
        naming the offending measurement.
        """
        for index, (spectrum, _) in enumerate(measurements):
            validate_spectrum(
                spectrum,
                length=self.axis.size,
                field=f"measurement[{index}]",
            )
        result = characterize_instrument(
            measurements, self.task_compounds, self.library
        )
        simulator = MassSpectrometerSimulator(
            result.characteristics, self.axis, self.library
        )
        artifact = self.provenance.record(
            "simulator",
            {
                "n_measurements": result.n_measurements,
                "n_peaks_used": result.n_peaks_used,
            },
            parents=[measurements_artifact],
        )
        return simulator, result, artifact

    # -- step 3: training data --------------------------------------------------

    def generate_training_data(
        self,
        simulator: MassSpectrometerSimulator,
        n: int,
        rng: Optional[np.random.Generator] = None,
        simulator_artifact: Optional[int] = None,
        cache: Optional["ArtifactCache"] = None,
        seed: Optional[int] = None,
    ) -> Tuple[SpectraDataset, int]:
        """Tool 1 + Tool 3: a labelled simulated dataset.

        With a :class:`~repro.compute.cache.ArtifactCache` (requires
        ``seed`` — the cache key is derived from the generating config, so
        generation must be seed-driven, not generator-driven) a repeat of
        an identical config is a verified read instead of a re-render; the
        provenance record then carries the content key and hit/miss
        disposition.
        """
        metadata: Dict[str, object] = {"source": "simulated", "n": n}
        record: Dict[str, object] = {"n": n}
        if cache is not None:
            if seed is None:
                raise ValueError("cache-aware generation requires seed=")
            from repro.compute.datasets import generate_ms_dataset

            x, y, info = generate_ms_dataset(
                simulator, self.task_compounds, n, seed, cache=cache
            )
            metadata["cache_key"] = record["cache_key"] = info["key"]
            metadata["cache_hit"] = record["cache_hit"] = bool(info["hit"])
        else:
            if rng is None:
                if seed is None:
                    raise ValueError("provide rng= or seed=")
                rng = np.random.default_rng(seed)
            x, y = simulator.generate_dataset(self.task_compounds, n, rng)
        dataset = SpectraDataset(x, y, self.task_compounds, metadata)
        parents = [simulator_artifact] if simulator_artifact is not None else []
        artifact = self.provenance.record("dataset", record, parents=parents)
        return dataset, artifact

    # -- step 4: training + evaluation --------------------------------------------

    def train_network(
        self,
        dataset: SpectraDataset,
        topology: Optional[TopologySpec] = None,
        epochs: int = 30,
        batch_size: int = 64,
        train_fraction: float = 0.8,
        seed: int = 0,
        dataset_artifact: Optional[int] = None,
        patience: Optional[int] = 8,
        learning_rate: float = 0.006,
    ) -> Tuple[Sequential, History, float, int]:
        """Train one network; returns (model, history, validation MAE, id).

        The default learning rate is tuned for the Table-1 CNN with MAE
        loss and softmax outputs, where small rates converge very slowly.
        """
        topology = topology if topology is not None else table1_topology(
            len(self.task_compounds)
        )
        train, validation = dataset.split(train_fraction, np.random.default_rng(seed))
        model = topology.build(dataset.input_shape, seed=seed)
        from repro.nn.optimizers import Adam

        model.compile(Adam(learning_rate), "mae")
        stopper = (
            EarlyStopping(patience=patience, restore_best_weights=True)
            if patience is not None else None
        )
        history = model.fit(
            train.x,
            train.y,
            epochs=epochs,
            batch_size=batch_size,
            validation_data=(validation.x, validation.y),
            callbacks=[stopper] if stopper is not None else [],
            seed=seed,
        )
        # fit already evaluated the validation rows after every epoch; the
        # model ends with the best epoch's weights when they were restored,
        # else with the last epoch's.
        if stopper is not None and stopper.best_epoch > 0:
            validation_mae = stopper.best_value
        else:
            validation_mae = history["val_loss"][-1]
        parents = [dataset_artifact] if dataset_artifact is not None else []
        artifact = self.provenance.record(
            "network",
            {
                "topology": topology.name,
                "epochs_run": len(history.epochs),
                "validation_mae": validation_mae,
            },
            parents=parents,
        )
        return model, history, validation_mae, artifact

    def fine_tune_network(
        self,
        model: Sequential,
        dataset: SpectraDataset,
        epochs: int = 8,
        batch_size: int = 32,
        learning_rate: float = 0.002,
        seed: int = 0,
        dataset_artifact: Optional[int] = None,
        parent_artifact: Optional[int] = None,
    ) -> Tuple[Sequential, History, int]:
        """Continue training a *copy* of ``model`` on a small dataset.

        This is the cheap arm of in-lifecycle re-adaptation: instead of
        re-running the whole characterize-simulate-train loop, the
        deployed network is cloned (the serving weights are never touched
        — the adaptation controller decides whether the tuned copy ever
        serves) and nudged with a few epochs at a reduced learning rate
        on the handful of labelled shifted-real measurements an operator
        can actually afford.  Returns (tuned model, history, artifact id).
        """
        from repro.nn.optimizers import Adam
        from repro.nn.serialization import clone_model

        tuned = clone_model(model, seed=seed)
        tuned.compile(Adam(learning_rate), "mae")
        history = tuned.fit(
            dataset.x,
            dataset.y,
            epochs=epochs,
            batch_size=min(batch_size, len(dataset.x)),
            seed=seed,
        )
        parents = [
            parent for parent in (dataset_artifact, parent_artifact)
            if parent is not None
        ]
        artifact = self.provenance.record(
            "network_finetune",
            {
                "epochs_run": len(history.epochs),
                "n_samples": len(dataset.x),
                "learning_rate": learning_rate,
            },
            parents=parents,
        )
        return tuned, history, artifact

    def evaluate_on_measurements(
        self, model: Sequential, measurements: Sequence[Measurement]
    ) -> Dict[str, float]:
        """Per-compound MAE of a network on real device measurements."""
        x, y = measurements_to_arrays(measurements, self.task_compounds, self.axis)
        predictions = model.predict(x)
        return evaluate_per_compound(predictions, y, self.task_compounds)

    # -- convenience --------------------------------------------------------------

    def run(
        self,
        rig: MassFlowControllerRig,
        evaluation_measurements: Sequence[Measurement],
        samples_per_mixture: int = 25,
        n_training_spectra: int = 20_000,
        topology: Optional[TopologySpec] = None,
        epochs: int = 30,
        seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        cache: Optional["ArtifactCache"] = None,
    ) -> ToolchainResult:
        """The full Fig.-3 flow against a device and an evaluation set.

        ``cache``, if given, makes the training-data step content-addressed:
        repeating the flow with an identical fitted simulator and seed
        reloads the dataset instead of re-rendering it.
        """
        rng = np.random.default_rng(seed)
        measurements, m_id = self.collect_reference_measurements(
            rig, samples_per_mixture, retry_policy=retry_policy
        )
        simulator, characterization, s_id = self.build_simulator(measurements, m_id)
        dataset, d_id = self.generate_training_data(
            simulator, n_training_spectra, rng, s_id, cache=cache,
            seed=seed if cache is not None else None,
        )
        model, history, validation_mae, n_id = self.train_network(
            dataset, topology=topology, epochs=epochs, seed=seed,
            dataset_artifact=d_id,
        )
        report = self.evaluate_on_measurements(model, evaluation_measurements)
        return ToolchainResult(
            model=model,
            history=history,
            characterization=characterization,
            simulator=simulator,
            validation_mae=validation_mae,
            measured_report=report,
            artifact_ids={
                "measurements": m_id,
                "simulator": s_id,
                "dataset": d_id,
                "network": n_id,
            },
        )
