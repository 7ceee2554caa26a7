"""Unit tests for the deep-ensemble mean + spread predictor."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.compute.cache import ArtifactCache, canonical_blob
from repro.compute.executor import ParallelExecutor
from repro.uncertainty import (
    EnsemblePredictor,
    EnsembleSpec,
    UncertainPrediction,
    train_ensemble,
    train_member,
)

# Deliberately tiny: 99 input channels, 2 members, 1 epoch — the campaign
# tests train it several times (once per backend).
SPEC = EnsembleSpec(
    compounds=("H2", "N2"),
    axis=(1.0, 50.0, 0.5),
    n_train=64,
    epochs=1,
    hidden_units=(8,),
    n_members=2,
    batch_size=32,
    seed=7,
)


class _Fixed:
    """Stub member with one canned output row."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=np.float64)

    def predict(self, x, validate=True):
        return np.tile(self.output, (len(x), 1))


class TestUncertainPrediction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            UncertainPrediction(mean=np.zeros((2, 3)), std=np.zeros((2, 2)))

    def test_must_be_two_dimensional(self):
        with pytest.raises(ValueError):
            UncertainPrediction(mean=np.zeros(3), std=np.zeros(3))

    def test_n_rows(self):
        p = UncertainPrediction(mean=np.zeros((4, 2)), std=np.zeros((4, 2)))
        assert p.n_rows == 4


class TestEnsemblePredictor:
    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            EnsemblePredictor([_Fixed([1.0, 2.0])])

    def test_mean_and_std_match_manual_stack(self):
        rows = [[0.0, 2.0], [2.0, 4.0], [4.0, 0.0]]
        predictor = EnsemblePredictor([_Fixed(r) for r in rows])
        x = np.zeros((5, 3))
        prediction = predictor.predict(x)
        np.testing.assert_allclose(
            prediction.mean, np.tile(np.mean(rows, axis=0), (5, 1))
        )
        np.testing.assert_allclose(
            prediction.std, np.tile(np.std(rows, axis=0), (5, 1))
        )
        np.testing.assert_allclose(
            predictor.predict_mean(x), prediction.mean
        )

    def test_identical_members_have_zero_spread(self):
        predictor = EnsemblePredictor([_Fixed([1.0, 1.0])] * 3)
        assert predictor.predict(np.zeros((2, 3))).std.max() == 0.0


class TestEnsembleSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"compounds": ()}, id="no_compounds"),
            pytest.param({"n_members": 1}, id="one_member"),
            pytest.param({"epochs": 0}, id="epochs_0"),
            pytest.param({"batch_size": 0}, id="batch_size_0"),
            pytest.param({"hidden_units": (0,)}, id="zero_units"),
            pytest.param({"hidden_units": ()}, id="empty_stack"),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            EnsembleSpec(**{"compounds": ("H2",), **overrides})

    def test_zero_learning_rate_refused_at_construction(self):
        # Refused here, not later inside a member's training task.
        with pytest.raises(
            ValueError, match="learning_rate must be positive and finite"
        ):
            EnsembleSpec(compounds=("H2",), learning_rate=0.0)

    def test_config_round_trip(self):
        # Payloads pickle the spec itself; its canonical form is asdict.
        assert pickle.loads(pickle.dumps(SPEC)) == SPEC
        assert canonical_blob(SPEC) == canonical_blob(dataclasses.asdict(SPEC))

    def test_input_length_matches_axis(self):
        assert SPEC.input_length() == 99


class TestEnsembleCampaign:
    def test_members_differ_from_each_other(self):
        predictor = train_ensemble(SPEC)
        w0 = predictor.members[0].get_weights()
        w1 = predictor.members[1].get_weights()
        assert any(not (a == b).all() for a, b in zip(w0, w1))

    def test_byte_identical_across_backends(self):
        # Acceptance criterion: member weights are a pure function of the
        # spec, never of task scheduling.
        reference = train_ensemble(
            SPEC, executor=ParallelExecutor(backend="serial")
        )
        for backend in ("thread", "process"):
            other = train_ensemble(
                SPEC,
                executor=ParallelExecutor(backend=backend, max_workers=2),
            )
            for ours, theirs in zip(reference.members, other.members):
                for a, b in zip(ours.get_weights(), theirs.get_weights()):
                    assert (a == b).all(), f"{backend} diverged from serial"

    def test_cache_resume_is_all_hits_and_byte_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        first = train_ensemble(SPEC, cache=cache)
        # Every member resumes from its own content-addressed entry.
        for member in range(SPEC.n_members):
            outcome = train_member(
                {
                    "spec": SPEC,
                    "member": member,
                    "cache_root": str(cache.root),
                }
            )
            assert outcome["cache_hit"]
            for a, b in zip(
                first.members[member].get_weights(), outcome["weights"]
            ):
                assert (a == b).all()

    def test_cached_equals_uncached(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cached = train_ensemble(SPEC, cache=cache)
        plain = train_ensemble(SPEC)
        for ours, theirs in zip(cached.members, plain.members):
            for a, b in zip(ours.get_weights(), theirs.get_weights()):
                assert (a == b).all()

    def test_failed_member_aborts_the_campaign(self):
        bad = EnsembleSpec(
            compounds=("H2", "NotACompound"),
            axis=(1.0, 50.0, 0.5),
            n_train=8,
            epochs=1,
            hidden_units=(4,),
            n_members=2,
        )
        with pytest.raises(RuntimeError, match="ensemble members failed"):
            train_ensemble(bad)
