"""Unit tests for ensemble / MC-dropout mean + spread predictors."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import nn
from repro.compute.cache import ArtifactCache, canonical_blob
from repro.compute.executor import ParallelExecutor
from repro.uncertainty import (
    EnsemblePredictor,
    EnsembleSpec,
    MCDropoutPredictor,
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


def _dropout_model(seed=0, rate=0.4):
    model = nn.Sequential(
        [nn.Dense(8, activation="relu"), nn.Dropout(rate), nn.Dense(2)]
    )
    model.build((6,), seed=seed)
    return model


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


class TestMCDropoutPredictor:
    def test_predict_is_byte_repeatable(self):
        model = _dropout_model()
        x = np.random.default_rng(0).random((5, 6))
        first = MCDropoutPredictor(model, passes=6, seed=3).predict(x)
        second = MCDropoutPredictor(model, passes=6, seed=3).predict(x)
        assert (first.mean == second.mean).all()
        assert (first.std == second.std).all()

    def test_different_seeds_draw_different_masks(self):
        model = _dropout_model()
        x = np.random.default_rng(0).random((5, 6))
        a = MCDropoutPredictor(model, passes=6, seed=0).predict(x)
        b = MCDropoutPredictor(model, passes=6, seed=1).predict(x)
        assert not (a.mean == b.mean).all()

    def test_spread_is_nonzero(self):
        model = _dropout_model()
        x = np.random.default_rng(1).random((4, 6)) + 0.5
        prediction = MCDropoutPredictor(model, passes=8, seed=0).predict(x)
        assert prediction.std.max() > 0.0

    def test_restores_layer_generators(self):
        model = _dropout_model()
        dropout = model.layers[1]
        rng_before = dropout._rng
        MCDropoutPredictor(model, passes=4, seed=0).predict(np.ones((2, 6)))
        assert dropout._rng is rng_before
        assert dropout._mask is None

    def test_prediction_does_not_change_inference_output(self):
        model = _dropout_model()
        x = np.random.default_rng(2).random((3, 6))
        before = model.predict(x, validate=False)
        MCDropoutPredictor(model, passes=4, seed=0).predict(x)
        after = model.predict(x, validate=False)
        assert (before == after).all()

    def test_requires_a_live_dropout_layer(self):
        no_dropout = nn.Sequential([nn.Dense(2)])
        no_dropout.build((6,), seed=0)
        with pytest.raises(ValueError):
            MCDropoutPredictor(no_dropout)
        dead_rate = _dropout_model(rate=0.0)
        with pytest.raises(ValueError):
            MCDropoutPredictor(dead_rate)

    def test_requires_two_passes_and_2d_input(self):
        model = _dropout_model()
        with pytest.raises(ValueError):
            MCDropoutPredictor(model, passes=1)
        with pytest.raises(ValueError):
            MCDropoutPredictor(model, passes=4).predict(np.ones(6))


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
