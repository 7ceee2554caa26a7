"""Unit tests for the training divergence sentinel."""

import numpy as np
import pytest

from repro import nn
from repro.nn.sentinel import DivergenceError, DivergenceSentinel
from repro.nn.training import Callback


def _data(n=64, features=4, outputs=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, features))
    y = x @ rng.random((features, outputs))
    return x, y


def _model(lr=0.01, seed=0):
    model = nn.Sequential([nn.Dense(8, activation="relu"), nn.Dense(2)])
    model.build((4,), seed=seed)
    model.compile(nn.Adam(lr), "mse")
    return model


class PoisonWeights(Callback):
    """Overwrite the first layer's weights at one chosen (epoch, batch)."""

    def __init__(self, epoch, batch, value=np.nan):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        self.fired = False

    def on_batch_end(self, epoch, batch, loss):
        if not self.fired and epoch == self.epoch and batch == self.batch:
            self.model.layers[0].params["W"][:] = self.value
            self.fired = True


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DivergenceSentinel(loss_growth_factor=1.0)
        with pytest.raises(ValueError):
            DivergenceSentinel(grad_norm_limit=0.0)
        with pytest.raises(ValueError):
            DivergenceSentinel(ewma_smoothing=0.0)
        with pytest.raises(ValueError):
            DivergenceSentinel(warmup_batches=0)
        with pytest.raises(ValueError):
            DivergenceSentinel(lr_factor=1.0)
        with pytest.raises(ValueError):
            DivergenceSentinel(min_lr=0.0)
        with pytest.raises(ValueError):
            DivergenceSentinel(max_rollbacks=0)


class TestNanRecovery:
    def test_injected_nan_rolls_back_and_training_completes(self):
        x, y = _data()
        model = _model(lr=0.01)
        sentinel = DivergenceSentinel()
        poison = PoisonWeights(epoch=2, batch=1)
        history = model.fit(
            x, y, epochs=4, batch_size=16, seed=0,
            callbacks=[poison, sentinel],
        )

        assert poison.fired
        assert sentinel.triggered
        assert sentinel.rollbacks == 1
        # Every recorded epoch metric is finite — the NaN epoch was re-run.
        assert history.epochs == [1, 2, 3, 4]
        assert all(np.isfinite(v) for v in history["loss"])
        # The model came out of the run with finite weights.
        assert all(np.isfinite(w).all() for w in model.get_weights())
        # The learning rate was halved exactly once.
        assert model.optimizer.learning_rate == pytest.approx(0.005)

    def test_event_records_reason_and_new_lr(self):
        x, y = _data()
        model = _model(lr=0.01)
        sentinel = DivergenceSentinel()
        model.fit(
            x, y, epochs=3, batch_size=16, seed=0,
            callbacks=[PoisonWeights(epoch=1, batch=0), sentinel],
        )
        assert len(sentinel.events) == 1
        event = sentinel.events[0]
        assert event.epoch == 1
        assert "non-finite" in event.reason
        assert event.new_learning_rate == pytest.approx(0.005)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_inf_poison_also_triggers(self):
        x, y = _data()
        model = _model()
        sentinel = DivergenceSentinel()
        history = model.fit(
            x, y, epochs=3, batch_size=16, seed=0,
            callbacks=[PoisonWeights(epoch=2, batch=0, value=np.inf), sentinel],
        )
        assert sentinel.triggered
        assert all(np.isfinite(v) for v in history["loss"])


class TestGrowthAndLimits:
    def test_loss_growth_trigger(self):
        x, y = _data()
        model = _model(lr=0.001)
        sentinel = DivergenceSentinel(loss_growth_factor=50.0, warmup_batches=3)
        # Huge (finite) weights blow the loss up by far more than 50x.
        poison = PoisonWeights(epoch=2, batch=1, value=1e8)
        history = model.fit(
            x, y, epochs=4, batch_size=16, seed=0,
            callbacks=[poison, sentinel],
        )
        assert sentinel.triggered
        assert any("smoothed loss" in e.reason for e in sentinel.events)
        assert all(np.isfinite(v) for v in history["loss"])
        assert all(np.isfinite(w).all() for w in model.get_weights())

    def test_grad_norm_limit_trigger_and_give_up(self):
        x, y = _data()
        model = _model()
        # Impossible limit: every batch trips it, so the sentinel exhausts
        # its rollback budget and raises.
        sentinel = DivergenceSentinel(
            grad_norm_limit=1e-12, warmup_batches=1, max_rollbacks=2
        )
        with pytest.raises(DivergenceError) as excinfo:
            model.fit(x, y, epochs=2, batch_size=16, seed=0,
                      callbacks=[sentinel])
        assert excinfo.value.events  # the history of attempts is attached
        assert sentinel.rollbacks == 2

    def test_learning_rate_floor(self):
        x, y = _data()
        model = _model(lr=0.01)
        sentinel = DivergenceSentinel(min_lr=0.008)
        model.fit(
            x, y, epochs=3, batch_size=16, seed=0,
            callbacks=[PoisonWeights(epoch=1, batch=0), sentinel],
        )
        assert model.optimizer.learning_rate == pytest.approx(0.008)


class TestCheckpointIntegration:
    def test_rollback_restores_checkpointed_state(self, tmp_path):
        """A per-epoch Checkpoint callback alongside holds the same
        epoch-end state as the sentinel's snapshot, so a run with one
        matches a run without it bit for bit, whichever epoch diverges."""
        from repro.reliability.checkpoint import Checkpoint, CheckpointManager

        def run(poison_epoch, extra):
            x, y = _data()
            model = _model(lr=0.01)
            sentinel = DivergenceSentinel()
            history = model.fit(
                x, y, epochs=4, batch_size=16, seed=0,
                callbacks=[PoisonWeights(epoch=poison_epoch, batch=1), sentinel]
                + extra,
            )
            return model, sentinel, history

        for poison_epoch in (1, 2, 3):
            plain, plain_sentinel, plain_history = run(poison_epoch, [])
            manager = CheckpointManager(tmp_path / str(poison_epoch))
            checkpointed, sentinel, history = run(
                poison_epoch, [Checkpoint(manager, "run")]
            )
            assert sentinel.rollbacks == plain_sentinel.rollbacks == 1
            assert history.epochs == plain_history.epochs == [1, 2, 3, 4]
            assert history["loss"] == plain_history["loss"]
            for got, want in zip(
                checkpointed.get_weights(), plain.get_weights()
            ):
                np.testing.assert_array_equal(got, want)
            got = checkpointed.optimizer.get_state()
            want = plain.optimizer.get_state()
            assert got["iterations"] == want["iterations"]
            for slot in ("m", "v"):
                for key, value in want["slots"][slot].items():
                    np.testing.assert_array_equal(got["slots"][slot][key], value)
            assert (
                checkpointed.optimizer.learning_rate
                == plain.optimizer.learning_rate
            )


class TestFitClipNorm:
    def test_clip_norm_is_wired_to_the_optimizer(self):
        x, y = _data()
        model = _model()
        model.fit(x, y, epochs=1, batch_size=16, seed=0, clip_norm=1.0)
        assert model.optimizer.clipnorm == 1.0

    def test_clip_norm_must_be_positive(self):
        x, y = _data()
        model = _model()
        with pytest.raises(ValueError):
            model.fit(x, y, epochs=1, clip_norm=0.0)

    def test_clipping_tames_a_hot_learning_rate(self):
        x, y = _data()
        unclipped = _model(lr=50.0, seed=0)
        unclipped_history = unclipped.fit(
            x, y, epochs=3, batch_size=16, seed=0
        )
        clipped = _model(lr=50.0, seed=0)
        clipped_history = clipped.fit(
            x, y, epochs=3, batch_size=16, seed=0, clip_norm=0.1
        )
        # Not asserting the unclipped run diverges (it may), only that the
        # clipped run stays finite and bounded.
        assert all(np.isfinite(v) for v in clipped_history["loss"])
        assert all(np.isfinite(w).all() for w in clipped.get_weights())
        assert unclipped_history is not None
