"""Adam's flat moments step exactly like the per-parameter formula.

``Adam`` keeps ``m`` and ``v`` as one flat vector each and steps them in
one elementwise pass.  ``PerKeyAdam`` below is the textbook per-parameter
update, one key at a time; every test drives both from the same start and
compares params and ``get_state()`` byte for byte.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.optimizers import Adam, Optimizer

SHAPES = {(0, "W"): (6, 4), (0, "b"): (4,), (2, "W"): (4, 1), (2, "b"): (1,)}


class PerKeyAdam(Optimizer):
    """Adam with separate moment arrays per key, updated key by key."""

    name = "adam"

    def __init__(self, learning_rate=0.001, clipnorm=None):
        super().__init__(learning_rate, clipnorm)
        self.beta_1, self.beta_2, self.epsilon = 0.9, 0.999, 1e-8
        self._m, self._v = {}, {}

    def _slots(self):
        return {"m": self._m, "v": self._v}

    def reset(self):
        super().reset()
        self._m.clear()
        self._v.clear()

    def apply(self, params, grads):
        self.iterations += 1
        if self.clipnorm is not None:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > self.clipnorm and total > 0:
                grads = {k: g * (self.clipnorm / total) for k, g in grads.items()}
        for key, grad in grads.items():
            param = params[key]
            if key not in self._m:
                self._m[key] = np.zeros_like(param)
                self._v[key] = np.zeros_like(param)
            m = self.beta_1 * self._m[key] + (1.0 - self.beta_1) * grad
            v = self.beta_2 * self._v[key] + (1.0 - self.beta_2) * grad * grad
            self._m[key], self._v[key] = m, v
            t = self.iterations
            m_hat = m / (1.0 - self.beta_1**t)
            v_hat = v / (1.0 - self.beta_2**t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _state_bytes(optimizer):
    state = optimizer.get_state()
    return state["iterations"], {
        name: [(key, value.shape, value.dtype.str, value.tobytes()) for key, value in slot.items()]
        for name, slot in state["slots"].items()
    }


def _params_bytes(params):
    return [(key, value.tobytes()) for key, value in params.items()]


class _Pair:
    """The flat and the per-key optimizer on twin copies of one param set."""

    def __init__(self, clipnorm=None, seed=0):
        rng = np.random.default_rng(seed)
        start = {key: rng.normal(size=shape) for key, shape in SHAPES.items()}
        self.flat, self.reference = Adam(0.01, clipnorm=clipnorm), PerKeyAdam(0.01, clipnorm)
        self.flat_params = {k: v.copy() for k, v in start.items()}
        self.reference_params = {k: v.copy() for k, v in start.items()}
        self.rng = rng

    def step(self, keys=tuple(SHAPES), scale=1.0):
        grads = {key: scale * self.rng.normal(size=SHAPES[key]) for key in keys}
        self.flat.apply(self.flat_params, {k: g.copy() for k, g in grads.items()})
        self.reference.apply(self.reference_params, {k: g.copy() for k, g in grads.items()})

    def assert_equal(self):
        assert _params_bytes(self.flat_params) == _params_bytes(self.reference_params)
        assert _state_bytes(self.flat) == _state_bytes(self.reference)


@pytest.mark.parametrize("clipnorm", [None, 0.5], ids=["unclipped", "clipped"])
class TestFlatAdamIsBitEqual:
    def test_mixed_shapes(self, clipnorm):
        pair = _Pair(clipnorm)
        for _ in range(6):
            pair.step(scale=3.0)
            pair.assert_equal()

    def test_state_round_trip_mid_run(self, clipnorm):
        pair = _Pair(clipnorm)
        for _ in range(3):
            pair.step()
        restored = Adam(0.01, clipnorm=clipnorm)
        restored.set_state(pair.flat.get_state())
        pair.flat = restored
        pair.assert_equal()
        for _ in range(3):
            pair.step()
        pair.assert_equal()
        # Restoring into a running optimizer replaces its moments.
        snapshot = pair.reference.get_state()
        pair.step()
        pair.flat.set_state(snapshot)
        pair.reference.set_state(snapshot)
        pair.step()
        pair.assert_equal()

    def test_key_set_changes_and_moments_carry_over(self, clipnorm):
        pair = _Pair(clipnorm)
        pair.step()
        pair.step(keys=[(2, "W"), (2, "b")])
        pair.assert_equal()
        pair.step()
        pair.step(keys=[(2, "b"), (0, "W"), (0, "b"), (2, "W")])
        pair.step(keys=[(0, "b")])
        pair.step()
        pair.assert_equal()

    def test_reset(self, clipnorm):
        pair = _Pair(clipnorm)
        pair.step()
        pair.step()
        pair.flat.reset()
        pair.reference.reset()
        assert not pair.flat._m and pair.flat.iterations == 0
        pair.step(keys=[(0, "W")])
        pair.step()
        pair.assert_equal()


def _model(optimizer):
    return (
        nn.Sequential([nn.Dense(5, activation="relu"), nn.Dense(3, activation="relu"), nn.Dense(1)])
        .build((4,), seed=0)
        .compile(optimizer, "mse")
    )


def test_a_frozen_layer_keeps_its_moments_in_a_model():
    flat, reference = _model(Adam(0.01, clipnorm=1.0)), _model(PerKeyAdam(0.01, 1.0))
    rng = np.random.default_rng(3)
    for trainable in (True, True, False, False, True, True):
        x, y = rng.normal(size=(8, 4)), rng.normal(size=(8, 1))
        for model in (flat, reference):
            model.layers[1].trainable = trainable
            model.train_on_batch(x, y)
    for a, b in zip(flat.get_weights(), reference.get_weights()):
        assert a.tobytes() == b.tobytes()
    assert _state_bytes(flat.optimizer) == _state_bytes(reference.optimizer)
