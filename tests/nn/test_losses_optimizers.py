"""Unit tests for losses and optimizers."""

import numpy as np
import pytest

from repro.nn.losses import MeanAbsoluteError, MeanSquaredError, get_loss
from repro.nn.optimizers import Adam, get_optimizer
from tests.nn.gradcheck import numeric_grad


class TestLosses:
    def test_mae_value(self):
        loss = MeanAbsoluteError()
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[1.5, 2.0], [2.0, 4.0]])
        assert loss.value(pred, target) == pytest.approx((0.5 + 1.0) / 4)

    def test_mse_value(self):
        loss = MeanSquaredError()
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 4.0]])
        assert loss.value(pred, target) == pytest.approx((1.0 + 4.0) / 2)

    @pytest.mark.parametrize("loss_cls", [MeanAbsoluteError, MeanSquaredError])
    def test_gradient_matches_numeric(self, loss_cls):
        loss = loss_cls()
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))

        def f():
            return loss.value(pred, target)

        analytic = loss.gradient(pred, target)
        numeric = numeric_grad(f, pred)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            MeanAbsoluteError().value(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_registry_names_and_aliases(self):
        assert isinstance(get_loss("mae"), MeanAbsoluteError)
        assert isinstance(get_loss("mean_squared_error"), MeanSquaredError)
        with pytest.raises(ValueError):
            get_loss("huber")


def _quadratic_descent(optimizer, steps=200):
    """Minimize f(w) = ||w||^2 from a fixed start; return final norm."""
    w = np.array([5.0, -3.0, 2.0])
    params = {(0, "w"): w}
    for _ in range(steps):
        grads = {(0, "w"): 2.0 * params[(0, "w")]}
        optimizer.apply(params, grads)
    return float(np.linalg.norm(params[(0, "w")]))


class TestOptimizers:
    def test_adam_converges(self):
        assert _quadratic_descent(Adam(learning_rate=0.3), steps=400) < 1e-4

    def test_adam_bias_correction_first_step(self):
        # After one step with gradient g, Adam moves by ~lr * sign(g).
        opt = Adam(learning_rate=0.1)
        w = np.array([1.0])
        params = {(0, "w"): w}
        opt.apply(params, {(0, "w"): np.array([4.0])})
        assert params[(0, "w")][0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_clipnorm_limits_step(self):
        # beta_1=0 makes the first moment the (clipped) gradient itself.
        opt = Adam(learning_rate=1.0, beta_1=0.0, clipnorm=1.0)
        w = np.zeros(3)
        params = {(0, "w"): w}
        opt.apply(params, {(0, "w"): np.array([30.0, 40.0, 0.0])})
        # Gradient norm 50 clipped to 1 -> first moment of norm 1.
        assert np.linalg.norm(opt._m[(0, "w")]) == pytest.approx(1.0)

    def test_reset_clears_state(self):
        opt = Adam()
        params = {(0, "w"): np.ones(2)}
        opt.apply(params, {(0, "w"): np.ones(2)})
        assert opt.iterations == 1
        opt.reset()
        assert opt.iterations == 0
        assert not opt._m

    def test_registry(self):
        assert isinstance(get_optimizer("adam"), Adam)
        opt = get_optimizer({"name": "adam", "learning_rate": 0.5, "beta_1": 0.8})
        assert opt.learning_rate == 0.5
        assert opt.beta_1 == 0.8

    @pytest.mark.parametrize(
        "spec",
        ["nadam", {"name": "nadam"}, {"name": "sgd", "learning_rate": 0.1}, {}],
        ids=["name", "config", "deleted_config", "config_without_name"],
    )
    def test_unknown_optimizer_raises_value_error(self, spec):
        with pytest.raises(ValueError, match="unknown optimizer"):
            get_optimizer(spec)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=-1)
        with pytest.raises(ValueError):
            Adam(beta_1=1.0)
        with pytest.raises(ValueError):
            Adam(beta_2=1.5)

    @pytest.mark.parametrize("clipnorm", [-1.0, 0.0, float("nan")])
    def test_clipnorm_must_be_positive(self, clipnorm):
        # A negative clip norm negates every gradient (ascent), zero freezes
        # training and NaN silently disables clipping.
        with pytest.raises(ValueError, match="clipnorm"):
            Adam(clipnorm=clipnorm)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
            ("epsilon", 0.0),
            ("epsilon", -1e-8),
        ],
    )
    def test_rate_and_epsilon_must_be_positive_and_finite(self, field, value):
        # Each of these trains an MLP to all-NaN weights without an error.
        with pytest.raises(ValueError, match=field):
            Adam(**{field: value})

    def test_registry_refuses_a_zero_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            get_optimizer({"name": "adam", "epsilon": 0.0})

    def test_registry_refuses_a_negative_clipnorm(self):
        with pytest.raises(ValueError, match="clipnorm"):
            get_optimizer({"name": "adam", "clipnorm": -1})
