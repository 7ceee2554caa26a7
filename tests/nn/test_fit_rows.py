"""``fit(x, y, rows=(train_rows, validation_rows))`` trains by row index.

It must reach the same bits as fitting the gathered subsets with
``validation_data``: the same batches in the same order, the same
validation chunks, so equal weights and an equal ``History``.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import mlp_topology, nmr_conv_topology, table1_topology
from repro.nn.sentinel import DivergenceSentinel
from repro.nn.training import predict_rows
from tests.nn.test_sentinel import PoisonWeights

MODELS = {
    "mlp": (lambda: mlp_topology(4, hidden_units=(16, 8)), 32),
    "table1": (lambda: table1_topology(4), 246),
    "nmr_conv": (nmr_conv_topology, 270),
}


def _data(length, n=700, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, length))
    y = rng.dirichlet(np.ones(4), size=n)
    # At n=700, 350 validation rows (two 256-row chunks) and a partial
    # last batch of 30 training rows.
    order = rng.permutation(n)
    return x, y, order[: n // 2], order[n // 2 :]


def _fit(name, x, y, callbacks=(), **kwargs):
    topology, length = MODELS[name]
    model = topology().build((length,), seed=0)
    model.compile(nn.Adam(0.003), "mae")
    history = model.fit(
        x, y, epochs=3, batch_size=64, seed=0, callbacks=list(callbacks), **kwargs
    )
    return model, history


def _assert_bit_equal(by_rows, gathered):
    (model_r, history_r), (model_g, history_g) = by_rows, gathered
    assert [w.tobytes() for w in model_r.get_weights()] == [
        w.tobytes() for w in model_g.get_weights()
    ]
    assert history_r.epochs == history_g.epochs
    keys = set(history_g.history) - {"epoch_seconds"}
    assert set(history_r.history) - {"epoch_seconds"} == keys
    for key in keys:
        assert np.array(history_r[key]).tobytes() == np.array(history_g[key]).tobytes(), key


def _gathered(name, x, y, tr, va, callbacks=()):
    return _fit(name, x[tr], y[tr], callbacks, validation_data=(x[va], y[va]))


class TestRowsAreBitEqual:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_weights_and_history(self, name):
        x, y, tr, va = _data(MODELS[name][1])
        _assert_bit_equal(
            _fit(name, x, y, rows=(tr, va)), _gathered(name, x, y, tr, va)
        )

    def test_early_stopping_restores_best_weights(self):
        x, y, tr, va = _data(32)

        def stopper():
            return [nn.EarlyStopping(patience=0, restore_best_weights=True)]

        _assert_bit_equal(
            _fit("mlp", x, y, stopper(), rows=(tr, va)),
            _gathered("mlp", x, y, tr, va, stopper()),
        )

    def test_sentinel_rollback_redraws_the_permutation(self):
        x, y, tr, va = _data(32)

        def poisoned():
            return [PoisonWeights(epoch=2, batch=1), DivergenceSentinel()]

        by_rows = _fit("mlp", x, y, poisoned(), rows=(tr, va))
        _assert_bit_equal(by_rows, _gathered("mlp", x, y, tr, va, poisoned()))
        assert by_rows[0].optimizer.learning_rate == pytest.approx(0.0015)

    def test_read_only_memmap(self, tmp_path):
        x, y, tr, va = _data(32)
        np.save(tmp_path / "x.npy", x)
        mapped = np.load(tmp_path / "x.npy", mmap_mode="r")
        assert not mapped.flags.writeable
        _assert_bit_equal(
            _fit("mlp", mapped, y, rows=(tr, va)), _gathered("mlp", x, y, tr, va)
        )


class TestRowsAreChecked:
    @pytest.fixture
    def data(self):
        return _data(32, n=40)

    @pytest.mark.parametrize("bad", [40, -1])
    def test_out_of_range_index(self, data, bad):
        x, y, tr, va = data
        with pytest.raises(IndexError, match="out of range"):
            _fit("mlp", x, y, rows=(np.append(tr, bad), va))

    def test_empty_train_rows(self, data):
        x, y, _, va = data
        with pytest.raises(ValueError, match="no train"):
            _fit("mlp", x, y, rows=(np.array([], dtype=np.intp), va))

    def test_rows_with_validation_data(self, data):
        x, y, tr, va = data
        with pytest.raises(ValueError, match="not both"):
            _fit("mlp", x, y, rows=(tr, va), validation_data=(x[va], y[va]))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_rows_refuses_batch_size_below_one(self, data, batch_size):
        x, _, _, va = data
        model = MODELS["mlp"][0]().build((32,), seed=0)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            predict_rows(model, x, va, batch_size=batch_size)
