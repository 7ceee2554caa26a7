"""Frozen-vs-reference parity across the paper's topologies.

Property-style sweep: every Fig-5 activation-study variant of the
Table-1 CNN, the Fig-6 NMR conv net and the MLP baseline must satisfy
the per-dtype accuracy contract (``DEFAULT_CONTRACTS``) against the
float64 layer-by-layer reference — float32 within 1e-5 MAE, int8
(per-tensor and per-channel) within the pinned 2e-2 budget.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    activation_study_variants,
    mlp_topology,
    nmr_conv_topology,
)
from repro.inference import DEFAULT_CONTRACTS, InferenceEngine, freeze
from repro.serving import batch_analyzer_from_model

OUTPUTS = 4

# The Table-1 conv stack needs >= ~300 input points for every stride to fit.
VARIANTS = {spec.name: spec for spec in activation_study_variants(OUTPUTS)}
CASES = [(name, 300) for name in VARIANTS]


def _build(name, length):
    if name == "mlp":
        return mlp_topology(OUTPUTS).build((length,), seed=0)
    if name == "nmr_conv":
        return nmr_conv_topology(OUTPUTS).build((length,), seed=0)
    return VARIANTS[name].build((length,), seed=0)


def _mae(engine, model, x):
    return float(
        np.mean(np.abs(engine.predict(x) - model.predict(x, validate=False)))
    )


@pytest.mark.parametrize(
    "name,length", CASES + [("mlp", 200), ("nmr_conv", 153)]
)
def test_parity_across_dtypes(name, length):
    model = _build(name, length)
    rng = np.random.default_rng(7)
    x = rng.random((16, length))

    f32 = InferenceEngine(freeze(model))
    assert _mae(f32, model, x) <= DEFAULT_CONTRACTS["float32"]

    int8 = InferenceEngine(freeze(model, dtype="int8"))
    assert _mae(int8, model, x) <= DEFAULT_CONTRACTS["int8"]

    per_channel = InferenceEngine(
        freeze(model, dtype="int8", per_channel=True)
    )
    assert _mae(per_channel, model, x) <= DEFAULT_CONTRACTS["int8"]


def test_plan_cache_reuse_across_sweep():
    """Second predict at a seen batch size allocates nothing new."""
    model = _build("relu_sftm_sftm", 300)
    engine = InferenceEngine(freeze(model))
    rng = np.random.default_rng(3)
    x = rng.random((8, 300))
    engine.predict(x)
    allocations = engine.stats()["scratch_allocations"]
    engine.predict(x)
    stats = engine.stats()
    assert stats["scratch_allocations"] == allocations
    assert stats["capacity"] == 8


def test_unsupported_topology_falls_back_to_reference():
    """An LSTM model cannot freeze; serving must fall back byte-identically."""
    model = nn.Sequential(
        [nn.Reshape((-1, 1)), nn.LSTM(16), nn.Dense(OUTPUTS)]
    )
    model.build((120,), seed=0)
    analyzer = batch_analyzer_from_model(model, frozen="float32")
    assert analyzer.engine is None
    assert analyzer.frozen_dtype is None
    rng = np.random.default_rng(5)
    x = rng.random((6, 120))
    np.testing.assert_array_equal(
        analyzer(x), model.predict(x, validate=False)
    )


def test_frozen_batch_analyzer_padding_keeps_single_rows_consistent():
    """A batch of one rides the same gemm path as a batch of many."""
    model = _build("mlp", 200)
    analyzer = batch_analyzer_from_model(model, frozen="float32")
    assert analyzer.frozen_dtype == "float32"
    rng = np.random.default_rng(11)
    x = rng.random((4, 200))
    batched = analyzer(x)
    for i in range(4):
        single = analyzer(x[i : i + 1])
        np.testing.assert_allclose(single[0], batched[i], atol=1e-7)
