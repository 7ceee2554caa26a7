"""Unit tests for the engine: scratch reuse, workspace cache, contracts."""

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.core import nmr_conv_topology, table1_topology
from repro.inference import AccuracyContractError, InferenceEngine, freeze


def _model(input_length=40):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(4, 5, strides=2, activation="selu"),
            nn.MaxPool1D(2),
            nn.Flatten(),
            nn.Dense(8, activation="relu"),
            nn.Dense(3, activation="softmax"),
        ]
    )
    model.build((input_length,), seed=0)
    return model


@pytest.fixture(scope="module")
def setup():
    model = _model()
    rng = np.random.default_rng(0)
    x = rng.random((32, 40))
    return model, freeze(model), x


class TestCorrectness:
    def test_matches_reference_forward_pass(self, setup):
        model, plan, x = setup
        engine = InferenceEngine(plan)
        reference = model.predict(x, validate=False)
        out = engine.predict(x)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - reference)) < 1e-6

    def test_call_alias(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        np.testing.assert_array_equal(engine(x), engine.predict(x))

    def test_chunked_equals_one_shot(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        one_shot = engine.predict(x)
        chunked = engine.predict(x, batch_size=5)
        np.testing.assert_allclose(chunked, one_shot, atol=1e-6)

    def test_result_is_fresh_writable_array(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        first = engine.predict(x)
        first[:] = -1.0  # caller may scribble on its result...
        second = engine.predict(x)
        assert np.all(second >= 0.0)  # ...without poisoning the next call

    def test_input_shape_mismatch_rejected(self, setup):
        _, plan, _ = setup
        with pytest.raises(ValueError, match="expected input shape"):
            InferenceEngine(plan).predict(np.zeros((4, 41)))

    def test_bad_batch_size_rejected(self, setup):
        _, plan, x = setup
        with pytest.raises(ValueError, match="batch_size"):
            InferenceEngine(plan).predict(x, batch_size=0)

    def test_concurrent_callers_get_their_own_rows(self, setup):
        """Threads sharing one engine (a multi-worker service) share its
        scratch; no caller may get another caller's rows back."""
        _, plan, x = setup
        engine = InferenceEngine(plan)
        expected = [engine.predict(x[i:i + 4]) for i in range(0, 32, 4)]
        mismatches = []

        def caller(i):
            for _ in range(50):
                out = engine.predict(x[4 * i:4 * i + 4])
                if not np.array_equal(out, expected[i]):
                    mismatches.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches


class TestScratchReuse:
    def test_second_call_allocates_nothing_new(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        engine.predict(x)
        allocations = engine.stats()["scratch_allocations"]
        scratch_bytes = engine.stats()["scratch_bytes"]
        assert allocations > 0
        for _ in range(3):
            engine.predict(x)
        stats = engine.stats()
        assert stats["scratch_allocations"] == allocations
        assert stats["scratch_bytes"] == scratch_bytes
        assert stats["cache_hits"] == 3

    def test_capacities_round_to_powers_of_two(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        engine.predict(x[:5])
        assert engine.stats()["cached_capacities"] == [8]

    def test_ragged_batches_share_workspaces(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan)
        for n in (3, 7, 8, 4):  # capacities 4, 8, 8, 4
            engine.predict(x[:n])
        stats = engine.stats()
        assert stats["cached_capacities"] == [4, 8]
        assert stats["cache_misses"] == 2
        assert stats["cache_hits"] == 2

    def test_lru_eviction_respects_cap(self, setup):
        _, plan, x = setup
        engine = InferenceEngine(plan, max_cached_capacities=2)
        engine.predict(x[:1])   # capacity 1
        engine.predict(x[:2])   # capacity 2
        engine.predict(x[:4])   # capacity 4 -> evicts 1 (least recent)
        assert engine.stats()["cached_capacities"] == [2, 4]
        misses = engine.stats()["cache_misses"]
        engine.predict(x[:1])   # must recompile
        assert engine.stats()["cache_misses"] == misses + 1

    def test_invalid_cache_cap_rejected(self, setup):
        _, plan, _ = setup
        with pytest.raises(ValueError, match="max_cached_capacities"):
            InferenceEngine(plan, max_cached_capacities=0)


class TestAccuracyContract:
    def test_verify_against_reports_deltas(self, setup):
        model, plan, x = setup
        report = InferenceEngine(plan).verify_against(model, x)
        assert report["n_samples"] == 32
        assert 0.0 <= report["mae_delta"] <= report["max_abs_delta"]
        assert report["contract_mae"] == plan.contract

    def test_ensure_accuracy_passes_within_contract(self, setup):
        model, plan, x = setup
        report = InferenceEngine(plan).ensure_accuracy(model, x)
        assert report["mae_delta"] <= plan.contract

    def test_ensure_accuracy_raises_on_drift(self, setup):
        model, _, x = setup
        # An impossible contract turns quantization noise into drift.
        tight = freeze(model, dtype="int8", contract=1e-12)
        with pytest.raises(AccuracyContractError, match="drifted"):
            InferenceEngine(tight).ensure_accuracy(model, x)


class TestOutputBytesArePinned:
    """sha256 of predict outputs, captured while the engine gathered with
    ``np.take`` over the plan's index table (numpy 2.4, OpenBLAS, x86-64)."""

    PINNED = {
        ("table1", "float32", False): {
            1: "5aa6a3f72776602fab569b8d8c4133ec79c848e8e659867f7322416c2b9e2197",
            3: "ad8cf5b3f5db9f937b814aeb0f2dbbac768611e86da1554a54e0abb1d8be6182",
            32: "b147fcdeed56396c7090ed5f54d7c90ff983e21ff534bbb476b8a5b0d76cd860",
        },
        ("table1", "int8", True): {
            1: "4b29ec738cba372940046b9db723bc6ccad8a5b73476f69a3ca0741e641ffdab",
            3: "d2875e658021cc1b4d3e916ee4a0ad3d255f858162fd0bb9d35dfd2665e559ec",
            32: "4beaab241d3844e80343f365b139e6c1d69de0062f04ac3444fceef8eb3bb20f",
        },
        ("nmr_conv", "float32", False): {
            1: "366ae493e6ba872173209ac3072f77cfdc32c7c189cdcaf3391bc4ee9a8f442f",
            3: "832a034de81c3d864761fbae568237359ec0ee2c39aa285ec6a6a4c6cc48a764",
            32: "5775f6e1715d87c0c7c5ee9cfd7740d4662769110203f7d2373e97d8a9fbb1db",
        },
    }
    MODELS = {
        "table1": (lambda: table1_topology(4), 246),
        "nmr_conv": (nmr_conv_topology, 1700),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_batches_1_3_32(self, key):
        name, dtype, per_channel = key
        topology, length = self.MODELS[name]
        model = topology().build((length,), seed=0)
        engine = InferenceEngine(
            freeze(model, dtype=dtype, per_channel=per_channel)
        )
        x = np.random.default_rng(5).random((32, length))
        for n, digest in self.PINNED[key].items():
            out = engine.predict(x[:n])
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest, n


class TestWindowsAreAGrid:
    """The engine gathers through strided views, so a plan's windows must
    be the regular grid freeze writes; anything else is refused."""

    def _with_windows(self, plan, kind, windows):
        ops = [
            dataclasses.replace(op, windows=windows(op.windows))
            if op.kind == kind else op
            for op in plan.ops
        ]
        return dataclasses.replace(plan, ops=ops)

    @pytest.mark.parametrize("kind", ["conv1d", "maxpool"])
    @pytest.mark.parametrize("corrupt", [
        lambda w: w[:, ::-1],                   # reversed within a window
        lambda w: w + 1,                        # grid not starting at row 0
        lambda w: np.vstack([w[:1], w[2:], w[-1:] + 2]),  # uneven starts
        lambda w: w[:-1],                       # too few windows
        lambda w: w * 40,                       # reads past the input
    ])
    def test_irregular_windows_refused_at_compile(self, setup, kind, corrupt):
        _, plan, x = setup
        engine = InferenceEngine(self._with_windows(plan, kind, corrupt))
        with pytest.raises(ValueError, match="windows"):
            engine.predict(x[:2])
        assert engine.stats()["cached_capacities"] == []

    def test_single_window_plan_runs(self):
        model = nn.Sequential([
            nn.Reshape((-1, 1)), nn.Conv1D(2, 5, strides=4), nn.Flatten(),
        ])
        model.build((7,), seed=0)
        x = np.random.default_rng(0).random((3, 7))
        out = InferenceEngine(freeze(model)).predict(x)
        np.testing.assert_allclose(out, model.predict(x), atol=1e-6)
