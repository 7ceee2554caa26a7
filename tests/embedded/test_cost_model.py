"""Unit tests for the inference cost model (Table 2 reproduction)."""

import hashlib
import json

import numpy as np
import pytest

from repro import nn
from repro.embedded.cost_model import InferenceCostModel
from repro.embedded.platforms import TABLE2_PLATFORMS
from repro.inference import freeze
from tests.embedded.test_cost_model_batching import _small_net


def table1_network(input_length=1000, outputs=14):
    model = nn.Sequential(
        [
            nn.Reshape((-1, 1)),
            nn.Conv1D(25, 20, 1, activation="selu"),
            nn.Conv1D(25, 20, 3, activation="selu"),
            nn.Conv1D(25, 15, 2, activation="selu"),
            nn.Conv1D(15, 15, 4, activation="softmax"),
            nn.Flatten(),
            nn.Dense(outputs, activation="softmax"),
        ]
    )
    model.build((input_length,))
    return model


NET = table1_network()

# Table 2 of the paper: (execution time s, power W, energy J) for the
# 21 600-sample dataset.
PAPER_TABLE2 = {
    "nano_cpu": (30.19, 5.03, 151.86),
    "nano_gpu": (6.34, 4.77, 30.24),
    "tx2_cpu": (21.64, 5.92, 128.11),
    "tx2_gpu": (3.03, 6.68, 20.24),
}


class TestEstimate:
    def test_time_scales_linearly_with_samples(self):
        model = InferenceCostModel(TABLE2_PLATFORMS["nano_cpu"])
        small = model.estimate(NET, 1280)
        large = model.estimate(NET, 12800)
        assert large.execution_time_s == pytest.approx(
            10 * small.execution_time_s, rel=0.01
        )

    def test_energy_is_power_times_time(self):
        model = InferenceCostModel(TABLE2_PLATFORMS["tx2_gpu"])
        est = model.estimate(NET, 21_600)
        assert est.energy_j == pytest.approx(est.power_w * est.execution_time_s)

    def test_per_layer_breakdown_sums_to_total(self):
        est = InferenceCostModel(TABLE2_PLATFORMS["nano_gpu"]).estimate(NET, 21_600)
        assert sum(est.per_layer_seconds.values()) == pytest.approx(
            est.execution_time_s
        )

    def test_validation(self):
        model = InferenceCostModel(TABLE2_PLATFORMS["nano_cpu"])
        with pytest.raises(ValueError):
            model.estimate(NET, 0)
        with pytest.raises(ValueError):
            model.estimate(NET, 100, batch_size=0)


class TestTable2Shape:
    @pytest.mark.parametrize("key", list(PAPER_TABLE2))
    def test_absolute_numbers_within_25_percent(self, key):
        """The calibrated model lands near the paper's measurements."""
        est = InferenceCostModel(TABLE2_PLATFORMS[key]).estimate(NET, 21_600)
        paper_time, paper_power, paper_energy = PAPER_TABLE2[key]
        assert est.execution_time_s == pytest.approx(paper_time, rel=0.25)
        assert est.power_w == pytest.approx(paper_power, rel=0.01)
        assert est.energy_j == pytest.approx(paper_energy, rel=0.25)

    def test_gpu_speedup_in_paper_range(self):
        """Paper: GPUs are 4.8x-7.1x faster than the CPUs."""
        for board in ("nano", "tx2"):
            gpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_gpu"])
            cpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_cpu"])
            ratio = gpu.compare_to(cpu, NET, 21_600)
            assert 4.0 < ratio["speedup"] < 8.0

    def test_gpu_energy_ratio_in_paper_range(self):
        """Paper: GPUs use 5.0x-6.3x less energy."""
        for board in ("nano", "tx2"):
            gpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_gpu"])
            cpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_cpu"])
            ratio = gpu.compare_to(cpu, NET, 21_600)
            assert 4.2 < ratio["energy_ratio"] < 7.0

    def test_cuda_core_scaling(self):
        """Paper: TX2's 256 cores beat Nano's 128 by ~2.1x in time."""
        tx2 = InferenceCostModel(TABLE2_PLATFORMS["tx2_gpu"]).estimate(NET, 21_600)
        nano = InferenceCostModel(TABLE2_PLATFORMS["nano_gpu"]).estimate(NET, 21_600)
        scaling = nano.execution_time_s / tx2.execution_time_s
        assert 1.5 < scaling < 2.6

    def test_row_format(self):
        est = InferenceCostModel(TABLE2_PLATFORMS["nano_cpu"]).estimate(NET, 21_600)
        row = est.row()
        assert set(row) == {"execution_time_s", "power_w", "energy_j"}


def _memory_bound_net():
    model = nn.Sequential([nn.Dense(4096), nn.Dense(10)])
    model.build((4096,), seed=0)
    return model


def cost_digest(estimates):
    """sha256 over the exact bits of every float a list of estimates holds."""
    record = [
        [
            est.platform, est.n_samples, est.batch_size,
            est.execution_time_s.hex(), est.power_w.hex(), est.energy_j.hex(),
            [[name, seconds.hex()] for name, seconds in est.per_layer_seconds.items()],
        ]
        for est in estimates
    ]
    return hashlib.sha256(json.dumps(record).encode("utf-8")).hexdigest()


def _on_every_platform(price):
    """``price(cost_model, batch_size)`` on every platform at batch 1 and 128."""
    return [
        price(InferenceCostModel(spec), batch_size)
        for batch_size in (1, 128)
        for spec in TABLE2_PLATFORMS.values()
    ]


class TestCostPins:
    """Per-layer seconds and totals, pinned bit for bit.

    Captured before ``estimate`` and ``estimate_plan`` shared one roofline
    loop; any change to the arithmetic or the order of its operations
    moves a digest.
    """

    ESTIMATE = {
        "table1": "6050b34a64a6a1877b27ece33a45437eac84cafefe6c12988bdc3f9620634a45",
        "small": "ba74bf643f1c9d6f6506fa7c5320703769da30b3edff6242f978790a18198361",
        "memory_bound":
            "c026c56769101b0fbcb2bf54528e6a7ba0ec7c05e184d1b70b79870b04301597",
    }
    PLANS = {
        "float32": "45bd98b95db2b8ec932fc422c5556b31dd34faaf37eeaa4c38bf998428fbccac",
        "int8": "c73fd6ea64a5c43de302a4dfd7755bcbe1ddd9a775d26822a051fbca800b872b",
        "int8_per_channel":
            "61a76cb9781b72dc83b8c259507d3e6979c9676df4282fb63dd05c7f33547ace",
    }

    @pytest.mark.parametrize(
        "name, build",
        [("table1", lambda: NET), ("small", _small_net),
         ("memory_bound", _memory_bound_net)],
    )
    def test_estimate(self, name, build):
        model = build()
        estimates = _on_every_platform(
            lambda cost, batch: cost.estimate(model, 21_600, batch)
        )
        assert cost_digest(estimates) == self.ESTIMATE[name]

    @pytest.mark.parametrize(
        "name, dtype, per_channel",
        [("float32", "float32", False), ("int8", "int8", False),
         ("int8_per_channel", "int8", True)],
    )
    def test_estimate_plan(self, name, dtype, per_channel):
        plan = freeze(NET, dtype=dtype, per_channel=per_channel)
        estimates = _on_every_platform(
            lambda cost, batch: cost.estimate_plan(plan, 21_600, batch)
        )
        assert cost_digest(estimates) == self.PLANS[name]
