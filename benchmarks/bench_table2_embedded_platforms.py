"""TAB2 — execution time, power and energy on Jetson Nano / TX2, CPU vs GPU.

Regenerates Table 2 through the analytical platform cost model driven by
the exact per-layer FLOP counts of the Table-1 network, for the paper's
21 600-sample dataset.  Also prints the derived ratios of §III.A.3: GPU
speedup 4.8-7.1x, energy improvement 5.0-6.3x, and the ~2.1x CUDA-core
scaling from Nano (128 cores) to TX2 (256 cores).

A second table re-derives every platform's numbers from the frozen int8
plan (``InferenceCostModel.estimate_plan``) against the layerwise
float32 estimate, at single-sample latency (batch 1, the embedded
operating point).  The Table-1 network has no standalone activation to
fold, so its float32 plan would price exactly as the layerwise model;
int8 can only shrink weight traffic, so ``int8 <= layerwise`` is
asserted per platform, alongside the ~4x weight-byte cut the int8
artifact carries.

The benchmark times the cost-model evaluation itself.
"""

import pytest

from repro.core import table1_topology
from repro.embedded import TABLE2_PLATFORMS
from repro.embedded.cost_model import InferenceCostModel
from repro.inference import freeze

from conftest import print_table, write_results

DATASET_SIZE = 21_600

# Paper Table 2: (execution time s, power W, energy J).
PAPER = {
    "nano_cpu": (30.19, 5.03, 151.86),
    "nano_gpu": (6.34, 4.77, 30.24),
    "tx2_cpu": (21.64, 5.92, 128.11),
    "tx2_gpu": (3.03, 6.68, 20.24),
}


@pytest.fixture(scope="module")
def network():
    # Built at the MMS prototype's native resolution (1000-point axis).
    return table1_topology(14).build((1000,), seed=0)


def test_table2_rows(benchmark, network):
    """Regenerate Table 2; the benchmarked op is one cost-model estimate."""
    benchmark(
        lambda: InferenceCostModel(TABLE2_PLATFORMS["tx2_gpu"]).estimate(
            network, DATASET_SIZE
        )
    )
    rows = []
    estimates = {}
    for key, spec in TABLE2_PLATFORMS.items():
        estimate = InferenceCostModel(spec).estimate(network, DATASET_SIZE)
        estimates[key] = estimate
        paper_time, paper_power, paper_energy = PAPER[key]
        rows.append(
            {
                "platform": spec.name,
                "time_s": estimate.execution_time_s,
                "power_w": estimate.power_w,
                "energy_j": estimate.energy_j,
                "paper_time_s": paper_time,
                "paper_energy_j": paper_energy,
            }
        )
    print_table(
        "Table 2: 21600-sample inference on embedded platforms",
        rows,
        ["platform", "time_s", "power_w", "energy_j", "paper_time_s", "paper_energy_j"],
    )

    ratio_rows = []
    for board in ("nano", "tx2"):
        gpu, cpu = estimates[f"{board}_gpu"], estimates[f"{board}_cpu"]
        ratio_rows.append(
            {
                "board": board,
                "gpu_speedup": cpu.execution_time_s / gpu.execution_time_s,
                "energy_ratio": cpu.energy_j / gpu.energy_j,
            }
        )
    scaling = (
        estimates["nano_gpu"].execution_time_s
        / estimates["tx2_gpu"].execution_time_s
    )
    ratio_rows.append({"board": "tx2_gpu/nano_gpu", "gpu_speedup": scaling})
    print_table(
        "Derived ratios (paper: speedup 4.8-7.1x, energy 5.0-6.3x, scaling 2.1x)",
        ratio_rows,
        ["board", "gpu_speedup", "energy_ratio"],
    )
    write_results(
        "table2_embedded_platforms",
        {
            "rows": rows,
            "ratios": ratio_rows,
            "dataset_size": DATASET_SIZE,
        },
    )

    # Shape assertions.
    for key, (paper_time, _, paper_energy) in PAPER.items():
        estimate = estimates[key]
        assert estimate.execution_time_s == pytest.approx(paper_time, rel=0.30)
        assert estimate.energy_j == pytest.approx(paper_energy, rel=0.30)
    for row in ratio_rows[:2]:
        assert 4.0 < row["gpu_speedup"] < 8.0
        assert 4.2 < row["energy_ratio"] < 7.0
    assert 1.5 < scaling < 2.6


def test_frozen_plan_costs(network):
    """Platform numbers re-derived from the int8 plan's byte sizes."""
    f32_plan = freeze(network)
    int8_plan = freeze(network, dtype="int8")

    rows = []
    for key, spec in TABLE2_PLATFORMS.items():
        cost_model = InferenceCostModel(spec)
        # Batch 1: the embedded single-spectrum latency point, where
        # weight traffic is not amortized across a batch.
        layerwise = cost_model.estimate(network, DATASET_SIZE, batch_size=1)
        fused_int8 = cost_model.estimate_plan(
            int8_plan, DATASET_SIZE, batch_size=1
        )
        rows.append(
            {
                "platform": spec.name,
                "layerwise_s": layerwise.execution_time_s,
                "fused_int8_s": fused_int8.execution_time_s,
                "fused_int8_j": fused_int8.energy_j,
            }
        )
    print_table(
        "Frozen-plan cost model (batch 1: single-spectrum latency)",
        rows,
        ["platform", "layerwise_s", "fused_int8_s", "fused_int8_j"],
    )
    write_results(
        "table2_frozen_plans",
        {
            "rows": rows,
            "fused_ops": f32_plan.fused_op_count,
            "source_layers": len(f32_plan.source_layers),
            "weight_bytes_f32": f32_plan.weight_bytes,
            "weight_bytes_int8": int8_plan.weight_bytes,
            "dataset_size": DATASET_SIZE,
        },
    )

    # int8 shrinks weight traffic; it cannot make any platform slower.
    for row in rows:
        assert row["fused_int8_s"] <= row["layerwise_s"] + 1e-9
    # The plan really is fused (fewer launched ops than model layers,
    # views free) and the int8 artifact carries the ~4x weight cut.
    assert f32_plan.fused_op_count < len(network.layers)
    assert f32_plan.weight_bytes > 3.5 * int8_plan.weight_bytes
