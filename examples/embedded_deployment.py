#!/usr/bin/env python
"""Exporting a trained network for embedded inference (paper's Table 2).

Trains a small Table-1 network, freezes it to float32 and int8 plans
with calibration, exports the float32 plan as a deployment package (plan
+ manifest) and prices execution time / power / energy for the 21 600-
sample evaluation dataset on Jetson Nano and TX2, CPU and GPU, from the
plan's fused ops — the shape of the paper's Table 2.

Run:  python examples/embedded_deployment.py
"""

import json
import tempfile

import numpy as np

from repro import nn
from repro.core import table1_topology
from repro.embedded import TABLE2_PLATFORMS, export_for_embedded
from repro.embedded.cost_model import InferenceCostModel
from repro.inference import freeze
from repro.ms import InstrumentCharacteristics, MassSpectrometerSimulator, MzAxis
from repro.ms.compounds import DEFAULT_TASK_COMPOUNDS, default_library


def main():
    task = DEFAULT_TASK_COMPOUNDS
    axis = MzAxis(1.0, 100.0, 0.1)  # 991-point axis like the MMS prototype
    simulator = MassSpectrometerSimulator(
        InstrumentCharacteristics(), axis, default_library()
    )
    rng = np.random.default_rng(0)

    print("training a small Table-1 network ...")
    x, y = simulator.generate_dataset(task, 3000, rng)
    model = table1_topology(len(task)).build((axis.size,), seed=0)
    model.compile(nn.Adam(0.001), "mae")
    model.fit(x, y, epochs=5, batch_size=64, seed=0)

    # The calibration MAE each plan records against the float64 model is
    # the accuracy cost of its number format (paper §IV).
    float32 = freeze(model, calibration=x[:256])
    int8 = freeze(model, dtype="int8", calibration=x[:256])
    for plan in (float32, int8):
        print(f"{plan.dtype:7s} plan: calibration MAE "
              f"{plan.calibration['mae_delta']:.2e} "
              f"(contract <= {plan.contract:g})")

    with tempfile.TemporaryDirectory() as tmp:
        paths = export_for_embedded(model, tmp, dataset_size=21_600)
        with open(paths["manifest"], encoding="utf-8") as handle:
            manifest = json.load(handle)
    print(f"\nexported package: {manifest['parameters']} parameters, "
          f"{manifest['flops_per_sample'] / 1e6:.1f} MFLOP/sample")

    print("\nplan-priced Table-2 rows (21600-sample dataset):")
    print(f"{'platform':22s}{'time/s':>9}{'power/W':>9}{'energy/J':>10}")
    for key, row in manifest["evaluation"]["platforms"].items():
        spec = TABLE2_PLATFORMS[key]
        print(f"{spec.name:22s}{row['execution_time_s']:9.2f}"
              f"{row['power_w']:9.2f}{row['energy_j']:10.2f}")

    # Int8 weights for overlay PEs tailored to "number formats" (§IV).
    print(f"\nint8 plan weights: {float32.weight_bytes / 1024:.0f} KiB "
          f"-> {int8.weight_bytes / 1024:.0f} KiB "
          f"({float32.weight_bytes / int8.weight_bytes:.1f}x smaller)")

    print("\nGPU-vs-CPU ratios (paper: speedup 4.8-7.1x, energy 5.0-6.3x):")
    for board in ("nano", "tx2"):
        gpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_gpu"])
        cpu = InferenceCostModel(TABLE2_PLATFORMS[f"{board}_cpu"])
        ratios = gpu.compare_to(cpu, model, 21_600)
        print(f"  {board:5s} speedup {ratios['speedup']:.1f}x   "
              f"energy {ratios['energy_ratio']:.1f}x")


if __name__ == "__main__":
    main()
