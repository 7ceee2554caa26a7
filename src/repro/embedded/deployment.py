"""Model export for embedded targets.

The paper's backend tooling includes "a tool to export the desired ANN for
use on embedded platforms".  The exported artifact is the frozen float32
:class:`~repro.inference.plan.InferencePlan` — the plan the engine runs,
in the checksummed plan envelope — plus a manifest: the architecture,
the exact FLOP budget, the float32 and int8 plans' weight bytes, and
Table-2 costs for each registered platform priced from the plan's fused
ops.  The float64 training checkpoint is not part of the package.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Union

from repro.nn.model import Sequential
from repro.nn.serialization import model_to_dict
from repro.embedded.cost_model import InferenceCostModel
from repro.embedded.platforms import TABLE2_PLATFORMS
from repro.storage.integrity import atomic_write_bytes

__all__ = ["export_for_embedded"]


def export_for_embedded(
    model: Sequential,
    directory: Union[str, os.PathLike],
    dataset_size: int = 21_600,
    batch_size: int = 128,
) -> Dict[str, str]:
    """Write a deployment package: the frozen plan and its manifest.

    Returns the paths written (``plan``, ``manifest``).  ``dataset_size``
    defaults to the paper's 21 600-sample evaluation set.  A model with a
    layer that has no fused kernel (LSTM) raises
    :class:`~repro.inference.plan.UnsupportedLayerError`.
    """
    from repro.inference import freeze, save_plan  # lazy: inference imports us

    plan = freeze(model)
    int8_plan = freeze(model, dtype="int8")
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    plan_path = save_plan(plan, os.path.join(directory, "model.plan"))
    manifest = {
        "architecture": model_to_dict(model),
        "parameters": model.count_params(),
        "flops_per_sample": int(plan.total_flops),
        "weight_bytes_float32": int(plan.weight_bytes),
        "weight_bytes_int8": int(int8_plan.weight_bytes),
        "evaluation": {
            "dataset_size": dataset_size,
            "batch_size": batch_size,
            "platforms": {
                key: InferenceCostModel(spec)
                .estimate_plan(plan, dataset_size, batch_size)
                .row()
                for key, spec in TABLE2_PLATFORMS.items()
            },
        },
    }
    manifest_path = atomic_write_bytes(
        os.path.join(directory, "manifest.json"),
        json.dumps(manifest, indent=2).encode("utf-8"),
    )
    return {"plan": plan_path, "manifest": manifest_path}
