"""Roofline-style inference cost model.

For each layer of a built network (exact FLOP and byte counts from
:mod:`repro.nn.flops`) or each fused op of a frozen plan, one roofline
loop charges, per batch,

    time_layer = max(compute_time, memory_time) + kernel_overhead

where compute time uses the platform's achieved GFLOPS and memory time the
achieved bandwidth (weights are fetched once per batch; activations move
once per sample).  Energy is active power times busy time plus idle power
for any remaining wall-clock time (none here, since the workload is a
closed loop over the dataset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.nn.flops import count_model_flops
from repro.nn.model import Sequential
from repro.embedded.platforms import PlatformSpec

__all__ = ["CostEstimate", "InferenceCostModel"]


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of running a dataset through a network."""

    platform: str
    n_samples: int
    batch_size: int
    execution_time_s: float
    power_w: float
    energy_j: float
    per_layer_seconds: Dict[str, float]

    def row(self) -> Dict[str, float]:
        """A Table-2-style result row."""
        return {
            "execution_time_s": round(self.execution_time_s, 2),
            "power_w": round(self.power_w, 2),
            "energy_j": round(self.energy_j, 2),
        }


class InferenceCostModel:
    """Estimates execution time / power / energy on one platform."""

    def __init__(self, platform: PlatformSpec):
        self.platform = platform

    def _price(self, rows, n_samples: int, batch_size: int) -> CostEstimate:
        """The roofline over ``(name, flops, param_bytes, activation_bytes)`` rows."""
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        platform = self.platform
        n_batches = -(-n_samples // batch_size)  # ceil

        compute_per_flop = 1.0 / (platform.effective_gflops * 1e9)
        bytes_per_second = platform.effective_bandwidth_gbs * 1e9
        overhead_s = platform.kernel_overhead_us * 1e-6

        per_row: Dict[str, float] = {}
        total = 0.0
        for name, flops, param_bytes, activation_bytes in rows:
            compute_time = flops * batch_size * compute_per_flop
            # Weights stream once per batch; activations per sample.
            traffic = param_bytes + activation_bytes * batch_size
            memory_time = traffic / bytes_per_second
            seconds = (max(compute_time, memory_time) + overhead_s) * n_batches
            per_row[name] = seconds
            total += seconds

        return CostEstimate(
            platform=platform.name,
            n_samples=n_samples,
            batch_size=batch_size,
            execution_time_s=total,
            power_w=platform.active_power_w,
            energy_j=platform.active_power_w * total,
            per_layer_seconds=per_row,
        )

    def estimate(
        self,
        model: Sequential,
        n_samples: int,
        batch_size: int = 128,
    ) -> CostEstimate:
        """Cost of pushing ``n_samples`` spectra through ``model``, per layer."""
        rows = [
            (f"{i}:{cost.layer_name}", cost.flops, cost.param_bytes,
             cost.activation_bytes)
            for i, cost in enumerate(count_model_flops(model))
            # Zero-FLOP, zero-activation layers (reshape/flatten) are free views.
            if cost.flops or cost.activation_bytes
        ]
        return self._price(rows, n_samples, batch_size)

    def estimate_plan(
        self,
        plan,
        n_samples: int,
        batch_size: int = 128,
    ) -> CostEstimate:
        """Cost of a *frozen* plan: real fused-op counts, real byte sizes.

        Same roofline as :meth:`estimate`, but charged per
        :class:`~repro.inference.plan.FusedOp` instead of per layer —
        which is where freezing pays on the cost side:

        * a folded standalone activation launches no kernel of its own,
          so the plan pays one ``kernel_overhead`` where the layerwise
          model paid two;
        * ``param_bytes`` comes from the plan's number format — an int8
          plan streams one byte per weight plus its scales, which is the
          4x traffic cut the paper's bandwidth-starved platforms feel.

        ``plan`` is duck-typed (anything with ``ops`` carrying ``kind``,
        ``name``, ``flops``, ``param_bytes``, ``activation_bytes``), so
        this module keeps importing nothing above :mod:`repro.nn`.
        """
        rows = [
            (f"{i}:{op.name}", op.flops, op.param_bytes, op.activation_bytes)
            for i, op in enumerate(plan.ops)
            if op.kind != "view"  # reshape/flatten are free views
        ]
        return self._price(rows, n_samples, batch_size)

    def compare_to(
        self, other: "InferenceCostModel", model: Sequential, n_samples: int,
        batch_size: int = 128,
    ) -> Dict[str, float]:
        """Speedup / energy-ratio of ``self`` relative to ``other``
        (e.g. GPU vs CPU, the paper's 4.8-7.1x / 5.0-6.3x figures)."""
        mine = self.estimate(model, n_samples, batch_size)
        theirs = other.estimate(model, n_samples, batch_size)
        return {
            "speedup": theirs.execution_time_s / mine.execution_time_s,
            "energy_ratio": theirs.energy_j / mine.energy_j,
            "power_ratio": mine.power_w / theirs.power_w,
        }
