"""Embedded-platform performance/energy model (Table 2 substitute).

The paper measures inference of the trained MS network on NVIDIA Jetson
Nano and Jetson TX2 boards, on both their CPUs and GPUs (Table 2).  Without
the hardware, we substitute an analytical roofline-style cost model driven
by the *actual* per-layer FLOP/byte counts of the built network
(:mod:`repro.nn.flops`) and platform parameter sets calibrated from the
boards' public specifications.  The model reproduces the shape of Table 2:
GPUs ~5-7x faster and ~5-6x more energy-efficient than the CPUs at similar
~5 W power, and performance scaling with CUDA-core count.

The deployed form of a model is its frozen
:class:`~repro.inference.plan.InferencePlan`: :func:`export_for_embedded`
writes the float32 plan and a manifest priced from its fused ops, and
:func:`~repro.embedded.quantization.quantize_tensor` is the int8
quantizer ``freeze(dtype="int8")`` compiles with.
"""

from repro.embedded.platforms import (
    JETSON_NANO_CPU,
    JETSON_NANO_GPU,
    JETSON_TX2_CPU,
    JETSON_TX2_GPU,
    PlatformSpec,
    TABLE2_PLATFORMS,
)
from repro.embedded.cost_model import CostEstimate, InferenceCostModel
from repro.embedded.deployment import export_for_embedded
from repro.embedded.overlays import (
    FGPU_SOFT_GPU,
    FGPU_SPECIALIZED,
    OverlaySpec,
    VCGRA_OVERLAY,
    ZYNQ_ARM_A9,
    estimate_overlay_speedup,
)

__all__ = [
    "CostEstimate",
    "FGPU_SOFT_GPU",
    "FGPU_SPECIALIZED",
    "InferenceCostModel",
    "OverlaySpec",
    "VCGRA_OVERLAY",
    "ZYNQ_ARM_A9",
    "estimate_overlay_speedup",
    "JETSON_NANO_CPU",
    "JETSON_NANO_GPU",
    "JETSON_TX2_CPU",
    "JETSON_TX2_GPU",
    "PlatformSpec",
    "TABLE2_PLATFORMS",
    "export_for_embedded",
]
