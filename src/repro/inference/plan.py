"""Plan compilation: ``freeze()`` walks a built model into an ``InferencePlan``.

The paper's embedded-inference argument (§IV) is that the speed lives in
"tailor[ing] the processing elements to specific operations and number
formats".  Training-oriented ``Sequential.forward`` does the opposite: it
runs float64, allocates fresh activations per layer, re-derives nothing,
and caches everything ``backward`` might want.  Freezing throws all of
that away once, ahead of time:

* every weight is cast to the inference number format (float32 by
  default; optionally symmetric int8 with per-tensor or per-channel
  scales from :mod:`repro.embedded.quantization`, dequantized to float32
  execution weights exactly once at compile time);
* conv/dense + bias + activation collapse into one fused op — a
  standalone :class:`~repro.nn.layers.core.ActivationLayer` behind a
  linear conv/dense folds into it, and runs of ``Reshape``/``Flatten``
  collapse into a single zero-cost view;
* every windowed op records its kernel and stride, and refuses at
  construction any pair that does not make exactly its output length
  of windows inside its (padded) input, so a malformed plan cannot
  exist, whether it comes from ``freeze`` or from disk.

The result is an *immutable* :class:`InferencePlan` — every array is
marked read-only — that :class:`~repro.inference.engine.InferenceEngine`
executes with preallocated scratch, and that ships to disk through the
checksummed envelope in :mod:`repro.inference.persistence`.

Accuracy is a contract, not a hope: each plan pins the maximum tolerated
mean-absolute delta against the float64 reference forward pass for its
dtype (``DEFAULT_CONTRACTS``), optionally measured on calibration data at
freeze time, and :meth:`InferenceEngine.ensure_accuracy` raises
:class:`AccuracyContractError` when a plan drifts past its pin.

This subsystem is a leaf over :mod:`repro.nn`, :mod:`repro.embedded` and
:mod:`repro.storage`; serving reaches *down* into it, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedded.quantization import quantize_tensor
from repro.nn.flops import layer_flops
from repro.nn.layers import (
    ActivationLayer,
    AvgPool1D,
    Conv1D,
    Dense,
    Flatten,
    GlobalAvgPool1D,
    LocallyConnected1D,
    MaxPool1D,
    Reshape,
)

__all__ = [
    "PLAN_FORMAT_VERSION",
    "DEFAULT_CONTRACTS",
    "UnsupportedLayerError",
    "AccuracyContractError",
    "FusedOp",
    "InferencePlan",
    "freeze",
]

PLAN_FORMAT_VERSION = 2

# Pinned per-dtype accuracy budget: the maximum tolerated mean-absolute
# delta of plan output vs the float64 layer-by-layer reference.  These
# are the regression bounds the parity tests assert against.
DEFAULT_CONTRACTS = {"float32": 1e-5, "int8": 2e-2}

_SUPPORTED_DTYPES = ("float32", "int8")

# Kinds that produce values (and therefore can absorb a trailing
# standalone activation into their epilogue).
_FUSABLE_KINDS = ("dense", "conv1d", "local1d")

# Kinds that gather kernel-wide windows every stride rows.
_WINDOWED_KINDS = ("conv1d", "local1d", "maxpool", "avgpool")


class UnsupportedLayerError(ValueError):
    """The model contains a layer the plan compiler cannot freeze.

    Callers that wire freezing into serving treat this as "fall back to
    the reference float64 path", never as a hard failure.
    """

    def __init__(self, layer_name: str, position: int):
        super().__init__(
            f"layer {position} ({layer_name}) has no fused inference kernel; "
            "serve this model through the reference path"
        )
        self.layer_name = layer_name
        self.position = position


class AccuracyContractError(RuntimeError):
    """A frozen plan's output drifted past its pinned accuracy budget."""


def _readonly(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if array is None:
        return None
    array = np.ascontiguousarray(array)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class FusedOp:
    """One compiled inference step.

    ``kind`` is one of ``view`` (reshape/flatten, zero-cost),
    ``dense``/``conv1d``/``local1d`` (matmul + bias + activation in one
    step), ``maxpool``/``avgpool``/``gap`` (windowed reductions) or
    ``activation`` (a standalone nonlinearity that could not be folded
    into a producer).  Shapes exclude the batch axis.  ``weight`` is the
    float32 *execution* weight; on int8 plans ``qweight``/``qscale``
    carry the quantized payload it was dequantized from (what persists
    to disk and what the cost model charges for memory traffic).
    Windowed kinds gather ``kernel`` rows every ``stride`` rows of the
    input padded by ``pad``; other kinds leave both at 0.

    Raises ``ValueError`` if a windowed op's geometry does not yield
    exactly ``out_shape[0]`` windows inside its padded input.
    """

    kind: str
    name: str
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    activation: str = "linear"
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    kernel: int = 0
    stride: int = 0
    pad: Tuple[int, int] = (0, 0)
    flops: int = 0
    param_bytes: int = 0
    activation_bytes: int = 0
    qweight: Optional[np.ndarray] = None
    qscale: Optional[np.ndarray] = None

    def __post_init__(self):
        for attr in ("weight", "bias", "qweight", "qscale"):
            object.__setattr__(self, attr, _readonly(getattr(self, attr)))
        object.__setattr__(self, "in_shape", tuple(int(d) for d in self.in_shape))
        object.__setattr__(self, "out_shape", tuple(int(d) for d in self.out_shape))
        object.__setattr__(self, "pad", tuple(int(p) for p in self.pad))
        object.__setattr__(self, "kernel", int(self.kernel))
        object.__setattr__(self, "stride", int(self.stride))
        if self.kind in _WINDOWED_KINDS:
            length = self.in_shape[0] + self.pad[0] + self.pad[1]
            out_length = self.out_shape[0]
            if (
                not 1 <= self.kernel <= length
                or self.stride < 1
                or (length - self.kernel) // self.stride + 1 != out_length
            ):
                raise ValueError(
                    f"{self.name}: kernel {self.kernel}, stride {self.stride} "
                    f"do not make {out_length} windows over {length} rows"
                )

    @property
    def is_view(self) -> bool:
        return self.kind == "view"

    def meta(self) -> Dict[str, object]:
        """JSON-serializable description (arrays excluded)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "in_shape": list(self.in_shape),
            "out_shape": list(self.out_shape),
            "activation": self.activation,
            "kernel": self.kernel,
            "stride": self.stride,
            "pad": list(self.pad),
            "flops": int(self.flops),
            "param_bytes": int(self.param_bytes),
            "activation_bytes": int(self.activation_bytes),
        }


@dataclass(frozen=True, eq=False)
class InferencePlan:
    """An immutable, topologically ordered fused-op program.

    Execution belongs to :class:`~repro.inference.engine.InferenceEngine`;
    the plan itself is pure data — which is what lets it persist through
    the checksummed envelope and feed the embedded cost model without
    ever touching the training stack.
    """

    name: str
    dtype: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    ops: Tuple[FusedOp, ...]
    contract: float
    per_channel: bool = False
    calibration: Optional[Dict[str, float]] = None
    source_layers: Tuple[str, ...] = ()
    version: int = PLAN_FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(
            self, "input_shape", tuple(int(d) for d in self.input_shape)
        )
        object.__setattr__(
            self, "output_shape", tuple(int(d) for d in self.output_shape)
        )
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "source_layers", tuple(self.source_layers))

    # -- accounting --------------------------------------------------------

    @property
    def fused_op_count(self) -> int:
        """Ops that launch work at run time (views are free)."""
        return sum(1 for op in self.ops if not op.is_view)

    @property
    def total_flops(self) -> int:
        return sum(op.flops for op in self.ops)

    @property
    def weight_bytes(self) -> int:
        """Bytes of weights the plan's number format moves from memory."""
        return sum(op.param_bytes for op in self.ops)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly introspection record (CLI ``freeze --inspect``)."""
        return {
            "name": self.name,
            "dtype": self.dtype,
            "per_channel": self.per_channel,
            "version": self.version,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "ops": [op.meta() for op in self.ops],
            "fused_op_count": self.fused_op_count,
            "source_layer_count": len(self.source_layers),
            "total_flops": int(self.total_flops),
            "weight_bytes": int(self.weight_bytes),
            "contract_mae": float(self.contract),
            "calibration": dict(self.calibration) if self.calibration else None,
        }

    def describe(self) -> str:
        """A printable per-op table, ``Sequential.summary`` flavoured."""
        lines = [
            f"InferencePlan: {self.name} [{self.dtype}"
            + (", per-channel" if self.per_channel else "")
            + "]",
            "-" * 66,
            f"{'Op':<30}{'Output shape':<18}{'FLOPs':>10}{'W bytes':>8}",
            "-" * 66,
        ]
        for op in self.ops:
            lines.append(
                f"{op.name:<30}{str(op.out_shape):<18}"
                f"{op.flops:>10,}{op.param_bytes:>8,}"
            )
        lines.append("-" * 66)
        lines.append(
            f"{self.fused_op_count} fused ops from {len(self.source_layers)} "
            f"layers | {self.total_flops:,} FLOPs | "
            f"{self.weight_bytes:,} weight bytes | "
            f"contract MAE <= {self.contract:g}"
        )
        return "\n".join(lines)


# -- freezing ----------------------------------------------------------------

def _prepare_weight(
    weight: np.ndarray, dtype: str, per_channel: bool
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], int]:
    """Cast one weight tensor into the plan's number format.

    Returns ``(execution float32, int8 payload, scales, param_bytes)``;
    the int8 payload/scales are ``None`` on float32 plans.  Quantized
    weights are dequantized to float32 exactly once, here — run time
    never pays for it.
    """
    if dtype == "float32":
        return weight.astype(np.float32), None, None, 4 * weight.size
    quantized, scale = quantize_tensor(weight, per_channel=per_channel)
    scale_arr = np.atleast_1d(np.asarray(scale, dtype=np.float64))
    execution = (quantized.astype(np.float64) * scale).astype(np.float32)
    param_bytes = quantized.size + 4 * scale_arr.size
    return execution, quantized, scale_arr, param_bytes


def _fold_view(ops: List[FusedOp], in_shape, out_shape, name: str) -> None:
    """Append a view op, collapsing a run of views into one."""
    if ops and ops[-1].is_view:
        previous = ops.pop()
        in_shape = previous.in_shape
        name = f"{previous.name}+{name}"
    ops.append(
        FusedOp(kind="view", name=name, in_shape=in_shape, out_shape=out_shape)
    )


def _try_fold_activation(ops: List[FusedOp], layer, cost) -> bool:
    """Fold a standalone ActivationLayer into the producing fused op."""
    if not ops:
        return False
    producer = ops[-1]
    if producer.kind not in _FUSABLE_KINDS or producer.activation != "linear":
        return False
    ops[-1] = replace(
        producer,
        name=f"{producer.name}+{layer.activation.name}",
        activation=layer.activation.name,
        flops=producer.flops + cost.flops,
    )
    return True


def freeze(
    model,
    dtype: str = "float32",
    per_channel: bool = False,
    calibration: Optional[np.ndarray] = None,
    contract: Optional[float] = None,
) -> InferencePlan:
    """Compile a built :class:`~repro.nn.model.Sequential` into a plan.

    ``dtype`` selects the weight number format (``"float32"`` or
    ``"int8"``); ``per_channel`` chooses per-output-channel int8 scales
    over the default per-tensor scale.  ``calibration`` — an optional
    ``(n, *input_shape)`` batch — measures the frozen-vs-reference delta
    at freeze time and records it on the plan.  ``contract`` overrides
    the pinned per-dtype accuracy budget (``DEFAULT_CONTRACTS``).

    Raises :class:`UnsupportedLayerError` on the first layer with no
    fused kernel (LSTM, the composite research blocks);
    callers wiring this into serving catch it and fall back to the
    reference path.
    """
    if dtype not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"dtype must be one of {_SUPPORTED_DTYPES}, got {dtype!r}"
        )
    if not getattr(model, "built", False):
        raise ValueError("model must be built before freezing")

    ops: List[FusedOp] = []
    source_layers: List[str] = []
    shape = tuple(model.input_shape)
    for position, layer in enumerate(model.layers):
        source_layers.append(layer.name)
        out_shape = tuple(layer.output_shape)
        cost = layer_flops(layer)
        if isinstance(layer, (Reshape, Flatten)):
            _fold_view(ops, shape, out_shape, layer.name)
        elif isinstance(layer, ActivationLayer):
            if not _try_fold_activation(ops, layer, cost):
                ops.append(
                    FusedOp(
                        kind="activation",
                        name=layer.activation.name,
                        in_shape=shape,
                        out_shape=out_shape,
                        activation=layer.activation.name,
                        flops=cost.flops,
                        activation_bytes=cost.activation_bytes,
                    )
                )
        elif isinstance(layer, Dense):
            weight, qweight, qscale, wbytes = _prepare_weight(
                layer.params["W"], dtype, per_channel
            )
            bias = (
                layer.params["b"].astype(np.float32)
                if layer.use_bias else None
            )
            ops.append(
                FusedOp(
                    kind="dense",
                    name=f"Dense+bias+{layer.activation.name}"
                    if layer.use_bias else f"Dense+{layer.activation.name}",
                    in_shape=shape,
                    out_shape=out_shape,
                    activation=layer.activation.name,
                    weight=weight,
                    bias=bias,
                    flops=cost.flops,
                    param_bytes=wbytes + (4 * bias.size if bias is not None else 0),
                    activation_bytes=cost.activation_bytes,
                    qweight=qweight,
                    qscale=qscale,
                )
            )
        elif isinstance(layer, (Conv1D, LocallyConnected1D)):
            kind = "conv1d" if isinstance(layer, Conv1D) else "local1d"
            raw = layer.params["W"]
            if kind == "conv1d":
                # (K, C, F) -> (K*C, F): the exact GEMM operand layout.
                raw = raw.reshape(-1, raw.shape[-1])
            weight, qweight, qscale, wbytes = _prepare_weight(
                raw, dtype, per_channel
            )
            bias = (
                layer.params["b"].astype(np.float32)
                if layer.use_bias else None
            )
            ops.append(
                FusedOp(
                    kind=kind,
                    name=f"{layer.name}+bias+{layer.activation.name}"
                    if layer.use_bias
                    else f"{layer.name}+{layer.activation.name}",
                    in_shape=shape,
                    out_shape=out_shape,
                    activation=layer.activation.name,
                    weight=weight,
                    bias=bias,
                    kernel=layer.kernel_size,
                    stride=layer.strides,
                    pad=layer._pad,
                    flops=cost.flops,
                    param_bytes=wbytes + (4 * bias.size if bias is not None else 0),
                    activation_bytes=cost.activation_bytes,
                    qweight=qweight,
                    qscale=qscale,
                )
            )
        elif isinstance(layer, (MaxPool1D, AvgPool1D)):
            ops.append(
                FusedOp(
                    kind="maxpool" if isinstance(layer, MaxPool1D) else "avgpool",
                    name=layer.name,
                    in_shape=shape,
                    out_shape=out_shape,
                    kernel=layer.pool_size,
                    stride=layer.strides,
                    flops=cost.flops,
                    activation_bytes=cost.activation_bytes,
                )
            )
        elif isinstance(layer, GlobalAvgPool1D):
            ops.append(
                FusedOp(
                    kind="gap",
                    name=layer.name,
                    in_shape=shape,
                    out_shape=out_shape,
                    flops=cost.flops,
                    activation_bytes=cost.activation_bytes,
                )
            )
        else:
            raise UnsupportedLayerError(layer.name, position)
        shape = out_shape

    plan = InferencePlan(
        name=getattr(model, "name", "model"),
        dtype=dtype,
        input_shape=tuple(model.input_shape),
        output_shape=shape,
        ops=tuple(ops),
        contract=float(
            contract if contract is not None else DEFAULT_CONTRACTS[dtype]
        ),
        per_channel=bool(per_channel) if dtype == "int8" else False,
        calibration=None,
        source_layers=tuple(source_layers),
    )
    if calibration is not None:
        from repro.inference.engine import InferenceEngine  # lazy: no cycle

        report = InferenceEngine(plan).verify_against(model, calibration)
        object.__setattr__(
            plan,
            "calibration",
            {key: report[key] for key in ("n_samples", "mae_delta", "max_abs_delta")},
        )
    return plan
