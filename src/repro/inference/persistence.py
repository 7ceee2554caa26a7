"""Plan persistence: frozen plans ship like model files.

A frozen plan is a deployment artifact — it leaves the training machine
and lands on a serving host or an embedded target, so it travels inside
the same checksummed ``REPROENV`` envelope every other durable artifact
in this repo uses (:mod:`repro.storage.integrity`): magic, format
version, payload length, SHA-256, written atomically with fsync.  A
flipped bit in a weight tensor is a silent accuracy bug at best; the
envelope turns it into a loud :class:`CorruptArtifactError` at load.

The payload is a :func:`~repro.storage.integrity.write_archive` archive:
a ``meta`` JSON document with the plan topology (format
``PLAN_FORMAT_VERSION``; each windowed op's kernel and stride are two
integers there) plus one array entry per weight tensor.  Loading
rebuilds every op through ``FusedOp``, so a meta whose geometry does not
fit its shapes, or a plan of another format, is a
:class:`CorruptArtifactError` rather than a plan.  int8 plans persist
the *quantized* payload (int8 weights + scales, biases in float32) and
rebuild the float32 execution weights at load — that is the 4x
weight-size saving the paper's embedded story is about, carried all the
way to the artifact on disk.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

import numpy as np

from repro.storage.integrity import (
    CorruptArtifactError,
    read_archive,
    write_archive,
)
from repro.inference.plan import PLAN_FORMAT_VERSION, FusedOp, InferencePlan

__all__ = ["save_plan", "load_plan", "inspect_plan", "verify_plan"]

# Tensors persisted per op, keyed as op{index:03d}_{field}.
_FLOAT32_FIELDS = ("weight", "bias")
_INT8_FIELDS = ("qweight", "qscale", "bias")


def _op_key(index: int, field: str) -> str:
    return f"op{index:03d}_{field}"


def save_plan(
    plan: InferencePlan, path: Union[str, os.PathLike], fsync: bool = True
) -> str:
    """Atomically publish ``plan`` as a checksummed envelope at ``path``."""
    arrays: Dict[str, np.ndarray] = {}
    fields = _INT8_FIELDS if plan.dtype == "int8" else _FLOAT32_FIELDS
    for index, op in enumerate(plan.ops):
        for field in fields:
            value = getattr(op, field)
            if value is not None:
                arrays[_op_key(index, field)] = value
    meta = {
        "format": PLAN_FORMAT_VERSION,
        "name": plan.name,
        "dtype": plan.dtype,
        "per_channel": plan.per_channel,
        "input_shape": list(plan.input_shape),
        "output_shape": list(plan.output_shape),
        "contract_mae": float(plan.contract),
        "calibration": dict(plan.calibration) if plan.calibration else None,
        "source_layers": list(plan.source_layers),
        "ops": [op.meta() for op in plan.ops],
    }
    write_archive(path, arrays, {"meta": meta}, fsync=fsync)
    return os.fspath(path)


def _load_payload(path: Union[str, os.PathLike]):
    """Verified tensors + plan meta; typed errors on any damage."""
    arrays, docs = read_archive(path)
    meta = docs.get("meta", {})
    if meta.get("format") != PLAN_FORMAT_VERSION:
        raise CorruptArtifactError(
            f"plan format {meta.get('format')!r} in {os.fspath(path)} "
            f"(this build reads version {PLAN_FORMAT_VERSION})"
        )
    return arrays, meta


def load_plan(path: Union[str, os.PathLike]) -> InferencePlan:
    """Load a plan envelope, rebuilding float32 execution weights.

    Raises :class:`~repro.storage.integrity.CorruptArtifactError` if the
    envelope, the archive payload, or the plan structure is damaged.
    """
    arrays, meta = _load_payload(path)
    dtype = meta["dtype"]
    ops = []
    try:
        for index, op_meta in enumerate(meta["ops"]):
            def take(field: str) -> Optional[np.ndarray]:
                return arrays.get(_op_key(index, field))

            qweight, qscale = take("qweight"), take("qscale")
            if dtype == "int8":
                weight = None
                if qweight is not None:
                    weight = (
                        qweight.astype(np.float64) * qscale
                    ).astype(np.float32)
            else:
                weight = take("weight")
            ops.append(
                FusedOp(
                    kind=op_meta["kind"],
                    name=op_meta["name"],
                    in_shape=tuple(op_meta["in_shape"]),
                    out_shape=tuple(op_meta["out_shape"]),
                    activation=op_meta["activation"],
                    weight=weight,
                    bias=take("bias"),
                    kernel=int(op_meta["kernel"]),
                    stride=int(op_meta["stride"]),
                    pad=tuple(op_meta["pad"]),
                    flops=int(op_meta["flops"]),
                    param_bytes=int(op_meta["param_bytes"]),
                    activation_bytes=int(op_meta["activation_bytes"]),
                    qweight=qweight,
                    qscale=qscale,
                )
            )
        return InferencePlan(
            name=meta["name"],
            dtype=dtype,
            input_shape=tuple(meta["input_shape"]),
            output_shape=tuple(meta["output_shape"]),
            ops=tuple(ops),
            contract=float(meta["contract_mae"]),
            per_channel=bool(meta["per_channel"]),
            calibration=meta.get("calibration"),
            source_layers=tuple(meta.get("source_layers", ())),
        )
    except (IndexError, KeyError, TypeError, ValueError) as error:
        raise CorruptArtifactError(
            f"plan structure damaged in {os.fspath(path)}: {error}"
        ) from None


def inspect_plan(path: Union[str, os.PathLike]) -> Dict[str, object]:
    """Summarize a plan envelope without rebuilding execution weights."""
    arrays, meta = _load_payload(path)
    tensor_bytes = sum(int(array.nbytes) for array in arrays.values())
    return {
        "path": os.fspath(path),
        "name": meta["name"],
        "dtype": meta["dtype"],
        "per_channel": meta["per_channel"],
        "format": meta["format"],
        "input_shape": meta["input_shape"],
        "output_shape": meta["output_shape"],
        "contract_mae": meta["contract_mae"],
        "calibration": meta.get("calibration"),
        "fused_op_count": sum(
            1 for op in meta["ops"] if op["kind"] != "view"
        ),
        "ops": meta["ops"],
        "tensor_bytes": tensor_bytes,
        "file_bytes": os.path.getsize(path),
    }


def verify_plan(path: Union[str, os.PathLike]) -> Dict[str, object]:
    """Full integrity check: envelope checksum + structural rebuild.

    Returns a small report on success; raises the typed storage error on
    any damage (the CLI maps that to a non-zero exit).
    """
    plan = load_plan(path)
    return {
        "path": os.fspath(path),
        "name": plan.name,
        "dtype": plan.dtype,
        "fused_op_count": plan.fused_op_count,
        "weight_bytes": plan.weight_bytes,
        "contract_mae": plan.contract,
        "ok": True,
    }
