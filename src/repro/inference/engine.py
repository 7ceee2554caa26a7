"""Plan execution with preallocated scratch: the ``InferenceEngine``.

The reference ``Sequential.forward`` allocates every intermediate fresh
on every call and computes in float64.  For the Table-1 CNN that is tens
of megabytes of im2col buffers malloc'd, filled, and discarded per
batch.  The engine executes an :class:`~repro.inference.plan.InferencePlan`
the way an embedded runtime would:

* **one workspace** — the first call walks the plan and binds each fused
  op to preallocated float32 scratch buffers and an execution closure,
  sized for its batch rounded up to a power of two; a later, larger
  batch drops that workspace and compiles one at its own power of two;
* **allocate nothing afterwards** — every kernel writes through ``out=``
  /in-place ufuncs into that scratch (the im2col gather copies a strided
  window view, one GEMM per conv/dense, fused bias-add + activation
  epilogues), so a steady-state ``predict`` performs zero array
  allocations beyond the float64 result it hands back;
* **slice, don't recompile** — a batch of ``n`` runs on ``[:n]`` views
  of the capacity-``c`` scratch (first-axis slices stay C-contiguous),
  so ragged serving drains of 1..32 rows share one workspace instead of
  compiling 32.

``stats()`` exposes the allocation counters the parity tests pin
("second call allocates nothing new"), and ``ensure_accuracy`` enforces
the plan's pinned MAE contract against the float64 reference model.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.activations import _SELU_ALPHA as SELU_ALPHA
from repro.nn.activations import _SELU_SCALE as SELU_SCALE
from repro.inference.plan import AccuracyContractError, InferencePlan
from repro.nn.layers.windows import im2col

__all__ = ["InferenceEngine"]

_Step = Callable[[int], None]


class _Workspace:
    """Compiled steps + scratch for one batch capacity."""

    __slots__ = ("capacity", "xin", "result", "steps", "nbytes")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.xin: Optional[np.ndarray] = None
        self.result: Optional[np.ndarray] = None
        self.steps: List[_Step] = []
        self.nbytes = 0


class InferenceEngine:
    """Executes one :class:`InferencePlan` in one reusable workspace.

    The workspace holds the largest batch seen so far, rounded up to a
    power of two; smaller batches run in its leading rows.  ``predict``
    is thread-safe: calls share the scratch, so they run one at a time.
    """

    def __init__(self, plan: InferencePlan):
        self.plan = plan
        self._workspace: Optional[_Workspace] = None
        # Serving workers share one engine; two calls writing the same
        # scratch at once would hand each other's rows back.
        self._lock = threading.Lock()
        self._scratch_allocations = 0
        self._predict_calls = 0

    # -- scratch accounting ------------------------------------------------

    def _alloc(self, ws: _Workspace, shape: Tuple[int, ...]) -> np.ndarray:
        """Allocate one zeroed ``(capacity, *shape)`` float32 buffer.

        Zero-filled so padded conv edges and never-written tail rows
        (beyond the live ``[:n]`` slice) hold defined values.
        """
        buffer = np.zeros((ws.capacity,) + shape, dtype=np.float32)
        self._scratch_allocations += 1
        ws.nbytes += buffer.nbytes
        return buffer

    # -- compilation -------------------------------------------------------

    def _compile_activation(
        self, name: str, ws: _Workspace, target: np.ndarray
    ) -> Optional[_Step]:
        """Bind an in-place activation epilogue over ``target[:n]``."""
        if name == "linear":
            return None
        if name == "relu":
            def step(n: int, z=target) -> None:
                v = z[:n]
                np.maximum(v, 0.0, out=v)
            return step
        if name == "tanh":
            def step(n: int, z=target) -> None:
                v = z[:n]
                np.tanh(v, out=v)
            return step
        if name == "sigmoid":
            # sigmoid(x) = 0.5 * (tanh(x / 2) + 1), all in place.
            def step(n: int, z=target) -> None:
                v = z[:n]
                v *= 0.5
                np.tanh(v, out=v)
                v += 1.0
                v *= 0.5
            return step
        sample_shape = target.shape[1:]
        if name == "selu":
            t = self._alloc(ws, sample_shape)
            def step(n: int, z=target, t=t) -> None:
                v, u = z[:n], t[:n]
                np.minimum(v, 0.0, out=u)
                np.expm1(u, out=u)
                u *= SELU_ALPHA
                np.maximum(v, 0.0, out=v)
                v += u
                v *= SELU_SCALE
            return step
        if name == "softmax":
            r = self._alloc(ws, sample_shape[:-1] + (1,))
            def step(n: int, z=target, r=r) -> None:
                v, m = z[:n], r[:n]
                np.max(v, axis=-1, keepdims=True, out=m)
                v -= m
                np.exp(v, out=v)
                np.sum(v, axis=-1, keepdims=True, out=m)
                v /= m
            return step
        raise ValueError(f"no in-place kernel for activation {name!r}")

    def _compile(self, capacity: int) -> _Workspace:
        """Walk the plan once, binding scratch and kernels for ``capacity``."""
        plan = self.plan
        ws = _Workspace(capacity)
        ws.xin = self._alloc(ws, plan.input_shape)
        current = ws.xin  # full-capacity buffer holding the live value

        for op in plan.ops:
            if op.kind == "view":
                # Reshape of a contiguous buffer: zero-cost, no kernel.
                current = current.reshape((capacity,) + op.out_shape)
                continue

            if op.kind == "activation":
                step = self._compile_activation(op.activation, ws, current)
                if step is not None:
                    ws.steps.append(step)
                continue

            if op.kind == "dense":
                features = op.in_shape[-1]
                units = op.out_shape[-1]
                z = self._alloc(ws, op.out_shape)
                def step(n: int, x=current, z=z, W=op.weight, b=op.bias,
                         f=features, u=units) -> None:
                    a = x[:n].reshape(-1, f)
                    out = z[:n].reshape(-1, u)
                    np.matmul(a, W, out=out)
                    if b is not None:
                        out += b
                ws.steps.append(step)

            elif op.kind == "conv1d":
                length, channels = op.in_shape
                out_length, filters = op.out_shape
                source = current
                if op.pad != (0, 0):
                    lo, hi = op.pad
                    padded = self._alloc(ws, (length + lo + hi, channels))
                    def pad_step(n: int, x=current, p=padded, lo=lo,
                                 L=length) -> None:
                        p[:n, lo:lo + L, :] = x[:n]
                    ws.steps.append(pad_step)
                    source = padded
                cols = self._alloc(ws, (out_length, op.kernel, channels))
                z = self._alloc(ws, op.out_shape)
                def step(n: int, x=source, cols=cols, z=z, W=op.weight,
                         b=op.bias, k=op.kernel, s=op.stride, oL=out_length,
                         kc=op.kernel * channels, F=filters) -> None:
                    im2col(x[:n], k, s, out=cols[:n])
                    a = cols[:n].reshape(n * oL, kc)
                    out = z[:n].reshape(n * oL, F)
                    np.matmul(a, W, out=out)
                    if b is not None:
                        z[:n] += b
                ws.steps.append(step)

            elif op.kind == "local1d":
                channels = op.in_shape[1]
                out_length = op.out_shape[0]
                cols = self._alloc(ws, (out_length, op.kernel, channels))
                z = self._alloc(ws, op.out_shape)
                def step(n: int, x=current, cols=cols, z=z, W=op.weight,
                         b=op.bias, k=op.kernel, s=op.stride, oL=out_length,
                         kc=op.kernel * channels) -> None:
                    im2col(x[:n], k, s, out=cols[:n])
                    flat = cols[:n].reshape(n, oL, kc)
                    np.einsum("nlk,lkf->nlf", flat, W, out=z[:n])
                    if b is not None:
                        z[:n] += b
                ws.steps.append(step)

            elif op.kind in ("maxpool", "avgpool"):
                out_length, channels = op.out_shape
                win = self._alloc(ws, (out_length, op.kernel, channels))
                z = self._alloc(ws, op.out_shape)
                reducer = np.max if op.kind == "maxpool" else np.mean
                def step(n: int, x=current, win=win, z=z, k=op.kernel,
                         s=op.stride, reduce=reducer) -> None:
                    im2col(x[:n], k, s, out=win[:n])
                    reduce(win[:n], axis=2, out=z[:n])
                ws.steps.append(step)

            elif op.kind == "gap":
                z = self._alloc(ws, op.out_shape)
                def step(n: int, x=current, z=z) -> None:
                    np.mean(x[:n], axis=1, out=z[:n])
                ws.steps.append(step)

            else:  # pragma: no cover - freeze() only emits known kinds
                raise ValueError(f"unknown fused op kind {op.kind!r}")

            current = z
            if op.kind in ("dense", "conv1d", "local1d"):
                epilogue = self._compile_activation(op.activation, ws, z)
                if epilogue is not None:
                    ws.steps.append(epilogue)

        ws.result = current.reshape((capacity,) + plan.output_shape)
        return ws

    def _workspace_for(self, n: int) -> _Workspace:
        """The workspace, recompiled at the next power of two if ``n`` outgrows it."""
        if self._workspace is None or n > self._workspace.capacity:
            self._workspace = None  # free the old scratch before allocating
            self._workspace = self._compile(1 << (n - 1).bit_length())
        return self._workspace

    # -- execution ---------------------------------------------------------

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Run the plan; returns a fresh float64 ``(n, *output_shape)``.

        Inputs are chunked at ``batch_size`` like ``Sequential.predict``;
        each chunk executes entirely inside preallocated scratch.  The
        returned array is the only allocation a warm call performs.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.plan.input_shape:
            raise ValueError(
                f"expected input shape (n, {', '.join(map(str, self.plan.input_shape))}), "
                f"got {x.shape}"
            )
        total = x.shape[0]
        out = np.empty((total,) + self.plan.output_shape, dtype=np.float64)
        with self._lock:
            self._predict_calls += 1
            for start in range(0, total, batch_size):
                stop = min(start + batch_size, total)
                n = stop - start
                workspace = self._workspace_for(n)
                workspace.xin[:n] = x[start:stop]  # float64 -> float32 cast
                for step in workspace.steps:
                    step(n)
                out[start:stop] = workspace.result[:n]  # float32 -> float64
        return out

    # -- introspection and contracts ---------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters; ``scratch_allocations`` counts every compile so far."""
        workspace = self._workspace
        return {
            "plan": self.plan.name,
            "dtype": self.plan.dtype,
            "predict_calls": self._predict_calls,
            "capacity": workspace.capacity if workspace else 0,
            "scratch_allocations": self._scratch_allocations,
            "scratch_bytes": workspace.nbytes if workspace else 0,
        }

    def verify_against(self, model, x: np.ndarray) -> Dict[str, float]:
        """Measure frozen-vs-reference deltas on a batch."""
        x = np.asarray(x, dtype=np.float64)
        reference = model.predict(x, validate=False)
        delta = np.abs(self.predict(x) - reference)
        return {
            "n_samples": int(x.shape[0]),
            "mae_delta": float(delta.mean()) if delta.size else 0.0,
            "max_abs_delta": float(delta.max()) if delta.size else 0.0,
            "contract_mae": float(self.plan.contract),
        }

    def ensure_accuracy(self, model, x: np.ndarray) -> Dict[str, float]:
        """Enforce the plan's pinned accuracy contract; raise on drift."""
        report = self.verify_against(model, x)
        if report["mae_delta"] > self.plan.contract:
            raise AccuracyContractError(
                f"plan {self.plan.name!r} [{self.plan.dtype}] drifted: "
                f"MAE delta {report['mae_delta']:.3e} exceeds pinned "
                f"contract {self.plan.contract:.3e}"
            )
        return report
