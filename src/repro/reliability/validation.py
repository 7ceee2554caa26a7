"""Input validation gates with a structured error taxonomy.

NaNs are contagious: one dead detector channel that slips past ingestion
shows up minutes later as a non-finite MAE, a runaway controller, or a
checkpoint full of NaN weights — far from where it entered.  The gates in
this module are applied at the trust boundaries (``Sequential.predict``,
:class:`~repro.core.pipeline.MSToolchain` ingestion, the
:class:`~repro.serving.service.AnalysisService` admission gate) so garbage
is rejected *at the boundary* with a :class:`ValidationError` subclass
that names exactly what was wrong, instead of propagating silently into
downstream numerics.

This module deliberately imports nothing but NumPy, so every layer of the
codebase (including :mod:`repro.nn`, which otherwise depends only on
NumPy/SciPy) may call into it without creating an import cycle.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ValidationError",
    "ShapeError",
    "DtypeError",
    "NonFiniteError",
    "MonotonicityError",
    "RangeError",
    "ensure_array",
    "ensure_shape",
    "ensure_finite",
    "ensure_monotonic",
    "ensure_range",
    "validate_spectrum",
    "validate_batch",
]


class ValidationError(ValueError):
    """Base class: input rejected at a validation gate.

    ``field`` names the offending input; ``detail`` carries machine-readable
    diagnostics (offending indices, expected vs actual shapes, ...).
    """

    def __init__(self, message: str, *, field: str = "input",
                 detail: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.field = str(field)
        self.detail: Dict[str, object] = dict(detail or {})

    def __str__(self) -> str:
        return f"{self.field}: {super().__str__()}"


class ShapeError(ValidationError):
    """Wrong dimensionality or axis length."""


class DtypeError(ValidationError):
    """Data is not numeric / not castable to float64."""


class NonFiniteError(ValidationError):
    """NaN or infinity where finite values are required."""


class MonotonicityError(ValidationError):
    """An axis (m/z, chemical shift, time) is not strictly increasing."""


class RangeError(ValidationError):
    """Values outside the permitted closed interval."""


def ensure_array(data, *, field: str = "input") -> np.ndarray:
    """Coerce to a float64 array; :class:`DtypeError` if not numeric."""
    try:
        array = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise DtypeError(
            f"not castable to float64 ({error})",
            field=field,
            detail={"dtype": str(getattr(data, "dtype", type(data).__name__))},
        ) from None
    if array.dtype.kind not in "fiub":
        raise DtypeError(
            f"expected numeric data, got dtype {array.dtype}",
            field=field, detail={"dtype": str(array.dtype)},
        )
    return array


def ensure_shape(
    array: np.ndarray,
    *,
    ndim: Optional[int] = None,
    shape: Optional[Sequence[Optional[int]]] = None,
    field: str = "input",
) -> np.ndarray:
    """Check dimensionality and per-axis lengths (``None`` = any length)."""
    if ndim is not None and array.ndim != ndim:
        raise ShapeError(
            f"expected a {ndim}-D array, got shape {array.shape}",
            field=field, detail={"ndim": array.ndim, "shape": array.shape},
        )
    if shape is not None:
        expected = tuple(shape)
        if array.ndim != len(expected) or any(
            want is not None and have != want
            for have, want in zip(array.shape, expected)
        ):
            raise ShapeError(
                f"expected shape {tuple('*' if d is None else d for d in expected)}, "
                f"got {array.shape}",
                field=field,
                detail={"expected": expected, "shape": array.shape},
            )
    return array


def ensure_finite(array: np.ndarray, *, field: str = "input") -> np.ndarray:
    """Every element finite; :class:`NonFiniteError` names the bad channels."""
    finite = np.isfinite(array)
    if not finite.all():
        bad = np.argwhere(~finite)
        raise NonFiniteError(
            f"{bad.shape[0]} non-finite value(s), first at index "
            f"{tuple(int(i) for i in bad[0])}",
            field=field,
            detail={
                "count": int(bad.shape[0]),
                "first_index": tuple(int(i) for i in bad[0]),
            },
        )
    return array


def ensure_monotonic(axis: np.ndarray, *, field: str = "axis") -> np.ndarray:
    """Axis values strictly increasing (no duplicated or shuffled channels)."""
    axis = ensure_array(axis, field=field)
    if axis.ndim != 1:
        raise ShapeError(
            f"axis must be 1-D, got shape {axis.shape}", field=field,
            detail={"shape": axis.shape},
        )
    if axis.size >= 2:
        steps = np.diff(axis)
        if not (steps > 0).all():
            first = int(np.argmax(steps <= 0))
            raise MonotonicityError(
                f"axis not strictly increasing at index {first} "
                f"({axis[first]!r} -> {axis[first + 1]!r})",
                field=field, detail={"index": first},
            )
    return axis


def ensure_range(
    array: np.ndarray,
    *,
    min_value: Optional[float] = None,
    max_value: Optional[float] = None,
    field: str = "input",
) -> np.ndarray:
    """Values within the closed interval [min_value, max_value]."""
    if min_value is not None and bool(np.any(array < min_value)):
        worst = float(np.min(array))
        raise RangeError(
            f"value {worst} below minimum {min_value}",
            field=field, detail={"min": worst, "allowed_min": min_value},
        )
    if max_value is not None and bool(np.any(array > max_value)):
        worst = float(np.max(array))
        raise RangeError(
            f"value {worst} above maximum {max_value}",
            field=field, detail={"max": worst, "allowed_max": max_value},
        )
    return array


def validate_spectrum(
    data,
    *,
    length: Optional[int] = None,
    axis: Optional[np.ndarray] = None,
    min_value: Optional[float] = None,
    max_value: Optional[float] = None,
    field: str = "spectrum",
) -> np.ndarray:
    """Full gate for one spectrum: numeric, 1-D, finite, in range.

    ``data`` may be a raw array or any object with an ``intensities``
    attribute (:class:`~repro.ms.spectrum.MassSpectrum`, NMR spectra).
    ``axis``, if given, is additionally checked for strict monotonicity and
    for matching the spectrum length.  Returns the validated float64 array.
    """
    if hasattr(data, "intensities"):
        data = data.intensities
    array = ensure_array(data, field=field)
    ensure_shape(array, ndim=1, field=field)
    if length is not None and array.size != length:
        raise ShapeError(
            f"expected {length} channels, got {array.size}",
            field=field, detail={"expected": length, "size": array.size},
        )
    if axis is not None:
        axis = ensure_monotonic(axis, field=f"{field}.axis")
        if axis.size != array.size:
            raise ShapeError(
                f"axis has {axis.size} points but spectrum has {array.size}",
                field=field,
                detail={"axis_size": int(axis.size), "size": array.size},
            )
    ensure_finite(array, field=field)
    ensure_range(array, min_value=min_value, max_value=max_value, field=field)
    return array


def validate_batch(
    data,
    *,
    feature_shape: Optional[Tuple[int, ...]] = None,
    field: str = "x",
) -> np.ndarray:
    """Gate for a batch of inputs: numeric, finite, trailing dims match.

    ``feature_shape`` is the per-sample shape (``model.input_shape``);
    the batch axis may have any length, including zero.
    """
    array = ensure_array(data, field=field)
    if feature_shape is not None:
        expected = (None,) + tuple(int(d) for d in feature_shape)
        ensure_shape(array, shape=expected, field=field)
    ensure_finite(array, field=field)
    return array
