"""Verified model loading for the serving layer.

A model that reaches production traffic must come off disk through the
same verified path training uses: checksummed envelope, newest generation
that passes verification, quarantine for anything that does not.  This
module turns a :class:`~repro.reliability.checkpoint.CheckpointManager`
entry into an analyzer callable for
:class:`~repro.serving.service.AnalysisService` — never a raw
``np.load`` of unverified bytes.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.reliability.checkpoint import CheckpointManager

__all__ = ["analyzer_from_checkpoint"]


def analyzer_from_checkpoint(
    manager: CheckpointManager, name: str, seed: int = 0
) -> Tuple[Callable[[np.ndarray], np.ndarray], Optional[int]]:
    """An ``analyzer(intensities) -> estimate`` over a verified checkpoint.

    Returns ``(analyzer, expected_length)`` where ``expected_length`` is
    the model's input length (for the service's validation gate), or
    ``None`` for models with non-vector inputs.  Raises
    :class:`~repro.storage.integrity.CorruptArtifactError` only if *no*
    generation verifies (everything unreadable is quarantined, not
    deleted).
    """
    model = manager.load(name, seed=seed).model

    def analyzer(intensities) -> np.ndarray:
        batch = np.asarray(intensities, dtype=np.float64)[np.newaxis, ...]
        return model.predict(batch)[0]

    shape = model.input_shape
    expected_length = int(shape[0]) if shape is not None and len(shape) == 1 else None
    return analyzer, expected_length
