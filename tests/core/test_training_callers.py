"""The bytes every training caller produces, pinned.

``MSToolchain.train_network``, campaign cells, drift-matrix models,
ensemble members, ``repro train`` and ``TrainingService`` all train through
:func:`~repro.core.training_service.train_cell`.  These SHA-256 digests
were captured before they did (numpy 2.4, OpenBLAS, x86-64), so a change
to how any caller builds, compiles or fits moves a digest here.

Host condition: every digest below holds both at OpenBLAS's default
thread count and with ``OPENBLAS_NUM_THREADS=1``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.adaptation.matrix import _train_model
from repro.cli import main
from repro.core.datasets import SpectraDataset
from repro.core.pipeline import MSToolchain
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, TrainingService
from repro.orchestration.campaign import run_campaign_cell
from repro.uncertainty.predictors import _train_member_weights
from tests.compute.test_cell_pins import CAMPAIGN, ENSEMBLE, MATRIX


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            for array in part:
                digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()


def _dataset(n=160, length=24, outputs=3):
    rng = np.random.default_rng(5)
    x = rng.random((n, length))
    y = rng.dirichlet(np.ones(outputs), size=n)
    return SpectraDataset(x, y, ("N2", "O2", "Ar"))


PINS = {
    "train_network": (
        "d651d8a87d26ed551f6e250afb8bbf78853e7ea491588b75a3b6186eb01bcaf8"
    ),
    "campaign_cell": (
        "114ca4c867aeba90a8d959e00f69d397d6c936f5f2aa571549f1ea927006dcb0"
    ),
    "matrix_model": (
        "52b5cdb20f06fa880591d5deb0229e5d0b1de91fe25d34483f309a018e1e9404"
    ),
    "ensemble_member": (
        "4747f8adaa5df60fb5eb48f8ef3cf8b4a321e2b04e59d40600666e28823a16dd"
    ),
    "cli_train": (
        "c90d47bf0cc95175a4b012c7ec07b262c06ce0f7e4e501c3f53ba64efbee6659"
    ),
    "training_service": (
        "13e7d737c8242da9f45282da72362abcead8c40ec43c6755c7fc5e493bf685ee"
    ),
}


def test_train_network():
    toolchain = MSToolchain(("N2", "O2", "Ar"))
    model, _history, validation_mae, _ = toolchain.train_network(
        _dataset(), mlp_topology(3, hidden_units=(16,)), epochs=12,
        batch_size=32, seed=3, patience=2,
    )
    assert _digest(model.get_weights(), float(validation_mae)) == (
        PINS["train_network"]
    )


def test_campaign_cell():
    row = run_campaign_cell({"spec": CAMPAIGN, "cell": CAMPAIGN.cells()[1]})
    assert _digest(row) == PINS["campaign_cell"]


def test_matrix_model():
    model = _train_model(MATRIX, None, None)
    assert _digest(model.get_weights()) == PINS["matrix_model"]


def test_ensemble_member():
    assert _digest(_train_member_weights(ENSEMBLE, 1)) == (
        PINS["ensemble_member"]
    )


def test_cli_train(tmp_path):
    data, out = tmp_path / "ms.npz", tmp_path / "model.npz"
    assert main([
        "ms-generate", "--compounds", "N2,O2,Ar", "--n", "120",
        "--mz-step", "0.5", "--out", str(data),
    ]) == 0
    assert main([
        "train", "--data", str(data), "--topology", "mlp", "--epochs", "3",
        "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS["cli_train"]


def test_training_service():
    service = TrainingService(TrainingConfig())
    (run,) = service.train_all(
        [mlp_topology(3, hidden_units=(16,))], _dataset()
    )
    optimizer = run.model.optimizer
    slots = optimizer.get_state()["slots"]
    assert _digest(
        run.model.get_weights(),
        [slots[name][key] for name in sorted(slots) for key in sorted(slots[name])],
        optimizer.get_config(), optimizer.iterations, run.metrics,
        run.epochs_run,
    ) == PINS["training_service"]
