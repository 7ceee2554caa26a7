"""Pinned seeds and cache keys of the seeded cells.

Campaign cells, drift-matrix cells/models and ensemble members are pure
functions of their canonical configs: every random stream comes from
:func:`~repro.compute.cache.derived_seed` and every cached result lives
under a :func:`~repro.compute.cache.canonical_key`, as does every
``TrainingService`` run.  The values below are
pure SHA-256 hashes of canonical JSON, so they do not depend on host,
BLAS or numpy version.  If one moves, every existing cache misses and
every result is drawn from a different stream: bump
``CACHE_FORMAT_VERSION`` deliberately instead.
"""

import dataclasses
import hashlib

import pytest

from repro.adaptation.matrix import MatrixSpec, model_config
from repro.adaptation.matrix import cell_config as matrix_cell_config
from repro.adaptation.scenarios import DriftScenario
from repro.compute.cache import (
    CACHE_FORMAT_VERSION,
    canonical_key,
    derived_seed,
)
from repro.compute.datasets import ms_dataset_config
from repro.core.topologies import mlp_topology
from repro.core.training_service import TrainingConfig, training_run_config
from repro.ms.simulator import MassSpectrometerSimulator
from repro.orchestration.campaign import (
    CampaignSpec,
    cell_config,
    eval_dataset_seed,
    train_dataset_seed,
)
from repro.uncertainty.predictors import EnsembleSpec, member_config

MATRIX = MatrixSpec(
    compounds=("H2", "CH4"),
    n_train=250,
    n_small=48,
    n_eval=64,
    epochs=2,
    fine_tune_epochs=2,
    hidden_units=(12,),
)
SCENARIO = DriftScenario(name="pin", sensitivity_drift=0.2)
ENSEMBLE = EnsembleSpec(
    compounds=("H2", "N2"),
    axis=(1.0, 50.0, 0.5),
    n_train=64,
    epochs=1,
    hidden_units=(8,),
    n_members=2,
    batch_size=32,
    seed=7,
)
CAMPAIGN = CampaignSpec(
    compounds=("N2", "O2"),
    activations=(("relu", "softmax"), ("selu", "softmax")),
    sample_sizes=(64, 128),
    topologies=((8,),),
    n_eval=32,
    epochs=2,
)

MODEL_CONFIG = model_config(MATRIX, None)
MATRIX_CELL_CONFIG = matrix_cell_config(MATRIX, SCENARIO, "fine_tune")
MEMBER_CONFIG = member_config(ENSEMBLE, 1)


def _campaign_dataset_config(n, seed):
    simulator = MassSpectrometerSimulator.from_spec(
        CAMPAIGN.axis, CAMPAIGN.characteristics
    )
    return ms_dataset_config(simulator, list(CAMPAIGN.compounds), n, seed)


SEEDS = {
    "train": ((MODEL_CONFIG,), 90277457),
    "eval": ((MATRIX, SCENARIO), 1681096591),
    "small": ((MATRIX, SCENARIO), 1764004405),
    "reference": ((MATRIX,), 1398114028),
    "member": ((MEMBER_CONFIG,), 1910644088),
    "dataset": ((MEMBER_CONFIG,), 916555613),
    "campaign_train": ((CAMPAIGN.dataset_surface(), {"n": 64}), 1307886257),
    "campaign_eval": ((CAMPAIGN.dataset_surface(),), 1641877141),
}

KEYS = {
    "drift_matrix_model": (
        MODEL_CONFIG,
        "f2b5907b124c4ca0384ab7496f68c1b82f50a9b7157c6c0c7401dd2f877d9150",
    ),
    "drift_matrix_member_model": (
        model_config(
            dataclasses.replace(
                MATRIX, ensemble_member_scenarios=(SCENARIO,)
            ),
            SCENARIO,
        ),
        "7213794d437befd7d61771313d3d1d04af0931c167c0e3fe616d159bafbfffc9",
    ),
    "campaign": (
        {"kind": "campaign", "spec": CAMPAIGN},
        "5f0caddbaccbe0a1fd76fd4d482675edacfe19f1506bea76b8f88edd8ff85740",
    ),
    "drift_matrix_cell": (
        MATRIX_CELL_CONFIG,
        "577944281d029647baf18dc034c7b58dd20443d550c3943c2e37ae71022cb375",
    ),
    "uncertainty_ensemble_member": (
        MEMBER_CONFIG,
        "cffb169a437877fe55868542912c3b29231416ff63763e4ead1acebcb70e1285",
    ),
    "campaign_cell": (
        cell_config(CAMPAIGN, CAMPAIGN.cells()[1]),
        "78e639d20a60361b402d2bde1a1cf50a7fcc217c381916627a89d95309b834f9",
    ),
    "ms_dataset_train": (
        _campaign_dataset_config(64, SEEDS["campaign_train"][1]),
        "b67dc3e8da8b9a7928d1a412b866e12e3c6809e2269f8b0a16bc988524fb9b83",
    ),
    "ms_dataset_eval": (
        _campaign_dataset_config(CAMPAIGN.n_eval, SEEDS["campaign_eval"][1]),
        "a2a10ac6f40542294bbdfa691ba8d3f5b239a1478fb4899105e7c3d661ba279d",
    ),
    "training_run": (
        training_run_config(
            TrainingConfig(),
            hashlib.sha256(b"").hexdigest(),
            mlp_topology(2, hidden_units=(8,)),
        ),
        "eeb3dc2e26cc8c85a1f4cc483775695c05b0d9c9cc942f010a86dc586bc524f1",
    ),
}


def test_cache_format_version():
    assert CACHE_FORMAT_VERSION == 1


@pytest.mark.parametrize("tag", sorted(SEEDS))
def test_seed_per_tag(tag):
    configs, expected = SEEDS[tag]
    assert derived_seed(tag, *configs) == expected


def test_campaign_dataset_seeds_use_the_pinned_tags():
    assert train_dataset_seed(CAMPAIGN, 64) == SEEDS["campaign_train"][1]
    assert eval_dataset_seed(CAMPAIGN) == SEEDS["campaign_eval"][1]
    assert CAMPAIGN.campaign_key() == KEYS["campaign"][1]


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_canonical_key(kind):
    config, expected = KEYS[kind]
    assert canonical_key(config) == expected
