"""Unit tests for the campaign spec, cells and report aggregation."""

import dataclasses
import json
import pickle

import pytest

from repro.compute.cache import canonical_blob
from repro.orchestration import CampaignReport, CampaignSpec


def _spec(**overrides):
    defaults = dict(
        compounds=("N2", "O2"),
        activations=(("relu", "softmax"), ("selu", "linear")),
        sample_sizes=(64, 128),
        topologies=((8,), (16, 8)),
        n_eval=32,
        epochs=2,
        seed=3,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _row(cell, mae):
    return {
        "cell_id": cell.cell_id,
        "activation": cell.activation,
        "output_activation": cell.output_activation,
        "n_train": cell.n_train,
        "hidden_units": list(cell.hidden_units),
        "mae": mae,
        "mse": mae ** 2,
    }


class TestSpec:
    def test_config_round_trip(self):
        # Payloads pickle the spec itself; its canonical form is asdict.
        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert canonical_blob(spec) == canonical_blob(dataclasses.asdict(spec))

    def test_campaign_key_is_content_addressed(self):
        assert _spec().campaign_key() == _spec().campaign_key()
        assert _spec().campaign_key() != _spec(seed=4).campaign_key()

    def test_cells_enumerate_full_grid_in_canonical_order(self):
        cells = _spec().cells()
        assert len(cells) == 2 * 2 * 2
        assert cells[0].cell_id == "relu-softmax/n64/h8"
        assert cells[1].cell_id == "relu-softmax/n64/h16x8"
        assert cells[-1].cell_id == "selu-linear/n128/h16x8"

    def test_dataset_surface_excludes_grid_axes(self):
        # Adding a topology must not re-seed the shared datasets.
        wider = _spec(topologies=((8,), (16, 8), (32,)))
        assert wider.dataset_surface() == _spec().dataset_surface()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"compounds": ()},
            {"activations": ()},
            {"activations": (("relu",),)},
            {"sample_sizes": (0,)},
            {"topologies": ((),)},
            {"topologies": ((0,),)},
            {"n_eval": 0},
            {"epochs": 0},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", float("nan"), "learning_rate must be positive and finite"),
            ("epochs", 2.5, "epochs must be a whole number"),
            ("batch_size", 1.5, "batch_size must be a whole number"),
        ],
    )
    def test_bad_training_values_refused_at_construction(
        self, field, value, message
    ):
        # Refused here, not later inside a worker's training task.
        with pytest.raises(ValueError, match=message):
            _spec(**{field: value})

    @pytest.mark.parametrize(
        "pair", [("foo", "softmax"), ("relu", "bogus"), ("relu", 3)]
    )
    def test_unknown_activation_rejected_naming_the_entry(self, pair):
        with pytest.raises(ValueError, match="activations entry") as info:
            _spec(activations=(("relu", "softmax"), pair))
        assert repr(pair) in str(info.value)

    @pytest.mark.parametrize(
        "overrides, axis, value",
        [
            ({"activations": (("relu", "softmax"),) * 2},
             "activations", ("relu", "softmax")),
            ({"sample_sizes": (64, 128, 64)}, "sample_sizes", 64),
            ({"topologies": ((8,), (16, 8), (8,))}, "topologies", (8,)),
        ],
    )
    def test_repeated_grid_values_rejected(self, overrides, axis, value):
        # A repeated value would plan cells sharing one id and cache key.
        with pytest.raises(ValueError, match=f"^{axis} repeats") as info:
            _spec(**overrides)
        assert repr(value) in str(info.value)

    def test_activation_aliases_accepted_as_given(self):
        spec = _spec(activations=(("RELU", "sftm"), ("selu", "lin")))
        # The spec keeps the strings it was given: they are its key.
        assert spec.activations == (("RELU", "sftm"), ("selu", "lin"))
        assert spec.cells()[0].cell_id.startswith("RELU-sftm/")


class TestReport:
    def test_from_rows_strips_run_variant_fields_and_sorts(self):
        spec = _spec()
        cells = spec.cells()
        rows = [
            {**_row(cell, 0.1 * (i + 1)), "cache_hit": bool(i % 2),
             "cache_key": f"k{i}"}
            for i, cell in enumerate(reversed(cells))
        ]
        report = CampaignReport.from_rows(spec, rows)
        assert [row["cell_id"] for row in report.rows] == [
            cell.cell_id for cell in cells
        ]
        assert all("cache_hit" not in row for row in report.rows)
        assert all("cache_key" not in row for row in report.rows)

    def test_payload_is_byte_stable_under_row_order(self):
        spec = _spec()
        rows = [_row(cell, 0.2) for cell in spec.cells()]
        forward = CampaignReport.from_rows(spec, rows)
        backward = CampaignReport.from_rows(spec, list(reversed(rows)))
        assert (
            json.dumps(forward.to_payload(), sort_keys=True)
            == json.dumps(backward.to_payload(), sort_keys=True)
        )

    def test_accuracy_vs_samples_averages_over_topologies(self):
        spec = _spec()
        rows = []
        for cell in spec.cells():
            mae = 0.1 if cell.topology_id == "8" else 0.3
            rows.append(_row(cell, mae))
        report = CampaignReport.from_rows(spec, rows)
        surface = report.accuracy_vs_samples()
        assert set(surface) == {"relu-softmax", "selu-linear"}
        for row in surface.values():
            assert row == pytest.approx([0.2, 0.2])

    def test_topology_surface_averages_over_activations(self):
        spec = _spec()
        rows = []
        for cell in spec.cells():
            mae = 0.1 if cell.activation == "relu" else 0.5
            rows.append(_row(cell, mae))
        surface = CampaignReport.from_rows(spec, rows).topology_surface()
        assert set(surface) == {"8", "16x8"}
        for row in surface.values():
            assert row == pytest.approx([0.3, 0.3])

    def test_missing_cells_render_as_none(self):
        spec = _spec()
        rows = [_row(spec.cells()[0], 0.15)]
        surface = CampaignReport.from_rows(spec, rows).accuracy_vs_samples()
        assert surface["relu-softmax"] == [pytest.approx(0.15), None]

    def test_best_cell(self):
        spec = _spec()
        rows = [
            _row(cell, 0.5 - 0.01 * i) for i, cell in enumerate(spec.cells())
        ]
        report = CampaignReport.from_rows(spec, rows)
        assert report.best_cell()["cell_id"] == spec.cells()[-1].cell_id

    def test_best_cell_requires_rows(self):
        with pytest.raises(ValueError, match="no completed cells"):
            CampaignReport.from_rows(_spec(), []).best_cell()
