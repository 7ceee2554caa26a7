"""Unit tests for declarative topologies."""

import numpy as np
import pytest

from repro.core.topologies import (
    TopologySpec,
    activation_study_variants,
    highway_topology,
    mlp_topology,
    nmr_conv_topology,
    nmr_lstm_topology,
    resnet_topology,
    table1_topology,
)


class TestTopologySpec:
    def test_add_and_build(self):
        spec = TopologySpec("tiny").add("Dense", units=4, activation="relu").add(
            "Dense", units=2
        )
        model = spec.build((8,))
        assert model.count_params() == (8 * 4 + 4) + (4 * 2 + 2)
        assert model.name == "tiny"

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            TopologySpec("x").add("Transformer")

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            TopologySpec("x").build((4,))

    def test_build_seeded_determinism(self):
        spec = mlp_topology(3, hidden_units=(16,))
        x = np.random.default_rng(0).random((4, 10))
        np.testing.assert_array_equal(
            spec.build((10,), seed=5).predict(x), spec.build((10,), seed=5).predict(x)
        )


class TestTable1:
    def test_structure_matches_paper(self):
        model = table1_topology(14).build((1000,))
        names = [layer.name for layer in model.layers]
        assert names == [
            "Reshape", "Conv1D", "Conv1D", "Conv1D", "Conv1D", "Flatten", "Dense",
        ]
        conv_params = [
            (l.filters, l.kernel_size, l.strides)
            for l in model.layers
            if l.name == "Conv1D"
        ]
        assert conv_params == [(25, 20, 1), (25, 20, 3), (25, 15, 2), (15, 15, 4)]

    def test_default_activations(self):
        model = table1_topology(5).build((500,))
        activations = [
            l.activation.name for l in model.layers if hasattr(l, "activation")
        ]
        assert activations == ["selu", "selu", "selu", "softmax", "softmax"]

    def test_name_uses_paper_abbreviations(self):
        spec = table1_topology(5, "selu", "softmax", "linear")
        assert spec.name == "selu_sftm_lin"

    def test_output_is_simplex_with_softmax(self):
        model = table1_topology(6).build((400,))
        x = np.random.default_rng(0).random((3, 400))
        np.testing.assert_allclose(model.predict(x).sum(axis=1), 1.0, atol=1e-12)


class TestActivationStudy:
    def test_eight_variants(self):
        variants = activation_study_variants(7)
        assert len(variants) == 8
        names = [v.name for v in variants]
        assert len(set(names)) == 8
        assert "relu_sftm_sftm" in names
        assert "selu_lin_lin" in names

    def test_variant_activations_wired_through(self):
        variants = {v.name: v for v in activation_study_variants(7)}
        model = variants["relu_lin_sftm"].build((500,))
        activations = [
            l.activation.name for l in model.layers if hasattr(l, "activation")
        ]
        assert activations == ["relu", "relu", "relu", "linear", "softmax"]


class TestNMRTopologies:
    def test_conv_parameter_count_matches_paper(self):
        model = nmr_conv_topology().build((1700,))
        assert model.count_params() == 10_532

    def test_lstm_parameter_count_matches_paper(self):
        model = nmr_lstm_topology().build((5, 1700))
        assert model.count_params() == 221_956

    def test_conv_structure(self):
        model = nmr_conv_topology().build((1700,))
        local = model.layers[1]
        assert (local.filters, local.kernel_size, local.strides) == (4, 9, 9)
        assert model.layers[1].output_shape == (188, 4)


class TestPreliminaryStudyTopologies:
    @pytest.mark.parametrize(
        "factory", [mlp_topology, resnet_topology, highway_topology]
    )
    def test_builds_and_predicts(self, factory):
        model = factory(5).build((100,))
        x = np.random.default_rng(0).random((2, 100))
        assert model.predict(x).shape == (2, 5)

    def test_resnet_contains_residual_blocks(self):
        model = resnet_topology(3, width=32, depth=2).build((50,))
        assert sum(1 for l in model.layers if l.name == "ResidualDense") == 2

    def test_highway_contains_highway_blocks(self):
        model = highway_topology(3, width=32, depth=4).build((50,))
        assert sum(1 for l in model.layers if l.name == "HighwayDense") == 4

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            resnet_topology(3, depth=0)
        with pytest.raises(ValueError):
            highway_topology(3, depth=0)
