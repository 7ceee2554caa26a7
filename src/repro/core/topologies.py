"""Declarative network topologies.

The paper's Tool-4 frontend "allow[s] the definition of one or more network
topologies and the training- and validation datasets to use without
modifying the source code"; a :class:`TopologySpec` is that definition —
a named, JSON-serializable layer list that builds into a
:class:`repro.nn.Sequential`.

Factory functions provide every architecture the paper uses:

* :func:`table1_topology` — the MS CNN of Table 1, with the activation
  functions of layer 6 (last conv) and layer 8 (output) configurable,
  exactly the axes of the Fig. 5 study;
* :func:`activation_study_variants` — all eight Fig. 5 variants, named as
  the paper labels them (e.g. ``selu_sftm_sftm``);
* :func:`nmr_conv_topology` — the 10 532-parameter locally-connected NMR
  net;
* :func:`nmr_lstm_topology` — the 221 956-parameter LSTM(32) model;
* :func:`mlp_topology`, :func:`resnet_topology`, :func:`highway_topology`
  — the preliminary-study architectures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nn.layers import LAYER_REGISTRY
from repro.nn.model import Sequential

__all__ = [
    "TopologySpec",
    "table1_topology",
    "activation_study_variants",
    "nmr_conv_topology",
    "nmr_lstm_topology",
    "mlp_topology",
    "resnet_topology",
    "highway_topology",
]


@dataclass
class TopologySpec:
    """A named, serializable network architecture."""

    name: str
    layers: List[Dict] = field(default_factory=list)
    description: str = ""

    def add(self, layer_class: str, **config) -> "TopologySpec":
        if layer_class not in LAYER_REGISTRY:
            raise ValueError(
                f"unknown layer class {layer_class!r}; "
                f"known: {sorted(LAYER_REGISTRY)}"
            )
        self.layers.append({"class": layer_class, "config": dict(config)})
        return self

    def build(self, input_shape: Tuple[int, ...], seed: Optional[int] = 0) -> Sequential:
        """Instantiate and build the model for ``input_shape``."""
        if not self.layers:
            raise ValueError(f"topology {self.name!r} has no layers")
        model = Sequential(name=self.name)
        for entry in self.layers:
            model.add(LAYER_REGISTRY[entry["class"]](**entry["config"]))
        model.build(input_shape, seed=seed)
        return model

    def __len__(self) -> int:
        return len(self.layers)


def table1_topology(
    n_outputs: int,
    hidden_activation: str = "selu",
    conv6_activation: str = "softmax",
    output_activation: str = "softmax",
    name: Optional[str] = None,
) -> TopologySpec:
    """The paper's Table-1 MS network.

    Layers (input and reshape implicit in our framework's build step):
    Conv1D(25, k20, s1) / Conv1D(25, k20, s3) / Conv1D(25, k15, s2) with the
    hidden activation, Conv1D(15, k15, s4) with ``conv6_activation``,
    Flatten, Dense(n_outputs) with ``output_activation``.
    """
    if name is None:
        short = {"softmax": "sftm", "linear": "lin"}
        name = (
            f"{hidden_activation}_{short.get(conv6_activation, conv6_activation)}"
            f"_{short.get(output_activation, output_activation)}"
        )
    spec = TopologySpec(name, description="Table 1 MS CNN")
    spec.add("Reshape", target_shape=[-1, 1])
    spec.add("Conv1D", filters=25, kernel_size=20, strides=1, activation=hidden_activation)
    spec.add("Conv1D", filters=25, kernel_size=20, strides=3, activation=hidden_activation)
    spec.add("Conv1D", filters=25, kernel_size=15, strides=2, activation=hidden_activation)
    spec.add("Conv1D", filters=15, kernel_size=15, strides=4, activation=conv6_activation)
    spec.add("Flatten")
    spec.add("Dense", units=n_outputs, activation=output_activation)
    return spec


def activation_study_variants(n_outputs: int) -> List[TopologySpec]:
    """The eight Fig. 5 networks: {relu,selu} x {sftm,lin} x {sftm,lin}.

    Order matches the paper's figure axis: for each hidden activation, the
    (layer-6, layer-8) combinations sftm/sftm, sftm/lin, lin/sftm, lin/lin.
    """
    variants = []
    for hidden in ("relu", "selu"):
        for conv6 in ("softmax", "linear"):
            for output in ("softmax", "linear"):
                variants.append(
                    table1_topology(
                        n_outputs,
                        hidden_activation=hidden,
                        conv6_activation=conv6,
                        output_activation=output,
                    )
                )
    return variants


def nmr_conv_topology(n_outputs: int = 4) -> TopologySpec:
    """The paper's NMR model: one locally-connected conv layer (4 filters,
    kernel and stride 9), flatten, dense output — 10 532 parameters on the
    1700-point axis."""
    spec = TopologySpec("nmr_conv", description="locally connected NMR CNN")
    spec.add("Reshape", target_shape=[-1, 1])
    spec.add("LocallyConnected1D", filters=4, kernel_size=9, strides=9)
    spec.add("Flatten")
    spec.add("Dense", units=n_outputs, activation="linear")
    return spec


def nmr_lstm_topology(n_outputs: int = 4, units: int = 32) -> TopologySpec:
    """The paper's LSTM model: LSTM(32) over a window of raw spectra plus a
    dense head — 221 956 parameters for 1700-point spectra."""
    spec = TopologySpec(f"nmr_lstm{units}", description="NMR time-series LSTM")
    spec.add("LSTM", units=units)
    spec.add("Dense", units=n_outputs, activation="linear")
    return spec


def mlp_topology(
    n_outputs: int,
    hidden_units: Sequence[int] = (256, 128),
    activation: str = "relu",
    output_activation: str = "softmax",
) -> TopologySpec:
    """A plain MLP (preliminary-study baseline)."""
    spec = TopologySpec(
        f"mlp_{'x'.join(str(u) for u in hidden_units)}",
        description="preliminary-study MLP",
    )
    for units in hidden_units:
        spec.add("Dense", units=units, activation=activation)
    spec.add("Dense", units=n_outputs, activation=output_activation)
    return spec


def resnet_topology(
    n_outputs: int,
    width: int = 128,
    depth: int = 3,
    activation: str = "relu",
    output_activation: str = "softmax",
) -> TopologySpec:
    """A ResNet-style stack of identity-skip dense blocks."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spec = TopologySpec(f"resnet_{width}x{depth}", description="preliminary-study ResNet")
    spec.add("Dense", units=width, activation=activation)
    for _ in range(depth):
        spec.add("ResidualDense", activation=activation)
    spec.add("Dense", units=n_outputs, activation=output_activation)
    return spec


def highway_topology(
    n_outputs: int,
    width: int = 128,
    depth: int = 3,
    activation: str = "relu",
    output_activation: str = "softmax",
) -> TopologySpec:
    """A Highway-network stack (the paper's ref [13])."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    spec = TopologySpec(f"highway_{width}x{depth}", description="preliminary-study Highway net")
    spec.add("Dense", units=width, activation=activation)
    for _ in range(depth):
        spec.add("HighwayDense", activation=activation)
    spec.add("Dense", units=n_outputs, activation=output_activation)
    return spec
